//! A SASE+-style declarative pattern specification language (PSL).
//!
//! The paper's future-work section calls for "a PSL for Big Data and the
//! IoT combined with a parser that automatically transforms declarative
//! patterns into their respective execution pipeline"; this module is that
//! front end. The grammar follows the paper's Listing 1:
//!
//! ```text
//! PATTERN <structure>
//! [WHERE <predicate> (AND <predicate>)*]
//! WITHIN <n> <unit> [SLIDE <n> <unit>]
//! [RETURN *]
//! ```
//!
//! Structures: `SEQ(Q q, V v, …)`, `AND(…)`, `OR(…)`, `ITER(V v, 5)`,
//! Kleene+ `ITER(V v, 5+)`, negation `SEQ(Q a, NOT V n, PM b)`, and
//! arbitrary nesting of `SEQ`/`AND`/`OR`. Predicates compare
//! `var.attr` with another `var.attr` or a numeric literal using
//! `< <= > >= == !=`.

use std::fmt;

use asp::event::{Attr, TypeRegistry};
use asp::time::Duration;

use crate::pattern::{Leaf, Pattern, PatternError, PatternExpr, WindowSpec};
use crate::predicate::{CmpOp, Expr, Predicate};

/// A parse or semantic error with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<PatternError> for ParseError {
    fn from(e: PatternError) -> Self {
        ParseError(e.to_string())
    }
}

/// Parse a pattern specification, interning event-type names into `types`.
pub fn parse(input: &str, types: &mut TypeRegistry) -> Result<Pattern, ParseError> {
    Parser::new(input, types)?.pattern()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Cmp(CmpOp),
    LParen,
    RParen,
    Comma,
    Dot,
    Plus,
    Star,
}

fn lex(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let b = input.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '<' | '>' | '=' | '!' => {
                // `get` rather than slicing: the byte after the operator may
                // start a multi-byte character (`<π`), which is not a char
                // boundary. Byte `i` itself is ASCII, so `i..i + 1` is safe.
                if let Some(op) = input.get(i..i + 2).and_then(CmpOp::parse) {
                    toks.push(Tok::Cmp(op));
                    i += 2;
                } else if let Some(op) = CmpOp::parse(&input[i..i + 1]) {
                    toks.push(Tok::Cmp(op));
                    i += 1;
                } else {
                    return Err(ParseError(format!(
                        "unexpected character `{c}` at byte {i}"
                    )));
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    // A digit followed by '.' then non-digit is `N .attr`? —
                    // numbers here are plain literals; `var.attr` always
                    // starts with a letter, so consuming '.' is safe.
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{text}`")))?;
                toks.push(Tok::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Ident(input[start..i].to_string()));
            }
            _ => {
                // Every byte consumed so far was ASCII, so `i` is a char
                // boundary: report the whole (possibly multi-byte) char.
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(ParseError(format!(
                    "unexpected character `{other}` at byte {i}"
                )));
            }
        }
    }
    Ok(toks)
}

/// Raw `WHERE` term before variable resolution.
struct RawPredicate {
    lhs: RawOperand,
    op: CmpOp,
    rhs: RawOperand,
}

enum RawOperand {
    Var(String, Attr),
    Const(f64),
}

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    types: &'a mut TypeRegistry,
}

impl<'a> Parser<'a> {
    fn new(input: &str, types: &'a mut TypeRegistry) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            types,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(ParseError(format!("expected {want:?}, got {got:?}")))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(ParseError(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError(format!("expected identifier, got {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.next()? {
            Tok::Number(n) => Ok(n),
            other => Err(ParseError(format!("expected number, got {other:?}"))),
        }
    }

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        self.keyword("PATTERN")?;
        let mut expr = self.expr()?;
        let raw_preds = if self.at_keyword("WHERE") {
            self.keyword("WHERE")?;
            self.where_clause()?
        } else {
            Vec::new()
        };
        self.keyword("WITHIN")?;
        let size = self.duration()?;
        if size.millis() <= 0 {
            return Err(ParseError("WITHIN must be a positive duration".into()));
        }
        let slide = if self.at_keyword("SLIDE") {
            self.keyword("SLIDE")?;
            let slide = self.duration()?;
            if slide.millis() <= 0 || slide > size {
                return Err(ParseError(format!(
                    "SLIDE must be positive and no larger than WITHIN ({size})"
                )));
            }
            slide
        } else {
            // Default slide: one minute, clamped to the window size so
            // sub-minute windows stay valid.
            Duration::from_minutes(1).min(size)
        };
        if self.at_keyword("RETURN") {
            self.keyword("RETURN")?;
            // Only `RETURN *` (the default projection) is supported.
            self.expect(&Tok::Star)?;
        }
        if self.pos != self.toks.len() {
            return Err(ParseError(format!(
                "trailing input after pattern: {:?}",
                self.toks[self.pos]
            )));
        }

        // Resolve variables: assign positions, map names → vars.
        let mut expr_s = std::mem::replace(&mut expr, PatternExpr::Seq(vec![])).simplify();
        let mut next = 0;
        expr_s.assign_vars(&mut next);
        let mut names: Vec<(String, usize)> = Vec::new();
        let mut absent_names: Vec<String> = Vec::new();
        for leaf in expr_s.leaves() {
            if names.iter().any(|(n, _)| *n == leaf.var_name)
                || absent_names.contains(&leaf.var_name)
            {
                return Err(ParseError(format!(
                    "duplicate variable name `{}`",
                    leaf.var_name
                )));
            }
            if leaf.var == usize::MAX {
                absent_names.push(leaf.var_name.clone());
            } else {
                names.push((leaf.var_name.clone(), leaf.var));
            }
        }

        // Split WHERE terms: bound-variable terms become positional
        // predicates; absent-variable thresholds become leaf filters.
        let mut predicates = Vec::new();
        for rp in raw_preds {
            let to_expr = |o: &RawOperand| -> Result<Expr, ParseError> {
                match o {
                    RawOperand::Const(c) => Ok(Expr::Const(*c)),
                    RawOperand::Var(name, attr) => {
                        if let Some((_, var)) = names.iter().find(|(n, _)| n == name) {
                            Ok(Expr::Var(*var, *attr))
                        } else if absent_names.contains(name) {
                            Err(ParseError(format!(
                                "negated variable `{name}` may only appear in `{name}.attr OP constant` terms"
                            )))
                        } else {
                            Err(ParseError(format!("unknown variable `{name}`")))
                        }
                    }
                }
            };
            // Absent-leaf filter form: `n.attr OP const` or `const OP n.attr`.
            let absent_term = match (&rp.lhs, &rp.rhs) {
                (RawOperand::Var(n, a), RawOperand::Const(c)) if absent_names.contains(n) => {
                    Some((n.clone(), *a, rp.op, *c))
                }
                (RawOperand::Const(c), RawOperand::Var(n, a)) if absent_names.contains(n) => {
                    let flipped = match rp.op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => other,
                    };
                    Some((n.clone(), *a, flipped, *c))
                }
                _ => None,
            };
            if let Some((name, attr, op, c)) = absent_term {
                attach_absent_filter(&mut expr_s, &name, attr, op, c);
            } else {
                predicates.push(Predicate::new(to_expr(&rp.lhs)?, rp.op, to_expr(&rp.rhs)?));
            }
        }

        Ok(Pattern::new(
            "psl",
            expr_s,
            WindowSpec { size, slide },
            predicates,
        )?)
    }

    fn expr(&mut self) -> Result<PatternExpr, ParseError> {
        let head = self.ident()?;
        let upper = head.to_ascii_uppercase();
        match upper.as_str() {
            "SEQ" => self.seq_body(),
            "AND" | "OR" => {
                self.expect(&Tok::LParen)?;
                let mut parts = vec![self.expr()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.expect(&Tok::Comma)?;
                    parts.push(self.expr()?);
                }
                self.expect(&Tok::RParen)?;
                Ok(if upper == "AND" {
                    PatternExpr::And(parts)
                } else {
                    PatternExpr::Or(parts)
                })
            }
            "ITER" => {
                self.expect(&Tok::LParen)?;
                let leaf = self.leaf()?;
                self.expect(&Tok::Comma)?;
                let m = self.number()? as usize;
                let at_least = if self.peek() == Some(&Tok::Plus) {
                    self.expect(&Tok::Plus)?;
                    true
                } else {
                    false
                };
                self.expect(&Tok::RParen)?;
                Ok(PatternExpr::Iter { leaf, m, at_least })
            }
            "NOT" => Err(ParseError(
                "NOT is only allowed as the middle element of a ternary SEQ".into(),
            )),
            _ => {
                // `Type var` leaf: `head` is the type name.
                let var = self.ident()?;
                let etype = self.types.intern(&head);
                Ok(PatternExpr::Leaf(Leaf::new(etype, head, var)))
            }
        }
    }

    /// SEQ body; detects the ternary negated form `SEQ(a, NOT n, b)`.
    fn seq_body(&mut self) -> Result<PatternExpr, ParseError> {
        self.expect(&Tok::LParen)?;
        enum Item {
            Pos(PatternExpr),
            Neg(Leaf),
        }
        let mut items = Vec::new();
        loop {
            if self.at_keyword("NOT") {
                self.keyword("NOT")?;
                items.push(Item::Neg(self.leaf()?));
            } else {
                items.push(Item::Pos(self.expr()?));
            }
            if self.peek() == Some(&Tok::Comma) {
                self.expect(&Tok::Comma)?;
            } else {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        let has_neg = items.iter().any(|i| matches!(i, Item::Neg(_)));
        if !has_neg {
            let parts = items
                .into_iter()
                .map(|i| match i {
                    Item::Pos(p) => p,
                    Item::Neg(_) => unreachable!(),
                })
                .collect();
            return Ok(PatternExpr::Seq(parts));
        }
        // Negated sequence: exactly SEQ(leaf, NOT leaf, leaf).
        if items.len() != 3 {
            return Err(ParseError(
                "negation requires the ternary form SEQ(T1 a, NOT T2 n, T3 b)".into(),
            ));
        }
        let mut it = items.into_iter();
        let (first, absent, last) = match (it.next(), it.next(), it.next()) {
            (
                Some(Item::Pos(PatternExpr::Leaf(f))),
                Some(Item::Neg(a)),
                Some(Item::Pos(PatternExpr::Leaf(l))),
            ) => (f, a, l),
            _ => {
                return Err(ParseError(
                    "negated sequence operands must be plain `Type var` leaves".into(),
                ))
            }
        };
        Ok(PatternExpr::NegSeq {
            first,
            absent,
            last,
        })
    }

    fn leaf(&mut self) -> Result<Leaf, ParseError> {
        let tname = self.ident()?;
        let var = self.ident()?;
        let etype = self.types.intern(&tname);
        Ok(Leaf::new(etype, tname, var))
    }

    fn where_clause(&mut self) -> Result<Vec<RawPredicate>, ParseError> {
        let mut preds = vec![self.comparison()?];
        while self.at_keyword("AND") {
            self.keyword("AND")?;
            preds.push(self.comparison()?);
        }
        Ok(preds)
    }

    fn comparison(&mut self) -> Result<RawPredicate, ParseError> {
        let lhs = self.operand()?;
        let op = match self.next()? {
            Tok::Cmp(op) => op,
            other => return Err(ParseError(format!("expected comparison, got {other:?}"))),
        };
        let rhs = self.operand()?;
        Ok(RawPredicate { lhs, op, rhs })
    }

    fn operand(&mut self) -> Result<RawOperand, ParseError> {
        match self.next()? {
            Tok::Number(n) => Ok(RawOperand::Const(n)),
            Tok::Ident(name) => {
                self.expect(&Tok::Dot)?;
                let attr_name = self.ident()?;
                let attr = Attr::parse(&attr_name.to_ascii_lowercase())
                    .ok_or_else(|| ParseError(format!("unknown attribute `{attr_name}`")))?;
                Ok(RawOperand::Var(name, attr))
            }
            other => Err(ParseError(format!("expected operand, got {other:?}"))),
        }
    }

    fn duration(&mut self) -> Result<Duration, ParseError> {
        let n = self.number()?;
        let unit = self.ident()?.to_ascii_uppercase();
        let ms = match unit.as_str() {
            "MS" | "MILLISECOND" | "MILLISECONDS" => 1.0,
            "SECOND" | "SECONDS" | "SEC" | "S" => 1_000.0,
            "MINUTE" | "MINUTES" | "MIN" | "M" => 60_000.0,
            "HOUR" | "HOURS" | "H" => 3_600_000.0,
            other => return Err(ParseError(format!("unknown time unit `{other}`"))),
        };
        Ok(Duration::from_millis((n * ms) as i64))
    }
}

fn attach_absent_filter(expr: &mut PatternExpr, name: &str, attr: Attr, op: CmpOp, c: f64) {
    match expr {
        PatternExpr::NegSeq { absent, .. } if absent.var_name == name => {
            absent
                .filters
                .push(crate::pattern::LocalFilter { attr, op, value: c });
        }
        PatternExpr::Seq(parts) | PatternExpr::And(parts) | PatternExpr::Or(parts) => {
            for p in parts {
                attach_absent_filter(p, name, attr, op, c);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternExpr;
    use asp::time::MINUTE_MS;

    fn parse_ok(s: &str) -> Pattern {
        let mut reg = TypeRegistry::new();
        parse(s, &mut reg).unwrap_or_else(|e| panic!("{e}: {s}"))
    }

    #[test]
    fn parses_paper_listing_2() {
        // The paper's running example (Listing 2).
        let p = parse_ok(
            "PATTERN SEQ(T1 e1, T2 e2, T3 e3)
             WHERE e1.value <= e2.value AND e3.value <= 10
             WITHIN 4 MINUTES",
        );
        assert!(matches!(&p.expr, PatternExpr::Seq(parts) if parts.len() == 3));
        assert_eq!(p.predicates.len(), 2);
        assert_eq!(p.window.size.millis(), 4 * MINUTE_MS);
        assert_eq!(p.window.slide.millis(), MINUTE_MS, "default slide 1min");
    }

    #[test]
    fn parses_and_or_iter() {
        let p = parse_ok("PATTERN AND(Q a, V b) WITHIN 15 MINUTES");
        assert!(matches!(&p.expr, PatternExpr::And(_)));
        let p = parse_ok("PATTERN OR(Q a, V b) WITHIN 15 MINUTES");
        assert!(matches!(&p.expr, PatternExpr::Or(_)));
        let p = parse_ok("PATTERN ITER(V v, 5) WITHIN 15 MINUTES");
        assert!(matches!(
            &p.expr,
            PatternExpr::Iter {
                m: 5,
                at_least: false,
                ..
            }
        ));
        assert_eq!(p.positions(), 5);
        let p = parse_ok("PATTERN ITER(V v, 3+) WITHIN 15 MINUTES");
        assert!(matches!(
            &p.expr,
            PatternExpr::Iter {
                m: 3,
                at_least: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_negated_sequence_with_absent_filter() {
        let p = parse_ok(
            "PATTERN SEQ(Q a, NOT V n, PM10 b)
             WHERE a.value <= b.value AND n.value > 30
             WITHIN 15 MINUTES",
        );
        match &p.expr {
            PatternExpr::NegSeq { absent, .. } => {
                assert_eq!(absent.filters.len(), 1, "n.value > 30 became a leaf filter");
                assert_eq!(absent.filters[0].value, 30.0);
            }
            other => panic!("expected NSEQ, got {other:?}"),
        }
        assert_eq!(
            p.predicates.len(),
            1,
            "only the a–b predicate is positional"
        );
    }

    #[test]
    fn nested_structures_parse() {
        let p = parse_ok("PATTERN SEQ(Q a, AND(V b, PM10 c)) WITHIN 10 MINUTES");
        assert_eq!(p.positions(), 3);
        let p = parse_ok("PATTERN OR(SEQ(Q a, V b), SEQ(PM10 c, PM25 d)) WITHIN 10 MINUTES");
        assert_eq!(p.positions(), 4);
    }

    #[test]
    fn slide_and_units() {
        let p = parse_ok("PATTERN AND(Q a, V b) WITHIN 90 SECONDS SLIDE 500 MS");
        assert_eq!(p.window.size.millis(), 90_000);
        assert_eq!(p.window.slide.millis(), 500);
        let p = parse_ok("PATTERN AND(Q a, V b) WITHIN 2 HOURS");
        assert_eq!(p.window.size.millis(), 2 * 3_600_000);
    }

    #[test]
    fn invalid_slide_is_rejected_at_parse_time() {
        let mut reg = TypeRegistry::new();
        let err = parse(
            "PATTERN SEQ(Q a, V b) WITHIN 4 MINUTES SLIDE 8 MINUTES",
            &mut reg,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("SLIDE"), "{err}");
        // Sub-minute windows clamp the default 1-minute slide instead of
        // panicking downstream.
        let p = parse("PATTERN SEQ(Q a, V b) WITHIN 30 SECONDS", &mut reg).unwrap();
        assert_eq!(p.window.slide, p.window.size);
        p.window.assigner(); // must not panic
    }

    #[test]
    fn return_star_is_accepted() {
        parse_ok("PATTERN AND(Q a, V b) WITHIN 15 MINUTES RETURN *");
    }

    #[test]
    fn equality_predicate_enables_o3() {
        let p = parse_ok("PATTERN SEQ(Q a, V b) WHERE a.id == b.id WITHIN 15 MINUTES");
        assert_eq!(p.equi_keys().len(), 1);
    }

    #[test]
    fn constant_on_left_flips_for_absent_filter() {
        let p = parse_ok("PATTERN SEQ(Q a, NOT V n, PM10 b) WHERE 30 < n.value WITHIN 15 MINUTES");
        match &p.expr {
            PatternExpr::NegSeq { absent, .. } => {
                assert_eq!(absent.filters[0].op, CmpOp::Gt);
                assert_eq!(absent.filters[0].value, 30.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_informative() {
        let mut reg = TypeRegistry::new();
        let cases = [
            ("SEQ(Q a, V b) WITHIN 4 MINUTES", "PATTERN"),
            ("PATTERN SEQ(Q a, V b)", "unexpected end of input"),
            (
                "PATTERN SEQ(Q a, V b) WITHIN 4 FORTNIGHTS",
                "unknown time unit",
            ),
            (
                "PATTERN SEQ(Q a, V a) WITHIN 4 MINUTES",
                "duplicate variable",
            ),
            (
                "PATTERN SEQ(Q a, V b) WHERE c.value < 1 WITHIN 4 MINUTES",
                "unknown variable",
            ),
            (
                "PATTERN SEQ(Q a, NOT V n, PM10 b, T4 c) WITHIN 4 MINUTES",
                "ternary",
            ),
            (
                "PATTERN SEQ(Q a, V b) WHERE a.speed < 1 WITHIN 4 MINUTES",
                "unknown attribute",
            ),
            (
                "PATTERN SEQ(Q a, NOT V n, PM10 b) WHERE n.value < a.value WITHIN 4 MINUTES",
                "negated variable",
            ),
        ];
        for (input, needle) in cases {
            let err = parse(input, &mut reg).unwrap_err().to_string();
            assert!(err.contains(needle), "input `{input}`: got `{err}`");
        }
    }

    #[test]
    fn non_ascii_after_an_operator_is_an_error_not_a_panic() {
        let mut reg = TypeRegistry::new();
        for input in [
            "PATTERN SEQ(Q a, V b) WHERE a.value <π 1 WITHIN 4 MINUTES",
            "PATTERN SEQ(Q a, V b) WHERE a.value !é 1 WITHIN 4 MINUTES",
            "PATTERN SEQ(Q a, V b) WHERE a.value =",
            "PATTERN SEQ(Q a, V b) WHERE a.value ≤ 1 WITHIN 4 MINUTES",
        ] {
            let err = parse(input, &mut reg).unwrap_err().to_string();
            assert!(!err.is_empty(), "input `{input}`");
        }
        let err = parse("PATTERN SEQ(Q a, V b) WHERE a.value ≤ 1", &mut reg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("`≤` at byte 36"), "{err}");
    }

    /// Seeded mutation fuzzing of a valid SEQ3 text: whatever the edits,
    /// `parse` returns `Ok` or a `ParseError` — it never panics.
    #[test]
    fn mutated_seq3_text_never_panics() {
        const SEQ3: &str = "PATTERN SEQ(Q a, V b, PM10 c)
             WHERE a.id == b.id AND b.id == c.id AND a.value <= 50
             WITHIN 6 MINUTES SLIDE 1 MINUTES";
        const POOL: &[char] = &[
            '<', '>', '=', '!', '(', ')', ',', '.', '+', '*', ' ', '0', '9', 'e', 'Z', '_', 'π',
            'é', '€', '≤', '😀', '\u{0}', '\n',
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| -> usize {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        };
        for _ in 0..20_000 {
            let mut chars: Vec<char> = SEQ3.chars().collect();
            for _ in 0..1 + next(4) {
                let at = next(chars.len() + 1);
                match next(3) {
                    0 => chars.insert(at, POOL[next(POOL.len())]),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ if at < chars.len() => chars[at] = POOL[next(POOL.len())],
                    _ => chars.push(POOL[next(POOL.len())]),
                }
            }
            let text: String = chars.into_iter().collect();
            let mut reg = TypeRegistry::new();
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parse(&text, &mut reg).map(|_| ())
            }));
            assert!(res.is_ok(), "parse panicked on {text:?}");
        }
    }

    #[test]
    fn type_names_are_interned_once() {
        let mut reg = TypeRegistry::new();
        let p1 = parse("PATTERN SEQ(Q a, V b) WITHIN 4 MINUTES", &mut reg).unwrap();
        let p2 = parse("PATTERN AND(V x, Q y) WITHIN 4 MINUTES", &mut reg).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(p1.expr.input_types()[1], p2.expr.input_types()[0]);
    }
}

/// Render a pattern back to PSL text that [`parse`] accepts (round-trip
/// serialization). Leaf-local filters are lifted back into `WHERE` terms.
pub fn to_psl(pattern: &Pattern) -> String {
    use std::fmt::Write;
    let mut out = String::from("PATTERN ");
    render_expr(&pattern.expr, &mut out);
    let mut terms: Vec<String> = pattern
        .predicates
        .iter()
        .map(|p| render_pred(p, pattern))
        .collect();
    for leaf in pattern.expr.leaves() {
        for f in &leaf.filters {
            terms.push(format!("{}.{} {} {}", leaf.var_name, f.attr, f.op, f.value));
        }
    }
    if !terms.is_empty() {
        let _ = write!(out, "\nWHERE {}", terms.join(" AND "));
    }
    let _ = write!(out, "\nWITHIN {} MS", pattern.window.size.millis());
    let _ = write!(out, " SLIDE {} MS", pattern.window.slide.millis());
    out
}

fn render_expr(expr: &PatternExpr, out: &mut String) {
    use std::fmt::Write;
    match expr {
        PatternExpr::Leaf(l) => {
            let _ = write!(out, "{} {}", l.type_name, l.var_name);
        }
        PatternExpr::Seq(parts) | PatternExpr::And(parts) | PatternExpr::Or(parts) => {
            let kw = match expr {
                PatternExpr::Seq(_) => "SEQ",
                PatternExpr::And(_) => "AND",
                _ => "OR",
            };
            let _ = write!(out, "{kw}(");
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(p, out);
            }
            out.push(')');
        }
        PatternExpr::Iter { leaf, m, at_least } => {
            let _ = write!(
                out,
                "ITER({} {}, {}{})",
                leaf.type_name,
                leaf.var_name,
                m,
                if *at_least { "+" } else { "" }
            );
        }
        PatternExpr::NegSeq {
            first,
            absent,
            last,
        } => {
            let _ = write!(
                out,
                "SEQ({} {}, NOT {} {}, {} {})",
                first.type_name,
                first.var_name,
                absent.type_name,
                absent.var_name,
                last.type_name,
                last.var_name
            );
        }
    }
}

fn render_pred(p: &Predicate, pattern: &Pattern) -> String {
    use crate::predicate::Expr as PExpr;
    let name_of = |v: usize| {
        pattern
            .expr
            .leaves()
            .iter()
            .find(|l| l.var == v)
            .map(|l| l.var_name.clone())
            .unwrap_or_else(|| format!("e{}", v + 1))
    };
    let side = |e: &PExpr| match e {
        PExpr::Var(v, a) => format!("{}.{}", name_of(*v), a),
        PExpr::Const(c) => format!("{c}"),
    };
    format!("{} {} {}", side(&p.lhs), p.op, side(&p.rhs))
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use crate::pattern::{builders, Leaf, WindowSpec};
    use crate::predicate::Predicate;
    use asp::event::{Attr, EventType};

    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);
    const PM: EventType = EventType(2);

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        for n in ["Q", "V", "PM10"] {
            r.intern(n);
        }
        r
    }

    fn round_trip(p: &Pattern) -> Pattern {
        let text = to_psl(p);
        let mut reg = registry();
        parse(&text, &mut reg).unwrap_or_else(|e| panic!("{e}\n--- serialized:\n{text}"))
    }

    fn pred_strings(p: &Pattern) -> Vec<String> {
        let mut v: Vec<String> = p.predicates.iter().map(|x| render_pred(x, p)).collect();
        for leaf in p.expr.leaves() {
            for f in &leaf.filters {
                v.push(format!("{}.{} {} {}", leaf.var_name, f.attr, f.op, f.value));
            }
        }
        v.sort();
        v
    }

    fn assert_round_trips(p: &Pattern) {
        let q = round_trip(p);
        assert_eq!(p.window, q.window, "window survives");
        assert_eq!(p.positions(), q.positions(), "positions survive");
        assert_eq!(pred_strings(p), pred_strings(&q), "predicates survive");
        // Idempotence: serializing the re-parse yields identical text.
        assert_eq!(to_psl(p), to_psl(&q));
    }

    #[test]
    fn seq_with_predicates_round_trips() {
        assert_round_trips(&builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM10")],
            WindowSpec::minutes(15),
            vec![
                Predicate::cross(0, Attr::Value, crate::predicate::CmpOp::Le, 1, Attr::Value),
                Predicate::threshold(2, Attr::Value, crate::predicate::CmpOp::Le, 10.0),
                Predicate::same_id(0, 1),
            ],
        ));
    }

    #[test]
    fn and_or_round_trip() {
        assert_round_trips(&builders::and(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(3),
            vec![],
        ));
        assert_round_trips(&builders::or(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(3)));
    }

    #[test]
    fn iter_and_kleene_round_trip() {
        assert_round_trips(&builders::iter(V, "V", 4, WindowSpec::minutes(9), vec![]));
        assert_round_trips(&builders::kleene_plus(V, "V", 3, WindowSpec::minutes(9)));
    }

    #[test]
    fn nseq_with_absent_filter_round_trips() {
        assert_round_trips(&builders::nseq(
            (Q, "Q"),
            Leaf::new(V, "V", "n").with_filter(Attr::Value, crate::predicate::CmpOp::Gt, 30.0),
            (PM, "PM10"),
            WindowSpec::minutes(7),
            vec![],
        ));
    }

    #[test]
    fn custom_slide_round_trips() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(8).with_slide(asp::time::Duration::from_millis(30_000)),
            vec![],
        );
        assert_round_trips(&p);
    }

    #[test]
    fn nested_structures_round_trip() {
        use crate::pattern::Pattern as P;
        let expr = PatternExpr::Seq(vec![
            PatternExpr::Leaf(Leaf::new(Q, "Q", "a")),
            PatternExpr::And(vec![
                PatternExpr::Leaf(Leaf::new(V, "V", "b")),
                PatternExpr::Leaf(Leaf::new(PM, "PM10", "c")),
            ]),
        ]);
        assert_round_trips(&P::new("n", expr, WindowSpec::minutes(5), vec![]).unwrap());
    }
}
