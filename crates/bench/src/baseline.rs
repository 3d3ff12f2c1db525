//! Frozen pre-optimization operators, kept as honest speedup baselines.
//!
//! [`GlobalScanWindowJoinOp`] is the sliding-window join as it existed
//! before the key-partitioned state rework: each side is one global
//! ts-ordered `BTreeMap` over *all* keys, pane probing range-scans the
//! whole opposite pane and filters `l.key == r.key` pair by pair, and
//! eviction removes tuples one `BTreeMap::remove` at a time. It fires
//! panes when the watermark closes them; its match multiset (pane
//! multiplicity included) is identical to the sliding
//! `asp::operator::IntervalJoinOp`, which emits on arrival from per-key
//! runs — so `window_join_keyed` bench runs can report
//! keyed-vs-global-scan ratios from the same binary and the CI smoke gate
//! can fail if the keyed layout ever regresses below this baseline.
//!
//! Do not "fix" this operator's complexity; it exists to stay slow the
//! same way the original was.

use std::collections::BTreeMap;

use asp::error::OpError;
use asp::operator::{Collector, JoinPredicate, Operator};
use asp::time::{Duration, Timestamp};
use asp::tuple::{TsRule, Tuple};
use asp::window::SlidingWindows;

/// One global ts-ordered side buffer (all keys interleaved).
#[derive(Default)]
struct Side {
    buf: BTreeMap<(Timestamp, u64), Tuple>,
    bytes: usize,
}

impl Side {
    fn insert(&mut self, seq: u64, t: Tuple) {
        self.bytes += t.mem_bytes();
        self.buf.insert((t.ts, seq), t);
    }

    fn earliest(&self) -> Option<Timestamp> {
        self.buf.first_key_value().map(|((ts, _), _)| *ts)
    }

    fn evict_before(&mut self, cutoff: Timestamp) {
        while let Some((&(ts, seq), _)) = self.buf.first_key_value() {
            if ts >= cutoff {
                break;
            }
            let t = self.buf.remove(&(ts, seq)).expect("entry exists");
            self.bytes = self.bytes.saturating_sub(t.mem_bytes());
        }
    }
}

/// The pre-rework two-input sliding-window join (see module docs).
pub struct GlobalScanWindowJoinOp {
    name: String,
    windows: SlidingWindows,
    theta: JoinPredicate,
    ts_rule: TsRule,
    left: Side,
    right: Side,
    seq: u64,
    next_fire: Timestamp,
    probed_hi: Timestamp,
}

impl GlobalScanWindowJoinOp {
    /// A sliding-window join over `windows` with the frozen global-scan
    /// state layout.
    pub fn new(
        name: impl Into<String>,
        windows: SlidingWindows,
        theta: JoinPredicate,
        ts_rule: TsRule,
    ) -> Self {
        GlobalScanWindowJoinOp {
            name: name.into(),
            windows,
            theta,
            ts_rule,
            left: Side::default(),
            right: Side::default(),
            seq: 0,
            next_fire: Timestamp(0),
            probed_hi: Timestamp(0),
        }
    }

    fn fire(&mut self, upto: Timestamp, out: &mut dyn Collector) {
        let w = Duration(self.windows.size.millis());
        let slide = Duration(self.windows.slide.millis());
        loop {
            let earliest = match (self.left.earliest(), self.right.earliest()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let min_start = self.windows.first_window_start(earliest);
            if self.next_fire < min_start {
                self.next_fire = min_start;
            }
            let start = self.next_fire;
            if start.saturating_add(w) > upto {
                break;
            }
            let end = start.saturating_add(w);
            let band_lo = self.probed_hi.max(start);
            {
                let theta = &self.theta;
                let ts_rule = self.ts_rule;
                let slide_ms = slide.millis();
                let mut pair = |l: &Tuple, r: &Tuple| {
                    // The defining cost of this layout: key equality is
                    // checked per candidate pair, not structurally.
                    if l.key == r.key && theta(l, r) {
                        let mn = l.ts.min(r.ts);
                        let copies =
                            ((mn.millis() - start.millis()).div_euclid(slide_ms) + 1) as u64;
                        let j = l.join(r, ts_rule);
                        for _ in 1..copies {
                            out.emit(j.clone());
                        }
                        out.emit(j);
                    }
                };
                for ((_, _), l) in self.left.buf.range((band_lo, 0)..(end, 0)) {
                    for ((_, _), r) in self.right.buf.range((start, 0)..=(l.ts, u64::MAX)) {
                        pair(l, r);
                    }
                }
                for ((_, _), r) in self.right.buf.range((band_lo, 0)..(end, 0)) {
                    for ((_, _), l) in self.left.buf.range((start, 0)..(r.ts, 0)) {
                        pair(l, r);
                    }
                }
            }
            self.probed_hi = self.probed_hi.max(end);
            self.next_fire = start.saturating_add(slide);
            self.left.evict_before(self.next_fire);
            self.right.evict_before(self.next_fire);
        }
    }
}

impl Operator for GlobalScanWindowJoinOp {
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        _out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        self.seq += 1;
        if input == 0 {
            self.left.insert(self.seq, tuple);
        } else {
            self.right.insert(self.seq, tuple);
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        self.fire(wm, out);
        Ok(wm
            .saturating_sub(Duration(self.windows.size.millis()))
            .saturating_add(Duration(1)))
    }

    fn state_bytes(&self) -> usize {
        self.left.bytes + self.right.bytes
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::{Event, EventType};
    use asp::operator::{cross_join, IntervalJoinOp};

    fn tup(port: u16, key: u32, minute: i64, v: f64) -> Tuple {
        Tuple::from_event(Event::new(
            EventType(port),
            key,
            Timestamp::from_minutes(minute),
            v,
        ))
    }

    #[derive(Default)]
    struct Sink {
        out: Vec<Tuple>,
    }
    impl Collector for Sink {
        fn emit(&mut self, t: Tuple) {
            self.out.push(t);
        }
    }

    /// The baseline must emit the exact same multiset as the keyed
    /// operator — it is a state-layout freeze, not a different join.
    #[test]
    fn baseline_agrees_with_keyed_window_join() {
        let windows = SlidingWindows::new(Duration::from_minutes(6), Duration::from_minutes(2));
        let mut keyed = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        let mut global = GlobalScanWindowJoinOp::new("⋈g", windows, cross_join(), TsRule::Max);
        let mut out_k = Sink::default();
        let mut out_g = Sink::default();
        for i in 0..60i64 {
            let t = tup((i % 2) as u16, (i % 5) as u32, i / 2, i as f64);
            let port = (i % 2) as usize;
            keyed.process(port, t.clone(), &mut out_k).unwrap();
            global.process(port, t, &mut out_g).unwrap();
            let wm = Timestamp::from_minutes(i / 2);
            keyed.on_watermark(wm, &mut out_k).unwrap();
            global.on_watermark(wm, &mut out_g).unwrap();
        }
        keyed.on_finish(&mut out_k).unwrap();
        global.on_finish(&mut out_g).unwrap();
        let keys = |s: &Sink| {
            let mut k: Vec<_> = s.out.iter().map(Tuple::match_key).collect();
            k.sort();
            k
        };
        assert!(!out_k.out.is_empty());
        assert_eq!(keys(&out_k), keys(&out_g));
    }
}
