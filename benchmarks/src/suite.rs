//! The full run: every workload in a child process of its own (a clean
//! allocator and a `VmHWM` per workload), every metric printed by name,
//! `results.json` and `trace.json` written, and the A/A check.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::{de_field, Value};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{Args, OUT_DIR};

pub fn detail_file(workload: &str, traced: bool) -> String {
    format!("{workload}.{}.json", if traced { "layers" } else { "e2e" })
}

pub fn spans_file(workload: &str) -> String {
    format!("{workload}.spans.jsonl")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        _ => f64::NAN,
    }
}

/// Run one workload in a child process; returns its detail document.
fn child(workload: &str, args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the child for {workload} ended with {}",
            out.status
        ));
    }
    read_json(&Path::new(OUT_DIR).join(detail_file(workload, traced)))
}

fn metric(detail: &Value, name: &str) -> f64 {
    number(de_field(
        de_field(de_field(de_field(detail, "result"), "metrics"), name),
        "value",
    ))
}

fn print_workload(e2e: &Value, layers: Option<&Value>) {
    let Value::Str(name) = de_field(e2e, "workload") else {
        return;
    };
    println!("== {name}");
    let tp = de_field(e2e, "throughput_eps");
    for (metric_name, unit) in END_TO_END {
        let note = if *metric_name == "throughput_eps" {
            format!(
                "  (min {:.0}, max {:.0})",
                number(de_field(tp, "min")),
                number(de_field(tp, "max"))
            )
        } else {
            String::new()
        };
        println!(
            "  {metric_name:<32} {:>16.4} {unit}{note}",
            metric(e2e, metric_name)
        );
    }
    let result = de_field(e2e, "result");
    let (failed, attempted) = (
        number(de_field(result, "failed")),
        number(de_field(result, "attempted")),
    );
    println!(
        "  {:<32} {:>16.4} ({failed} of {attempted} operations)",
        "failed_share",
        failed / attempted
    );
    println!(
        "  {:<32} {:>16.4} s",
        "source_lag_s",
        number(de_field(de_field(e2e, "paced"), "source_lag_s"))
    );
    println!(
        "  {:<32} {:>16.4} s",
        "host_steal_s",
        number(de_field(e2e, "host_steal_s"))
    );
    let Some(layers) = layers else {
        return;
    };
    println!("  -- per layer (traced run)");
    for (metric_name, unit) in PER_LAYER {
        println!(
            "  {metric_name:<32} {:>16.6} {unit}",
            metric(layers, metric_name)
        );
    }
    if let Value::Str(b) = de_field(layers, "bottleneck") {
        println!("  {:<32} {b:>16}", "bottleneck");
    }
    if let Value::Object(shares) = de_field(layers, "busy_share") {
        for (layer, share) in shares {
            println!("  busy share {layer:<21} {:>15.1} %", number(share) * 100.0);
        }
    }
}

/// One pass over all workloads. Returns the per-workload documents and
/// whether no operation failed.
fn one_set(args: &Args) -> Result<(Vec<Value>, bool), String> {
    let mut docs = Vec::new();
    let mut clean = true;
    for w in &WORKLOADS {
        let e2e = child(w.name, args, false)?;
        let layers = if args.trace {
            Some(child(w.name, args, true)?)
        } else {
            None
        };
        print_workload(&e2e, layers.as_ref());
        for d in std::iter::once(&e2e).chain(layers.as_ref()) {
            clean &= number(de_field(de_field(d, "result"), "failed")) == 0.0;
        }
        let mut pair = vec![("end_to_end".to_string(), e2e)];
        pair.extend(layers.map(|l| ("per_layer".to_string(), l)));
        docs.push(Value::Object(pair));
    }
    Ok((docs, clean))
}

/// `(name, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = read_json(Path::new("BENCHMARK.json"))?;
    let Value::Array(items) = de_field(&doc, "end_to_end") else {
        return Err("BENCHMARK.json lists no end_to_end metrics".into());
    };
    Ok(items
        .iter()
        .filter_map(|m| match de_field(m, "name") {
            Value::Str(n) => Some((n.clone(), number(de_field(m, "bound")))),
            _ => None,
        })
        .collect())
}

/// Compare two sets of runs of the same code: every end-to-end metric of
/// every workload must agree within the metric's bound.
fn compare(a: &[Value], b: &[Value]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut agree = true;
    println!("== A/A: two sets of runs of the same code");
    println!(
        "{:<20} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for (da, db) in a.iter().zip(b) {
        let (ea, eb) = (de_field(da, "end_to_end"), de_field(db, "end_to_end"));
        let Value::Str(workload) = de_field(ea, "workload") else {
            continue;
        };
        for (name, bound) in &bounds {
            let (va, vb) = (metric(ea, name), metric(eb, name));
            let diff = (vb - va).abs() / va;
            let ok = diff <= *bound;
            agree &= ok;
            println!(
                "{workload:<20} {name:<16} {va:>16.4} {vb:>16.4} {:>8.1}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(agree)
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let mut root = vec![
        ("commit".to_string(), env("CEPBENCH_COMMIT")),
        ("rustc".to_string(), env("CEPBENCH_RUSTC")),
        ("cores".to_string(), Value::UInt(cores as u64)),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        (
            // Every run is one process at parallelism 1; what needs more
            // cores than this host has is not reported at all.
            "unmeasured".to_string(),
            Value::Array(vec![
                Value::Str("shard speedup".into()),
                Value::Str("multi-core scaling".into()),
            ]),
        ),
    ];
    println!(
        "cepbench: seed {}, {} s per run, {cores} cores",
        args.seed, args.seconds
    );
    let (set_a, mut ok) = one_set(args)?;
    root.push(("workloads".to_string(), Value::Array(set_a.clone())));
    if args.aa {
        let (set_b, clean_b) = one_set(args)?;
        ok &= clean_b & compare(&set_a, &set_b)?;
        root.push(("workloads_set_b".to_string(), Value::Array(set_b)));
    }
    let write = |file: &str, v: &Value| {
        let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(file), text + "\n").map_err(|e| format!("{file}: {e}"))
    };
    write("results.json", &Value::Object(root))?;
    if args.trace {
        // Joined as text: each line of a spans file is one JSON object.
        let mut spans: Vec<String> = Vec::new();
        for w in &WORKLOADS {
            let file = dir.join(spans_file(w.name));
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            spans.extend(text.lines().map(str::to_string));
        }
        std::fs::write(
            dir.join("trace.json"),
            format!("[\n{}\n]\n", spans.join(",\n")),
        )
        .map_err(|e| format!("trace.json: {e}"))?;
    }
    println!(
        "wrote {OUT_DIR}/results.json{}",
        if args.trace { " and trace.json" } else { "" }
    );
    Ok(ok)
}
