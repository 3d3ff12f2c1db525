//! `cepbench` — this repository's benchmark.
//!
//! With `--workload` it measures one workload in this process and prints
//! one JSON result line (the form `BENCHMARK.json` names). Without, it
//! runs every workload in a child process of its own and prints every
//! metric by name; see `README.md` beside the manifest.

mod gen;
mod measure;
mod metrics;
mod pipeline;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use measure::Ops;
use pipeline::RunKind;
use stats::median;
use trace::Tracer;
use workloads::{Workload, DEFAULT_SEED};

/// Where detail files, `results.json` and `trace.json` go, relative to
/// the repository root (`run.sh` changes to it).
pub const OUT_DIR: &str = "benchmarks/out";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace 0|1` as the driver passes it, or a bare `--trace`.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") | Some("1") => args.trace = it.next().as_deref() == Some("1"),
                _ => args.trace = true,
            },
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Refuse to measure what nobody asked for: an `ASP_*` variable would
/// change engine defaults behind the benchmark's back, and a debug build
/// is 10–50× slower.
fn hermetic() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo build --release`".into());
    }
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ASP_")) {
        Some((k, _)) => Err(format!("refusing to run with {} set", k.to_string_lossy())),
        None => Ok(()),
    }
}

fn rep_json(r: &measure::Rep) -> Value {
    Value::Object(vec![
        ("setup_s".into(), Value::Float(r.setup_s)),
        ("wall_s".into(), Value::Float(r.wall_s)),
        ("throughput_eps".into(), Value::Float(r.eps)),
        ("cpu_s".into(), Value::Float(r.cpu_s)),
        ("peak_rss_mib".into(), Value::Float(r.peak_rss_mib)),
        ("sink_count".into(), Value::UInt(r.sink_count)),
    ])
}

/// Measure one workload. Returns the result object the last line prints,
/// after writing the detail file (and the spans, when traced).
fn run_workload(w: &'static Workload, args: &Args) -> Result<Value, String> {
    let steal0 = stats::steal_seconds();
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(w.name, args.trace);
    let texts = (w.patterns)();
    let mut detail: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("why".into(), Value::Str(w.why.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("traced".into(), Value::Bool(args.trace)),
    ];

    // Correctness first, outside every timed metric.
    detail.push((
        "verify".into(),
        measure::verify(w, args.seed, &texts, &mut ops)?,
    ));

    let inp = pipeline::inputs(w, args.seed, w.rep_minutes);
    if args.seed == DEFAULT_SEED {
        ops.attempted += 1;
        if inp.digest != w.pin_digest {
            ops.failed += 1;
            ops.notes.push(format!(
                "input digest {:#018x} differs from the pin {:#018x}: the traffic changed",
                inp.digest, w.pin_digest
            ));
        }
    }
    detail.push((
        "input".into(),
        Value::Object(vec![
            ("events".into(), Value::UInt(inp.events)),
            ("digest".into(), Value::Str(format!("{:#018x}", inp.digest))),
            ("patterns".into(), Value::UInt(texts.len() as u64)),
        ]),
    ));

    // Half of the time goes to saturated reps; the rest to the paced run,
    // or (traced) part of the rest to traced reps.
    let reps = measure::saturated_reps(
        w,
        args.seed,
        &texts,
        &inp,
        0.5 * args.seconds,
        &mut ops,
        &mut tracer,
    );
    let eps: Vec<f64> = reps.iter().map(|r| r.eps).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_rss_mib).collect();
    detail.push((
        "reps".into(),
        Value::Array(reps.iter().map(rep_json).collect()),
    ));
    detail.push((
        "throughput_eps".into(),
        Value::Object(vec![
            (
                "min".into(),
                Value::Float(eps.iter().copied().fold(f64::INFINITY, f64::min)),
            ),
            ("median".into(), Value::Float(median(&eps))),
            (
                "max".into(),
                Value::Float(eps.iter().copied().fold(0.0, f64::max)),
            ),
        ]),
    ));
    detail.push((
        "config".into(),
        pipeline::config_json(
            w,
            if args.trace {
                RunKind::Traced
            } else {
                RunKind::Saturated
            },
        ),
    ));

    let mut out: Vec<(String, f64)> = Vec::new();
    if args.trace {
        let traced = measure::traced_reps(
            w,
            &texts,
            &inp,
            0.3 * args.seconds,
            &reps,
            &mut ops,
            &mut tracer,
        );
        detail.push(("traced_reps".into(), Value::UInt(traced.reps as u64)));
        detail.push(("bottleneck".into(), Value::Str(traced.bottleneck.clone())));
        detail.push((
            "busy_share".into(),
            Value::Object(
                traced
                    .busy_share
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ));
        out.extend(traced.layers);
    } else {
        drop(inp);
        let paced = measure::paced_run(w, args.seed, &texts, 0.5 * args.seconds, &mut ops)?;
        detail.push(("paced".into(), paced.detail));
        out.push(("throughput_eps".into(), median(&eps)));
        out.push(("detect_p50_ms".into(), paced.p50_ms));
        out.push(("detect_p99_ms".into(), paced.p99_ms));
        out.push(("setup_s".into(), median(&setups)));
        // The allocator keeps what earlier reps freed, so later reps peak
        // higher for no need of their own: the least peak is the need.
        out.push((
            "peak_rss_mib".into(),
            peaks.iter().copied().fold(f64::INFINITY, f64::min),
        ));
    }

    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut rendered: Vec<(String, Value)> = Vec::new();
    for (name, unit) in declared {
        let value = out
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured: {}", ops.notes.join("; ")))?;
        rendered.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(ops.failed == 0)),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(ops.failed)),
        ("metrics".into(), Value::Object(rendered)),
    ]);

    detail.push(("cpu_s".into(), Value::Float(stats::cpu_seconds())));
    detail.push((
        "host_steal_s".into(),
        Value::Float(stats::steal_seconds() - steal0),
    ));
    detail.push((
        "failures".into(),
        Value::Array(ops.notes.iter().cloned().map(Value::Str).collect()),
    ));
    detail.push(("result".into(), result.clone()));
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let write = |file: String, v: &Value| {
        let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(&file), text + "\n").map_err(|e| format!("{file}: {e}"))
    };
    write(
        suite::detail_file(w.name, args.trace),
        &Value::Object(detail),
    )?;
    if args.trace {
        let file = suite::spans_file(w.name);
        std::fs::write(dir.join(&file), tracer.to_json_lines().join("\n") + "\n")
            .map_err(|e| format!("{file}: {e}"))?;
    }
    for note in &ops.notes {
        eprintln!("{}: FAILED {note}", w.name);
    }
    Ok(result)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        hermetic()?;
        match &args.workload {
            Some(name) => {
                let w = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
                let result = run_workload(w, &args)?;
                println!(
                    "{}",
                    serde_json::to_string(&result).map_err(|e| e.to_string())?
                );
                Ok(true)
            }
            None => suite::run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cepbench: {e}");
            ExitCode::from(2)
        }
    }
}
