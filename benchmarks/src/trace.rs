//! Tracing from outside the program: spans around every call the
//! benchmark makes into a layer's public functions, and a sampler that
//! reads each engine thread's CPU time from `/proc` while a traced run is
//! executing. Spans inside the program are a later change.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;

/// One timed interval: a call into a layer, or a phase of the benchmark
/// that contains such calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Keeps spans in memory until the benchmark ends. When disabled (the
/// untraced end-to-end runs) [`Tracer::scope`] only calls the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Identifier shared by all spans of this process: the workload name.
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Spans recorded since `mark` (a value of [`Tracer::mark`]).
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// One span per line, each a JSON object, so that the full run can
    /// join the workloads' spans into `trace.json` without parsing them.
    pub fn to_json_lines(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let span = Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("workload".into(), Value::Str(self.workload.clone())),
                    ("name".into(), Value::Str(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ]);
                serde_json::to_string(&span).expect("a span is finite numbers and strings")
            })
            .collect()
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its direct children cover, summed over spans of one name.
/// `spans` is a slice of a tracer's list starting at index `base`, so a
/// parent index below `base` lies outside the slice and is ignored.
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The sampler thread's own name as the kernel keeps it.
pub const SAMPLER_COMM: &str = "cepbench-sample";

/// CPU accounting of one thread, from `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadCpu {
    /// Thread name as the kernel keeps it (at most 15 bytes).
    pub comm: String,
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Samples the CPU time of every thread of this process while a traced
/// run executes. The engine names each task thread `<node>#<instance>`,
/// so the samples attribute CPU time to graph nodes without touching the
/// engine. A thread's last sample before it exits stands for its total,
/// which understates it by at most one sampling interval.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<HashMap<u64, ThreadCpu>>,
}

impl ThreadSampler {
    pub fn start(interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(SAMPLER_COMM.into())
            .spawn(move || {
                let mut seen: HashMap<u64, ThreadCpu> = HashMap::new();
                let mut pause = interval;
                while !flag.load(Ordering::SeqCst) {
                    std::thread::sleep(pause);
                    let t0 = Instant::now();
                    sample_threads(&mut seen);
                    // A job with thousands of threads takes long to scan:
                    // keep the sampler under a quarter of one core.
                    pause = interval.max(t0.elapsed() * 3);
                }
                seen
            })
            .expect("spawn sampler thread");
        ThreadSampler { stop, handle }
    }

    /// Stop and return the last sample of every thread seen, the
    /// benchmark's own included.
    pub fn finish(self) -> Vec<ThreadCpu> {
        self.stop.store(true, Ordering::SeqCst);
        let seen = self.handle.join().expect("sampler thread panicked");
        seen.into_values().collect()
    }
}

fn sample_threads(seen: &mut HashMap<u64, ThreadCpu>) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let path = entry.path();
        // A thread can exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let (run_ns, wait_ns) = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
        let slot = seen.entry(tid).or_default();
        // A new thread carries its parent's name until it sets its own;
        // engine task names always contain `#`.
        if !slot.comm.contains('#') {
            slot.comm = std::fs::read_to_string(path.join("comm"))
                .map(|s| s.trim_end().to_string())
                .unwrap_or_default();
        }
        slot.run_ns = run_ns;
        slot.wait_ns = wait_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // setup [0,100) ⊃ parse [10,30), lower [40,90) ⊃ inner [50,60).
        let spans = vec![
            span("setup", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("lower", Some(0), 40, 90),
            span("inner", Some(2), 50, 60),
        ];
        let t = self_times(&spans, 0);
        let ns = |name| (t[name] * 1e9_f64).round() as u64;
        assert_eq!(ns("setup"), 100 - 20 - 50);
        assert_eq!(ns("parse"), 20);
        assert_eq!(
            ns("lower"),
            50 - 10,
            "grandchildren count against their parent only"
        );
        assert_eq!(ns("inner"), 10);
        let total: f64 = t.values().sum();
        assert!(
            (total * 1e9 - 100.0).abs() < 1e-6,
            "self times partition the root"
        );
    }

    #[test]
    fn self_time_sums_spans_of_one_name_and_respects_base() {
        let spans = vec![
            span("parse", Some(7), 0, 5),
            span("parse", Some(7), 5, 12),
            span("run", Some(3), 12, 20),
        ];
        // Parents 7 and 3 lie before base 10: outside the slice.
        let t = self_times(&spans, 10);
        assert!((t["parse"] * 1e9 - 12.0).abs() < 1e-6);
        assert!((t["run"] * 1e9 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new("w", false);
        assert_eq!(off.scope("a", |_| 5), 5);
        assert_eq!(off.mark(), 0);
        let mut on = Tracer::new("w", true);
        on.scope("a", |t| t.scope("b", |_| ()));
        let spans = on.since(0);
        assert_eq!((spans[0].name, spans[0].parent), ("a", None));
        assert_eq!((spans[1].name, spans[1].parent), ("b", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn sampler_sees_a_named_busy_thread() {
        let sampler = ThreadSampler::start(Duration::from_millis(5));
        let worker = std::thread::Builder::new()
            .name("src:T0#0".into())
            .spawn(|| {
                let t0 = Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < Duration::from_millis(60) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
            .unwrap();
        worker.join().unwrap();
        let threads = sampler.finish();
        let t = threads
            .iter()
            .find(|t| t.comm == "src:T0#0")
            .expect("worker thread sampled");
        assert!(t.run_ns > 20_000_000, "≈60 ms busy, saw {} ns", t.run_ns);
    }
}
