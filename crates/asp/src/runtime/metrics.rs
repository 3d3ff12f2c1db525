//! Run statistics: node counters, resource sampling, latency summaries,
//! and the per-operator telemetry exported by
//! [`RunReport::to_json`](super::RunReport::to_json).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration as StdDuration, Instant};

use serde::Serialize;

use crate::obs::{EventLog, HistogramSummary, Level};

/// Aggregated counters for one graph node across its instances.
#[derive(Debug, Clone, Serialize)]
pub struct NodeStats {
    /// Node name as set in the graph builder.
    pub name: String,
    /// Number of instances the node ran with.
    pub parallelism: usize,
    /// Tuples received, summed over instances.
    pub records_in: u64,
    /// Tuples emitted, summed over instances.
    pub records_out: u64,
    /// Tuple-carrying channel messages sent, summed over instances. A
    /// micro-batch counts once, so `records_out / batches_out` is the mean
    /// realized batch size on this node's outgoing edges.
    pub batches_out: u64,
    /// Tuples dropped for arriving behind the watermark (late data).
    pub late_dropped: u64,
    /// Sum of per-instance peak state footprints.
    pub peak_state_bytes: usize,
    /// Peak resident left-side keys in this node's keyed join state,
    /// summed over instances (key ranges are disjoint across instances
    /// under hash partitioning). 0 for nodes without keyed join state.
    pub keyed_left_keys: usize,
    /// Peak resident right-side keys, summed over instances.
    pub keyed_right_keys: usize,
    /// Longest single-key run (tuples buffered under one key on one side)
    /// observed by any instance over the run — the quantity bounded by the
    /// analyzer's `max_keyed_run`.
    pub keyed_max_run: usize,
    /// Completed hot-key slot migrations on this node's shard plan (0 for
    /// unsharded nodes and statically-placed sharded nodes).
    pub shard_migrations: u64,
    /// Per-instance processing-latency observations (strided sampling of
    /// `Operator::process` wall time), merged across instances. Empty when
    /// [`super::ExecutorConfig::proc_latency_every`] is 0 or the node does
    /// no processing (plain sources, sinks).
    pub proc_latency: HistogramSummary,
    /// Last observed watermark lag — how far the instance's merged
    /// event-time clock trailed the newest event timestamp it had seen —
    /// in milliseconds, maxed over instances. 0 for nodes without an
    /// event-time clock (sources, sinks).
    pub watermark_lag_ms: i64,
    /// Largest watermark lag observed during the run, maxed over instances.
    pub watermark_lag_peak_ms: i64,
    /// Last sampled inbox depth (queued channel messages), summed over
    /// instances. 0 for sources (no inbox).
    pub queue_depth: usize,
    /// Largest sampled inbox depth of any single instance.
    pub queue_depth_peak: usize,
    /// Nanoseconds instances spent blocked sending into full downstream
    /// inboxes (backpressure), summed over instances and routes.
    pub backpressure_ns: u64,
}

impl NodeStats {
    /// Mean number of tuples per sent channel message (0 when nothing was
    /// sent) — how well micro-batching amortized channel synchronization.
    pub fn avg_batch(&self) -> f64 {
        if self.batches_out == 0 {
            0.0
        } else {
            self.records_out as f64 / self.batches_out as f64
        }
    }
}

/// One resource observation (the Figure 5 time series).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResourceSample {
    /// Milliseconds since run start.
    pub elapsed_ms: u64,
    /// Total buffered operator state across all instances.
    pub state_bytes: usize,
    /// Process CPU utilization in percent of one core-second per second,
    /// normalized by available cores (0–100).
    pub cpu_pct: f64,
    /// Queued channel messages across all instance inboxes at sample time.
    pub queue_depth: usize,
    /// Largest per-instance watermark lag gauge at sample time (ms).
    pub watermark_lag_ms: i64,
}

/// Detection latency summary at a sink.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LatencyStats {
    /// Number of sampled observations.
    pub samples: usize,
    /// Arithmetic mean, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observation, milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Summarize raw nanosecond observations.
    ///
    /// Percentiles use the ceiling nearest-rank method: the `p`-percentile
    /// is the smallest observation with at least `⌈p·n⌉` observations at
    /// or below it. (A rounded interpolation index understates high
    /// percentiles for small `n` — e.g. p99 of 52 samples picked the 51st
    /// value — and overstates the median.)
    pub fn from_ns(obs: &[u64]) -> Self {
        if obs.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted: Vec<u64> = obs.to_vec();
        sorted.sort_unstable();
        let ns_to_ms = 1e-6;
        let pct = |p: f64| -> f64 {
            let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1] as f64 * ns_to_ms
        };
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        LatencyStats {
            samples: sorted.len(),
            mean_ms: (sum as f64 / sorted.len() as f64) * ns_to_ms,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: sorted.last().copied().unwrap_or_default() as f64 * ns_to_ms,
        }
    }
}

/// Read `(utime + stime)` of this process in clock ticks from
/// `/proc/self/stat`; returns `None` off Linux or on parse failure.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; skip past the closing paren.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the paren: field 3 is state, so utime = index 11, stime = 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The clock-tick unit of `/proc` CPU times, detected once per process;
/// falls back to the Linux default of 100 when detection fails.
fn user_hz() -> f64 {
    static HZ: OnceLock<f64> = OnceLock::new();
    *HZ.get_or_init(|| detect_user_hz().unwrap_or(100.0))
}

/// Best-effort USER_HZ detection without `libc::sysconf`.
///
/// `/proc/self/stat` field 22 (`starttime`) is the process start instant in
/// clock ticks since boot, and `/proc/stat`'s `btime` line gives the boot
/// instant in epoch seconds, so `starttime / (now − btime)` equals USER_HZ
/// scaled by `t_start / t_now` (times since boot) — which is ≈ 1 for a
/// recently started process like a benchmark or test run. The raw estimate
/// is snapped to the nearest conventional tick rate and accepted only when
/// within 15%; a long-lived process (biased-low estimate) falls back to
/// the documented Linux default of 100.
fn detect_user_hz() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm paren: field 3 (state) = index 0 → field 22 = index 19.
    let starttime: f64 = fields.get(19)?.parse().ok()?;
    let pstat = std::fs::read_to_string("/proc/stat").ok()?;
    let btime: f64 = pstat
        .lines()
        .find_map(|l| l.strip_prefix("btime "))?
        .trim()
        .parse()
        .ok()?;
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_secs_f64();
    let boot_age = now - btime;
    if boot_age <= 1.0 {
        return None;
    }
    let raw = starttime / boot_age;
    const CONVENTIONAL: [f64; 8] = [24.0, 32.0, 48.0, 64.0, 100.0, 250.0, 300.0, 1000.0];
    CONVENTIONAL
        .into_iter()
        .min_by(|a, b| {
            let (da, db) = ((raw - a).abs() / a, (raw - b).abs() / b);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .filter(|c| (raw - c).abs() / c <= 0.15)
}

/// Background sampling loop run by the executor.
///
/// Takes one sample immediately (t ≈ 0) so even runs shorter than the
/// sampling interval yield a non-empty Figure-5 series, sleeps in short
/// slices so shutdown is observed promptly, and takes a final sample when
/// `done` flips so the series always covers the end of the run.
pub(crate) fn sample_loop(
    interval: StdDuration,
    stats: Vec<Arc<super::InstanceStats>>,
    done: Arc<AtomicBool>,
) -> Vec<ResourceSample> {
    let start = Instant::now();
    let ticks_per_sec = user_hz();
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    let mut samples = Vec::new();
    let mut last_ticks = process_cpu_ticks();
    let mut last_t = Instant::now();
    let observe = |last_ticks: &mut Option<u64>, last_t: &mut Instant| {
        let state_bytes: usize = stats
            .iter()
            .map(|s| s.state_bytes.load(Ordering::Relaxed))
            .sum();
        let queue_depth: usize = stats
            .iter()
            .map(|s| s.queue_depth.load(Ordering::Relaxed))
            .sum();
        let watermark_lag_ms: i64 = stats
            .iter()
            .map(|s| s.watermark_lag_ms.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let now = Instant::now();
        let cpu_pct = match (process_cpu_ticks(), *last_ticks) {
            (Some(cur), Some(prev)) => {
                let dt = now.duration_since(*last_t).as_secs_f64().max(1e-9);
                let used = (cur.saturating_sub(prev)) as f64 / ticks_per_sec;
                *last_ticks = Some(cur);
                (used / dt / ncpu * 100.0).min(100.0)
            }
            (cur, _) => {
                *last_ticks = cur;
                0.0
            }
        };
        *last_t = now;
        ResourceSample {
            elapsed_ms: start.elapsed().as_millis() as u64,
            state_bytes,
            cpu_pct,
            queue_depth,
            watermark_lag_ms,
        }
    };
    samples.push(observe(&mut last_ticks, &mut last_t));
    loop {
        // Sleep the interval in ≤ 20 ms slices: a run finishing mid-sleep
        // still gets its shutdown sample within one slice.
        let mut slept = StdDuration::ZERO;
        while slept < interval && !done.load(Ordering::Relaxed) {
            let slice = (interval - slept).min(StdDuration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
        }
        if done.load(Ordering::Relaxed) {
            break;
        }
        samples.push(observe(&mut last_ticks, &mut last_t));
    }
    // The shutdown sample is taken unconditionally: a run that ends before
    // this thread first looks at `done` still gets a two-point series.
    samples.push(observe(&mut last_ticks, &mut last_t));
    samples
}

/// Background progress reporter run by the executor when
/// [`ExecutorConfig::progress_interval`](super::ExecutorConfig::progress_interval)
/// is set: one aggregate `INFO progress` event per interval into the run's
/// [`EventLog`], plus a final one when the run ends mid-interval. Reads
/// only relaxed atomics — never touches the data plane.
pub(crate) fn progress_loop(
    interval: StdDuration,
    stats: Vec<Arc<super::InstanceStats>>,
    sources: Arc<AtomicU64>,
    log: Arc<EventLog>,
    done: Arc<AtomicBool>,
) {
    while !done.load(Ordering::Relaxed) {
        let mut slept = StdDuration::ZERO;
        while slept < interval && !done.load(Ordering::Relaxed) {
            let slice = (interval - slept).min(StdDuration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
        }
        let (mut rin, mut rout, mut state, mut depth) = (0u64, 0u64, 0usize, 0usize);
        for s in &stats {
            rin += s.records_in.load(Ordering::Relaxed);
            rout += s.records_out.load(Ordering::Relaxed);
            state += s.state_bytes.load(Ordering::Relaxed);
            depth += s.queue_depth.load(Ordering::Relaxed);
        }
        log.emit(
            Level::Info,
            "progress",
            format!(
                "src={} in={rin} out={rout} state={state}B inbox={depth}",
                sources.load(Ordering::Relaxed)
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_loop_takes_shutdown_sample_when_done_before_first_check() {
        // The run is already over when the sampler starts: the series must
        // still hold the t ≈ 0 sample and the shutdown sample.
        let done = Arc::new(AtomicBool::new(true));
        let samples = sample_loop(StdDuration::from_secs(3600), Vec::new(), done);
        assert_eq!(samples.len(), 2);
        assert!(samples[0].elapsed_ms <= samples[1].elapsed_ms);
    }

    #[test]
    fn latency_stats_from_empty_is_zero() {
        let s = LatencyStats::from_ns(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let obs: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect(); // 1..1000 ms
        let s = LatencyStats::from_ns(&obs);
        assert_eq!(s.samples, 1000);
        assert!(
            (s.p50_ms - 500.0).abs() < 2.0,
            "p50 ≈ 500ms, got {}",
            s.p50_ms
        );
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        assert!((s.max_ms - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_ceiling_nearest_rank_for_small_n() {
        // n = 10, values 1..=10 ms: the median is the 5th value (5 ms) —
        // the old rounded interpolation index returned the 6th.
        let obs: Vec<u64> = (1..=10).map(|i| i * 1_000_000).collect();
        let s = LatencyStats::from_ns(&obs);
        assert_eq!(s.p50_ms, 5.0);
        // p95: ⌈0.95·10⌉ = 10th value.
        assert_eq!(s.p95_ms, 10.0);
        // n = 52: p99 rank is ⌈0.99·52⌉ = 52 — the maximum. The rounded
        // index picked the 51st value, understating the tail.
        let obs: Vec<u64> = (1..=52).map(|i| i * 1_000_000).collect();
        let s = LatencyStats::from_ns(&obs);
        assert_eq!(s.p99_ms, 52.0);
        // A single observation is every percentile.
        let s = LatencyStats::from_ns(&[7_000_000]);
        assert_eq!((s.p50_ms, s.p99_ms, s.max_ms), (7.0, 7.0, 7.0));
    }

    #[test]
    fn cpu_ticks_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_ticks().is_some());
        }
    }

    #[test]
    fn user_hz_detection_yields_conventional_rate() {
        let hz = user_hz();
        assert!(
            (24.0..=1000.0).contains(&hz),
            "USER_HZ should be a conventional tick rate, got {hz}"
        );
    }
}
