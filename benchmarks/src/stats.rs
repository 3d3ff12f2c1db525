//! Order statistics, and what this process used, read from `/proc`.

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles a tail may be reported at, highest first, each with the
/// share of samples beyond it in thousandths.
const LADDER: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)];

/// The highest percentile of [`LADDER`] that has at least ten of `samples`
/// observations beyond it, if any: a tail read from fewer is one or two
/// outliers, not a percentile.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// Median weighted by `weight`: the value at which half the total weight
/// lies at or below. Used to pool per-sink percentiles of a job with many
/// sinks, whose raw samples the run report does not expose.
pub fn weighted_median(pairs: &[(f64, usize)]) -> f64 {
    let mut v: Vec<(f64, usize)> = pairs.iter().copied().filter(|(_, w)| *w > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = v.iter().map(|(_, w)| w).sum();
    let mut seen = 0;
    for (value, w) in &v {
        seen += w;
        if seen * 2 >= total {
            return *value;
        }
    }
    f64::NAN
}

/// Restart the kernel's peak-RSS watermark from the current RSS, so that
/// [`peak_rss_mib`] afterwards reads the peak of what follows. Where the
/// kernel refuses, the watermark stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process so far. `/proc` counts in
/// ticks of `USER_HZ`, which is 100 on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may contain spaces: fields resume after `)`.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Seconds the hypervisor ran something else while a CPU of this machine
/// had work (`steal` of `/proc/stat`), since boot. A run during which it
/// grows was disturbed from outside.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None, "p50 of 19 has 9.5 beyond");
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn weighted_median_follows_the_weight() {
        assert_eq!(weighted_median(&[(1.0, 1), (2.0, 1), (9.0, 1)]), 2.0);
        assert_eq!(weighted_median(&[(1.0, 1), (2.0, 1), (9.0, 10)]), 9.0);
        assert_eq!(weighted_median(&[(5.0, 0), (7.0, 3)]), 7.0);
        assert!(weighted_median(&[]).is_nan());
    }

    #[test]
    fn proc_readers_return_numbers() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
