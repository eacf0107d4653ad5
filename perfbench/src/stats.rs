//! Latency samples, process memory and the host fingerprint.

use std::time::Duration;

/// Nearest-rank percentile of unsorted nanosecond samples (0 when empty).
pub fn percentile_ns(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of a list of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Most samples one [`Latencies`] keeps. Past it, reservoir sampling keeps a
/// uniform sample, so the benchmark's own memory stays the same however many
/// operations a run completes (it would otherwise show in `peak_rss_mb`).
const KEEP: usize = 16 << 10;

/// Client-side latencies of one operation type, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    kept: Vec<u64>,
    /// Samples pushed, kept or not.
    seen: u64,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.seen += 1;
        if self.kept.len() < KEEP {
            self.kept.push(ns);
        } else {
            let j = (crate::model::mix64(self.seen) % self.seen) as usize;
            if let Some(slot) = self.kept.get_mut(j) {
                *slot = ns;
            }
        }
    }

    pub fn p50_us(&self) -> f64 {
        percentile_ns(&self.kept, 0.50) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        percentile_ns(&self.kept, 0.99) / 1e3
    }

    /// Samples pushed (not only those kept).
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Pool another client's (or phase's) samples with these; each side's
    /// kept samples weigh the same.
    pub fn extend(&mut self, other: &Latencies) {
        self.kept.extend_from_slice(&other.kept);
        self.seen += other.seen;
    }
}

/// Resident set size of this process in MiB (`VmRSS`). Taken at the end of
/// a measured phase it is the engine's peak: the buffer pool's touched
/// frames, most of it, only grow while the clients run.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where a result was measured. Results from two fingerprints are not
/// comparable as absolute numbers.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }

    /// One-line fingerprint, stable for a given machine.
    pub fn fingerprint(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" kernel={}",
            self.nproc, self.cpu_model, self.kernel
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.5), 50.0);
        assert_eq!(percentile_ns(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut l = Latencies::default();
        for ns in 0..(KEEP as u64 * 8) {
            l.push(Duration::from_nanos(ns));
        }
        assert_eq!(l.len(), KEEP * 8);
        assert_eq!(l.kept.len(), KEEP);
        let p50 = l.p50_us() * 1e3;
        let mid = (KEEP * 4) as f64;
        assert!((p50 - mid).abs() < mid * 0.05, "p50 {p50} far from {mid}");
    }
}
