//! Order statistics, run-to-run spread and the stable digest.

/// Nearest-rank element of an ascending-sorted slice at 1-based `rank`
/// (clamped into range).
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest-rank index of percentile `p` (0..=100) among `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    at_rank(&sorted(samples), rank_of(samples.len(), p))
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail rule: the highest percentile that still has at least ten
/// samples beyond it, capped at p99 and never below the median. Returns
/// `(percentile, value)`; with few samples the percentile falls towards
/// 50 instead of reporting a maximum as if it were a p99.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let rank = n.saturating_sub(10).min(rank_of(n, 99.0)).max(rank_of(n, 50.0));
    (100.0 * rank as f64 / n as f64, at_rank(&sorted(samples), rank))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them: `(q1, median, q3)`. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile distance as a share of the median — the spread a
/// metric's bound is compared with.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Incremental FNV-1a: stable across processes and hosts, so a digest
/// can be compared between runs and commits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: derives independent per-job seeds from `--seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_caps_at_p99() {
        // 32 samples: rank 22 has exactly ten beyond it.
        let v: Vec<f64> = (1..=32).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 22.0);
        assert!((p - 68.75).abs() < 1e-9);
        // Plenty of samples: capped at p99, not p99.96.
        let big: Vec<f64> = (1..=24_000).map(f64::from).collect();
        assert_eq!(tail(&big), (99.0, 23_760.0));
        // Too few samples for any tail: the median, never a maximum.
        let few = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(tail(&few).1, median(&few));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn digest_and_mix_are_stable() {
        let mut d = Digest::new();
        d.u64(1);
        d.u64(2);
        let mut e = Digest::new();
        e.u64(1);
        e.u64(2);
        assert_eq!(d.finish(), e.finish());
        e.u64(3);
        assert_ne!(d.finish(), e.finish());
        assert_eq!(mix(7, 0), mix(7, 0));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
    }
}
