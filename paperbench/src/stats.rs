//! Sample statistics and the deterministic generators the workloads draw
//! their inputs from.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot set it.
const TAIL_BEYOND: usize = 10;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of the samples (all of them when fewer than
/// four).
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let v = sorted(samples);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank quantile `q`, or `None` when fewer than [`TAIL_BEYOND`]
/// samples lie beyond it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    (beyond >= TAIL_BEYOND).then(|| nearest_rank(&sorted(samples), q))
}

/// One job array: `size` single-script requests due together at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Due time from the start of the load.
    pub at: Duration,
    /// Requests in the burst.
    pub size: usize,
}

/// Poisson burst arrivals at `rate` bursts per second up to `horizon`,
/// each of a uniform size in `min_size..=max_size`. The same seed always
/// gives the same schedule.
pub fn burst_schedule(
    seed: u64,
    rate: f64,
    min_size: usize,
    max_size: usize,
    horizon: Duration,
) -> Vec<Burst> {
    let mut rng = Rng::new(seed ^ 0xb0b5_7a11);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(Burst {
            at: Duration::from_secs_f64(t),
            size: rng.range(min_size, max_size),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), Some(990.0));
        // p50 of a small sample is fine: far more than ten lie beyond it.
        assert_eq!(tail_quantile(&v[..40], 0.5), Some(20.0));
        assert_eq!(tail_quantile(&v[..19], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[0.0, 10.0, 12.0, 99.0]), 11.0);
        assert_eq!(interquartile_mean(&[5.0, 7.0]), 6.0);
    }

    #[test]
    fn burst_schedule_is_deterministic_for_a_seed() {
        let h = Duration::from_secs(60);
        let a = burst_schedule(7, 4.0, 8, 16, h);
        assert_eq!(a, burst_schedule(7, 4.0, 8, 16, h));
        assert_ne!(a, burst_schedule(8, 4.0, 8, 16, h));
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        assert!(a.iter().all(|b| (8..=16).contains(&b.size) && b.at < h));
        // 240 expected arrivals; a Poisson count stays within ±25 %.
        assert!((180..=300).contains(&a.len()), "{} bursts", a.len());
    }
}
