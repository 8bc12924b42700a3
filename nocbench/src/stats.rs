//! Sample statistics and the per-layer call timer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between the closest ranks; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples needed beyond a percentile before it is reported: a tail
/// estimated from fewer points is noise.
pub const MIN_TAIL: usize = 10;

/// The 95th percentile of `samples`, only when at least [`MIN_TAIL`]
/// samples lie strictly above it.
pub fn p95_with_tail(samples: &[f64]) -> Option<f64> {
    let p = quantile(samples, 0.95)?;
    let beyond = samples.iter().filter(|&&s| s > p).count();
    (beyond >= MIN_TAIL).then_some(p)
}

/// Wall time of every call per named layer call, recorded from outside
/// the program around calls into its public functions.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Runs `f`, charging its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Charges one call of `elapsed` to `name`.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        self.calls.entry(name).or_default().push(ms(elapsed));
    }

    /// Milliseconds of each call charged to `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Total milliseconds charged to `name` (0 when never called).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.iter().sum())
    }

    /// Calls charged to `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.calls.get(name).map_or(0, Vec::len)
    }

    /// Total milliseconds over every name.
    pub fn sum_ms(&self) -> f64 {
        self.calls.values().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 182 distinct samples: p95 sits at rank 171.95, so exactly the
        // ten samples 172..=181 lie strictly above it.
        let enough: Vec<f64> = (0..182).map(f64::from).collect();
        let p = p95_with_tail(&enough).expect("ten samples beyond p95");
        assert!((p - 171.95).abs() < 1e-9);
        assert_eq!(enough.iter().filter(|&&s| s > p).count(), 10);

        // One sample fewer puts p95 on rank 171 with nine beyond it.
        let short: Vec<f64> = (0..181).map(f64::from).collect();
        assert_eq!(p95_with_tail(&short), None);

        // A flat tail has nothing strictly beyond it, however many
        // samples there are.
        let flat = vec![5.0; 1000];
        assert_eq!(p95_with_tail(&flat), None);
    }

    #[test]
    fn spans_accumulate_per_name() {
        let mut spans = Spans::default();
        spans.add("a", Duration::from_millis(2));
        spans.add("a", Duration::from_millis(3));
        let v = spans.time("b", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(spans.calls("a"), 2);
        assert!((spans.total_ms("a") - 5.0).abs() < 1e-9);
        assert_eq!(spans.calls("b"), 1);
        assert_eq!(spans.samples("a"), vec![2.0, 3.0]);
        assert_eq!(spans.calls("missing"), 0);
        assert_eq!(spans.total_ms("missing"), 0.0);
        assert!(spans.sum_ms() >= 5.0);
    }
}
