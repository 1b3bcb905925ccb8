//! Order statistics over timing samples.

/// The percentile ladder a tail is reported on, as (label, quantile).
const LADDER: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p99.9", 0.999),
];

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) at quantile `q`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A latency distribution as the benchmark reports it: the median, the
/// highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// `None` when even the lowest ladder step lacks samples beyond it.
    pub highest: Option<(&'static str, f64)>,
}

impl Tail {
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        let highest = LADDER
            .iter()
            .rev()
            .find(|(_, q)| supports(n, *q))
            .map(|(label, q)| (*label, percentile(samples, *q)));
        Self {
            n,
            p50: median(samples),
            highest,
        }
    }

    /// The value at quantile `q`, or an error naming the shortfall when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(samples: &[f64], q: f64) -> Result<f64, String> {
        if supports(samples.len(), q) {
            Ok(percentile(samples, q))
        } else {
            Err(format!(
                "quantile {q} needs {MIN_BEYOND} samples beyond it; have {} samples",
                samples.len()
            ))
        }
    }

    pub fn render(&self, unit: &str) -> String {
        let tail = match self.highest {
            Some((label, v)) => format!(", {label} {v:.1} {unit}"),
            None => String::new(),
        };
        format!("p50 {:.1} {unit}{tail} (n={})", self.p50, self.n)
    }
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond quantile `q`.
fn supports(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - q` rounding (100 × (1 − 0.9) < 10).
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(Tail::of(&ramp(99)).highest, None);
        assert_eq!(Tail::of(&ramp(100)).highest, Some(("p90", 90.0)));
        assert_eq!(Tail::of(&ramp(400)).highest, Some(("p95", 380.0)));
        assert_eq!(Tail::of(&ramp(999)).highest.unwrap().0, "p95");
        assert_eq!(Tail::of(&ramp(1000)).highest, Some(("p99", 990.0)));
        assert_eq!(Tail::of(&ramp(10_000)).highest.unwrap().0, "p99.9");
        assert_eq!(Tail::of(&ramp(1000)).n, 1000);
    }

    #[test]
    fn at_refuses_unsupported_quantiles() {
        assert!(Tail::at(&ramp(999), 0.99).is_err());
        assert_eq!(Tail::at(&ramp(1000), 0.99), Ok(990.0));
    }
}
