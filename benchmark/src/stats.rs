//! Order statistics for timing samples: median, interpolated
//! percentiles, and the rule for which tail percentile a sample of a
//! given size can support.

use crate::json::Json;

/// Percentiles the benchmark will report as a tail, in rising order,
/// in hundredths of a percent (integers, so that "ten of a hundred
/// samples lie beyond p90" is decided exactly).
const TAIL_LADDER: [u64; 6] = [7500, 9000, 9500, 9900, 9990, 9999];

/// How many samples must lie beyond a percentile for it to be reported.
const MIN_BEYOND: u64 = 10;

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples beyond it, or `None` when even p75 does not
/// (n < 40): a tail read off fewer than ten samples is noise.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&p| n as u64 * (10_000 - p) >= MIN_BEYOND * 10_000)
        .map(|&p| p as f64 / 100.0)
}

/// What is reported for one timing: median, the supported tail and the
/// sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(percentile, value)` of the supported tail, if any.
    pub tail: Option<(f64, f64)>,
    pub samples: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            median: percentile(&s, 50.0),
            tail: supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
            samples: s.len(),
        }
    }

    /// A single measured or counted value (no distribution behind it).
    pub fn single(value: f64) -> Summary {
        Summary { median: value, tail: None, samples: 1 }
    }

    /// The summary with every value multiplied by `factor` (unit
    /// conversion, e.g. seconds to milliseconds).
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            tail: self.tail.map(|(p, v)| (p, v * factor)),
            samples: self.samples,
        }
    }

    /// `{"value", "unit", "samples"[, "tail_pct", "tail"]}` — the shape
    /// of one metric in a result file.
    pub fn to_json(&self, unit: &str) -> Json {
        let mut o = Json::obj();
        o.set("value", self.median).set("unit", unit).set("samples", self.samples);
        if let Some((p, v)) = self.tail {
            o.set("tail_pct", p).set("tail", v);
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 0.0), 0.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        let few = Summary::of(&[1.0; 12]);
        assert_eq!((few.tail, few.samples), (None, 12));
        let many = Summary::of(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(many.tail.map(|(p, _)| p), Some(99.0));
    }
}
