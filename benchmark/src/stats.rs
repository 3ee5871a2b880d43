//! Order statistics over round samples and over passes.

use crate::json::{obj, Json};

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

/// A tail is only reported where at least this many samples lie beyond it.
const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest candidate percentile that still has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when the
/// sample supports no tail at all.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= MIN_SAMPLES_BEYOND)
}

/// Median with the extremes beside it: how every value that aggregates
/// several passes is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn to_json(self) -> Json {
        obj(vec![
            ("median", Json::from(self.median)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_follows_the_sample_count() {
        // 40 rounds: only p75 leaves ten samples beyond it.
        assert_eq!(tail_percentile(40), Some(75));
        // 120 rounds: p90 leaves twelve, p95 only six.
        assert_eq!(tail_percentile(120), Some(90));
        // 800 rounds: p95 leaves forty, p99 only eight.
        assert_eq!(tail_percentile(800), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 75.0), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_keeps_the_extremes_beside_the_median() {
        let s = Summary::of(&[0.3, 0.1, 0.2]);
        assert_eq!(
            s,
            Summary {
                median: 0.2,
                min: 0.1,
                max: 0.3
            }
        );
        assert_eq!(s.to_json().get("max").and_then(Json::as_f64), Some(0.3));
    }
}
