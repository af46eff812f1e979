//! Order statistics over a handful of timed passes.

/// Median, minimum and maximum of a non-empty sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarizes `values`; an even-sized sample's median is the mean of its
/// two middle values.
///
/// # Panics
///
/// Panics on an empty sample or a NaN (a timed pass cannot produce one).
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
    }
}

/// `(b - a) / a`: how far `b` sits from `a`, as a share of `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (b - a) / a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_takes_the_middle_value() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            s,
            Summary {
                median: 2.0,
                min: 1.0,
                max: 3.0
            }
        );
    }

    #[test]
    fn even_sample_averages_the_two_middle_values() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.min, s.max), (1.0, 4.0));
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = summarize(&[7.5]);
        assert_eq!((s.median, s.min, s.max), (7.5, 7.5, 7.5));
    }

    #[test]
    fn rel_diff_is_signed_and_relative_to_the_first() {
        assert_eq!(rel_diff(2.0, 2.5), 0.25);
        assert_eq!(rel_diff(2.0, 1.5), -0.25);
    }
}
