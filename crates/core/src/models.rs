//! Analytic sensitivity models (paper §5) and linear-fit utilities.
//!
//! The paper builds three simple predictors and checks them against
//! measured runtimes:
//!
//! * **Overhead** (§5.1): `r_pred = r_orig + 2·m·Δo` — every message sent
//!   by the busiest processor (`m`, the max messages per processor) pairs a
//!   send with a receive on the same processor, each slowed by `Δo`.
//! * **Gap, burst model** (§5.2): `r_pred = r_base + m·Δg` — communication
//!   is bursty, so every message eats the full added gap.
//! * **Gap, uniform model** (§5.2): `r_pred = r_base + m·(g − I)` when the
//!   total gap `g` exceeds the application's average message interval `I`,
//!   else no slowdown.
//! * **Latency** (§5.3): only read round trips stall the issuing processor,
//!   so `r_pred = r_base + m_rt·ΔL` with `m_rt` the blocking round trips —
//!   accurate only for EM3D(read), as in the paper.

use nowlab_sim::SimDelta;

/// Overhead model: `r_orig + 2·m·Δo`.
pub fn predict_overhead(r_orig: SimDelta, max_msgs: u64, d_o: SimDelta) -> SimDelta {
    r_orig + 2 * max_msgs * d_o
}

/// Burst gap model: `r_base + m·Δg`.
pub fn predict_gap_burst(r_base: SimDelta, max_msgs: u64, d_g: SimDelta) -> SimDelta {
    r_base + max_msgs * d_g
}

/// Uniform gap model: `r_base + m·(g − I)` if `g > I`, else `r_base`.
///
/// `total_gap` is the *effective* gap (base + added) and `interval` the
/// application's average message interval at baseline.
pub fn predict_gap_uniform(
    r_base: SimDelta,
    max_msgs: u64,
    total_gap: SimDelta,
    interval: SimDelta,
) -> SimDelta {
    if total_gap > interval {
        r_base + max_msgs * (total_gap - interval)
    } else {
        r_base
    }
}

/// A compound LogGP sensitivity model — an *extension* of the paper's
/// per-axis predictors (§5) to arbitrary knob vectors.
///
/// From one baseline run's statistics it predicts runtime under any
/// combination of added overhead, gap, latency, and bulk Gap:
///
/// ```text
/// r(Δo, Δg, ΔL, ΔG) = r_base + 2·m·Δo + m·Δg + m_rt·ΔL + B·ΔG
/// ```
///
/// where `m` is the maximum messages per processor, `m_rt` the estimated
/// blocking round trips (read requests) of the busiest reader, and `B` the
/// maximum bulk bytes sent by any processor. The paper's individual models
/// are the axis restrictions of this surface; the `model_crossval` bench
/// checks how well the composition holds when several knobs move at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SensitivityModel {
    /// Baseline runtime.
    pub base: SimDelta,
    /// Max messages sent by any processor (the paper's `m`).
    pub max_msgs: u64,
    /// Estimated blocking round trips of the busiest reader.
    pub read_round_trips: u64,
    /// Max bulk payload bytes sent by any processor.
    pub bulk_bytes: u64,
}

impl SensitivityModel {
    /// Builds the model from a baseline run.
    ///
    /// Read round trips are estimated as half the busiest processor's
    /// read-marked sends (each blocking read contributes one request sent
    /// and, on the responder, one reply sent).
    pub fn from_baseline(outcome: &crate::RunOutcome) -> Self {
        let max_msgs = outcome.stats.max_msgs_per_proc();
        let read_round_trips = outcome
            .stats
            .per_proc
            .iter()
            .map(|c| c.sends_read)
            .max()
            .unwrap_or(0)
            / 2;
        let bulk_bytes = outcome
            .stats
            .per_proc
            .iter()
            .map(|c| c.bytes_bulk)
            .max()
            .unwrap_or(0);
        SensitivityModel {
            base: outcome.runtime,
            max_msgs,
            read_round_trips,
            bulk_bytes,
        }
    }

    /// Predicts runtime under a knob vector.
    pub fn predict(&self, knobs: &nowlab_am::Knobs) -> SimDelta {
        self.base
            + 2 * self.max_msgs * knobs.d_o
            + self.max_msgs * knobs.d_g
            + self.read_round_trips * knobs.d_lat
            + self.bulk_bytes * knobs.d_gap_per_byte
    }

    /// Extrapolates *backward* from the baseline toward a hypothetical
    /// more aggressive design (the paper's §1: "extrapolate back from the
    /// initial design point"): predicted runtime if per-message overhead
    /// were *reduced* by `d_o_less` on both send and receive paths.
    ///
    /// Returns `None` if the reduction exceeds what the model attributes
    /// to overhead in the baseline.
    pub fn extrapolate_overhead_reduction(&self, d_o_less: SimDelta) -> Option<SimDelta> {
        let saving = 2 * self.max_msgs * d_o_less;
        if saving > self.base {
            return None;
        }
        Some(self.base - saving)
    }
}

/// Least-squares line fit with coefficient of determination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (1.0 = perfectly linear).
    pub r2: f64,
}

/// Fits `y = a + b·x` by least squares.
///
/// # Panics
///
/// Panics if the slices differ in length or hold fewer than two points,
/// or if all `x` are identical.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> LinFit {
    assert_eq!(xs.len(), ys.len(), "mismatched fit inputs");
    assert!(xs.len() >= 2, "need at least two points to fit a line");
    let n = xs.len() as f64;
    let pairs = || xs.iter().zip(ys);
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx = xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
    assert!(sxx > 0.0, "all x values identical");
    let sxy = pairs().map(|(x, y)| (x - mx) * (y - my)).sum::<f64>();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot = ys.iter().map(|y| (y - my) * (y - my)).sum::<f64>();
    let ss_res = pairs()
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum::<f64>();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LinFit {
        slope,
        intercept,
        r2,
    }
}

/// Relative error of a prediction, `|pred − meas| / meas`.
pub fn rel_error(pred: SimDelta, meas: SimDelta) -> f64 {
    let m = meas.as_secs_f64();
    if m == 0.0 {
        return 0.0;
    }
    (pred.as_secs_f64() - m).abs() / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_model_matches_paper_example() {
        // Sample sort, Table 5: base 13.2 s, m = 1,294,967 msgs; at
        // o = 103 µs (Δo = 100.1 µs) the paper predicts 272.2 s.
        let base = SimDelta::from_secs(13.2);
        let pred = predict_overhead(base, 1_294_967, SimDelta::from_micros(100.1));
        assert!(
            (pred.as_secs_f64() - 272.4).abs() < 1.0,
            "pred={}",
            pred.as_secs_f64()
        );
    }

    #[test]
    fn burst_gap_model_matches_paper_example() {
        // Radix, Table 6: base 7.8 s, m = 1,279,018; at g = 105 µs
        // (Δg = 99.2) the paper predicts 135.7 s.
        let base = SimDelta::from_secs(7.8);
        let pred = predict_gap_burst(base, 1_279_018, SimDelta::from_micros(99.2));
        assert!(
            (pred.as_secs_f64() - 134.7).abs() < 2.0,
            "pred={}",
            pred.as_secs_f64()
        );
    }

    #[test]
    fn uniform_gap_model_has_threshold() {
        let base = SimDelta::from_secs(1.0);
        let interval = SimDelta::from_micros(50.0);
        // Below the threshold: unaffected.
        let p1 = predict_gap_uniform(base, 1000, SimDelta::from_micros(30.0), interval);
        assert_eq!(p1, base);
        // Above: linear in (g - I).
        let p2 = predict_gap_uniform(base, 1000, SimDelta::from_micros(60.0), interval);
        assert_eq!(p2, base + 1000 * SimDelta::from_micros(10.0));
    }

    #[test]
    fn fit_recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let f = fit_linear(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_detects_nonlinearity() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let f = fit_linear(&xs, &ys);
        assert!(f.r2 < 0.97, "quadratic should not fit perfectly: {}", f.r2);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn fit_rejects_mismatched_lengths() {
        let _ = fit_linear(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn compound_model_restricts_to_axis_models() {
        use nowlab_am::Knobs;
        let m = SensitivityModel {
            base: SimDelta::from_secs(10.0),
            max_msgs: 1_000_000,
            read_round_trips: 400_000,
            bulk_bytes: 50_000_000,
        };
        // Overhead restriction equals the §5.1 model.
        let k = Knobs::with_overhead(SimDelta::from_micros(50.0));
        assert_eq!(
            m.predict(&k),
            predict_overhead(m.base, m.max_msgs, SimDelta::from_micros(50.0))
        );
        // Gap restriction equals the burst model.
        let k = Knobs::with_gap(SimDelta::from_micros(20.0));
        assert_eq!(
            m.predict(&k),
            predict_gap_burst(m.base, m.max_msgs, SimDelta::from_micros(20.0))
        );
        // Latency restriction equals the read model, `r_base + m_rt·ΔL`.
        let k = Knobs::with_latency(SimDelta::from_micros(100.0));
        assert_eq!(
            m.predict(&k),
            m.base + m.read_round_trips * SimDelta::from_micros(100.0)
        );
        // Composition is additive.
        let k = Knobs {
            d_o: SimDelta::from_micros(50.0),
            d_g: SimDelta::from_micros(20.0),
            d_lat: SimDelta::from_micros(100.0),
            d_gap_per_byte: SimDelta::from_nanos(10),
        };
        let expect = SimDelta::from_secs(10.0)
            + 2 * 1_000_000 * SimDelta::from_micros(50.0)
            + 1_000_000 * SimDelta::from_micros(20.0)
            + 400_000 * SimDelta::from_micros(100.0)
            + 50_000_000 * SimDelta::from_nanos(10);
        assert_eq!(m.predict(&k), expect);
    }

    #[test]
    fn extrapolation_bounds() {
        let m = SensitivityModel {
            base: SimDelta::from_secs(1.0),
            max_msgs: 100_000,
            read_round_trips: 0,
            bulk_bytes: 0,
        };
        // Halving a 2.9us mean overhead saves 2·m·1.45us = 0.29s.
        let r = m
            .extrapolate_overhead_reduction(SimDelta::from_micros(1.45))
            .unwrap();
        assert!((r.as_secs_f64() - 0.71).abs() < 1e-9);
        // Cannot save more time than the program takes.
        assert!(m
            .extrapolate_overhead_reduction(SimDelta::from_micros(10.0))
            .is_none());
    }

    #[test]
    fn rel_error_basics() {
        assert!((rel_error(SimDelta::from_secs(1.1), SimDelta::from_secs(1.0)) - 0.1).abs() < 1e-9);
        assert_eq!(rel_error(SimDelta::from_secs(1.0), SimDelta::ZERO), 0.0);
    }
}
