//! Sample statistics and the traced run's self-time arithmetic.

use clover::telemetry::{Phase, PhaseTotals};

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`); needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Minimum and maximum of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The traced run's time split into non-overlapping buckets, seconds.
///
/// The program's profiler records inclusive phase times: `Search` runs
/// inside `Plan` and `Carry` inside `Des`. Subtracting the nested phase
/// gives each bucket's own time, and `other` is what the cell spans hold
/// beyond every phase, so the buckets add up to the spans exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTimes {
    /// Planning outside candidate evaluation (`Plan − Search`).
    pub plan_self: f64,
    /// Candidate evaluation.
    pub search: f64,
    /// Serving simulation outside seam hand-off (`Des − Carry`).
    pub des_self: f64,
    /// Seam hand-off of continuous serving.
    pub carry: f64,
    /// Autoscaler steps.
    pub scaler: f64,
    /// Cell span time outside every phase.
    pub other: f64,
}

impl SelfTimes {
    /// Splits the summed inclusive `phases` of a set of cells whose spans
    /// add up to `span_s`.
    pub fn split(phases: &PhaseTotals, span_s: f64) -> SelfTimes {
        let plan = phases.secs(Phase::Plan);
        let search = phases.secs(Phase::Search);
        let des = phases.secs(Phase::Des);
        let carry = phases.secs(Phase::Carry);
        let scaler = phases.secs(Phase::Scaler);
        SelfTimes {
            plan_self: plan - search,
            search,
            des_self: des - carry,
            carry,
            scaler,
            other: span_s - (plan + des + scaler),
        }
    }

    /// Checks the split of spans adding up to `span_s`: no bucket may be
    /// negative — a nested phase outgrowing its parent, or phases
    /// outgrowing the spans, means the nesting assumed here no longer
    /// matches the program — and the buckets must add up to the spans.
    pub fn check(&self, span_s: f64) -> Result<(), String> {
        for (name, v) in [
            ("plan_self", self.plan_self),
            ("search", self.search),
            ("des_self", self.des_self),
            ("carry", self.carry),
            ("scaler", self.scaler),
            ("other", self.other),
        ] {
            if v.is_nan() || v < 0.0 {
                return Err(format!("self time {name} = {v} s is negative"));
            }
        }
        let gap = (self.sum() - span_s).abs();
        if gap > 1e-9 * span_s.max(1.0) {
            return Err(format!("self times miss the spans by {gap} s"));
        }
        Ok(())
    }

    /// Σ of every bucket, `other` included.
    pub fn sum(&self) -> f64 {
        self.plan_self + self.search + self.des_self + self.carry + self.scaler + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(plan: f64, search: f64, des: f64, scaler: f64, carry: f64) -> PhaseTotals {
        PhaseTotals {
            // Indexed like `Phase::ALL`: plan, search, des, scaler, carry.
            secs: [plan, search, des, scaler, carry],
            ..PhaseTotals::default()
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn nested_phases_become_self_time() {
        let t = SelfTimes::split(&totals(3.0, 2.0, 5.0, 0.5, 1.5), 10.0);
        assert_eq!(t.check(10.0), Ok(()));
        assert_eq!(t.plan_self, 1.0);
        assert_eq!(t.search, 2.0);
        assert_eq!(t.des_self, 3.5);
        assert_eq!(t.carry, 1.5);
        assert_eq!(t.scaler, 0.5);
        assert_eq!(t.other, 1.5);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    fn self_times_add_up_to_the_spans() {
        let t = SelfTimes::split(&totals(0.3, 0.1, 2.7, 0.01, 0.2), 3.25);
        assert_eq!(t.check(3.25), Ok(()));
        assert!((t.sum() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn negative_other_fails() {
        let t = SelfTimes::split(&totals(1.0, 0.5, 2.0, 0.0, 0.0), 2.5);
        assert_eq!(t.other, -0.5);
        let err = t.check(2.5).unwrap_err();
        assert!(err.contains("other"), "{err}");
    }

    #[test]
    fn nested_phase_larger_than_parent_fails() {
        let search_outgrows_plan = SelfTimes::split(&totals(1.0, 1.5, 1.0, 0.0, 0.0), 5.0);
        assert!(search_outgrows_plan.check(5.0).is_err());
        let carry_outgrows_des = SelfTimes::split(&totals(0.0, 0.0, 1.0, 0.0, 1.2), 5.0);
        assert!(carry_outgrows_des.check(5.0).is_err());
    }
}
