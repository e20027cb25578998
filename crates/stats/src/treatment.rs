//! Treatment-effect estimation for flighting and roll-out evaluation.
//!
//! §5.2.2 of the paper: "We extracted the performance data for the periods
//! of one month before and one month after the roll-out. We use *treatment
//! effects* to evaluate the performance changes during the two periods with
//! significant tests." This module implements that before/after (or
//! control/treatment) effect with a Welch test.

use crate::describe::mean;
use crate::error::StatsError;
use crate::ttest::{t_test_welch, Alternative, TTestResult};

/// Estimated effect of a treatment (configuration change) on a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct TreatmentEffect {
    /// Mean of the metric before the change / in the control group.
    pub baseline_mean: f64,
    /// Mean of the metric after the change / in the treatment group.
    pub treated_mean: f64,
    /// Absolute effect: `treated_mean − baseline_mean`.
    pub effect: f64,
    /// Relative effect as a fraction of the baseline (the paper reports
    /// these as percentages, e.g. +10.9% Total Data Read in Table 4).
    pub relative_effect: f64,
    /// Welch t-test of treated vs baseline.
    pub test: TTestResult,
}

impl TreatmentEffect {
    /// Relative effect in percent, the paper's reporting unit.
    pub fn percent_change(&self) -> f64 {
        self.relative_effect * 100.0
    }

    /// Is the effect significant at `alpha`?
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.test.significant_at(alpha)
    }
}

/// Before/after (or control/treatment) effect with a Welch t-test.
///
/// `baseline` is the pre-change or control sample, `treated` the post-change
/// or treatment sample, each one observation per machine-hour (or other
/// aggregation unit).
///
/// ```
/// use kea_stats::treatment_effect;
/// let before: Vec<f64> = (0..50).map(|i| 100.0 + (i % 7) as f64).collect();
/// let after: Vec<f64> = before.iter().map(|v| v * 1.09).collect();
/// let effect = treatment_effect(&before, &after).unwrap();
/// assert!((effect.percent_change() - 9.0).abs() < 0.1);
/// assert!(effect.significant_at(0.01));
/// ```
///
/// # Errors
/// Propagates t-test errors; additionally the baseline mean must be non-zero
/// for the relative effect to be defined.
pub fn treatment_effect(baseline: &[f64], treated: &[f64]) -> Result<TreatmentEffect, StatsError> {
    let test = t_test_welch(treated, baseline, Alternative::TwoSided)?;
    let baseline_mean = mean(baseline)?;
    let treated_mean = test.mean_diff + baseline_mean;
    if baseline_mean == 0.0 {
        return Err(StatsError::InvalidParameter(
            "baseline mean is zero; relative effect undefined",
        ));
    }
    let effect = treated_mean - baseline_mean;
    Ok(TreatmentEffect {
        baseline_mean,
        treated_mean,
        effect,
        relative_effect: effect / baseline_mean,
        test,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_a_ten_percent_improvement() {
        // Baseline around 100, treated around 110 — the shape of Table 4's
        // Total Data Read improvement.
        let baseline: Vec<f64> = (0..100).map(|i| 100.0 + (i % 9) as f64 * 0.5).collect();
        let treated: Vec<f64> = (0..100).map(|i| 110.0 + (i % 9) as f64 * 0.5).collect();
        let eff = treatment_effect(&baseline, &treated).unwrap();
        assert!((eff.percent_change() - 10.0).abs() < 0.5);
        assert!(eff.significant_at(0.01));
        assert!(eff.effect > 0.0);
    }

    #[test]
    fn null_effect_is_not_significant() {
        let baseline: Vec<f64> = (0..60).map(|i| 50.0 + ((i * 17) % 13) as f64).collect();
        let eff = treatment_effect(&baseline, &baseline).unwrap();
        assert!(eff.effect.abs() < 1e-12);
        assert!(!eff.significant_at(0.05));
        assert!((eff.relative_effect).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_mean_rejected() {
        let baseline = [-1.0, 1.0, -2.0, 2.0];
        let treated = [5.0, 6.0, 7.0, 8.0];
        assert!(matches!(
            treatment_effect(&baseline, &treated),
            Err(StatsError::InvalidParameter(_))
        ));
    }
}
