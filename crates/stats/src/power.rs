//! Statistical power analysis for experiment sizing.
//!
//! §7: "To have statistical significance, we also want to have a
//! relatively large sample size" — the paper picked 120 machines per arm
//! for power capping and ~700 per group for SC selection. This module
//! makes that choice quantitative: given the metric's noise, how many
//! samples does a two-sample comparison need to detect a given effect?
//!
//! Normal-approximation formulas (the sample sizes involved are far past
//! the small-sample regime where exact t computations matter):
//! `n = 2·(z_{1−α/2} + z_{power})²·(σ/δ)²` per group.

use crate::dist::Normal;
use crate::error::StatsError;

fn z(p: f64) -> Result<f64, StatsError> {
    Normal::standard().quantile(p)
}

fn validate(alpha: f64, power: f64) -> Result<(), StatsError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(StatsError::InvalidParameter("alpha must be in (0, 1)"));
    }
    if !(power > 0.0 && power < 1.0) {
        return Err(StatsError::InvalidParameter("power must be in (0, 1)"));
    }
    if power <= alpha {
        return Err(StatsError::InvalidParameter(
            "power must exceed alpha for a meaningful design",
        ));
    }
    Ok(())
}

/// Required sample size **per group** for a two-sided two-sample test to
/// detect an absolute mean difference `effect` against noise `sd`, at
/// significance `alpha` with the given `power`.
///
/// ```
/// use kea_stats::required_n_two_sample;
/// // The classic half-sigma effect at 5%/80%: ~63 per group.
/// let n = required_n_two_sample(0.5, 1.0, 0.05, 0.8).unwrap();
/// assert!((62..=64).contains(&n));
/// ```
///
/// # Errors
/// `effect` and `sd` must be positive and finite; `alpha`/`power` in
/// `(0, 1)` with `power > alpha`.
pub fn required_n_two_sample(
    effect: f64,
    sd: f64,
    alpha: f64,
    power: f64,
) -> Result<usize, StatsError> {
    validate(alpha, power)?;
    if !(effect > 0.0 && effect.is_finite()) {
        return Err(StatsError::InvalidParameter("effect must be positive"));
    }
    if !(sd > 0.0 && sd.is_finite()) {
        return Err(StatsError::InvalidParameter("sd must be positive"));
    }
    let za = z(1.0 - alpha / 2.0)?;
    let zb = z(power)?;
    let ratio = sd / effect;
    let n = 2.0 * (za + zb) * (za + zb) * ratio * ratio;
    Ok(n.ceil().max(2.0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_sample_size() {
        // Detect a 0.5·σ effect at α = 0.05, power 0.8: the classic
        // answer is n ≈ 63 per group (2·(1.96+0.8416)²·4 = 62.8).
        let n = required_n_two_sample(0.5, 1.0, 0.05, 0.8).unwrap();
        assert!((62..=64).contains(&n), "n = {n}");
    }

    #[test]
    fn domain_validation() {
        assert!(required_n_two_sample(0.0, 1.0, 0.05, 0.8).is_err());
        assert!(required_n_two_sample(1.0, -1.0, 0.05, 0.8).is_err());
        assert!(required_n_two_sample(1.0, 1.0, 0.0, 0.8).is_err());
        assert!(required_n_two_sample(1.0, 1.0, 0.05, 0.04).is_err());
    }
}
