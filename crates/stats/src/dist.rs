//! Probability distributions and the special functions behind them.
//!
//! KEA reports Student t statistics for every production comparison
//! (t = 4.45 / 7.13 for the §5.2.2 roll-out, t = 40.4 / 27.1 for Table 4),
//! so the t distribution CDF — and therefore the regularized incomplete beta
//! function — is the workhorse of this crate. Everything is implemented
//! from scratch: Lanczos log-gamma and a Lentz continued fraction for the
//! incomplete beta.

// kea-lint: allow-file(index-in-library) — fixed-size coefficient tables indexed by constant literals

use crate::error::StatsError;

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients; absolute error below 1e-13 for x > 0).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g=7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small/negative arguments.
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Computed with the modified Lentz continued-fraction algorithm, using the
/// symmetry `I_x(a,b) = 1 − I_{1−x}(b,a)` to stay in the rapidly converging
/// region.
///
/// # Errors
/// `a` and `b` must be positive and `x` in `[0, 1]`.
pub(crate) fn inc_beta(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 || b <= 0.0 {
        return Err(StatsError::InvalidParameter("beta parameters must be positive"));
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidParameter("inc_beta x must be in [0, 1]"));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    // kea-lint: allow(nan-unsafe-ordering) — exact boundary of the validated [0, 1] domain
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cf(a, b, x) / a)
    } else {
        Ok(1.0 - front * beta_cf(b, a, 1.0 - x) / b)
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-30;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StudentsT {
    df: f64,
}

impl StudentsT {
    /// Creates a t distribution.
    ///
    /// # Errors
    /// `df` must be positive and finite.
    pub(crate) fn new(df: f64) -> Result<Self, StatsError> {
        if !df.is_finite() || df <= 0.0 {
            return Err(StatsError::InvalidParameter("t df must be positive"));
        }
        Ok(StudentsT { df })
    }

    /// CDF at `t`, via the regularized incomplete beta:
    /// `P(T ≤ t) = 1 − I_{ν/(ν+t²)}(ν/2, 1/2) / 2` for `t ≥ 0`.
    pub(crate) fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let x = self.df / (self.df + t * t);
        // df > 0 by construction; a NaN t degrades to a NaN probability.
        let i = match inc_beta(self.df / 2.0, 0.5, x) {
            Ok(i) => i,
            Err(_) => return f64::NAN,
        };
        if t > 0.0 {
            1.0 - 0.5 * i
        } else {
            0.5 * i
        }
    }

    /// Survival function `P(T > t)`.
    pub(crate) fn sf(&self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    /// Two-sided p-value `P(|T| ≥ |t|)`.
    pub(crate) fn p_two_sided(&self, t: f64) -> f64 {
        let x = self.df / (self.df + t * t);
        // Same degrade-to-NaN policy as `cdf`.
        inc_beta(self.df / 2.0, 0.5, x).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)! for integer n.
        for (n, fact) in [(1u32, 1.0f64), (2, 1.0), (3, 2.0), (4, 6.0), (5, 24.0), (6, 120.0)] {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-10);
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a)
        let (a, b, x) = (2.5, 4.0, 0.3);
        let lhs = inc_beta(a, b, x).unwrap();
        let rhs = 1.0 - inc_beta(b, a, 1.0 - x).unwrap();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.5}(2, 3) = 0.6875 (exact: 11/16).
        assert!((inc_beta(2.0, 2.0, 0.5).unwrap() - 0.5).abs() < 1e-12);
        assert!((inc_beta(2.0, 3.0, 0.5).unwrap() - 0.6875).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_rejects_bad_params() {
        assert!(inc_beta(-1.0, 1.0, 0.5).is_err());
        assert!(inc_beta(1.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn t_cdf_reference_points() {
        // Values cross-checked against R's pt().
        let t10 = StudentsT::new(10.0).unwrap();
        assert!((t10.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((t10.cdf(1.812_461) - 0.95).abs() < 1e-5); // qt(0.95, 10)
        assert!((t10.cdf(2.228_139) - 0.975).abs() < 1e-5); // qt(0.975, 10)
        let t1 = StudentsT::new(1.0).unwrap();
        assert!((t1.cdf(1.0) - 0.75).abs() < 1e-9); // Cauchy: 1/2 + atan(1)/pi
    }

    #[test]
    fn t_two_sided_p_values() {
        let t = StudentsT::new(20.0).unwrap();
        // |t|=2.086 is the 97.5% point for df=20 → two-sided p ≈ 0.05.
        assert!((t.p_two_sided(2.085_963) - 0.05).abs() < 1e-5);
        // p is symmetric in the sign of t.
        assert!((t.p_two_sided(-2.5) - t.p_two_sided(2.5)).abs() < 1e-12);
    }

    #[test]
    fn t_converges_to_normal_for_large_df() {
        // Standard normal CDF values Φ(x) (R's pnorm).
        let t = StudentsT::new(10_000.0).unwrap();
        for (x, phi) in [
            (-2.0, 0.022_750_132),
            (-0.5, 0.308_537_539),
            (0.0, 0.5),
            (1.0, 0.841_344_746),
            (2.5, 0.993_790_335),
        ] {
            assert!((t.cdf(x) - phi).abs() < 1e-3, "x = {x}");
        }
    }

    #[test]
    fn t_rejects_bad_df() {
        assert!(StudentsT::new(0.0).is_err());
        assert!(StudentsT::new(-3.0).is_err());
        assert!(StudentsT::new(f64::NAN).is_err());
    }
}
