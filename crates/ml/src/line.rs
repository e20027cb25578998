//! Univariate linear models with exact inverses.
//!
//! Every calibrated model in the paper's equations (1)–(6) and (11)–(12) is
//! a univariate map between two machine-group metrics: containers → CPU
//! utilization (`g_k`), utilization → tasks/hour (`h_k`), utilization →
//! task latency (`f_k`), cores → SSD (`p`), cores → RAM (`q`). The SKU
//! design optimizer additionally needs the inverse maps `p⁻¹`, `q⁻¹`
//! (§6.1, step 2). [`LinearModel1D`] packages a fitted line with its
//! inverse.
//!
//! Both fits run directly on the `x` and `y` slices and solve the 2×2
//! normal equations of the design `[1, x]` in closed form: OLS in
//! `linreg`, Huber robust regression (IRLS scaled by the median absolute
//! residual, the paper's choice for the What-if Engine, §5.2.1) in
//! `huber`.

use crate::error::MlError;
use crate::{huber, linreg, metrics};

/// A univariate linear model `y = intercept + slope·x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel1D {
    intercept: f64,
    slope: f64,
}

impl LinearModel1D {
    /// Fits by OLS.
    ///
    /// ```
    /// use kea_ml::LinearModel1D;
    /// // y = 2 + 3x, exactly.
    /// let x: Vec<f64> = (0..10).map(f64::from).collect();
    /// let y: Vec<f64> = x.iter().map(|v| 2.0 + 3.0 * v).collect();
    /// let model = LinearModel1D::fit_ols(&x, &y).unwrap();
    /// assert!((model.intercept() - 2.0).abs() < 1e-9);
    /// assert!((model.slope() - 3.0).abs() < 1e-9);
    /// assert!((model.predict(4.0) - 14.0).abs() < 1e-9);
    /// ```
    ///
    /// # Errors
    /// `x` and `y` must have the same length, at least two observations,
    /// finite values, and varying `x` (checked in that order).
    pub fn fit_ols(x: &[f64], y: &[f64]) -> Result<Self, MlError> {
        check_inputs(x, y)?;
        let (intercept, slope) = linreg::fit(x, y)?;
        Ok(LinearModel1D { intercept, slope })
    }

    /// Fits by Huber robust regression (the paper's choice, §5.2.1).
    ///
    /// ```
    /// use kea_ml::LinearModel1D;
    /// // y = 1 + 2x with one gross outlier; Huber shrugs it off.
    /// let x: Vec<f64> = (0..30).map(f64::from).collect();
    /// let y: Vec<f64> = x
    ///     .iter()
    ///     .map(|v| 1.0 + 2.0 * v + if *v == 7.0 { 500.0 } else { 0.0 })
    ///     .collect();
    /// let model = LinearModel1D::fit_huber(&x, &y).unwrap();
    /// assert!((model.slope() - 2.0).abs() < 0.05);
    /// ```
    ///
    /// # Errors
    /// Same as [`LinearModel1D::fit_ols`].
    pub fn fit_huber(x: &[f64], y: &[f64]) -> Result<Self, MlError> {
        check_inputs(x, y)?;
        let (intercept, slope) = huber::fit(x, y)?;
        Ok(LinearModel1D { intercept, slope })
    }

    /// Intercept (`α` in the paper's Equations 11–12).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Slope (`β` in the paper's Equations 11–12).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Forward prediction `y = intercept + slope·x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Goodness of fit on `(x, y)`: bit for bit the
    /// [`r2_score`](crate::r2_score) of `y` against this line's
    /// predictions at `x`, which it makes on the fly instead of storing.
    ///
    /// # Errors
    /// Same as [`r2_score`](crate::r2_score); a prediction that overflows
    /// to ±∞ is non-finite input.
    pub fn r2(&self, x: &[f64], y: &[f64]) -> Result<f64, MlError> {
        metrics::r2_of(y, x.len(), || x.iter().map(|&v| self.predict(v)))
    }

    /// Exact inverse `x = (y − intercept) / slope` — the `p⁻¹`, `q⁻¹` of
    /// §6.1.
    ///
    /// # Errors
    /// The slope must be non-zero for the inverse to exist.
    pub fn inverse(&self, y: f64) -> Result<f64, MlError> {
        if self.slope == 0.0 {
            return Err(MlError::InvalidParameter(
                "inverse undefined for zero slope",
            ));
        }
        Ok((y - self.intercept) / self.slope)
    }
}

/// The validation both fits share: shape, then at least two rows, then
/// finite values.
fn check_inputs(x: &[f64], y: &[f64]) -> Result<(), MlError> {
    if x.len() != y.len() {
        return Err(MlError::ShapeMismatch {
            x_rows: x.len(),
            y_len: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(MlError::InsufficientData {
            required: 2,
            actual: x.len(),
        });
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(MlError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_ols_recovers_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 + 0.5 * v).collect();
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert!((m.intercept() - 1.0).abs() < 1e-9);
        assert!((m.slope() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fit_huber_ignores_outliers() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 + 3.0 * v + if i % 9 == 4 { 500.0 } else { 0.0 })
            .collect();
        let huber = LinearModel1D::fit_huber(&x, &y).unwrap();
        let ols = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert!((huber.slope() - 3.0).abs() < 0.05);
        assert!((huber.slope() - 3.0).abs() < (ols.slope() - 3.0).abs());
    }

    #[test]
    fn inverse_round_trips() {
        let m = LinearModel1D {
            intercept: 10.0,
            slope: 2.5,
        };
        for x in [-3.0, 0.0, 7.25] {
            let y = m.predict(x);
            assert!((m.inverse(y).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_rejects_flat_line() {
        let m = LinearModel1D {
            intercept: 4.0,
            slope: 0.0,
        };
        assert!(m.inverse(4.0).is_err());
    }

    /// Asserts the raw bits of `(intercept, slope)` from OLS, then Huber,
    /// and that each model's `r2` equals `r2_score` of its stored
    /// predictions bit for bit.
    fn assert_fit_bits(name: &str, (x, y): (Vec<f64>, Vec<f64>), want: [u64; 4]) {
        let ols = LinearModel1D::fit_ols(&x, &y).unwrap();
        let huber = LinearModel1D::fit_huber(&x, &y).unwrap();
        let got = [
            ols.intercept(),
            ols.slope(),
            huber.intercept(),
            huber.slope(),
        ];
        assert_eq!(got.map(f64::to_bits), want, "{name}");
        for m in [&ols, &huber] {
            let (on_the_fly, stored) = r2_both_ways(m, &x, &y);
            assert!(on_the_fly.is_ok(), "{name}");
            assert_eq!(on_the_fly, stored, "{name}");
        }
    }

    /// `(m.r2(x, y), r2_score(y, &predictions))`, as bits.
    fn r2_both_ways(
        m: &LinearModel1D,
        x: &[f64],
        y: &[f64],
    ) -> (Result<u64, MlError>, Result<u64, MlError>) {
        let pred: Vec<f64> = x.iter().map(|&v| m.predict(v)).collect();
        let bits = |r: Result<f64, MlError>| r.map(f64::to_bits);
        (bits(m.r2(x, y)), bits(crate::r2_score(y, &pred)))
    }

    /// The two ways to score a line fail alike: on a constant target the
    /// line misses, and on predictions that overflow to ±∞.
    #[test]
    fn r2_and_r2_score_refuse_alike() {
        let x = [-2.0, 1.0, 2.0];
        let off = LinearModel1D {
            intercept: 1.0,
            slope: 1.0,
        };
        let (on_the_fly, stored) = r2_both_ways(&off, &x, &[5.0; 3]);
        assert!(matches!(on_the_fly, Err(MlError::InvalidParameter(_))));
        assert_eq!(on_the_fly, stored);
        let steep = LinearModel1D {
            intercept: 0.0,
            slope: f64::MAX,
        };
        let (on_the_fly, stored) = r2_both_ways(&steep, &x, &[1.0, 2.0, 3.0]);
        assert_eq!(on_the_fly, Err(MlError::NonFiniteInput));
        assert_eq!(on_the_fly, stored);
    }

    fn line_with(
        n: usize,
        x_of: impl Fn(usize) -> f64,
        y_of: impl Fn(usize, f64) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(x_of).collect();
        let y = x.iter().enumerate().map(|(i, &v)| y_of(i, v)).collect();
        (x, y)
    }

    /// Both fits reproduce, bit for bit, the coefficients of the general
    /// p-feature solver (dense matrix, IRLS over feature rows) that this
    /// closed-form path replaced. The bits were recorded from that solver.
    /// On each fixture `r2` and `r2_score` also agree bit for bit.
    #[test]
    fn golden_bits_match_the_p_feature_solver() {
        assert_fit_bits(
            "1,000-row line, 10% outliers",
            line_with(
                1000,
                |i| i as f64 * 0.1,
                |i, v| {
                    let base = 5.0 + 2.0 * v + ((i * 37) % 11) as f64 * 0.05;
                    if i % 10 == 3 {
                        base + 100.0
                    } else {
                        base
                    }
                },
            ),
            [
                0x402ead859f90e5a6,
                0x3ffff8b3745ef32f,
                0x401524e18e990f47,
                0x400000033777aa43,
            ],
        );
        assert_fit_bits(
            "exact line: Huber exits at scale < 1e-12 with the OLS start",
            line_with(20, |i| i as f64, |_, v| 5.0 - 0.5 * v),
            [
                0x4014000000000000,
                0xbfe0000000000000,
                0x4014000000000000,
                0xbfe0000000000000,
            ],
        );
        assert_fit_bits(
            "y pinned at 100 on half the rows (saturated group)",
            line_with(
                40,
                |i| i as f64 * 0.75,
                |i, v| {
                    if i >= 20 {
                        100.0
                    } else {
                        40.0 + 2.5 * v + ((i * 7) % 5) as f64 * 0.3
                    }
                },
            ),
            [
                0x404618a9d58a9d58,
                0x40032718affb639e,
                0x4044af220cd77c02,
                0x4003bd7f61c19ce8,
            ],
        );
        assert_fit_bits(
            "heavily tied x, including zeros",
            line_with(
                30,
                |i| (i % 4) as f64,
                |i, v| {
                    1.0 + 0.5 * v
                        + ((i * 11) % 7) as f64 * 0.1
                        + if i % 10 == 7 { 20.0 } else { 0.0 }
                },
            ),
            [
                0x3ff3506e58e171b9,
                0x3fff49abde912688,
                0x3ff407a70048f592,
                0x3fe2213a049db260,
            ],
        );
        assert_fit_bits(
            "x in (0, 1): the pivot does not swap",
            line_with(
                25,
                |i| (i as f64 + 0.5) / 25.0,
                |i, v| {
                    3.0 - 2.0 * v + ((i * 5) % 3) as f64 * 0.05 + if i == 9 { 10.0 } else { 0.0 }
                },
            ),
            [
                0x400de8363177925f,
                0xc004a56a56a56a5e,
                0x40087b260f90c35c,
                0xc000196566927b16,
            ],
        );
        assert_fit_bits(
            "x around 1e6",
            line_with(
                50,
                |i| 1e6 + i as f64 * 3.0,
                |i, v| 0.002 * v + ((i * 13) % 9) as f64 * 0.01,
            ),
            [
                0xc03c221c84017576,
                0x3f609d6253014751,
                0xc03c2c3f546dac66,
                0x3f609d77947d8bfd,
            ],
        );
    }

    /// Deterministic noise in `[-0.5, 0.5)`, scrambled across rows.
    fn noise(i: usize) -> f64 {
        ((i * 7919 + 13) % 1009) as f64 / 1009.0 - 0.5
    }

    /// Fits large enough for IRLS to bracket its median from a sample.
    /// The bits were recorded from the IRLS that took every median by a
    /// full selection.
    #[test]
    fn golden_bits_on_large_fits() {
        assert_fit_bits(
            "45,001-row noisy line, 10% outliers",
            line_with(
                45_001,
                |i| (i % 3_001) as f64 * 0.01,
                |i, v| {
                    let base = 5.0 + 2.0 * v + noise(i);
                    if i % 10 == 3 {
                        base + 100.0
                    } else {
                        base
                    }
                },
            ),
            [
                0x402e04dade2600fb,
                0x3ffffd35ac2ef538,
                0x40143e0f32ed7808,
                0x400000105ae9de89,
            ],
        );
        assert_fit_bits(
            "50,000 rows, y quantized to 0.5: residuals tie at the median",
            line_with(
                50_000,
                |i| (i % 200) as f64 * 0.25,
                |i, v| {
                    let y = 3.0 + 1.5 * v + 2.0 * noise(i) + if i % 13 == 5 { 40.0 } else { 0.0 };
                    (2.0 * y).round() * 0.5
                },
            ),
            [
                0x4018500145872fac,
                0x3ff7ffa1290442b7,
                0x4008ba739847eff5,
                0x3ff7ffff5a0f8c6e,
            ],
        );
        assert_fit_bits(
            "41,984 rows, every 41st an outlier: the stride sample sees only those",
            line_with(
                41_984,
                |i| (i % 997) as f64 * 0.1,
                |i, v| {
                    let base = -2.0 + 0.75 * v + 0.1 * noise(i);
                    match i % 82 {
                        0 => base + 500.0,
                        41 => base - 300.0,
                        _ => base,
                    }
                },
            ),
            [
                0x3fd4e50cc34c3ebd,
                0x3fe8128c52a025fa,
                0xc000004ce556ac88,
                0x3fe800040766616a,
            ],
        );
    }
}
