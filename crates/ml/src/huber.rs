//! Huber robust regression for a line, fitted with IRLS.
//!
//! §5.2.1: "We used a Huber Regressor for the prediction of the set of
//! performance metrics in the What-if Engine, which is more robust to
//! outliers compared to the Least Squares Regression." Cluster telemetry is
//! full of outliers — machines draining for repair, transient hot spots —
//! so robustness is not optional.
//!
//! The estimator minimizes `Σ ρ_δ(r_i / s)` where `ρ_δ` is the Huber loss
//! (quadratic within `δ`, linear outside) and `s` is a robust scale
//! estimate. We fit by iteratively reweighted least squares (IRLS): at
//! each step, observations with standardized residual beyond `δ` get
//! down-weighted by `δ·s/|r|`, then a weighted least-squares problem is
//! solved in closed form. Scale is re-estimated each iteration as 1.4826
//! times the median of the absolute residuals `|r_i|`. The residuals are
//! not centred first, so this is not the median absolute deviation about
//! their median; the factor makes it consistent with the standard
//! deviation of normal errors centred on the line.
//!
//! The median is exact, found by selection on the order-preserving bits of
//! `|r_i|`. On a large fit one iteration does not select over every row: a
//! sorted stride sample of the residuals brackets the middle, one pass
//! writes `|r_i|`, counts the keys below the bracket and gathers those
//! inside it (about a tenth of the rows), and a selection over the
//! gathered keys returns the middle ones. When the bracket misses a middle
//! rank, that iteration selects over every row instead, so the median is
//! the same on every input.

use crate::error::MlError;
use crate::matrix::{self, NormalEquations};

/// Huber threshold in robust standard deviations; 1.345 gives 95%
/// efficiency under normal errors (the standard choice, also
/// scikit-learn's default modulo its different parameterization).
const DELTA: f64 = 1.345;

/// IRLS iteration budget. If it runs out (rare; degenerate leverage
/// configurations such as near-vertical clouds from saturated telemetry)
/// the last iterate is returned — a telemetry pipeline must degrade, not
/// fall over.
const MAX_ITER: usize = 100;

/// IRLS has converged once no coefficient moves by this much.
const TOL: f64 = 1e-8;

/// Fits with fewer rows select each median over every row: below this
/// size, sorting the sample costs about as much as the whole selection.
const BRACKET_MIN_ROWS: usize = 16_384;

/// Size of the stride sample that brackets the median.
const SAMPLE: usize = 1_024;

/// Distance between sampled rows for `n ≥ SAMPLE`: the largest odd
/// number no larger than `n / SAMPLE`. Odd, so the sample does not lock
/// onto one parity of the row layout. What-if rows come in
/// `(hour, machine)` order; on one keabench fit_week group (100,694 rows,
/// about 600 an hour) the even stride 98 put the bracket off the middle
/// in all ten iterations of one fit, and the odd stride 97 hit in every
/// iteration of the week's 18 fits.
fn sample_stride(n: usize) -> usize {
    (n / SAMPLE - 1) | 1
}

/// Huber `(intercept, slope)` on validated input, by IRLS starting from
/// OLS (unit weights).
pub(crate) fn fit(x: &[f64], y: &[f64]) -> Result<(f64, f64), MlError> {
    let mut w = vec![1.0; y.len()];
    let mut beta = matrix::solve(weighted_normal_equations(x, y, &w))?;
    let mut abs_residuals = vec![0.0; y.len()];
    let mut keys = vec![0; y.len()];
    for _ in 0..MAX_ITER {
        let (intercept, slope) = beta;
        let scale = 1.4826 * abs_residual_median(x, y, beta, &mut abs_residuals, &mut keys);
        if scale < 1e-12 {
            // Perfect (or near-perfect) fit for over half the data; the
            // Huber solution is the current one.
            return Ok(beta);
        }
        let threshold = DELTA * scale;
        for (wi, &a) in w.iter_mut().zip(&abs_residuals) {
            *wi = if a <= threshold { 1.0 } else { threshold / a };
        }
        let next = matrix::solve(weighted_normal_equations(x, y, &w))?;
        // `f64::max` ignores NaN, so a NaN change (an overflowed fit) reads
        // as converged.
        let max_change = 0.0_f64
            .max((next.0 - intercept).abs())
            .max((next.1 - slope).abs());
        beta = next;
        if max_change < TOL {
            return Ok(beta);
        }
    }
    Ok(beta)
}

/// Weighted least squares `(Xᵀ W X) β = Xᵀ W y` for the design `[1, x]`.
fn weighted_normal_equations(x: &[f64], y: &[f64], w: &[f64]) -> NormalEquations {
    let (mut sw, mut swx, mut swxx, mut swy, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for ((&xi, &yi), &wi) in x.iter().zip(y).zip(w) {
        let wxi = wi * xi;
        sw += wi;
        swx += wxi;
        swxx += wxi * xi;
        swy += wi * yi;
        swxy += wxi * yi;
    }
    ([[sw, swx], [swx, swxx]], [swy, swxy])
}

/// Writes `|y_i − (intercept + slope·x_i)|` into `abs_residuals` and
/// returns their median: the middle value, or for even `n` the mean of
/// the two middles, in `f64::total_cmp` order. `keys` is scratch of the
/// same length, reused across IRLS iterations.
///
/// Keys are `f64::to_bits` of the absolute values. Their sign bit is
/// clear, so `u64` order is `total_cmp` order, +∞ and +NaN included.
fn abs_residual_median(
    x: &[f64],
    y: &[f64],
    beta: (f64, f64),
    abs_residuals: &mut [f64],
    keys: &mut [u64],
) -> f64 {
    let n = abs_residuals.len();
    if n >= BRACKET_MIN_ROWS {
        if let Some(median) = bracketed_median(x, y, beta, abs_residuals, keys) {
            return median;
        }
    } else {
        let (intercept, slope) = beta;
        for ((a, &xi), &yi) in abs_residuals.iter_mut().zip(x).zip(y) {
            *a = (yi - (intercept + slope * xi)).abs();
        }
    }
    for (k, a) in keys.iter_mut().zip(&*abs_residuals) {
        *k = a.to_bits();
    }
    middle(keys, n / 2, n.is_multiple_of(2))
}

/// [`abs_residual_median`] for `n ≥ SAMPLE` rows without a selection over
/// all of them. The 45th and 55th percentiles of a sorted stride sample
/// bracket the middle ranks; one pass writes every `|r_i|`, counts the
/// keys below the bracket and gathers the keys inside it, and a selection
/// over those finds the middles. `None` when the bracket misses a middle
/// rank; `abs_residuals` is written either way.
fn bracketed_median(
    x: &[f64],
    y: &[f64],
    (intercept, slope): (f64, f64),
    abs_residuals: &mut [f64],
    keys: &mut [u64],
) -> Option<f64> {
    let abs_residual = |xi: f64, yi: f64| (yi - (intercept + slope * xi)).abs();
    let n = abs_residuals.len();
    let mut sample = [0; SAMPLE];
    let strided = x.iter().zip(y).step_by(sample_stride(n));
    for (s, (&xi, &yi)) in sample.iter_mut().zip(strided) {
        *s = abs_residual(xi, yi).to_bits();
    }
    sample.sort_unstable();
    // kea-lint: allow(index-in-library) — constant ranks below SAMPLE
    let (lo, hi) = (sample[SAMPLE * 45 / 100], sample[SAMPLE * 55 / 100]);
    let (mut below, mut inside) = (0, 0);
    for ((a, &xi), &yi) in abs_residuals.iter_mut().zip(x).zip(y) {
        *a = abs_residual(xi, yi);
        let key = a.to_bits();
        below += usize::from(key < lo);
        // Written on every row, kept only when it lands in `[lo, hi]`.
        keys[inside] = key; // kea-lint: allow(index-in-library) — inside ≤ this row's index < n
        inside += usize::from(key.wrapping_sub(lo) <= hi - lo);
    }
    let (mid, even) = (n / 2, n.is_multiple_of(2));
    // The lowest rank the median needs: the lower middle for even `n`.
    let first = if even { mid - 1 } else { mid };
    let gathered = keys.get_mut(..inside)?;
    (below <= first && mid < below + inside).then(|| middle(gathered, mid - below, even))
}

/// The value at `rank` of `keys` in sorted order, averaged for an `even`
/// count with the largest key ranked below it (the lower middle).
fn middle(keys: &mut [u64], rank: usize, even: bool) -> f64 {
    let (lower, &mut upper, _) = keys.select_nth_unstable(rank);
    let upper = f64::from_bits(upper);
    match lower.iter().max() {
        Some(&below) if even => 0.5 * (f64::from_bits(below) + upper),
        _ => upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearModel1D;
    use proptest::prelude::*;

    /// The IRLS the bracketed median replaced, kept as the oracle: every
    /// iteration copies the absolute residuals and selects their median
    /// over all of them in `f64::total_cmp` order.
    fn reference_fit(x: &[f64], y: &[f64]) -> Result<(f64, f64), MlError> {
        let mut w = vec![1.0; y.len()];
        let mut beta = matrix::solve(weighted_normal_equations(x, y, &w))?;
        let mut abs_residuals = vec![0.0; y.len()];
        let mut buf = Vec::with_capacity(y.len());
        for _ in 0..MAX_ITER {
            let (intercept, slope) = beta;
            for ((r, &xi), &yi) in abs_residuals.iter_mut().zip(x).zip(y) {
                *r = (yi - (intercept + slope * xi)).abs();
            }
            let scale = reference_scale(&abs_residuals, &mut buf);
            if scale < 1e-12 {
                return Ok(beta);
            }
            let threshold = DELTA * scale;
            for (wi, &a) in w.iter_mut().zip(&abs_residuals) {
                *wi = if a <= threshold { 1.0 } else { threshold / a };
            }
            let next = matrix::solve(weighted_normal_equations(x, y, &w))?;
            let max_change = 0.0_f64
                .max((next.0 - intercept).abs())
                .max((next.1 - slope).abs());
            beta = next;
            if max_change < TOL {
                return Ok(beta);
            }
        }
        Ok(beta)
    }

    /// 1.4826 × the median of `abs_residuals` by a full selection.
    fn reference_scale(abs_residuals: &[f64], buf: &mut Vec<f64>) -> f64 {
        buf.clear();
        buf.extend_from_slice(abs_residuals);
        let mid = buf.len() / 2;
        let (lower, &mut upper, _) = buf.select_nth_unstable_by(mid, f64::total_cmp);
        let median = if abs_residuals.len() % 2 == 1 {
            upper
        } else {
            let below = lower
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .unwrap_or(upper);
            0.5 * (below + upper)
        };
        1.4826 * median
    }

    /// The median of `|v|` over `values` by a full `total_cmp` sort.
    fn sorted_median(values: &[f64]) -> f64 {
        let mut sorted: Vec<f64> = values.iter().map(|v| v.abs()).collect();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        }
    }

    /// `abs_residual_median` of `values` as residuals of the line
    /// `y = 0` at `x = 0`, so each `|r_i|` is `|values_i|`; also checks
    /// that it wrote those into `abs_residuals`.
    fn median_of(values: &[f64]) -> f64 {
        let n = values.len();
        let (x, mut abs, mut keys) = (vec![0.0; n], vec![0.0; n], vec![0; n]);
        let median = abs_residual_median(&x, values, (0.0, 0.0), &mut abs, &mut keys);
        let want: Vec<u64> = values.iter().map(|v| v.abs().to_bits()).collect();
        assert_eq!(abs.iter().map(|a| a.to_bits()).collect::<Vec<_>>(), want);
        median
    }

    /// `bracketed_median` of `values`, as `median_of` sets them up.
    fn bracketed_of(values: &[f64]) -> Option<f64> {
        let n = values.len();
        let (x, mut abs, mut keys) = (vec![0.0; n], vec![0.0; n], vec![0; n]);
        bracketed_median(&x, values, (0.0, 0.0), &mut abs, &mut keys)
    }

    /// `n` values whose stride sample is `sampled(j)` at its `j`-th row;
    /// of the other rows the first `lows` hold values in `[1, 96]` and the
    /// rest values above 1,000.
    fn laid_out(n: usize, sampled: impl Fn(usize) -> f64, mut lows: usize) -> Vec<f64> {
        let stride = sample_stride(n);
        (0..n)
            .map(|i| {
                if i % stride == 0 && i / stride < SAMPLE {
                    sampled(i / stride)
                } else if lows > 0 {
                    lows -= 1;
                    1.0 + (i % 96) as f64
                } else {
                    1e3 + i as f64
                }
            })
            .collect()
    }

    fn noisy_line_with_outliers() -> (Vec<f64>, Vec<f64>) {
        // y = 10 + 2x with small deterministic noise, plus 10% gross
        // outliers (telemetry from draining machines).
        (0..100)
            .map(|i| {
                let xi = i as f64 * 0.5;
                let noise = ((i * 37) % 11) as f64 * 0.02 - 0.1;
                let yi = if i % 10 == 3 {
                    10.0 + 2.0 * xi + 80.0
                } else {
                    10.0 + 2.0 * xi + noise
                };
                (xi, yi)
            })
            .unzip()
    }

    #[test]
    fn exact_line_recovered() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 - 0.5 * v).collect();
        let m = LinearModel1D::fit_huber(&x, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-6);
        assert!((m.slope() + 0.5).abs() < 1e-6);
    }

    #[test]
    fn robust_to_gross_outliers_where_ols_is_not() {
        let (x, y) = noisy_line_with_outliers();
        let huber = LinearModel1D::fit_huber(&x, &y).unwrap();
        let ols = LinearModel1D::fit_ols(&x, &y).unwrap();
        // Huber slope should be very close to the true 2.0; OLS is pulled
        // away by the +80 outliers.
        let huber_err = (huber.slope() - 2.0).abs();
        let ols_err = (ols.slope() - 2.0).abs();
        assert!(huber_err < 0.05, "huber slope err {huber_err}");
        assert!(
            huber.intercept() - 10.0 < 1.0,
            "huber intercept {}",
            huber.intercept()
        );
        assert!(
            huber_err < ols_err,
            "huber ({huber_err}) should beat OLS ({ols_err})"
        );
        // OLS intercept is biased upward by roughly outlier_mass ≈ 8.
        assert!(ols.intercept() > huber.intercept() + 2.0);
    }

    #[test]
    fn perfect_fit_short_circuits() {
        // An exact line leaves (rounding-level) residuals at the OLS start,
        // so the scale is below the 1e-12 cut-off and IRLS returns that
        // start as it is.
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let start = matrix::solve(weighted_normal_equations(&x, &y, &[1.0; 10])).unwrap();
        let median = abs_residual_median(&x, &y, start, &mut [0.0; 10], &mut [0; 10]);
        assert!(1.4826 * median < 1e-12);
        assert_eq!(fit(&x, &y), Ok(start));
        assert!((start.1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shape_and_finiteness_checked() {
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, 2.0], &[1.0]),
            Err(MlError::ShapeMismatch {
                x_rows: 2,
                y_len: 1
            })
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[], &[]),
            Err(MlError::InsufficientData {
                required: 2,
                actual: 0
            })
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, f64::NAN, 2.0], &[1.0, 2.0, 3.0]),
            Err(MlError::NonFiniteInput)
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, 2.0, 3.0], &[1.0, f64::INFINITY, 3.0]),
            Err(MlError::NonFiniteInput)
        );
    }

    #[test]
    fn constant_x_is_singular() {
        let x = [2.0; 10];
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(
            LinearModel1D::fit_huber(&x, &y),
            Err(MlError::SingularSystem)
        );
    }

    #[test]
    fn median_matches_a_full_sort() {
        // Below the bracketing size: odd and even counts, signed zeros,
        // +∞ and NaN (whose sign `abs` clears).
        for values in [
            vec![3.0, 1.0, 2.0],
            vec![4.0, 1.0, 3.0, 2.0],
            vec![-0.0, 0.0, 0.0, -0.0],
            vec![-0.0, 5.0, 0.0],
            vec![f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0],
            vec![f64::NAN, 1.0, -f64::NAN, 2.0, f64::INFINITY],
            vec![f64::NAN, f64::INFINITY],
            vec![7.0; 6],
        ] {
            assert_eq!(
                median_of(&values).to_bits(),
                sorted_median(&values).to_bits(),
                "{values:?}"
            );
        }
    }

    #[test]
    fn bracketed_median_matches_a_full_sort_on_a_hit_and_falls_back_on_a_miss() {
        let scrambled = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i * 7919) % n) as f64 * if i % 2 == 0 { 0.5 } else { -0.5 })
                .collect()
        };
        // Hits: distinct values (odd and even n); heavy ties, where the
        // bracket is one value; and a tail of +∞ and NaN.
        let mut tied: Vec<f64> = (0..20_000).map(|i| (i % 5) as f64).collect();
        tied[17] = -0.0;
        let mut tailed = scrambled(30_001);
        for i in (0..tailed.len()).step_by(7) {
            tailed[i] = if i % 2 == 0 { f64::INFINITY } else { f64::NAN };
        }
        for values in [scrambled(20_001), scrambled(20_000), tied, tailed] {
            let n = values.len();
            let want = sorted_median(&values).to_bits();
            assert_eq!(
                bracketed_of(&values).map(f64::to_bits),
                Some(want),
                "n = {n}"
            );
            assert_eq!(median_of(&values).to_bits(), want, "n = {n}");
        }
        // Misses: the sample holds only huge values (or +∞, or 0), so it
        // brackets the wrong ranks and the full selection answers.
        for (n, planted) in [(20_480, 1e9), (20_481, f64::INFINITY), (40_000, 0.0)] {
            let values = laid_out(n, |_| planted, n);
            assert_eq!(bracketed_of(&values), None, "n = {n}");
            assert_eq!(
                median_of(&values).to_bits(),
                sorted_median(&values).to_bits(),
                "n = {n}"
            );
        }
        // Misses by one rank at either end, for an even count: the bracket
        // starts at the upper middle, so the lower middle lies below it;
        // or every key up to the bracket's top ranks below the upper middle.
        let n = 20_480;
        let (lo_rank, hi_rank) = (SAMPLE * 45 / 100, SAMPLE * 55 / 100);
        let starts_at_the_upper_middle =
            laid_out(n, |j| if j < lo_rank { 1.0 } else { 1e3 }, n / 2 - lo_rank);
        let ends_below_the_upper_middle = laid_out(
            n,
            |j| {
                if j < lo_rank {
                    1.0
                } else if j <= hi_rank {
                    97.0
                } else {
                    1e3
                }
            },
            n / 2 - hi_rank - 1,
        );
        for values in [starts_at_the_upper_middle, ends_below_the_upper_middle] {
            assert_eq!(bracketed_of(&values), None);
            assert_eq!(
                median_of(&values).to_bits(),
                sorted_median(&values).to_bits()
            );
        }
    }

    #[test]
    fn sample_stride_is_odd_and_keeps_the_sample_in_range() {
        for n in [
            SAMPLE,
            2 * SAMPLE,
            BRACKET_MIN_ROWS,
            BRACKET_MIN_ROWS + 1,
            41_984,
            100_694,
            usize::MAX / 2,
        ] {
            let stride = sample_stride(n);
            assert_eq!(stride % 2, 1, "n = {n}");
            assert!(stride * (SAMPLE - 1) < n, "n = {n}");
        }
        assert_eq!(sample_stride(100_694), 97);
    }

    /// A uniform draw in `[0, 1]` for row `i` under `seed` (SplitMix64).
    fn unit(seed: u64, i: usize) -> f64 {
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// `(x, y)`: `n` rows of `y = 3 + slope·x` with noise of amplitude
    /// `noise`, an outlier on every `outlier_every`-th row (none when 0),
    /// and `y` rounded to multiples of `quantum` (none when 0).
    fn contaminated_line(
        n: usize,
        slope: f64,
        noise: f64,
        outlier_every: usize,
        quantum: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        (0..n)
            .map(|i| {
                let xi = (i % 1_000) as f64 * 0.05 + unit(seed, 3 * i);
                let mut yi = 3.0 + slope * xi + noise * (unit(seed, 3 * i + 1) - 0.5);
                if outlier_every > 0 && i % outlier_every == 0 {
                    yi += 50.0 + 200.0 * unit(seed, 3 * i + 2);
                }
                if quantum > 0.0 {
                    yi = (yi / quantum).round() * quantum;
                }
                (xi, yi)
            })
            .unzip()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fit_equals_the_full_selection_irls_bit_for_bit(
            n in prop_oneof![2usize..400, 16_000usize..17_000, 17_000usize..40_000],
            slope in -5.0..5.0f64,
            noise in 0.0..4.0f64,
            outlier_every in prop_oneof![Just(0usize), 2usize..30],
            quantum in prop_oneof![Just(0.0), 0.1..2.0f64],
            seed in 0u64..1_000_000,
        ) {
            let (x, y) = contaminated_line(n, slope, noise, outlier_every, quantum, seed);
            let got = fit(&x, &y).map(|(a, b)| (a.to_bits(), b.to_bits()));
            let want = reference_fit(&x, &y).map(|(a, b)| (a.to_bits(), b.to_bits()));
            prop_assert_eq!(got, want);
        }
    }
}
