//! Closed-form solver for the one-row YARN LP of §5.2 (Equations 7–10).
//!
//! In the step variables `d_k = m_k − m'_k` the linearized problem is
//!
//! ```text
//! max  v·d   s.t.  w·d ≤ 0,  −δ ≤ d_k ≤ δ
//! ```
//!
//! one latency row plus a box per group: a continuous knapsack. Its
//! optimum gives up objective value where it buys the most row relief
//! per unit, so a single sort by `|v_k / w_k|` solves it exactly. By LP
//! duality the optimum equals `min_{λ≥0} δ·Σ_k |v_k − λ·w_k|`, a convex
//! piecewise-linear function of λ whose minimum sits at `λ = 0` or at a
//! breakpoint `v_k / w_k > 0`; the tests evaluate that bound exactly and
//! hold this solver's objective to it.

// kea-lint: allow-file(index-in-library) — every index is below the one length `values` and `weights` were checked to share

use crate::error::OptError;

/// Exact optimum of `max values·d` s.t. `weights·d ≤ 0`,
/// `−step ≤ d_k ≤ step`.
///
/// Each `d_k` starts at the bound its value prefers; a zero value takes
/// the bound that loosens the row. If the row is then violated, the
/// variables that relieve it move to their other bound in increasing
/// `|v_k / w_k|`, exact ties in index order, until the row binds. At
/// most one variable ends up strictly inside its box. `d = 0` is always
/// feasible, so the problem is never infeasible or unbounded.
///
/// # Errors
/// [`OptError::DimensionMismatch`] when the slices differ in length;
/// [`OptError::InvalidParameter`] for an empty problem, `step ≤ 0`, or a
/// row activity `weights·d` past the range of `f64`;
/// [`OptError::NonFiniteInput`] for NaN or ∞ in either slice or in
/// `step`.
pub fn solve(values: &[f64], weights: &[f64], step: f64) -> Result<Vec<f64>, OptError> {
    if weights.len() != values.len() {
        return Err(OptError::DimensionMismatch {
            expected: values.len(),
            actual: weights.len(),
        });
    }
    if values.is_empty() {
        return Err(OptError::InvalidParameter(
            "knapsack needs at least one variable",
        ));
    }
    if !step.is_finite() || values.iter().chain(weights).any(|x| !x.is_finite()) {
        return Err(OptError::NonFiniteInput);
    }
    if step <= 0.0 {
        return Err(OptError::InvalidParameter("step must be positive"));
    }
    let mut d: Vec<f64> = values
        .iter()
        .zip(weights)
        .map(|(&v, &w)| {
            if v > 0.0 || (v == 0.0 && w < 0.0) {
                step
            } else {
                -step
            }
        })
        .collect();
    let mut excess: f64 = weights.iter().zip(&d).map(|(w, x)| w * x).sum();
    if !excess.is_finite() {
        return Err(OptError::InvalidParameter("row activity overflows f64"));
    }
    let mut relievers: Vec<usize> = (0..d.len()).filter(|&k| weights[k] * d[k] > 0.0).collect();
    // The sort is stable, so exact ratio ties keep index order.
    relievers.sort_by(|&a, &b| {
        (values[a] / weights[a])
            .abs()
            .total_cmp(&(values[b] / weights[b]).abs())
    });
    for k in relievers {
        if excess <= 0.0 {
            break;
        }
        // Row relief if d_k moves all the way to its other bound.
        let full = 2.0 * weights[k] * d[k];
        if full <= excess {
            d[k] = -d[k];
            excess -= full;
        } else {
            d[k] -= excess / weights[k];
            break;
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_row_keeps_every_variable_at_plus_step() {
        // w·(+1) = 1 − 2 + 0.5 < 0: the row never binds.
        let d = solve(&[3.0, 1.0, 2.0], &[1.0, -2.0, 0.5], 1.0).unwrap();
        assert_eq!(d, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn nonpositive_weights_never_bind() {
        let d = solve(&[5.0, 0.0, 2.0], &[-1.0, -3.0, 0.0], 2.0).unwrap();
        // The zero-value variable takes the bound that loosens the row.
        assert_eq!(d, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn one_group_ends_fractional_at_its_exact_value() {
        // Ratios |v/w|: 10, 2, 3; index 3 (w < 0) relieves nothing.
        // Start at +1 everywhere: row = 1 + 2 + 3 − 1 = 5. Index 1 flips
        // (relief 4, row 1), then index 2 moves by 1/3 and index 0 stays.
        let d = solve(&[10.0, 4.0, 9.0, 1.0], &[1.0, 2.0, 3.0, -1.0], 1.0).unwrap();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[1], -1.0);
        assert!((d[2] - (1.0 - 1.0 / 3.0)).abs() < 1e-15, "d = {d:?}");
        assert_eq!(d[3], 1.0);
        let row: f64 = [1.0, 2.0, 3.0, -1.0]
            .iter()
            .zip(&d)
            .map(|(w, x)| w * x)
            .sum();
        assert!(row.abs() < 1e-12);
    }

    #[test]
    fn exact_ties_move_in_index_order() {
        // Identical groups start at +1 with row = G, and each flip
        // relieves 2. Four groups: indices 0 and 1 flip and the row binds.
        let d = solve(&[1.0; 4], &[1.0; 4], 1.0).unwrap();
        assert_eq!(d, vec![-1.0, -1.0, 1.0, 1.0]);
        // Three groups: index 0 flips, index 1 ends fractional at 0.
        let d = solve(&[1.0; 3], &[1.0; 3], 1.0).unwrap();
        assert_eq!(d, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn typed_errors() {
        assert_eq!(
            solve(&[1.0, 2.0], &[1.0], 1.0),
            Err(OptError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert!(matches!(
            solve(&[], &[], 1.0),
            Err(OptError::InvalidParameter(_))
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(solve(&[bad], &[1.0], 1.0), Err(OptError::NonFiniteInput));
            assert_eq!(solve(&[1.0], &[bad], 1.0), Err(OptError::NonFiniteInput));
            assert_eq!(solve(&[1.0], &[1.0], bad), Err(OptError::NonFiniteInput));
        }
        for step in [0.0, -1.0] {
            assert!(matches!(
                solve(&[1.0], &[1.0], step),
                Err(OptError::InvalidParameter(_))
            ));
        }
        // Finite inputs whose row terms overflow to +∞ and −∞.
        assert!(matches!(
            solve(&[1.0, 1.0], &[1e308, -1e308], 10.0),
            Err(OptError::InvalidParameter(_))
        ));
    }
}
