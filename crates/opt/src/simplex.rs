//! The general linear-program builder, [`LpProblem`], and the dense
//! two-phase primal simplex that solves it, [`reference::solve`].
//!
//! The YARN-tuning LP of §5.2 (Equations 7–10) has one latency row and a
//! `[−δ, δ]` box per group, and [`knapsack::solve`](crate::knapsack::solve)
//! solves it in closed form. This simplex is the independent general
//! solver that closed form is checked against: kea-opt's property tests,
//! `kea_core::optimizer::reference` and the `optimizer_scale` bench all
//! run it on the same LP. Not for production use.
//!
//! Supported form:
//!
//! * maximize `c·x` (to minimize, maximize `−c·x`)
//! * constraints `a·x ≤ / ≥ / = b`
//! * per-variable bounds `lo ≤ x ≤ hi` (default `0 ≤ x`)
//!
//! Numerical-robustness notes (the LP-path burn-down):
//!
//! * The leaving-row ratio test tracks the *exact* minimum ratio and
//!   applies Bland's smallest-index tie-break only to exactly tied
//!   ratios. An ε-window tie-break can replace a strictly smaller ratio
//!   with one up to ε larger, which drives a basic variable negative by
//!   ε amplified by the pivot column's magnitude.
//! * Phase-1 artificial drive-out pivots on the *largest-magnitude*
//!   eligible entry, never the first `> ε` one: a near-ε pivot divides
//!   the whole row by that entry and amplifies any accumulated rounding
//!   residual by up to 1/ε.
//! * The phase-1 feasibility verdict compares the artificial objective
//!   against a tolerance *relative to the right-hand-side scale*; an
//!   absolute `1e-7` misclassifies feasible fleet-scale systems (rhs
//!   ~10⁹ and beyond) whose phase-1 residual is pure rounding dust.

// kea-lint: allow-file(index-in-library) — dense tableau kernel; all indices are bounded by the tableau dimensions fixed at construction

use crate::error::OptError;

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<f64>,
    relation: Relation,
    rhs: f64,
}

/// A linear program under construction. Builder-style:
///
/// ```
/// use kea_opt::{simplex, LpProblem, Relation};
/// // maximize 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4, 0), obj 12.
/// let lp = LpProblem::maximize(vec![3.0, 2.0])
///     .constraint(vec![1.0, 1.0], Relation::Le, 4.0).unwrap()
///     .constraint(vec![1.0, 3.0], Relation::Le, 6.0).unwrap();
/// let sol = simplex::reference::solve(&lp).unwrap();
/// assert!((sol.objective - 12.0).abs() < 1e-9);
/// assert!((sol.x[0] - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    lower: Vec<f64>,
    upper: Vec<Option<f64>>,
}

/// Optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable assignment (in original, unshifted coordinates).
    pub x: Vec<f64>,
    /// Optimal objective value `c·x`.
    pub objective: f64,
}

impl LpProblem {
    /// Starts a maximization problem with the given objective coefficients.
    pub fn maximize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        LpProblem {
            objective,
            constraints: Vec::new(),
            lower: vec![0.0; n],
            upper: vec![None; n],
        }
    }

    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds a constraint `coeffs · x (relation) rhs`.
    ///
    /// # Errors
    /// `coeffs` must have one entry per variable and all values finite.
    pub fn constraint(
        mut self,
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    ) -> Result<Self, OptError> {
        if coeffs.len() != self.n_vars() {
            return Err(OptError::DimensionMismatch {
                expected: self.n_vars(),
                actual: coeffs.len(),
            });
        }
        if coeffs.iter().any(|v| !v.is_finite()) || !rhs.is_finite() {
            return Err(OptError::NonFiniteInput);
        }
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        Ok(self)
    }

    /// Sets bounds `lo ≤ x_i ≤ hi` for variable `i` (`hi = None` means
    /// unbounded above). Defaults are `0 ≤ x_i`.
    ///
    /// # Errors
    /// `i` must index a variable and `lo ≤ hi` when `hi` is given.
    pub fn bounds(mut self, i: usize, lo: f64, hi: Option<f64>) -> Result<Self, OptError> {
        if i >= self.n_vars() {
            return Err(OptError::DimensionMismatch {
                expected: self.n_vars(),
                actual: i + 1,
            });
        }
        if !lo.is_finite() || hi.is_some_and(|h| !h.is_finite()) {
            return Err(OptError::NonFiniteInput);
        }
        if let Some(h) = hi {
            if h < lo {
                return Err(OptError::InvalidParameter("upper bound below lower bound"));
            }
        }
        self.lower[i] = lo;
        self.upper[i] = hi;
        Ok(self)
    }
}

pub mod reference {
    //! The row-materialising two-phase simplex: every per-variable upper
    //! bound becomes an extra `x_i ≤ hi` tableau row, so a `G`-variable
    //! box-constrained LP pays a `(m+G)`-row tableau, quadratic in `G`
    //! per pivot. That is slow but general, which is what an executable
    //! specification needs (mirroring `kea_core::optimizer::reference`).

    use super::{LpProblem, LpSolution, Relation};
    use crate::error::OptError;

    /// Pivot / reduced-cost tolerance.
    const EPS: f64 = 1e-9;

    /// Phase-1 feasibility tolerance, *relative* to the rhs scale.
    const FEAS_REL: f64 = 1e-7;

    /// Solves `p` with the row-materialising two-phase simplex.
    ///
    /// # Errors
    /// [`OptError::Infeasible`] or [`OptError::Unbounded`] for degenerate
    /// programs; [`OptError::NonFiniteInput`] if the objective contains
    /// NaN/inf; [`OptError::InvalidParameter`] for an empty objective.
    pub fn solve(p: &LpProblem) -> Result<LpSolution, OptError> {
        if p.objective.is_empty() {
            return Err(OptError::InvalidParameter("objective must be non-empty"));
        }
        if p.objective.iter().any(|v| !v.is_finite()) {
            return Err(OptError::NonFiniteInput);
        }

        // Shift variables so every lower bound is zero: x = x' + lo.
        // Constraint rhs becomes b − A·lo; upper bounds become rows
        // x'_i ≤ hi_i − lo_i; the objective constant c·lo is re-added at
        // the end.
        let n = p.n_vars();
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
        for c in &p.constraints {
            let shift: f64 = c.coeffs.iter().zip(&p.lower).map(|(a, l)| a * l).sum();
            rows.push((c.coeffs.clone(), c.relation, c.rhs - shift));
        }
        for i in 0..n {
            if let Some(hi) = p.upper[i] {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                rows.push((coeffs, Relation::Le, hi - p.lower[i]));
            }
        }

        let shifted = solve_standard(&p.objective, &rows)?;

        let x: Vec<f64> = shifted.iter().zip(&p.lower).map(|(v, l)| v + l).collect();
        let objective: f64 = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        Ok(LpSolution { x, objective })
    }

    /// Solves `maximize obj·x` subject to `rows`, `x ≥ 0`, via two-phase
    /// simplex. Returns the optimal `x`.
    fn solve_standard(
        obj: &[f64],
        rows: &[(Vec<f64>, Relation, f64)],
    ) -> Result<Vec<f64>, OptError> {
        let n = obj.len();

        // Normalize rhs signs.
        let rows: Vec<(Vec<f64>, Relation, f64)> = rows
            .iter()
            .map(|(coeffs, rel, rhs)| {
                if *rhs < 0.0 {
                    let flipped = match rel {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    };
                    (coeffs.iter().map(|v| -v).collect(), flipped, -rhs)
                } else {
                    (coeffs.clone(), *rel, *rhs)
                }
            })
            .collect();
        let rhs_scale = rows
            .iter()
            .fold(1.0f64, |acc, (_, _, rhs)| acc.max(1.0 + rhs.abs()));

        let m = rows.len();
        let n_slack = rows
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Eq)
            .count();
        let n_art = rows
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Le)
            .count();
        let total = n + n_slack + n_art;

        // Tableau: m rows × (total + 1) columns, last column = rhs.
        // Row m is the objective row (phase-specific).
        let width = total + 1;
        let mut t = vec![0.0; (m + 1) * width];
        let mut basis = vec![0usize; m];

        let mut slack_idx = n;
        let mut art_idx = n + n_slack;
        let mut artificials = Vec::new();
        for (r, (coeffs, rel, rhs)) in rows.iter().enumerate() {
            for (c, &v) in coeffs.iter().enumerate() {
                t[r * width + c] = v;
            }
            t[r * width + total] = *rhs;
            match rel {
                Relation::Le => {
                    t[r * width + slack_idx] = 1.0;
                    basis[r] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    t[r * width + slack_idx] = -1.0;
                    slack_idx += 1;
                    t[r * width + art_idx] = 1.0;
                    basis[r] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    t[r * width + art_idx] = 1.0;
                    basis[r] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
            }
        }

        // Phase 1: minimize sum of artificials ⇒ maximize −Σ artificials.
        // Objective-row convention (matches phase 2): the row starts at −c,
        // then basic columns are priced out to zero reduced cost. Here
        // c_artificial = −1, so the row starts at +1 on artificial columns.
        if !artificials.is_empty() {
            for &a in &artificials {
                t[m * width + a] = 1.0;
            }
            for r in 0..m {
                if artificials.contains(&basis[r]) {
                    for c in 0..width {
                        t[m * width + c] -= t[r * width + c];
                    }
                }
            }
            run_simplex(&mut t, &mut basis, m, width)?;
            // At optimum the stored value is z = −Σ artificials ≤ 0;
            // feasible iff it reaches zero relative to the rhs scale.
            let phase1_obj = t[m * width + total];
            if phase1_obj.abs() > FEAS_REL * rhs_scale {
                return Err(OptError::Infeasible);
            }
            // Drive any artificial still in the basis out (degenerate
            // case), pivoting on the largest-magnitude eligible entry so
            // a near-EPS pivot cannot amplify the row's residual.
            for r in 0..m {
                if artificials.contains(&basis[r]) {
                    let mut best: Option<(usize, f64)> = None;
                    for c in 0..n + n_slack {
                        let a = t[r * width + c].abs();
                        if a > EPS && best.is_none_or(|(_, ba)| a > ba) {
                            best = Some((c, a));
                        }
                    }
                    if let Some((c, _)) = best {
                        pivot(&mut t, &mut basis, m, width, r, c);
                    }
                    // If none exists the row is all-zero and harmless.
                }
            }
            // Zero the phase-1 objective row and forbid artificial columns.
            for c in 0..width {
                t[m * width + c] = 0.0;
            }
            for &a in &artificials {
                for r in 0..m {
                    t[r * width + a] = 0.0;
                }
            }
        }

        // Phase 2: install the real objective row. Convention: row holds −c
        // plus corrections so basic columns have zero reduced cost; then
        // maximize by pivoting on negative entries.
        for (c, &v) in obj.iter().enumerate() {
            t[m * width + c] = -v;
        }
        for r in 0..m {
            let b = basis[r];
            let coeff = t[m * width + b];
            if coeff != 0.0 {
                for c in 0..width {
                    t[m * width + c] -= coeff * t[r * width + c];
                }
            }
        }
        run_simplex(&mut t, &mut basis, m, width)?;

        let mut x = vec![0.0; n];
        for r in 0..m {
            if basis[r] < n {
                x[basis[r]] = t[r * width + total];
            }
        }
        Ok(x)
    }

    /// Runs primal simplex iterations until optimality (no negative reduced
    /// costs) using Bland's rule.
    fn run_simplex(
        t: &mut [f64],
        basis: &mut [usize],
        m: usize,
        width: usize,
    ) -> Result<(), OptError> {
        let total = width - 1;
        // Generous iteration cap: Bland's rule guarantees termination, this is
        // a belt-and-braces guard against numerical live-lock.
        for _ in 0..10_000 {
            // Entering column: first with negative reduced cost (Bland).
            let Some(col) = (0..total).find(|&c| t[m * width + c] < -EPS) else {
                return Ok(());
            };
            // Leaving row: exact min ratio; Bland's smallest-basis-index
            // rule applies to *exactly* tied ratios only — an ε-window
            // tie can replace a strictly smaller ratio with one up to ε
            // larger and drive the true minimum's basic variable
            // negative by ε × (column magnitude).
            let mut best: Option<(usize, f64)> = None;
            for r in 0..m {
                let a = t[r * width + col];
                if a > EPS {
                    let ratio = t[r * width + total] / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio
                                || (ratio == bratio && basis[r] < basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(OptError::Unbounded);
            };
            pivot(t, basis, m, width, row, col);
        }
        Err(OptError::InvalidParameter(
            "simplex iteration limit exceeded (numerical issue)",
        ))
    }

    /// Pivots the tableau on `(row, col)`.
    fn pivot(t: &mut [f64], basis: &mut [usize], m: usize, width: usize, row: usize, col: usize) {
        let pivot_val = t[row * width + col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on ~zero element");
        for c in 0..width {
            t[row * width + c] /= pivot_val;
        }
        for r in 0..=m {
            if r == row {
                continue;
            }
            let factor = t[r * width + col];
            if factor == 0.0 {
                continue;
            }
            for c in 0..width {
                t[r * width + c] -= factor * t[row * width + c];
            }
        }
        basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::reference::solve;
    use super::*;

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, obj=36.
        let lp = LpProblem::maximize(vec![3.0, 5.0])
            .constraint(vec![1.0, 0.0], Relation::Le, 4.0)
            .unwrap()
            .constraint(vec![0.0, 2.0], Relation::Le, 12.0)
            .unwrap()
            .constraint(vec![3.0, 2.0], Relation::Le, 18.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, as max −2x − 3y:
        // cost(10,0)=20; cost(2,8)=28 → x=10, y=0, obj=−20.
        let lp = LpProblem::maximize(vec![-2.0, -3.0])
            .constraint(vec![1.0, 1.0], Relation::Ge, 10.0)
            .unwrap()
            .constraint(vec![1.0, 0.0], Relation::Ge, 2.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective + 20.0).abs() < 1e-9);
        assert!((sol.x[0] - 10.0).abs() < 1e-9);
        assert!(sol.x[1].abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x ≤ 3 → obj = 5.
        let lp = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Eq, 5.0)
            .unwrap()
            .constraint(vec![1.0, 0.0], Relation::Le, 3.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert!((sol.x[0] + sol.x[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let lp = LpProblem::maximize(vec![1.0])
            .constraint(vec![1.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![1.0], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(solve(&lp), Err(OptError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let lp = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, -1.0], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(solve(&lp), Err(OptError::Unbounded));
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with 1 ≤ x ≤ 2, 0 ≤ y ≤ 3, x + y ≤ 4 → x=2 (or 1..2),
        // best is x=2,y=2? x+y≤4 binds: obj=4... but y≤3 allows x=1,y=3 also
        // obj 4. Objective tie; check feasibility and objective only.
        let lp = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Le, 4.0)
            .unwrap()
            .bounds(0, 1.0, Some(2.0))
            .unwrap()
            .bounds(1, 0.0, Some(3.0))
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert!(sol.x[0] >= 1.0 - 1e-9 && sol.x[0] <= 2.0 + 1e-9);
        assert!(sol.x[1] >= -1e-9 && sol.x[1] <= 3.0 + 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with −5 ≤ x ≤ 5, as max −x → x = −5, obj = 5.
        let lp = LpProblem::maximize(vec![-1.0])
            .bounds(0, -5.0, Some(5.0))
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.x[0] + 5.0).abs() < 1e-9);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ −1 written as −x ≤ 1; minimize x (as max −x) with bound
        // x ≥ −10 via constraint −x ≤ 1 and free-ish shifted bounds.
        let lp = LpProblem::maximize(vec![-1.0])
            .bounds(0, -10.0, None)
            .unwrap()
            .constraint(vec![-1.0], Relation::Le, 1.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.x[0] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn yarn_shaped_lp() {
        // A miniature of Equations (7)-(10): maximize Σ m_k n_k with a
        // weighted-average-latency budget. Three groups, n = [100, 50, 20],
        // per-container latency weights w = [1.0, 0.8, 0.5]; latency budget
        // forces trading slow-group containers for fast-group ones.
        let n = [100.0, 50.0, 20.0];
        let w = [1.0, 0.8, 0.5];
        let budget = 900.0; // Σ w_k m_k n_k ≤ 900
        let lp = LpProblem::maximize(vec![n[0], n[1], n[2]])
            .constraint(
                vec![w[0] * n[0], w[1] * n[1], w[2] * n[2]],
                Relation::Le,
                budget,
            )
            .unwrap()
            .bounds(0, 4.0, Some(12.0))
            .unwrap()
            .bounds(1, 4.0, Some(12.0))
            .unwrap()
            .bounds(2, 4.0, Some(12.0))
            .unwrap();
        let sol = solve(&lp).unwrap();
        // Cheapest latency-per-container is group 2 (w=0.5): expect it to
        // be maxed out, and the most expensive (group 0) to be minimal.
        assert!((sol.x[2] - 12.0).abs() < 1e-6, "x = {:?}", sol.x);
        assert!(sol.x[0] < sol.x[2]);
        // Constraint respected.
        let used: f64 = (0..3).map(|k| w[k] * n[k] * sol.x[k]).sum();
        assert!(used <= budget + 1e-6);
    }

    #[test]
    fn dimension_checks() {
        assert!(matches!(
            LpProblem::maximize(vec![1.0, 2.0]).constraint(vec![1.0], Relation::Le, 1.0),
            Err(OptError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            LpProblem::maximize(vec![1.0]).bounds(3, 0.0, None),
            Err(OptError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            LpProblem::maximize(vec![1.0]).bounds(0, 2.0, Some(1.0)),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(solve(&LpProblem::maximize(vec![])).is_err());
        assert!(matches!(
            solve(&LpProblem::maximize(vec![f64::NAN])),
            Err(OptError::NonFiniteInput)
        ));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let lp = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 0.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![0.0, 1.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![1.0, 1.0], Relation::Le, 2.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_only_system() {
        // max 2x + y s.t. x + y = 3, x − y = 1 → x=2, y=1, obj=5.
        let lp = LpProblem::maximize(vec![2.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Eq, 3.0)
            .unwrap()
            .constraint(vec![1.0, -1.0], Relation::Eq, 1.0)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    // ---- regression tests for the numerical-robustness burn-down ----
    //
    // Each of these failed on the pre-fix solver (verified against the
    // original implementation before the fixes landed).

    /// Ratio-test tie-break regression: two rows limit the entering
    /// variable at ratios that differ by 5e-10 — within the old ε-window
    /// but NOT equal. The old test treated them as tied and preferred
    /// the smaller basis index (row 0, ratio 1 + 5e-10), producing
    /// x = 1 + 5e-10 and violating the second row (coefficient 1e6) by
    /// 5e-4. The exact-tie rule must pick the strict minimum (row 1).
    #[test]
    fn tie_break_prefers_strict_minimum_ratio() {
        let lp = LpProblem::maximize(vec![1.0])
            .constraint(vec![1.0], Relation::Le, 1.0 + 5e-10)
            .unwrap()
            .constraint(vec![1e6], Relation::Le, 1e6)
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!(
            1e6 * sol.x[0] <= 1e6 + 1e-6,
            "vertex violates the tight row: x = {:.12}",
            sol.x[0]
        );
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
    }

    /// Phase-1 drive-out regression: the two equality rows differ by
    /// 1e-9, leaving an artificial basic at ~1e-9 after phase 1 (within
    /// the feasibility tolerance). The old drive-out pivoted on the
    /// *first* eligible column — z with coefficient −1e-8 — dividing the
    /// 1e-9 residual by 1e-8 and producing z ≈ −0.1: an infeasible
    /// vertex. The largest-magnitude rule pivots on w (coefficient −1)
    /// and the residual stays at 1e-9.
    #[test]
    fn drive_out_pivots_on_largest_entry() {
        let lp = LpProblem::maximize(vec![1.0, 0.0, 0.0, 0.0])
            .constraint(vec![1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0)
            .unwrap()
            .constraint(vec![1.0, 1.0, -1e-8, -1.0], Relation::Eq, 1.0 + 1e-9)
            .unwrap();
        let sol = solve(&lp).unwrap();
        for (i, &v) in sol.x.iter().enumerate() {
            assert!(v >= -1e-6, "x[{i}] = {v:.12} went negative");
        }
    }

    /// Phase-1 feasibility-scale regression: the equality system
    /// 3x+y+z = x+7y+z = x+y+9z = 3s is feasible for every scale s
    /// (solution x/s = [36/43, 12/43, 9/43]); with the absolute 1e-7
    /// threshold the old solver declared it Infeasible from s = 1e9 —
    /// phase-1 rounding dust grows with |b| while the threshold did not.
    #[test]
    fn feasibility_tolerance_is_relative_to_rhs_scale() {
        for scale in [1.0, 1e3, 1e6, 1e9] {
            let lp = LpProblem::maximize(vec![1.0, 1.0, 1.0])
                .constraint(vec![3.0, 1.0, 1.0], Relation::Eq, 3.0 * scale)
                .unwrap()
                .constraint(vec![1.0, 7.0, 1.0], Relation::Eq, 3.0 * scale)
                .unwrap()
                .constraint(vec![1.0, 1.0, 9.0], Relation::Eq, 3.0 * scale)
                .unwrap();
            let expected_obj = (57.0 / 43.0) * scale;
            let sol =
                solve(&lp).unwrap_or_else(|e| panic!("misclassified at scale {scale:e}: {e:?}"));
            assert!(
                (sol.objective - expected_obj).abs() <= 1e-9 * scale.max(1.0),
                "objective {} vs expected {expected_obj} at scale {scale:e}",
                sol.objective
            );
        }
    }

    #[test]
    fn bounded_solver_handles_upper_bound_only_optimum() {
        // max 2x + y with x ≤ 3, y ≤ 5 and no rows at all: both at upper.
        let lp = LpProblem::maximize(vec![2.0, 1.0])
            .bounds(0, 0.0, Some(3.0))
            .unwrap()
            .bounds(1, 0.0, Some(5.0))
            .unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
        assert!((sol.x[1] - 5.0).abs() < 1e-9);
        assert!((sol.objective - 11.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded_above_without_rows() {
        assert_eq!(
            solve(&LpProblem::maximize(vec![1.0])),
            Err(OptError::Unbounded)
        );
    }
}
