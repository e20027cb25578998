//! Two-phase primal simplex for small-to-medium dense linear programs.
//!
//! Solves the YARN-tuning LP of §5.2 (Equations 7–10). The paper used a
//! commercial solver; KEA's per-cluster LPs have one decision variable
//! per SC-SKU group plus a few dozen guard-rail constraints, but the
//! fleet-scale sweep solves one LP per operating point with `G` in the
//! hundreds, so the solver matters.
//!
//! Two implementations share the [`LpProblem`] front end:
//!
//! * The default ([`LpProblem::solve`] / [`LpProblem::solve_warm`]) is a
//!   **bounded-variable** primal simplex: per-variable bounds
//!   `lo ≤ x ≤ hi` are carried as variable *status*
//!   (basic / nonbasic-at-lower / nonbasic-at-upper) rather than
//!   materialised as tableau rows, so a `G`-variable box-constrained LP
//!   has a tableau of `m` guard-rail rows instead of `m + G` — the
//!   tableau work per pivot drops from O((m+G)·(n+m+G)) to O(m·(n+m)).
//!   [`LpProblem::solve_warm`] additionally accepts the optimal
//!   [`Basis`] of a previous solve and re-solves a *re-costed* instance
//!   (same shape, perturbed coefficients) starting from that basis,
//!   which is how the optimizer sweeps operating points cheaply.
//! * [`reference`](mod@reference) preserves the original
//!   row-materialising solver as an executable specification: property
//!   tests pin the two to 1e-9 agreement on randomized LPs, and
//!   `kea-bench`'s `optimizer_scale` measures the gap at fleet-scale `G`.
//!
//! Supported form (both implementations):
//!
//! * maximize or minimize `c·x`
//! * constraints `a·x ≤ / ≥ / = b`
//! * per-variable bounds `lo ≤ x ≤ hi` (default `0 ≤ x`)
//!
//! Numerical-robustness notes (the LP-path burn-down):
//!
//! * The leaving-row ratio test tracks the *exact* minimum ratio and
//!   applies Bland's smallest-index tie-break only to exactly tied
//!   ratios. An ε-window tie-break (the previous behaviour) can replace
//!   a strictly smaller ratio with one up to ε larger, which drives a
//!   basic variable negative by ε amplified by the pivot column's
//!   magnitude.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sense {
    Maximize,
    Minimize,
}

/// A linear program under construction. Builder-style:
///
/// ```
/// use kea_opt::{LpProblem, Relation};
/// // maximize 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4, 0), obj 12.
/// let sol = LpProblem::maximize(vec![3.0, 2.0])
///     .constraint(vec![1.0, 1.0], Relation::Le, 4.0).unwrap()
///     .constraint(vec![1.0, 3.0], Relation::Le, 6.0).unwrap()
///     .solve().unwrap();
/// assert!((sol.objective - 12.0).abs() < 1e-9);
/// assert!((sol.x[0] - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    objective: Vec<f64>,
    sense: Sense,
    constraints: Vec<Constraint>,
    lower: Vec<f64>,
    upper: Vec<Option<f64>>,
}

/// Optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable assignment (in original, unshifted coordinates).
    pub x: Vec<f64>,
    /// Optimal objective value (in the original sense).
    pub objective: f64,
}

/// The optimal basis of a solved LP, reusable to warm-start a re-solve.
///
/// Records which columns (structurals then row slacks) were basic and
/// which nonbasic columns sat at their *upper* bound at the optimum.
/// [`LpProblem::solve_warm`] rebuilds the tableau of a same-shaped
/// instance directly in this basis — skipping phase 1 and, when the
/// coefficients moved only slightly, most phase-2 pivots. A basis whose
/// shape does not match the new instance (or that is singular/infeasible
/// for it) is silently discarded and the solve falls back to a cold
/// start, so warm-starting is always safe.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Basic column per tableau row (structurals `0..n`, slacks `n..n+m`).
    basic: Vec<usize>,
    /// Nonbasic columns that finished at their (finite) upper bound.
    at_upper: Vec<usize>,
    /// Structural-variable count the basis was produced for.
    n_vars: usize,
    /// Constraint-row count the basis was produced for.
    n_rows: usize,
}

/// Pivot / reduced-cost tolerance.
const EPS: f64 = 1e-9;

/// Phase-1 feasibility tolerance, *relative* to the rhs scale.
const FEAS_REL: f64 = 1e-7;

/// Consecutive degenerate pivots before switching from Dantzig to
/// Bland's anti-cycling entering rule.
const DEGENERATE_STREAK_LIMIT: usize = 64;

impl LpProblem {
    /// Starts a maximization problem with the given objective coefficients.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Self::new(objective, Sense::Maximize)
    }

    /// Starts a minimization problem with the given objective coefficients.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Self::new(objective, Sense::Minimize)
    }

    fn new(objective: Vec<f64>, sense: Sense) -> Self {
        let n = objective.len();
        LpProblem {
            objective,
            sense,
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

    fn validate(&self) -> Result<(), OptError> {
        if self.objective.is_empty() {
            return Err(OptError::InvalidParameter("objective must be non-empty"));
        }
        if self.objective.iter().any(|v| !v.is_finite()) {
            return Err(OptError::NonFiniteInput);
        }
        Ok(())
    }

    /// Solves the program with the bounded-variable simplex.
    ///
    /// # Errors
    /// [`OptError::Infeasible`] or [`OptError::Unbounded`] for degenerate
    /// programs; [`OptError::NonFiniteInput`] if the objective contains
    /// NaN/inf; [`OptError::InvalidParameter`] for an empty objective.
    pub fn solve(&self) -> Result<LpSolution, OptError> {
        self.solve_warm(None).map(|(sol, _)| sol)
    }

    /// Solves the program, optionally warm-starting from the optimal
    /// [`Basis`] of a previous solve, and returns this solve's optimal
    /// basis alongside the solution.
    ///
    /// The warm basis is only *advisory*: a basis whose shape does not
    /// match this instance, or that turns out singular or primal
    /// infeasible for the new coefficients, is discarded and the solve
    /// restarts cold. The result is therefore always the same optimum a
    /// cold [`solve`](Self::solve) would return — warm-starting changes
    /// the iteration count, not the answer.
    ///
    /// # Errors
    /// Same conditions as [`solve`](Self::solve).
    pub fn solve_warm(&self, warm: Option<&Basis>) -> Result<(LpSolution, Basis), OptError> {
        self.validate()?;
        let form = BoundedForm::build(self);
        if let Some(basis) = warm {
            if let Some(result) = form.solve_from_basis(self, basis)? {
                return Ok(result);
            }
        }
        form.solve_cold(self)
    }
}

/// The shifted, rhs-sign-normalized equality form a bounded-variable
/// solve works on: `A·x' + S·s = b'` with `0 ≤ x'_j ≤ U_j` and slacks
/// `s_i ∈ [0, U_{n+i}]` (`U = ∞` for Le/Ge slacks, `0` for Eq slacks —
/// an Eq slack is a permanently-fixed dummy so slack `i` ↔ row `i`
/// indexing holds uniformly).
struct BoundedForm {
    n: usize,
    m: usize,
    /// Structural coefficients per row, sign-normalized.
    rows: Vec<Vec<f64>>,
    /// Slack coefficient per row: `+1` (Le, Eq-dummy) or `-1` (Ge surplus).
    slack_sign: Vec<f64>,
    /// Normalized rhs per row (`≥ 0`).
    rhs: Vec<f64>,
    /// Rows that need a phase-1 artificial (Ge/Eq after normalization).
    needs_artificial: Vec<bool>,
    /// Working upper bound per structural+slack column (∞ if unbounded).
    upper: Vec<f64>,
    /// Objective in "maximize" convention over the *shifted* structurals.
    obj: Vec<f64>,
    /// `1 + max |b'|`, the scale the phase-1 feasibility verdict is
    /// relative to.
    rhs_scale: f64,
}

impl BoundedForm {
    fn build(p: &LpProblem) -> BoundedForm {
        let n = p.n_vars();
        let m = p.constraints.len();
        let mut rows = Vec::with_capacity(m);
        let mut slack_sign = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut needs_artificial = Vec::with_capacity(m);
        let mut rhs_scale = 1.0f64;
        for c in &p.constraints {
            // Shift every variable's lower bound to zero: x = x' + lo.
            let shift: f64 = c.coeffs.iter().zip(&p.lower).map(|(a, l)| a * l).sum();
            let mut coeffs = c.coeffs.clone();
            let mut b = c.rhs - shift;
            let mut rel = c.relation;
            if b < 0.0 {
                for v in &mut coeffs {
                    *v = -*v;
                }
                b = -b;
                rel = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            rhs_scale = rhs_scale.max(1.0 + b.abs());
            rows.push(coeffs);
            rhs.push(b);
            slack_sign.push(if rel == Relation::Ge { -1.0 } else { 1.0 });
            needs_artificial.push(rel != Relation::Le);
        }
        let mut upper = Vec::with_capacity(n + m);
        for i in 0..n {
            upper.push(match p.upper[i] {
                Some(hi) => hi - p.lower[i],
                None => f64::INFINITY,
            });
        }
        for c in &p.constraints {
            upper.push(if c.relation == Relation::Eq {
                0.0
            } else {
                f64::INFINITY
            });
        }
        let obj: Vec<f64> = match p.sense {
            Sense::Maximize => p.objective.clone(),
            Sense::Minimize => p.objective.iter().map(|v| -v).collect(),
        };
        BoundedForm {
            n,
            m,
            rows,
            slack_sign,
            rhs,
            needs_artificial,
            upper,
            obj,
            rhs_scale,
        }
    }

    /// Columns that exist outside phase 1 (structurals + slacks).
    fn n_real(&self) -> usize {
        self.n + self.m
    }

    /// A tableau over `n_cols` columns (`≥ n_real`; the excess columns
    /// are phase-1 artificials) with structural/slack data filled in and
    /// everything nonbasic at lower.
    fn raw_tableau(&self, n_cols: usize) -> Tableau {
        let width = n_cols + 1;
        let mut t = vec![0.0; (self.m + 1) * width];
        for (r, coeffs) in self.rows.iter().enumerate() {
            for (c, &v) in coeffs.iter().enumerate() {
                t[r * width + c] = v;
            }
            t[r * width + self.n + r] = self.slack_sign[r];
            t[r * width + n_cols] = self.rhs[r];
        }
        let mut upper = self.upper.clone();
        upper.resize(n_cols, f64::INFINITY);
        Tableau {
            t,
            m: self.m,
            width,
            basis: vec![0; self.m],
            upper,
            flipped: vec![false; n_cols],
        }
    }

    /// Cold start: phase 1 with artificials where the slack cannot open
    /// the row, then phase 2.
    fn solve_cold(&self, p: &LpProblem) -> Result<(LpSolution, Basis), OptError> {
        let n_art = self.needs_artificial.iter().filter(|&&a| a).count();
        let n_cols = self.n_real() + n_art;
        let mut tab = self.raw_tableau(n_cols);
        let mut art_idx = self.n_real();
        let mut artificials = Vec::with_capacity(n_art);
        for r in 0..self.m {
            if self.needs_artificial[r] {
                tab.t[r * tab.width + art_idx] = 1.0;
                tab.basis[r] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            } else {
                tab.basis[r] = self.n + r;
            }
        }

        if !artificials.is_empty() {
            // Phase 1: minimize Σ artificials ⇒ maximize −Σ artificials.
            // Objective-row convention (matches phase 2): the row starts
            // at −c and basic columns are priced out; c_artificial = −1,
            // so the row starts at +1 on artificial columns.
            let ow = tab.m * tab.width;
            for &a in &artificials {
                tab.t[ow + a] = 1.0;
            }
            for r in 0..self.m {
                if tab.basis[r] >= self.n_real() {
                    for c in 0..tab.width {
                        tab.t[ow + c] -= tab.t[r * tab.width + c];
                    }
                }
            }
            tab.run()?;
            // At optimum the stored value is z = −Σ artificials ≤ 0;
            // feasible iff it reaches zero *relative to the rhs scale* —
            // an absolute threshold misreads rounding dust as
            // infeasibility once |b| is large.
            let phase1_obj = tab.t[ow + n_cols];
            if phase1_obj.abs() > FEAS_REL * self.rhs_scale {
                return Err(OptError::Infeasible);
            }
            // Drive any artificial still in the basis out (degenerate
            // case), pivoting on the largest-magnitude eligible entry:
            // a near-EPS pivot would amplify the row's rounding residual
            // by up to 1/EPS.
            for r in 0..self.m {
                if tab.basis[r] >= self.n_real() {
                    let mut best: Option<(usize, f64)> = None;
                    for c in 0..self.n_real() {
                        let a = tab.t[r * tab.width + c].abs();
                        if a > EPS && best.is_none_or(|(_, ba)| a > ba) {
                            best = Some((c, a));
                        }
                    }
                    if let Some((c, _)) = best {
                        tab.pivot(r, c);
                    }
                    // If none exists the row is all-zero and harmless.
                }
            }
            // Zero the phase-1 objective row and retire the artificial
            // columns (zero entries, zero upper so they can never
            // re-enter).
            for c in 0..tab.width {
                tab.t[ow + c] = 0.0;
            }
            for &a in &artificials {
                for r in 0..self.m {
                    tab.t[r * tab.width + a] = 0.0;
                }
                tab.upper[a] = 0.0;
            }
        }

        self.finish(p, tab)
    }

    /// Warm start: rebuild the tableau directly in `basis`. Returns
    /// `Ok(None)` when the basis does not fit this instance (shape
    /// mismatch, singular, or primal infeasible) — the caller then solves
    /// cold.
    fn solve_from_basis(
        &self,
        p: &LpProblem,
        basis: &Basis,
    ) -> Result<Option<(LpSolution, Basis)>, OptError> {
        if basis.n_vars != self.n
            || basis.n_rows != self.m
            || basis.basic.len() != self.m
        {
            return Ok(None);
        }
        let n_real = self.n_real();
        let mut seen = vec![false; n_real];
        for &c in &basis.basic {
            // Reject out-of-range or duplicated columns, and Eq-slack
            // dummies (zero working range, must stay nonbasic).
            if c >= n_real || seen[c] || (c >= self.n && self.upper[c] == 0.0) {
                return Ok(None);
            }
            seen[c] = true;
        }
        for &c in &basis.at_upper {
            if c >= n_real || seen[c] || !self.upper[c].is_finite() {
                return Ok(None);
            }
        }

        let mut tab = self.raw_tableau(n_real);
        for &c in &basis.at_upper {
            tab.flip_nonbasic(c);
        }
        // Gaussian elimination into the basis, choosing for every basis
        // column the largest-magnitude pivot among still-unassigned rows.
        let mut used = vec![false; self.m];
        for &col in &basis.basic {
            let mut best: Option<(usize, f64)> = None;
            for (r, &taken) in used.iter().enumerate() {
                if !taken {
                    let a = tab.t[r * tab.width + col].abs();
                    if best.is_none_or(|(_, ba)| a > ba) {
                        best = Some((r, a));
                    }
                }
            }
            let Some((r, a)) = best else {
                return Ok(None);
            };
            if a <= EPS {
                return Ok(None); // Singular for the new coefficients.
            }
            tab.pivot(r, col);
            used[r] = true;
        }
        // Primal feasibility of the reconstructed vertex: every basic
        // value within its (working) bounds, up to rhs-relative dust.
        let ftol = FEAS_REL * self.rhs_scale;
        for r in 0..self.m {
            let v = tab.t[r * tab.width + n_real];
            if v < -ftol || v > tab.upper[tab.basis[r]] + ftol {
                return Ok(None);
            }
        }
        self.finish(p, tab).map(Some)
    }

    /// Installs the phase-2 objective on a primal-feasible tableau, runs
    /// the bounded simplex, and extracts solution + basis.
    fn finish(&self, p: &LpProblem, mut tab: Tableau) -> Result<(LpSolution, Basis), OptError> {
        // Objective row in *working* coordinates: a flipped column j
        // (x'_j = U_j − x̄_j) contributes −c_j to the working objective,
        // so its row entry (−c_j by convention) negates.
        let ow = tab.m * tab.width;
        for c in 0..tab.width {
            tab.t[ow + c] = 0.0;
        }
        for (j, &c) in self.obj.iter().enumerate() {
            tab.t[ow + j] = if tab.flipped[j] { c } else { -c };
        }
        for r in 0..self.m {
            let b = tab.basis[r];
            let coeff = tab.t[ow + b];
            if coeff != 0.0 {
                for c in 0..tab.width {
                    tab.t[ow + c] -= coeff * tab.t[r * tab.width + c];
                }
            }
        }
        tab.run()?;

        // Working values → shifted values → original coordinates.
        let n_real = self.n_real();
        let mut working = vec![0.0; n_real];
        let mut is_basic = vec![false; tab.upper.len()];
        for r in 0..self.m {
            if tab.basis[r] < n_real {
                working[tab.basis[r]] = tab.t[r * tab.width + tab.width - 1];
            }
            is_basic[tab.basis[r]] = true;
        }
        let x: Vec<f64> = (0..self.n)
            .map(|j| {
                let w = if tab.flipped[j] {
                    tab.upper[j] - working[j]
                } else {
                    working[j]
                };
                w + p.lower[j]
            })
            .collect();
        let objective: f64 = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        let basis = Basis {
            basic: tab.basis.clone(),
            at_upper: (0..n_real)
                .filter(|&j| !is_basic[j] && tab.flipped[j])
                .collect(),
            n_vars: self.n,
            n_rows: self.m,
        };
        Ok((LpSolution { x, objective }, basis))
    }
}

/// Dense bounded-variable tableau.
///
/// Row `m` is the objective row (reduced costs; rhs column tracks the
/// running objective value), rows `0..m` hold the constraint system in
/// current-basis coordinates with the rhs column equal to the basic
/// variables' *working* values. A column with `flipped[j]` set stands
/// for the substituted variable `x̄_j = U_j − x'_j`, so every nonbasic
/// column sits at working value 0 and entering variables always
/// increase — upper bounds then cost a column negation instead of a row.
struct Tableau {
    t: Vec<f64>,
    m: usize,
    width: usize,
    basis: Vec<usize>,
    upper: Vec<f64>,
    flipped: Vec<bool>,
}

/// Outcome of one ratio test.
enum Step {
    /// The entering column hits its own opposite bound first: no basis
    /// change, just a substitution flip.
    BoundFlip,
    /// Pivot at `(row, col)`; `at_upper` means the leaving variable exits
    /// at its upper bound. `delta` is the entering variable's travel
    /// (used for degeneracy tracking).
    Pivot {
        row: usize,
        at_upper: bool,
        delta: f64,
    },
    /// No limit in the entering direction.
    Unbounded,
}

impl Tableau {
    /// Runs bounded primal simplex iterations until no nonbasic column
    /// has a favorable reduced cost. Entering rule: Dantzig (most
    /// negative), demoted to Bland's smallest-index rule after a run of
    /// degenerate pivots; leaving rule: exact minimum ratio with Bland's
    /// smallest-basis-index break on *exact* ties only.
    fn run(&mut self) -> Result<(), OptError> {
        let total = self.width - 1;
        // Generous cap: Bland's rule guarantees termination, this guards
        // against numerical live-lock.
        let cap = 10_000usize.max(64 * (total + self.m));
        let mut degenerate_streak = 0usize;
        let mut bland = false;
        for _ in 0..cap {
            let Some(col) = self.entering(bland) else {
                return Ok(());
            };
            match self.ratio_test(col) {
                Step::Unbounded => return Err(OptError::Unbounded),
                Step::BoundFlip => {
                    // Strict objective progress (reduced cost < −EPS over
                    // a positive travel), so flips cannot cycle.
                    self.flip_nonbasic(col);
                    degenerate_streak = 0;
                    bland = false;
                }
                Step::Pivot {
                    row,
                    at_upper,
                    delta,
                } => {
                    if at_upper {
                        self.flip_basic_row(row);
                    }
                    self.pivot(row, col);
                    if delta.abs() <= EPS {
                        degenerate_streak += 1;
                        if degenerate_streak > DEGENERATE_STREAK_LIMIT {
                            bland = true;
                        }
                    } else {
                        degenerate_streak = 0;
                        bland = false;
                    }
                }
            }
        }
        Err(OptError::InvalidParameter(
            "simplex iteration limit exceeded (numerical issue)",
        ))
    }

    /// Entering column, or `None` at optimality. Columns with a zero
    /// working range (fixed variables, retired artificials) never enter.
    fn entering(&self, bland: bool) -> Option<usize> {
        let total = self.width - 1;
        let ow = self.m * self.width;
        let mut best: Option<(usize, f64)> = None;
        for c in 0..total {
            let d = self.t[ow + c];
            if d < -EPS && self.upper[c] > 0.0 {
                if bland {
                    return Some(c);
                }
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Bounded ratio test for entering column `col` (travel `t ≥ 0` in
    /// working coordinates): the entering variable stops at its own
    /// upper bound, a basic variable drops to its lower bound (positive
    /// column entry), or a basic variable climbs to its upper bound
    /// (negative entry, finite upper).
    fn ratio_test(&self, col: usize) -> Step {
        let total = self.width - 1;
        let mut leave: Option<(usize, bool)> = None;
        let mut leave_ratio = f64::INFINITY;
        for r in 0..self.m {
            let a = self.t[r * self.width + col];
            let v = self.t[r * self.width + total];
            let (ratio, at_upper) = if a > EPS {
                (v / a, false)
            } else if a < -EPS {
                let ub = self.upper[self.basis[r]];
                if !ub.is_finite() {
                    continue;
                }
                ((ub - v) / (-a), true)
            } else {
                continue;
            };
            // Exact minimum; Bland's smallest-basis-index rule breaks
            // *exact* ties only. An ε-window here can prefer a strictly
            // larger ratio and push the true minimum's basic variable
            // out of bounds by ε × (column magnitude).
            let replace = match leave {
                None => true,
                Some((br, _)) => {
                    ratio < leave_ratio
                        || (ratio == leave_ratio && self.basis[r] < self.basis[br])
                }
            };
            if replace {
                leave = Some((r, at_upper));
                leave_ratio = ratio;
            }
        }
        let bound = self.upper[col];
        if bound <= leave_ratio {
            if bound.is_finite() {
                Step::BoundFlip
            } else {
                Step::Unbounded
            }
        } else {
            match leave {
                Some((row, at_upper)) => Step::Pivot {
                    row,
                    at_upper,
                    delta: leave_ratio,
                },
                None => Step::Unbounded,
            }
        }
    }

    /// Substitution flip of a *nonbasic* column: the variable moves to
    /// its opposite bound; basic values absorb `a_rj · U_j` and the
    /// column negates. O(m) — no pivot.
    fn flip_nonbasic(&mut self, col: usize) {
        let u = self.upper[col];
        let total = self.width - 1;
        for r in 0..=self.m {
            let a = self.t[r * self.width + col];
            if a != 0.0 {
                self.t[r * self.width + total] -= a * u;
                self.t[r * self.width + col] = -a;
            }
        }
        self.flipped[col] = !self.flipped[col];
    }

    /// Substitution flip of the *basic* variable of `row` (about to
    /// leave at its upper bound): negate the row and reflect the rhs, so
    /// the row reads `x̄ = U − x` with coefficient +1 again.
    fn flip_basic_row(&mut self, row: usize) {
        let b = self.basis[row];
        let u = self.upper[b];
        let total = self.width - 1;
        // Substituting x̄_b = U − x_b negates x_b's coefficient; scaling
        // the row back to the basic convention (+1 on its own column)
        // negates every *other* entry and reflects the rhs to U − v.
        for c in 0..self.width {
            self.t[row * self.width + c] = -self.t[row * self.width + c];
        }
        self.t[row * self.width + b] = -self.t[row * self.width + b];
        self.t[row * self.width + total] += u;
        self.flipped[b] = !self.flipped[b];
    }

    /// Pivots the tableau on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let pivot_val = self.t[row * width + col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on ~zero element");
        for c in 0..width {
            self.t[row * width + c] /= pivot_val;
        }
        for r in 0..=self.m {
            if r == row {
                continue;
            }
            let factor = self.t[r * width + col];
            if factor == 0.0 {
                continue;
            }
            for c in 0..width {
                self.t[r * width + c] -= factor * self.t[row * width + c];
            }
        }
        self.basis[row] = col;
    }
}

pub mod reference {
    //! The original row-materialising simplex, kept as an executable
    //! specification (mirroring `kea_core::optimizer::reference`): every
    //! per-variable upper bound becomes an extra `x_i ≤ hi` tableau row,
    //! so a `G`-variable box-constrained LP pays a `(m+G)`-row tableau —
    //! quadratic in `G` per pivot — for constraints the bounded-variable
    //! solver handles as variable status at zero rows. Property tests pin
    //! [`solve`] and [`LpProblem::solve`] to 1e-9 agreement on randomized
    //! LPs, and `optimizer_scale` benches the gap. Not for production
    //! use.
    //!
    //! The numerical fixes of the LP burn-down (exact-tie ratio test,
    //! largest-magnitude drive-out pivot, rhs-relative phase-1
    //! feasibility) are applied here too, so the two implementations
    //! remain comparable on ill-conditioned inputs.

    use super::{LpProblem, LpSolution, Relation, Sense, EPS, FEAS_REL};
    use crate::error::OptError;

    /// Solves `p` with the row-materialising two-phase simplex.
    ///
    /// # Errors
    /// Same conditions as [`LpProblem::solve`].
    pub fn solve(p: &LpProblem) -> Result<LpSolution, OptError> {
        p.validate()?;

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

        // Objective in "maximize" convention.
        let obj: Vec<f64> = match p.sense {
            Sense::Maximize => p.objective.clone(),
            Sense::Minimize => p.objective.iter().map(|v| -v).collect(),
        };

        let shifted = solve_standard(&obj, &rows)?;

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
    use super::*;

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, obj=36.
        let sol = LpProblem::maximize(vec![3.0, 5.0])
            .constraint(vec![1.0, 0.0], Relation::Le, 4.0)
            .unwrap()
            .constraint(vec![0.0, 2.0], Relation::Le, 12.0)
            .unwrap()
            .constraint(vec![3.0, 2.0], Relation::Le, 18.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → x=10−y... optimum: y=0,x=10?
        // cost(10,0)=20; cost(2,8)=28 → x=10, y=0, obj=20.
        let sol = LpProblem::minimize(vec![2.0, 3.0])
            .constraint(vec![1.0, 1.0], Relation::Ge, 10.0)
            .unwrap()
            .constraint(vec![1.0, 0.0], Relation::Ge, 2.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-9);
        assert!((sol.x[0] - 10.0).abs() < 1e-9);
        assert!(sol.x[1].abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x ≤ 3 → obj = 5.
        let sol = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Eq, 5.0)
            .unwrap()
            .constraint(vec![1.0, 0.0], Relation::Le, 3.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert!((sol.x[0] + sol.x[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let r = LpProblem::maximize(vec![1.0])
            .constraint(vec![1.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![1.0], Relation::Ge, 2.0)
            .unwrap()
            .solve();
        assert_eq!(r, Err(OptError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let r = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, -1.0], Relation::Le, 1.0)
            .unwrap()
            .solve();
        assert_eq!(r, Err(OptError::Unbounded));
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with 1 ≤ x ≤ 2, 0 ≤ y ≤ 3, x + y ≤ 4 → x=2 (or 1..2),
        // best is x=2,y=2? x+y≤4 binds: obj=4... but y≤3 allows x=1,y=3 also
        // obj 4. Objective tie; check feasibility and objective only.
        let sol = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Le, 4.0)
            .unwrap()
            .bounds(0, 1.0, Some(2.0))
            .unwrap()
            .bounds(1, 0.0, Some(3.0))
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert!(sol.x[0] >= 1.0 - 1e-9 && sol.x[0] <= 2.0 + 1e-9);
        assert!(sol.x[1] >= -1e-9 && sol.x[1] <= 3.0 + 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with −5 ≤ x ≤ 5 → x = −5.
        let sol = LpProblem::minimize(vec![1.0])
            .bounds(0, -5.0, Some(5.0))
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.x[0] + 5.0).abs() < 1e-9);
        assert!((sol.objective + 5.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ −1 written as −x ≤ 1; minimize x with bound x ≥ −1 via
        // constraint −x ≤ 1 and free-ish shifted bounds.
        let sol = LpProblem::minimize(vec![1.0])
            .bounds(0, -10.0, None)
            .unwrap()
            .constraint(vec![-1.0], Relation::Le, 1.0)
            .unwrap()
            .solve()
            .unwrap();
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
        let sol = LpProblem::maximize(vec![n[0], n[1], n[2]])
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
            .unwrap()
            .solve()
            .unwrap();
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
        assert!(LpProblem::maximize(vec![]).solve().is_err());
        assert!(matches!(
            LpProblem::maximize(vec![f64::NAN]).solve(),
            Err(OptError::NonFiniteInput)
        ));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let sol = LpProblem::maximize(vec![1.0, 1.0])
            .constraint(vec![1.0, 0.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![0.0, 1.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![1.0, 1.0], Relation::Le, 2.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_only_system() {
        // max 2x + y s.t. x + y = 3, x − y = 1 → x=2, y=1, obj=5.
        let sol = LpProblem::maximize(vec![2.0, 1.0])
            .constraint(vec![1.0, 1.0], Relation::Eq, 3.0)
            .unwrap()
            .constraint(vec![1.0, -1.0], Relation::Eq, 1.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    // ---- regression tests for the numerical-robustness burn-down ----
    //
    // Each of these failed on the pre-fix solver (verified against the
    // original implementation before the fixes landed) and must pass on
    // both the bounded solver and `reference`.

    /// Ratio-test tie-break regression: two rows limit the entering
    /// variable at ratios that differ by 5e-10 — within the old ε-window
    /// but NOT equal. The old test treated them as tied and preferred
    /// the smaller basis index (row 0, ratio 1 + 5e-10), producing
    /// x = 1 + 5e-10 and violating the second row (coefficient 1e6) by
    /// 5e-4. The exact-tie rule must pick the strict minimum (row 1).
    #[test]
    fn tie_break_prefers_strict_minimum_ratio() {
        let build = || {
            LpProblem::maximize(vec![1.0])
                .constraint(vec![1.0], Relation::Le, 1.0 + 5e-10)
                .unwrap()
                .constraint(vec![1e6], Relation::Le, 1e6)
                .unwrap()
        };
        let bounded = build().solve().unwrap();
        let refsol = reference::solve(&build()).unwrap();
        for sol in [&bounded, &refsol] {
            assert!(
                1e6 * sol.x[0] <= 1e6 + 1e-6,
                "vertex violates the tight row: x = {:.12}",
                sol.x[0]
            );
            assert!((sol.x[0] - 1.0).abs() < 1e-9);
        }
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
        let build = || {
            LpProblem::maximize(vec![1.0, 0.0, 0.0, 0.0])
                .constraint(vec![1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0)
                .unwrap()
                .constraint(vec![1.0, 1.0, -1e-8, -1.0], Relation::Eq, 1.0 + 1e-9)
                .unwrap()
        };
        let bounded = build().solve().unwrap();
        let refsol = reference::solve(&build()).unwrap();
        for sol in [&bounded, &refsol] {
            for (i, &v) in sol.x.iter().enumerate() {
                assert!(v >= -1e-6, "x[{i}] = {v:.12} went negative");
            }
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
            let build = || {
                LpProblem::maximize(vec![1.0, 1.0, 1.0])
                    .constraint(vec![3.0, 1.0, 1.0], Relation::Eq, 3.0 * scale)
                    .unwrap()
                    .constraint(vec![1.0, 7.0, 1.0], Relation::Eq, 3.0 * scale)
                    .unwrap()
                    .constraint(vec![1.0, 1.0, 9.0], Relation::Eq, 3.0 * scale)
                    .unwrap()
            };
            let expected_obj = (57.0 / 43.0) * scale;
            let bounded = build()
                .solve()
                .unwrap_or_else(|e| panic!("bounded misclassified at scale {scale:e}: {e:?}"));
            let refsol = reference::solve(&build())
                .unwrap_or_else(|e| panic!("reference misclassified at scale {scale:e}: {e:?}"));
            for sol in [&bounded, &refsol] {
                assert!(
                    (sol.objective - expected_obj).abs() <= 1e-9 * scale.max(1.0),
                    "objective {} vs expected {expected_obj} at scale {scale:e}",
                    sol.objective
                );
            }
        }
    }

    // ---- reference ↔ bounded agreement spot checks ----

    #[test]
    fn reference_agrees_on_yarn_shaped_lp() {
        let n = [100.0, 50.0, 20.0];
        let w = [1.0, 0.8, 0.5];
        let p = LpProblem::maximize(vec![n[0], n[1], n[2]])
            .constraint(
                vec![w[0] * n[0], w[1] * n[1], w[2] * n[2]],
                Relation::Le,
                900.0,
            )
            .unwrap()
            .bounds(0, 4.0, Some(12.0))
            .unwrap()
            .bounds(1, 4.0, Some(12.0))
            .unwrap()
            .bounds(2, 4.0, Some(12.0))
            .unwrap();
        let bounded = p.solve().unwrap();
        let refsol = reference::solve(&p).unwrap();
        assert!((bounded.objective - refsol.objective).abs() < 1e-9);
    }

    #[test]
    fn bounded_solver_handles_upper_bound_only_optimum() {
        // max 2x + y with x ≤ 3, y ≤ 5 and no rows at all: both at upper,
        // purely bound-flip iterations (zero-row tableau).
        let sol = LpProblem::maximize(vec![2.0, 1.0])
            .bounds(0, 0.0, Some(3.0))
            .unwrap()
            .bounds(1, 0.0, Some(5.0))
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
        assert!((sol.x[1] - 5.0).abs() < 1e-9);
        assert!((sol.objective - 11.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded_above_without_rows() {
        let r = LpProblem::maximize(vec![1.0]).solve();
        assert_eq!(r, Err(OptError::Unbounded));
    }

    // ---- warm-start behaviour ----

    #[test]
    fn warm_start_reproduces_cold_solution() {
        let lp = |delta: f64| {
            LpProblem::maximize(vec![100.0, 50.0, 20.0])
                .constraint(vec![100.0, 40.0 + delta, 10.0], Relation::Le, 900.0)
                .unwrap()
                .bounds(0, 4.0, Some(12.0))
                .unwrap()
                .bounds(1, 4.0, Some(12.0))
                .unwrap()
                .bounds(2, 4.0, Some(12.0))
                .unwrap()
        };
        let (cold, basis) = lp(0.0).solve_warm(None).unwrap();
        // Same instance from its own basis: identical optimum.
        let (rewarm, basis2) = lp(0.0).solve_warm(Some(&basis)).unwrap();
        assert!((rewarm.objective - cold.objective).abs() < 1e-9);
        assert_eq!(basis, basis2);
        // Perturbed instance warm vs cold: identical optimum.
        let (warm, _) = lp(3.0).solve_warm(Some(&basis)).unwrap();
        let cold2 = lp(3.0).solve().unwrap();
        assert!((warm.objective - cold2.objective).abs() < 1e-9);
        for (a, b) in warm.x.iter().zip(&cold2.x) {
            assert!((a - b).abs() < 1e-9, "warm {:?} vs cold {:?}", warm.x, cold2.x);
        }
    }

    #[test]
    fn warm_start_with_mismatched_basis_falls_back_cold() {
        let (_, basis3) = LpProblem::maximize(vec![1.0, 1.0, 1.0])
            .constraint(vec![1.0, 1.0, 1.0], Relation::Le, 3.0)
            .unwrap()
            .solve_warm(None)
            .unwrap();
        // Two-variable problem handed a three-variable basis: must still
        // solve correctly via the cold path.
        let (sol, _) = LpProblem::maximize(vec![3.0, 5.0])
            .constraint(vec![1.0, 0.0], Relation::Le, 4.0)
            .unwrap()
            .constraint(vec![0.0, 2.0], Relation::Le, 12.0)
            .unwrap()
            .constraint(vec![3.0, 2.0], Relation::Le, 18.0)
            .unwrap()
            .solve_warm(Some(&basis3))
            .unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_across_infeasible_and_back() {
        // A basis from a feasible solve must not corrupt the verdict on
        // an infeasible sibling, and vice versa.
        let feasible = LpProblem::maximize(vec![1.0])
            .constraint(vec![1.0], Relation::Le, 1.0)
            .unwrap();
        let (_, basis) = feasible.solve_warm(None).unwrap();
        let infeasible = LpProblem::maximize(vec![1.0])
            .constraint(vec![1.0], Relation::Le, 1.0)
            .unwrap()
            .constraint(vec![1.0], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(
            infeasible.solve_warm(Some(&basis)).map(|(s, _)| s),
            Err(OptError::Infeasible)
        );
    }

    #[test]
    fn warm_start_equality_system() {
        // Equality rows force artificials on the cold path; the warm
        // path must rebuild without them and still agree.
        let lp = |rhs: f64| {
            LpProblem::maximize(vec![2.0, 1.0])
                .constraint(vec![1.0, 1.0], Relation::Eq, rhs)
                .unwrap()
                .constraint(vec![1.0, -1.0], Relation::Eq, 1.0)
                .unwrap()
        };
        let (_, basis) = lp(3.0).solve_warm(None).unwrap();
        let (warm, _) = lp(5.0).solve_warm(Some(&basis)).unwrap();
        let cold = lp(5.0).solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!((warm.x[0] - 3.0).abs() < 1e-9);
        assert!((warm.x[1] - 2.0).abs() < 1e-9);
    }
}
