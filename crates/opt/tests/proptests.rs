//! Property-based tests for the optimizers: the simplex must always
//! return *feasible* and *optimal-or-better-than-sampled* solutions, and
//! the bounded-variable solver must agree with `simplex::reference`
//! (status and objective) on randomized LPs of every flavour.

use kea_opt::{simplex, LpProblem, OptError, Relation};
use proptest::prelude::*;

/// Splitmix-style generator over an exactly-representable grid
/// (multiples of 0.25) so both solvers see bit-identical inputs and
/// rounding differences stay far below the agreement tolerance.
fn grid_rng(seed: u64) -> impl FnMut(f64, f64) -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move |lo: f64, hi: f64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 33) as f64 / u32::MAX as f64;
        let steps = ((hi - lo) / 0.25).round();
        lo + 0.25 * (u * steps).round()
    }
}

/// Builds a random LP mixing Le/Ge/Eq rows, negative rhs, and random
/// finite/infinite bounds. Feasible, infeasible, and unbounded instances
/// all occur (the 500-seed sweep covers all three statuses).
fn random_mixed_lp(n: usize, seed: u64) -> LpProblem {
    let mut next = grid_rng(seed);
    let c: Vec<f64> = (0..n).map(|_| next(-3.0, 3.0)).collect();
    let mut lp = LpProblem::maximize(c);
    let n_cons = 1 + (seed % 3) as usize;
    for k in 0..n_cons {
        let a: Vec<f64> = (0..n).map(|_| next(-3.0, 3.0)).collect();
        let rel = match (seed / 3 + k as u64) % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let b = next(-10.0, 10.0);
        lp = lp.constraint(a, rel, b).unwrap();
    }
    for i in 0..n {
        let lo = next(-5.0, 0.0);
        let hi = if next(0.0, 1.0) < 0.75 {
            Some(lo + next(0.0, 8.0))
        } else {
            None
        };
        lp = lp.bounds(i, lo, hi).unwrap();
    }
    lp
}

proptest! {
    #[test]
    fn simplex_solutions_are_feasible(
        n in 2usize..6,
        seed in 0u64..500,
    ) {
        // Random LP: maximize c·x, constraints a·x ≤ b with a ≥ 0 and
        // b > 0 (x = 0 always feasible), plus box bounds.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / u32::MAX as f64
        };
        let c: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        let n_cons = 2 + (seed % 3) as usize;
        let mut lp = LpProblem::maximize(c.clone());
        let mut constraints = Vec::new();
        for _ in 0..n_cons {
            let a: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
            let b = 1.0 + next() * 20.0;
            constraints.push((a.clone(), b));
            lp = lp.constraint(a, Relation::Le, b).unwrap();
        }
        let mut uppers = Vec::new();
        for i in 0..n {
            let hi = 0.5 + next() * 10.0;
            uppers.push(hi);
            lp = lp.bounds(i, 0.0, Some(hi)).unwrap();
        }
        let sol = lp.solve().unwrap();
        // Feasibility.
        for (i, &x) in sol.x.iter().enumerate() {
            prop_assert!(x >= -1e-7 && x <= uppers[i] + 1e-7, "bounds violated");
        }
        for (a, b) in &constraints {
            let lhs: f64 = a.iter().zip(&sol.x).map(|(ai, xi)| ai * xi).sum();
            prop_assert!(lhs <= b + 1e-6, "constraint violated: {} > {}", lhs, b);
        }
        // Optimality vs sampled feasible points: scale random box points
        // into the feasible region and compare objectives.
        for _ in 0..20 {
            let mut candidate: Vec<f64> = (0..n).map(|i| next() * uppers[i]).collect();
            // Shrink until feasible.
            let mut worst = 1.0f64;
            for (a, b) in &constraints {
                let lhs: f64 = a.iter().zip(&candidate).map(|(ai, xi)| ai * xi).sum();
                if lhs > *b {
                    worst = worst.max(lhs / b);
                }
            }
            for x in &mut candidate {
                *x /= worst;
            }
            let cand_obj: f64 = c.iter().zip(&candidate).map(|(ci, xi)| ci * xi).sum();
            prop_assert!(
                sol.objective >= cand_obj - 1e-6,
                "sampled point beats 'optimal': {} > {}", cand_obj, sol.objective
            );
        }
    }

    #[test]
    fn bounded_solver_agrees_with_reference(
        n in 1usize..6,
        seed in 0u64..500,
    ) {
        let lp = random_mixed_lp(n, seed);
        let bounded = lp.solve();
        let refsol = simplex::reference::solve(&lp);
        match (&bounded, &refsol) {
            (Ok(b), Ok(r)) => {
                let tol = 1e-9 * (1.0 + b.objective.abs().max(r.objective.abs()));
                prop_assert!(
                    (b.objective - r.objective).abs() <= tol,
                    "objectives disagree: bounded {} vs reference {} (n={}, seed={})",
                    b.objective, r.objective, n, seed
                );
                // The bounded solver's basis must reproduce the same
                // optimum when handed back as a warm start.
                let (warm, basis) = lp.solve_warm(None).unwrap();
                let (rewarm, _) = lp.solve_warm(Some(&basis)).unwrap();
                prop_assert!((warm.objective - rewarm.objective).abs() <= tol);
            }
            (Err(OptError::Infeasible), Err(OptError::Infeasible))
            | (Err(OptError::Unbounded), Err(OptError::Unbounded)) => {}
            _ => prop_assert!(
                false,
                "status disagrees: bounded {:?} vs reference {:?} (n={}, seed={})",
                bounded, refsol, n, seed
            ),
        }
    }
}
