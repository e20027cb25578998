//! Property-based tests for the optimizers: the reference simplex must
//! always return *feasible* and *optimal-or-better-than-sampled*
//! solutions, and the closed-form knapsack must reach the simplex's
//! objective on randomized one-row YARN-shaped LPs.

use kea_opt::{knapsack, simplex, LpProblem, Relation};
use proptest::prelude::*;

/// Draws finite numbers in [−3, 3] of both signs. On a 0.5 grid
/// (`grid`) exact zeros and exact `|v/w|` ratio ties are common;
/// otherwise draws are continuous, with one in eight forced to zero.
fn sampler(seed: u64, grid: bool) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        if grid {
            (u * 13.0).floor() * 0.5 - 3.0
        } else if state >> 61 == 0 {
            0.0
        } else {
            6.0 * u - 3.0
        }
    }
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
        let sol = simplex::reference::solve(&lp).unwrap();
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `max v·d` s.t. `w·d ≤ 0`, `−step ≤ d_k ≤ step`: the closed form
    /// must match the general simplex's objective and be feasible.
    #[test]
    fn knapsack_agrees_with_reference(
        g in 1usize..40,
        seed in 0u64..100_000,
        step_idx in 0usize..4,
    ) {
        let step = [0.5, 1.0, 1.7, 2.0][step_idx];
        let mut next = sampler(seed, seed % 2 == 0);
        let values: Vec<f64> = (0..g).map(|_| next()).collect();
        let weights: Vec<f64> = (0..g).map(|_| next()).collect();
        let d = knapsack::solve(&values, &weights, step).unwrap();

        let mut lp = LpProblem::maximize(values.clone())
            .constraint(weights.clone(), Relation::Le, 0.0)
            .unwrap();
        for k in 0..g {
            lp = lp.bounds(k, -step, Some(step)).unwrap();
        }
        let reference = simplex::reference::solve(&lp).unwrap();

        let objective: f64 = values.iter().zip(&d).map(|(v, x)| v * x).sum();
        prop_assert!(
            (objective - reference.objective).abs() <= 1e-9 * (1.0 + objective.abs()),
            "objectives disagree: knapsack {} vs reference {} (g={}, seed={}, step={})",
            objective, reference.objective, g, seed, step
        );
        let row: f64 = weights.iter().zip(&d).map(|(w, x)| w * x).sum();
        let row_scale: f64 = weights.iter().map(|w| w.abs() * step).sum();
        prop_assert!(row <= 1e-12 * (1.0 + row_scale), "row violated: {} > 0", row);
        for &x in &d {
            prop_assert!(x.abs() <= step * (1.0 + 1e-12), "box violated: |{}| > {}", x, step);
        }
    }
}
