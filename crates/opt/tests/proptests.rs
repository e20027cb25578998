//! Property-based tests for the optimizers: the closed-form knapsack
//! must be feasible and reach the exact dual bound of randomized one-row
//! YARN-shaped LPs.

use kea_opt::knapsack;
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

/// The optimum of `max v·d` s.t. `w·d ≤ 0`, `|d_k| ≤ step`, by LP
/// duality: `min_{λ≥0} step·Σ_k |v_k − λ·w_k|`. That function is convex
/// and piecewise linear in λ, so its minimum is at `λ = 0` or at a
/// breakpoint `v_k / w_k > 0`. Shares no code with the solver.
fn dual_bound(values: &[f64], weights: &[f64], step: f64) -> f64 {
    let dual = |lambda: f64| -> f64 {
        let l1: f64 = values
            .iter()
            .zip(weights)
            .map(|(v, w)| (v - lambda * w).abs())
            .sum();
        step * l1
    };
    values
        .iter()
        .zip(weights)
        .filter(|(_, &w)| w != 0.0)
        .map(|(v, w)| v / w)
        .filter(|&lambda| lambda > 0.0)
        .chain([0.0])
        .map(dual)
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `max v·d` s.t. `w·d ≤ 0`, `−step ≤ d_k ≤ step`: the closed form
    /// must reach the exact dual bound, be feasible, and leave at most
    /// one step strictly inside its box.
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

        let objective: f64 = values.iter().zip(&d).map(|(v, x)| v * x).sum();
        let bound = dual_bound(&values, &weights, step);
        prop_assert!(
            (objective - bound).abs() <= 1e-9 * (1.0 + objective.abs()),
            "objective misses the dual bound: knapsack {} vs bound {} (g={}, seed={}, step={})",
            objective, bound, g, seed, step
        );
        let row: f64 = weights.iter().zip(&d).map(|(w, x)| w * x).sum();
        let row_scale: f64 = weights.iter().map(|w| w.abs() * step).sum();
        prop_assert!(row <= 1e-12 * (1.0 + row_scale), "row violated: {} > 0", row);
        for &x in &d {
            prop_assert!(x.abs() <= step * (1.0 + 1e-12), "box violated: |{}| > {}", x, step);
        }
        let fractional = d.iter().filter(|x| x.abs() < step).count();
        prop_assert!(fractional <= 1, "{} steps inside the box: {:?}", fractional, d);
    }
}
