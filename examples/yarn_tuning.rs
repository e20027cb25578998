//! Application 1 end-to-end: YARN `max_num_running_containers` tuning via
//! Observational Tuning (§5.2) — observe, model, optimize, deploy,
//! evaluate with treatment effects, and check the Figure 11 benchmarks.
//!
//! ```text
//! cargo run --release --example yarn_tuning
//! ```

use kea_core::apps::yarn_config::{pooled_benchmark_test, run_yarn_tuning, YarnTuningParams};
use kea_core::{optimize_sweep, OperatingPoint};
use kea_sim::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::small();
    let params = YarnTuningParams::quick(cluster.clone(), 2021);
    println!(
        "running the full observational-tuning pipeline on {} machines \
         ({}h observe + {}h evaluate)...",
        cluster.n_machines(),
        params.observe_hours,
        params.eval_hours
    );
    let outcome = run_yarn_tuning(&params).expect("pipeline runs");

    println!("\ncalibrated groups (Figure 9): {}", outcome.tuned.engine.len());
    println!("\nsuggested steps (Figure 10):");
    for s in &outcome.tuned.plan.suggestions {
        println!(
            "  {:<8} {:+}  (m' = {:.1}, gradient {:+.2})",
            cluster.sku(s.group.sku).name,
            s.delta_step,
            s.current_containers,
            s.latency_gradient
        );
    }
    println!(
        "\npredicted: {:+.2}% capacity at unchanged latency",
        outcome.tuned.plan.predicted_capacity_gain * 100.0
    );

    // Figure 10 sensitivity: re-linearize at progressively heavier
    // operating points and check the suggested directions still agree
    // with the median run.
    let sweep = optimize_sweep(
        &outcome.tuned.engine,
        &outcome.tuned.machine_counts,
        1.0,
        &[
            OperatingPoint::Percentile(75.0),
            OperatingPoint::Percentile(90.0),
            OperatingPoint::Percentile(95.0),
        ],
    )
    .expect("sensitivity sweep solvable");
    for (label, run) in ["p75", "p90", "p95"].iter().zip(&sweep) {
        let agree = outcome
            .tuned
            .plan
            .suggestions
            .iter()
            .zip(&run.suggestions)
            .filter(|(m, h)| m.delta_step.signum() == h.delta_step.signum())
            .count();
        println!(
            "{label} sensitivity: {}/{} groups keep their direction under heavy load",
            agree,
            run.suggestions.len()
        );
    }
    println!("\nmeasured after fleet-wide deployment (§5.2.2):");
    println!(
        "  Total Data Read   {:+.2}%  (t = {:.2}; paper: +9%, t = 4.45)",
        outcome.throughput_change_pct, outcome.throughput_t
    );
    println!(
        "  task latency      {:+.2}%  (paper: unchanged)",
        outcome.latency_change_pct
    );
    println!(
        "  capacity          {:+.2}%  (paper: +2%)",
        outcome.capacity_change_pct
    );
    println!(
        "  latency guardrail: {}",
        if outcome.deployment.approved { "PASSED" } else { "FAILED" }
    );

    println!("\nbenchmark jobs before → after (Figure 11):");
    for b in &outcome.benchmarks {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "  {:<16} {:6.0}s → {:6.0}s  ({:+.1}%, n = {}/{})",
            b.name,
            mean(&b.before_runtimes_s),
            mean(&b.after_runtimes_s),
            b.mean_change_pct,
            b.before_runtimes_s.len(),
            b.after_runtimes_s.len()
        );
    }
    if let Ok(test) = pooled_benchmark_test(&outcome.benchmarks) {
        println!("  pooled (after < before): t = {:.2}, p = {:.3}", test.t, test.p_value);
    }
}
