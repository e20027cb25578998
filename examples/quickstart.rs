//! Quickstart: observe a cluster, calibrate the What-if Engine, ask
//! what-if questions, and get a tuning suggestion — the core KEA loop in
//! ~60 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kea_core::{tune, TunePolicy};
use kea_sim::{run, ClusterSpec, SimConfig};

fn main() {
    // 1. Observe: run the simulated cluster under its manual-tuning
    //    baseline for two days. In production this step is "read the
    //    telemetry that already exists" — no experiments.
    let cluster = ClusterSpec::small();
    println!("observing {} machines for 48 hours...", cluster.n_machines());
    let mut observed = run(&SimConfig::baseline(cluster.clone(), 48, 42));
    println!(
        "  collected {} machine-hour records, {} completed tasks",
        observed.telemetry.len(),
        observed.counters.total
    );

    // 2. Model and optimize: one tuning pass. The Performance Monitor
    //    prepares group-level views, the What-if Engine calibrates
    //    per-group Huber regressions, and the LP of Equations (7)-(10)
    //    maximizes containers subject to unchanged cluster-average
    //    latency, stepping at most ±1 per group (the paper's
    //    conservative roll-out). Sealing compacts any pending delta into
    //    the sealed columnar run (sorted rows, dense ids, block table) up
    //    front; queries would otherwise merge run + delta on the fly.
    observed.telemetry.seal();
    let tuned = tune(&observed.telemetry, &TunePolicy::default())
        .expect("enough telemetry to calibrate and solve");
    let engine = &tuned.engine;
    println!("\ncalibrated models for {} machine groups:", engine.len());
    for models in engine.groups() {
        let sku = cluster.sku(models.group.sku);
        println!(
            "  {:<8} util = {:5.2} + {:4.2}·containers  (R² {:.2}, {} rows)",
            sku.name,
            models.g_containers_to_util.intercept(),
            models.g_containers_to_util.slope(),
            models.r2.0,
            models.n_rows,
        );
    }

    // 3. Ask a what-if question: what happens to the newest generation
    //    at 25 running containers — without deploying anything?
    let newest = engine.groups().last().expect("groups calibrated").group;
    let (util, tasks, latency) = engine.predict(newest, 25.0).expect("calibrated group");
    println!(
        "\nwhat-if: Gen 4.1 at 25 containers → {util:.0}% CPU, {tasks:.0} tasks/h, {latency:.0}s task latency"
    );

    // 4. The suggestion the pass solved for.
    let plan = &tuned.plan;
    println!("\nsuggested max-container steps (Figure 10):");
    for s in &plan.suggestions {
        println!(
            "  {:<8} {:+} (latency gradient {:+.2} s/container, {} machines)",
            cluster.sku(s.group.sku).name,
            s.delta_step,
            s.latency_gradient,
            s.n_machines
        );
    }
    println!(
        "predicted: {:+.2}% capacity at unchanged latency ({:.0}s)",
        plan.predicted_capacity_gain * 100.0,
        plan.baseline_latency
    );
}
