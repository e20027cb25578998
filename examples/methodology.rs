//! The Figure-3 methodology, end to end: a tuning project walking through
//! Phase I (fact finding + conceptualization, validated on data), Phase
//! II (modeling + optimization), and Phase III (flighting → roll-out) —
//! with the phase gates the paper's process implies enforced in code.
//!
//! ```text
//! cargo run --release --example methodology
//! ```

use kea_core::conceptualization::{validate_critical_path, validate_uniformity};
use kea_core::methodology::{Approach, Phase, TuningProject};
use kea_core::{tune, FlightingTool, TunePolicy};
use kea_sim::{run, ClusterSpec, ConfigPatch, ConfigPlan, SimConfig, WorkloadSpec, SC1};
use kea_telemetry::Metric;

/// The cluster under study runs at realistic pressure: queues exist at
/// peaks (Figure 12), which is also what makes container-cap pilots
/// measurable at all.
fn world(cluster: &ClusterSpec, hours: u64, seed: u64) -> SimConfig {
    SimConfig {
        cluster: cluster.clone(),
        workload: WorkloadSpec::default_for(cluster, 1.02),
        plan: ConfigPlan::baseline(&cluster.skus, SC1),
        duration_hours: hours,
        seed,
        task_log_every: 10,
        adhoc_job_log_every: 8,
    }
}

fn main() {
    let cluster = ClusterSpec::small();
    let mut project = TuningProject::new(
        "yarn-max-containers",
        Approach::Observational,
        "maximize sellable capacity at unchanged task latency",
    );

    // ---- Phase I: fact finding & system conceptualization -------------
    project
        .add_constraint("cluster-average task latency must not regress")
        .expect("phase I");
    project
        .add_tunable("max_num_running_containers per SC-SKU group")
        .expect("phase I");
    println!("Phase I: validating the abstraction ladder on observed data...");
    let observed = run(&world(&cluster, 30, 3));
    let critical = validate_critical_path(&cluster, &observed).expect("tasks ran");
    let uniform = validate_uniformity(&cluster, &observed, 300, 0.10).expect("tasks ran");
    println!(
        "  critical-path skew: {} | placement uniformity: {} (max dev {:.3})",
        critical.skew_confirmed, uniform.uniform, uniform.max_sku_deviation
    );
    project
        .complete_conceptualization(critical.skew_confirmed && uniform.uniform)
        .expect("checks passed");
    assert_eq!(project.phase(), Phase::Modeling);

    // ---- Phase II: modeling & optimization -----------------------------
    println!("Phase II: calibrating models and solving the LP...");
    let tuned = tune(&observed.telemetry, &TunePolicy::default()).expect("telemetry suffices");
    let proposal = tuned
        .plan
        .suggestions
        .iter()
        .map(|s| format!("sku{}:{:+}", s.group.sku.0, s.delta_step))
        .collect::<Vec<_>>()
        .join(" ");
    println!("  proposal: {proposal}");
    project
        .record_proposal("Huber g/h/f per group", &proposal)
        .expect("phase II");
    assert_eq!(project.phase(), Phase::Deployment);

    // ---- Phase III: flighting, then roll-out ---------------------------
    println!("Phase III: flighting the proposal on a machine subset...");
    let pilot_machines = cluster
        .machines_of_sku(kea_telemetry::SkuId(5))
        .map(|m| m.id)
        .collect();
    let flight = FlightingTool::flight(
        "pilot: Gen 4.1 +4",
        pilot_machines,
        24,
        48,
        ConfigPatch {
            max_running_containers: Some(26),
            ..Default::default()
        },
    )
    .expect("valid flight");
    // The before-window and the flight window are diurnally aligned
    // (hours 0–24 vs 24–48) so the comparison is not confounded by the
    // daily load wave.
    let mut world_cfg = world(&cluster, 48, 3);
    world_cfg.plan.add_flight(flight.clone());
    let world = run(&world_cfg);
    let effect = FlightingTool::before_after(
        &world.telemetry,
        &flight,
        2,
        Metric::AverageRunningContainers,
    )
    .expect("measurable");
    let passed = effect.effect >= 0.0;
    println!(
        "  pilot effect on running containers: {:+.2}% (t = {:.2}) → {}",
        effect.percent_change(),
        effect.test.t,
        if passed { "passed" } else { "failed" }
    );
    project.record_flight("gen4.1 +4", passed).expect("phase III");
    match project.approve_rollout(1) {
        Ok(()) => println!("rolled out; project log:"),
        Err(e) => println!("roll-out blocked ({e}); project log:"),
    }
    for line in project.log() {
        println!("  · {line}");
    }
}
