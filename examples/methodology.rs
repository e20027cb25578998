//! The Figure-3 methodology, end to end (§3.1): Phase I (fact finding +
//! conceptualization, validated on data), Phase II (modeling +
//! optimization), and Phase III (a pilot flight before any roll-out).
//! Each phase ends at the pipeline's own gate: the two
//! conceptualization checks, `tune`'s typed refusals, and the pilot's
//! before/after treatment effects under a latency guardrail.
//!
//! ```text
//! cargo run --release --example methodology
//! ```

use kea_core::conceptualization::{validate_critical_path, validate_uniformity};
use kea_core::{tune, FlightingTool, TunePolicy};
use kea_sim::{run, ClusterSpec, ConfigPatch, ConfigPlan, SimConfig, WorkloadSpec, SC1};
use kea_telemetry::Metric;

/// Largest latency regression the pilot may show before the roll-out
/// is blocked (the §5.2.2 guardrail: task latency must not regress).
const MAX_LATENCY_REGRESSION: f64 = 0.02;

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

    // ---- Phase I: fact finding & system conceptualization -------------
    // Objective: sellable capacity. Constraint: cluster-average task
    // latency must not regress. Tunable: max_num_running_containers per
    // SC-SKU group. Before any model is built, the abstraction ladder
    // must hold on observed data.
    println!("Phase I: validating the abstraction ladder on observed data...");
    let observed = run(&world(&cluster, 30, 3));
    let critical = validate_critical_path(&cluster, &observed).expect("tasks ran");
    let uniform = validate_uniformity(&cluster, &observed, 300, 0.10).expect("tasks ran");
    println!(
        "  critical-path skew: {} | placement uniformity: {} (max dev {:.3})",
        critical.skew_confirmed, uniform.uniform, uniform.max_sku_deviation
    );
    if !(critical.skew_confirmed && uniform.uniform) {
        println!("conceptualization checks failed; do not proceed to modeling");
        return;
    }

    // ---- Phase II: modeling & optimization -----------------------------
    println!("Phase II: calibrating models and solving the LP...");
    let tuned = match tune(&observed.telemetry, &TunePolicy::default()) {
        Ok(tuned) => tuned,
        Err(e) => {
            println!("  no sound proposal ({e}); back to fact finding");
            return;
        }
    };
    let proposal = tuned
        .plan
        .suggestions
        .iter()
        .map(|s| format!("sku{}:{:+}", s.group.sku.0, s.delta_step))
        .collect::<Vec<_>>()
        .join(" ");
    println!("  proposal: {proposal}");

    // ---- Phase III: a pilot flight, then the roll-out decision ---------
    // Pilot the proposal's largest capacity step on its SKU's machines.
    let step = match tuned.plan.suggestions.iter().max_by_key(|s| s.delta_step) {
        Some(step) if step.delta_step > 0 => step,
        _ => {
            println!("the proposal adds no capacity; nothing to flight");
            return;
        }
    };
    let sku = step.group.sku;
    let mut world_cfg = world(&cluster, 48, 3);
    let base = world_cfg.plan.base[&sku].max_running_containers;
    let pilot = base.saturating_add_signed(step.delta_step);
    println!(
        "Phase III: flighting sku{} {base} → {pilot} containers...",
        sku.0
    );
    let flight = FlightingTool::flight(
        &format!("pilot: sku{} {:+}", sku.0, step.delta_step),
        cluster.machines_of_sku(sku).map(|m| m.id).collect(),
        24,
        48,
        ConfigPatch {
            max_running_containers: Some(pilot),
            ..Default::default()
        },
    )
    .expect("valid flight");
    // The before-window and the flight window are diurnally aligned
    // (hours 0–24 vs 24–48) so the comparison is not confounded by the
    // daily load wave.
    world_cfg.plan.add_flight(flight.clone());
    let world = run(&world_cfg);
    let effect_on = |metric| {
        FlightingTool::before_after(&world.telemetry, &flight, 2, metric).expect("measurable")
    };
    let capacity = effect_on(Metric::AverageRunningContainers);
    let latency = effect_on(Metric::AverageTaskLatency);
    println!(
        "  running containers {:+.2}% (t = {:.2}); task latency {:+.2}% (t = {:.2})",
        capacity.percent_change(),
        capacity.test.t,
        latency.percent_change(),
        latency.test.t
    );
    // The guardrail trips only on a regression that is both material and
    // statistically real, as `evaluate_deployment` judges a roll-out.
    if latency.relative_effect > MAX_LATENCY_REGRESSION && latency.significant_at(0.05) {
        println!("latency guardrail tripped: back to Phase II to refine the models");
    } else {
        println!("latency guardrail held: roll out");
    }
}
