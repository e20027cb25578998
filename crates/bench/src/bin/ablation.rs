//! Quality ablations for the design choices called out in DESIGN.md.
//!
//! ```text
//! cargo run --release -p kea-bench --bin ablation -- all
//! cargo run --release -p kea-bench --bin ablation -- huber designs
//! ```
//!
//! Unlike the criterion benches (runtime), these compare *result quality*
//! across design alternatives:
//!
//! * `huber` — Huber vs OLS slope recovery under outlier contamination
//! * `modes` — observational tuning vs naive experimental search: cost
//!   in production-experiment hours for comparable gains
//! * `designs` — ideal vs hybrid vs time-slicing: bias and variance of
//!   the estimated SC2 effect
//! * `backlog` — with vs without the opportunistic backlog: is cluster
//!   throughput elastic in capacity?

use kea_bench::Report;
use kea_core::apps::sc_selection::{run_sc_selection, ScSelectionParams};
use kea_core::{
    analyze, hybrid_groups, time_slices, tune, MachineSplit, PerformanceMonitor, TunePolicy,
};
use kea_ml::LinearModel1D;
use kea_sim::{
    run, ClusterSpec, ConfigPatch, ConfigPlan, Flight, SimConfig, WorkloadSpec, SC1, SC2,
};
use kea_telemetry::{MachineId, Metric, SkuId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    if want("huber") {
        huber_vs_ols().print();
    }
    if want("modes") {
        tuning_modes().print();
    }
    if want("designs") {
        experiment_designs().print();
    }
    if want("backlog") {
        backlog_elasticity().print();
    }
}

/// Huber vs OLS slope recovery as gross outliers contaminate telemetry
/// (machines draining for repair): the reason §5.2.1 uses Huber.
fn huber_vs_ols() -> Report {
    let mut r = Report::new(
        "Ablation: Huber vs OLS under contamination",
        "§5.2.1 picks Huber because it is robust to outliers",
    );
    r.headers(&["huber |err|", "ols |err|", "huber wins"]);
    let mut rng = StdRng::seed_from_u64(404);
    for contamination in [0.0, 0.05, 0.10, 0.20] {
        let mut huber_err = 0.0;
        let mut ols_err = 0.0;
        let trials = 20;
        for _ in 0..trials {
            // Ground truth y = 10 + 2x with noise; contaminated points
            // jump by +50..150 (a draining machine reporting nonsense).
            let xs: Vec<f64> = (0..300).map(|i| i as f64 * 0.2).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|&x| {
                    let mut y = 10.0 + 2.0 * x + rng.gen_range(-1.0..1.0);
                    if rng.gen_range(0.0..1.0) < contamination {
                        y += rng.gen_range(50.0..150.0);
                    }
                    y
                })
                .collect();
            let huber = LinearModel1D::fit_huber(&xs, &ys).expect("fits");
            let ols = LinearModel1D::fit_ols(&xs, &ys).expect("fits");
            huber_err += (huber.slope() - 2.0).abs();
            ols_err += (ols.slope() - 2.0).abs();
        }
        huber_err /= trials as f64;
        ols_err /= trials as f64;
        r.row(
            &format!("contamination {:>2.0}%", contamination * 100.0),
            vec![huber_err, ols_err, f64::from(u8::from(huber_err <= ols_err))],
        );
    }
    r.note("at 0% both are fine; from 5% up Huber's slope error stays an order of magnitude lower".to_string());
    r
}

/// Observational tuning (model + LP from one passive window) vs a naive
/// experimental search that perturbs the config and measures each
/// candidate in production. The currency is *production experiment
/// hours* — the thing §5 says is prohibitively expensive at scale.
fn tuning_modes() -> Report {
    let cluster = ClusterSpec::tiny();
    let occupancy = 1.02;
    let mut r = Report::new(
        "Ablation: observational vs experimental tuning",
        "observational tuning avoids rounds of production experiments (§4.2/§5)",
    );
    r.headers(&["pred. gain %", "experiment h", "configs tried"]);

    // Observational: one passive window (it would exist anyway), then
    // model + LP. Zero experiment hours.
    let out = run(&SimConfig {
        cluster: cluster.clone(),
        workload: WorkloadSpec::default_for(&cluster, occupancy),
        plan: ConfigPlan::baseline(&cluster.skus, SC1),
        duration_hours: 48,
        seed: 500,
        task_log_every: 0,
        adhoc_job_log_every: 0,
    });
    let opt = tune(&out.telemetry, &TunePolicy::default())
        .expect("fits and solves")
        .plan;
    r.row(
        "observational (model+LP)",
        vec![opt.predicted_capacity_gain * 100.0, 0.0, 1.0],
    );

    // Experimental: greedy ±1 search, each candidate measured with a
    // 24-hour production deployment. Objective: total containers at a
    // latency no worse than baseline.
    let mut rng = StdRng::seed_from_u64(501);
    let baseline = ConfigPlan::baseline(&cluster.skus, SC1);
    let measure = |plan: &ConfigPlan, seed: u64| -> (f64, f64) {
        let out = run(&SimConfig {
            cluster: cluster.clone(),
            workload: WorkloadSpec::default_for(&cluster, occupancy),
            plan: plan.clone(),
            duration_hours: 24,
            seed,
            task_log_every: 0,
            adhoc_job_log_every: 0,
        });
        let mon = PerformanceMonitor::new(&out.telemetry);
        (
            mon.window_mean(Metric::AverageRunningContainers, 2, 24)
                .expect("telemetry"),
            mon.window_mean(Metric::AverageTaskLatency, 2, 24)
                .expect("telemetry"),
        )
    };
    let (base_cap, base_lat) = measure(&baseline, 510);
    let mut best = baseline.clone();
    let (mut best_cap, mut experiment_hours, mut tried) = (base_cap, 24.0, 1u32);
    for round in 0..6 {
        let mut candidate = best.clone();
        let sku = SkuId(rng.gen_range(0..cluster.skus.len() as u16));
        let cur = candidate.base[&sku].max_running_containers;
        let delta: i64 = if rng.gen_range(0.0..1.0) < 0.5 { 1 } else { -1 };
        candidate.set_max_containers(sku, (cur as i64 + delta).max(1) as u32);
        let (cap, lat) = measure(&candidate, 520 + round);
        experiment_hours += 24.0;
        tried += 1;
        if cap > best_cap && lat <= base_lat * 1.02 {
            best = candidate;
            best_cap = cap;
        }
    }
    r.row(
        "experimental (greedy ±1)",
        vec![
            (best_cap / base_cap - 1.0) * 100.0,
            experiment_hours,
            tried as f64,
        ],
    );
    r.note("the experimental column's hours are live production deployments; the paper's clusters need weeks per configuration and cannot afford bad candidates".to_string());
    r
}

/// Compares the three §7 experiment settings estimating the same known
/// effect (SC2 vs SC1) with the same machine budget: the ideal setting
/// has the least variance, time-slicing pays for workload drift.
fn experiment_designs() -> Report {
    let cluster = ClusterSpec::small();
    let mut r = Report::new(
        "Ablation: ideal vs hybrid vs time-slicing designs",
        "§7: the ideal setting controls workload best; time-slicing suffers drift",
    );
    r.headers(&["mean est %", "std across seeds", "seeds"]);
    let seeds = [600u64, 601, 602, 603, 604];
    let hours = 36;
    let warmup = 4;

    // Ideal: alternate machines of the Gen 1.1 racks.
    let mut ideal_estimates = Vec::new();
    for &seed in &seeds {
        let params = ScSelectionParams {
            cluster: cluster.clone(),
            sku: SkuId(0),
            n_racks: 2,
            duration_hours: hours,
            warmup_hours: warmup,
            seed,
        };
        let outcome = run_sc_selection(&params).expect("runs");
        ideal_estimates.push(outcome.table4[0].change_pct);
    }
    push_summary(&mut r, "ideal (every other machine)", &ideal_estimates);

    // Hybrid: two disjoint random groups of the same SKU, one flighted
    // to SC2 for the full window.
    let mut hybrid_estimates = Vec::new();
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups =
            hybrid_groups(&cluster, SkuId(0), 2, 14, &mut rng).expect("enough machines");
        let mut plan = ConfigPlan::baseline(&cluster.skus, SC1);
        plan.add_flight(Flight {
            label: "sc2".into(),
            machines: groups[1].clone(),
            start_hour: 0,
            end_hour: hours,
            patch: ConfigPatch {
                sc: Some(SC2),
                ..Default::default()
            },
        });
        let out = run(&SimConfig {
            cluster: cluster.clone(),
            workload: WorkloadSpec::default_for(&cluster, 0.95),
            plan,
            duration_hours: hours,
            seed,
            task_log_every: 0,
            adhoc_job_log_every: 0,
        });
        let split = MachineSplit {
            control: groups[0].clone(),
            treatment: groups[1].clone(),
        };
        let res = analyze(&out.telemetry, &split, warmup, hours, Metric::TotalDataRead)
            .expect("analyzable");
        hybrid_estimates.push(res.effect.percent_change());
    }
    push_summary(&mut r, "hybrid (separate groups)", &hybrid_estimates);

    // Time-slicing: the same machines alternate SC1/SC2 in 5-hour slices
    // (the interval the paper names); estimate = treatment-slice mean vs
    // control-slice mean. Workload drift between slices is the noise.
    let mut slicing_estimates = Vec::new();
    for &seed in &seeds {
        let machines: BTreeSet<MachineId> = cluster
            .machines_of_sku(SkuId(0))
            .take(28)
            .map(|m| m.id)
            .collect();
        let slices = time_slices(hours, 5).expect("valid schedule");
        let mut plan = ConfigPlan::baseline(&cluster.skus, SC1);
        for slice in &slices {
            if slice.treatment {
                plan.add_flight(Flight {
                    label: "sc2-slice".into(),
                    machines: machines.clone(),
                    start_hour: slice.start_hour,
                    end_hour: slice.end_hour,
                    patch: ConfigPatch {
                        sc: Some(SC2),
                        ..Default::default()
                    },
                });
            }
        }
        let out = run(&SimConfig {
            cluster: cluster.clone(),
            workload: WorkloadSpec::default_for(&cluster, 0.95),
            plan,
            duration_hours: hours,
            seed,
            task_log_every: 0,
            adhoc_job_log_every: 0,
        });
        let res = kea_core::analyze_time_slices(
            &out.telemetry,
            &machines,
            &slices,
            warmup,
            Metric::TotalDataRead,
        )
        .expect("slices analyzable");
        slicing_estimates.push(res.effect.percent_change());
    }
    push_summary(&mut r, "time-slicing (5h slices)", &slicing_estimates);
    r.note("all three see a positive SC2 effect; the spread across seeds is the design's noise floor".to_string());
    r
}

fn push_summary(r: &mut Report, label: &str, estimates: &[f64]) {
    let n = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / n;
    let var = estimates.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / (n - 1.0);
    r.row(label, vec![mean, var.sqrt(), n]);
}

/// With the opportunistic backlog, cluster throughput responds to extra
/// container capacity; without it, throughput is demand-bound and the
/// knob is inert — the substitution DESIGN.md documents.
fn backlog_elasticity() -> Report {
    let cluster = ClusterSpec::tiny();
    let mut r = Report::new(
        "Ablation: throughput elasticity with/without the backlog",
        "real clusters run opportunistic work; without it, capacity changes cannot move Total Data Read",
    );
    r.headers(&["base GB/h", "+2 cont GB/h", "change %"]);
    for (label, with_backlog) in [("with backlog", true), ("open-loop only", false)] {
        let workload = {
            let w = WorkloadSpec::default_for(&cluster, 1.02);
            if with_backlog {
                w
            } else {
                w.without_backlog()
            }
        };
        let measure = |plan: ConfigPlan| {
            let out = run(&SimConfig {
                cluster: cluster.clone(),
                workload: workload.clone(),
                plan,
                duration_hours: 48,
                seed: 700,
                task_log_every: 0,
                adhoc_job_log_every: 0,
            });
            PerformanceMonitor::new(&out.telemetry)
                .window_mean(Metric::TotalDataRead, 4, 48)
                .expect("telemetry")
        };
        let base = measure(ConfigPlan::baseline(&cluster.skus, SC1));
        let mut tuned_plan = ConfigPlan::baseline(&cluster.skus, SC1);
        for sku in &cluster.skus {
            tuned_plan.set_max_containers(sku.id, sku.default_max_containers + 2);
        }
        let tuned = measure(tuned_plan);
        r.row(label, vec![base, tuned, (tuned / base - 1.0) * 100.0]);
    }
    r.note("the +2-containers probe is a pure capacity increase; only the backlogged cluster converts it into throughput".to_string());
    r
}
