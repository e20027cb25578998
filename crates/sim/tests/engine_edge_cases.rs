//! Engine integration tests: flight interactions, queue caps, and
//! conservation laws the event loop must uphold.

use kea_sim::{
    run, run_with_exec, ClusterSpec, ConfigPatch, ConfigPlan, ExecConfig, Flight, SimConfig,
    WorkloadSpec, SC1,
};
use kea_telemetry::{MachineId, SkuId};
use std::collections::BTreeSet;

fn saturated_config(hours: u64, seed: u64) -> SimConfig {
    let cluster = ClusterSpec::tiny();
    SimConfig {
        cluster: cluster.clone(),
        workload: WorkloadSpec::default_for(&cluster, 1.1),
        plan: ConfigPlan::baseline(&cluster.skus, SC1),
        duration_hours: hours,
        seed,
        task_log_every: 0,
        adhoc_job_log_every: 0,
    }
}

#[test]
fn lowering_max_mid_flight_sheds_load() {
    // A flight that halves max_running_containers on a machine subset
    // must visibly reduce their running containers during the window —
    // including draining below a stale free-set entry.
    let mut cfg = saturated_config(24, 41);
    let targets: BTreeSet<MachineId> = cfg
        .cluster
        .machines_of_sku(kea_telemetry::SkuId(3))
        .take(4)
        .map(|m| m.id)
        .collect();
    cfg.plan.add_flight(Flight {
        label: "halve".into(),
        machines: targets.clone(),
        start_hour: 12,
        end_hour: 24,
        patch: ConfigPatch {
            max_running_containers: Some(8), // baseline is 17
            ..Default::default()
        },
    });
    let out = run(&cfg);
    let mean_running = |lo: u64, hi: u64| {
        let vals: Vec<f64> = out
            .telemetry
            .by_machines_and_hours(&targets, lo, hi)
            .map(|r| r.metrics.avg_running_containers)
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let before = mean_running(4, 12);
    let during = mean_running(14, 24);
    assert!(
        during < before * 0.75,
        "flight must shed load: {before:.1} → {during:.1}"
    );
    assert!(during <= 8.5, "capped level respected: {during:.1}");
}

#[test]
fn raising_max_mid_flight_absorbs_load() {
    let mut cfg = saturated_config(24, 43);
    let targets: BTreeSet<MachineId> = cfg
        .cluster
        .machines_of_sku(kea_telemetry::SkuId(5))
        .map(|m| m.id)
        .collect();
    cfg.plan.add_flight(Flight {
        label: "raise".into(),
        machines: targets.clone(),
        start_hour: 12,
        end_hour: 24,
        patch: ConfigPatch {
            max_running_containers: Some(30), // baseline is 22
            ..Default::default()
        },
    });
    let out = run(&cfg);
    let mean_running = |lo: u64, hi: u64| {
        let vals: Vec<f64> = out
            .telemetry
            .by_machines_and_hours(&targets, lo, hi)
            .map(|r| r.metrics.avg_running_containers)
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    // Under saturation the raised machines must pick up extra containers.
    let before = mean_running(4, 12);
    let during = mean_running(14, 24);
    assert!(
        during > before + 2.0,
        "raised caps absorb queued work: {before:.1} → {during:.1}"
    );
}

#[test]
fn queue_caps_do_not_lose_work() {
    // With aggressive queue caps everywhere, total completed work over a
    // fixed window must stay close to the uncapped run: caps redirect
    // queued tasks, they never drop them.
    let base = run(&saturated_config(24, 47));
    let mut capped_cfg = saturated_config(24, 47);
    for sku in capped_cfg.cluster.skus.clone() {
        capped_cfg
            .plan
            .base
            .get_mut(&sku.id)
            .expect("sku in plan")
            .max_queue_length = 2;
    }
    let capped = run(&capped_cfg);
    let total = |o: &kea_sim::SimOutput| o.counters.total as f64;
    let ratio = total(&capped) / total(&base);
    assert!(
        (0.95..=1.05).contains(&ratio),
        "work conservation under queue caps: ratio {ratio}"
    );
    // And the caps visibly shorten the worst queues.
    let max_queue = |o: &kea_sim::SimOutput| {
        o.telemetry
            .iter()
            .map(|r| r.metrics.queued_containers)
            .fold(0.0f64, f64::max)
    };
    assert!(max_queue(&capped) < max_queue(&base));
}

#[test]
fn sc_flight_relabels_telemetry_groups() {
    let mut cfg = saturated_config(12, 53);
    let targets: BTreeSet<MachineId> = cfg
        .cluster
        .machines_of_sku(kea_telemetry::SkuId(0))
        .take(3)
        .map(|m| m.id)
        .collect();
    cfg.plan.add_flight(Flight {
        label: "sc2".into(),
        machines: targets.clone(),
        start_hour: 6,
        end_hour: 12,
        patch: ConfigPatch {
            sc: Some(kea_sim::SC2),
            ..Default::default()
        },
    });
    let out = run(&cfg);
    for rec in out.telemetry.iter().filter(|r| targets.contains(&r.machine)) {
        let expected = if rec.hour >= 6 { kea_sim::SC2 } else { SC1 };
        assert_eq!(
            rec.group.sc, expected,
            "hour {} must be labelled {:?}",
            rec.hour, expected
        );
    }
}

#[test]
fn degenerate_calibration_cannot_smuggle_nonfinite_telemetry() {
    // A poisoned workload calibration (infinite mean input size) makes
    // every affected task report `inf` data read, which poisons the
    // machine-hour records of the hours those tasks complete in. The
    // engine must stream telemetry through the same non-finite validation
    // CSV ingest applies — dropping and *counting* poisoned records in
    // every build profile — so downstream aggregates never see a NaN.
    // Before the engine flushed through the validated path, these records
    // landed in the store untouched in release builds (debug-only assert).
    let mut cfg = SimConfig::baseline(kea_sim::ClusterSpec::tiny(), 6, 61);
    for tpl in &mut cfg.workload.templates {
        if tpl.name == "ingest-hourly" {
            if let Some(s) = tpl.stages.first_mut() {
                s.mean_input_gb = f64::INFINITY;
            }
        }
    }
    let out = run(&cfg);
    assert!(
        out.nonfinite_dropped > 0,
        "poisoned records must be counted, not silently absent"
    );
    let machines = cfg.cluster.n_machines() as u64;
    let expected_grid = machines * cfg.duration_hours;
    assert_eq!(
        out.telemetry.len() as u64 + out.nonfinite_dropped,
        expected_grid,
        "every machine-hour is either stored or counted as dropped"
    );
    for rec in out.telemetry.iter() {
        assert!(rec.metrics.is_finite(), "non-finite record smuggled into the store");
    }
    // The reference engine flushes through the same validated path and
    // must account identically.
    let oracle = kea_sim::engine::reference::run(&cfg);
    assert_eq!(oracle.nonfinite_dropped, out.nonfinite_dropped);
    assert_eq!(oracle.telemetry.len(), out.telemetry.len());
}

#[test]
#[should_panic(expected = "SKU present in plan")]
fn federated_run_surfaces_a_worker_panic() {
    // A machine whose SKU the plan does not know panics its domain's
    // worker. The serial engine panics with the same message; the
    // federated one must too, not return the other domains' records.
    let mut cfg = SimConfig::baseline(ClusterSpec::tiny(), 2, 1);
    if let Some(m) = cfg.cluster.machines.last_mut() {
        m.sku = SkuId(999);
    }
    let out = run_with_exec(
        &cfg,
        ExecConfig {
            shards: 2,
            emit_window_hours: 24,
        },
    );
    panic!(
        "returned {} records instead of panicking",
        out.telemetry.len()
    );
}
