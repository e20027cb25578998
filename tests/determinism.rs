//! Reproducibility: the entire stack is a pure function of (config, seed).

use kea_core::apps::yarn_config::{run_yarn_tuning, YarnTuningParams};
use kea_sim::{run, ClusterSpec, SimConfig};

#[test]
fn simulation_is_bit_identical_under_a_seed() {
    let a = run(&SimConfig::baseline(ClusterSpec::tiny(), 12, 77));
    let b = run(&SimConfig::baseline(ClusterSpec::tiny(), 12, 77));
    assert_eq!(a.telemetry.len(), b.telemetry.len());
    for (ra, rb) in a.telemetry.iter().zip(b.telemetry.iter()) {
        assert_eq!(ra, rb);
    }
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.tasks, b.tasks);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn full_pipeline_is_deterministic() {
    let mut params = YarnTuningParams::quick(ClusterSpec::tiny(), 555);
    params.observe_hours = 26;
    params.eval_hours = 26;
    let a = run_yarn_tuning(&params).expect("runs");
    let b = run_yarn_tuning(&params).expect("runs");
    assert_eq!(a.tuned.plan.suggestions, b.tuned.plan.suggestions);
    assert_eq!(a.throughput_change_pct, b.throughput_change_pct);
    assert_eq!(a.capacity_change_pct, b.capacity_change_pct);
}

#[test]
fn seeds_actually_matter() {
    let a = run(&SimConfig::baseline(ClusterSpec::tiny(), 8, 1));
    let b = run(&SimConfig::baseline(ClusterSpec::tiny(), 8, 2));
    let util = |o: &kea_sim::SimOutput| {
        o.telemetry
            .iter()
            .map(|r| r.metrics.cpu_utilization)
            .sum::<f64>()
    };
    assert_ne!(util(&a), util(&b));
}
