//! Application 1: YARN configuration tuning via Observational Tuning
//! (§5.2, Figures 9–11, Table 3 row 1).
//!
//! The end-to-end pipeline of the paper:
//!
//! 1. **Observe** — run the cluster under the manual-tuning baseline and
//!    collect a telemetry window (production: daily pipeline; here: a
//!    simulated observation window).
//! 2. **Model** — calibrate per-group Huber models `g_k`, `h_k`, `f_k`
//!    (the What-if Engine, Figure 9).
//! 3. **Optimize** — solve the LP of Equations (7)–(10) for conservative
//!    ±δ container steps (Figure 10).
//! 4. **Deploy & evaluate** — apply the integer steps fleet-wide at the
//!    deployment hour and compare before/after windows with treatment
//!    effects (§5.2.2: +9% Total Data Read at flat latency, +2% sellable
//!    capacity, better benchmark-job runtimes — Figure 11).

use crate::error::KeaError;
use crate::flighting::{evaluate_deployment, DeploymentReport, Guardrail};
use crate::slo::{check_implicit_slos, SloReport};
use crate::tune::{tune, TunePolicy, TunedPlan};
use kea_sim::{run, ClusterSpec, ConfigPatch, ConfigPlan, Flight, SimConfig, WorkloadSpec};
use kea_stats::{t_test_welch, Alternative};
use kea_telemetry::{MachineId, Metric};
use std::collections::BTreeSet;

/// Workload pressure: target slot occupancy. The knob only matters when
/// peaks saturate capacity, so tune near the high end (the paper's
/// clusters run with standing per-machine queues — Fig 12).
const TARGET_OCCUPANCY: f64 = 1.02;

/// Parameters of a YARN tuning run.
#[derive(Debug, Clone)]
pub struct YarnTuningParams {
    /// Cluster under tuning.
    pub cluster: ClusterSpec,
    /// Hours of pre-deployment observation (the paper trained on 7 days
    /// and evaluated over a month; scale to taste).
    pub observe_hours: u64,
    /// Hours of post-deployment evaluation.
    pub eval_hours: u64,
    /// RNG seed.
    pub seed: u64,
}

impl YarnTuningParams {
    /// Quick preset for tests and examples. The 48/48-hour windows keep
    /// both sides inside weekdays so weekly seasonality does not
    /// confound the before/after comparison (the paper's month-long
    /// windows solve the same problem by averaging whole weeks).
    pub fn quick(cluster: ClusterSpec, seed: u64) -> Self {
        YarnTuningParams {
            cluster,
            observe_hours: 48,
            eval_hours: 48,
            seed,
        }
    }
}

/// Per-benchmark before/after comparison (Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkComparison {
    /// Benchmark template name.
    pub name: String,
    /// Runtimes before deployment, seconds.
    pub before_runtimes_s: Vec<f64>,
    /// Runtimes after deployment, seconds.
    pub after_runtimes_s: Vec<f64>,
    /// Relative mean-runtime change (negative = faster).
    pub mean_change_pct: f64,
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct YarnTuningOutcome {
    /// The tuning pass over the observation window: the calibrated
    /// What-if Engine (Figure 9), the LP result (Figure 10), and the
    /// machine counts that let callers re-solve at other operating
    /// points (the Figure 10 high-percentile sensitivity check).
    pub tuned: TunedPlan,
    /// Fleet-wide before/after evaluation with guardrails.
    pub deployment: DeploymentReport,
    /// Total Data Read change, percent (paper: +9%).
    pub throughput_change_pct: f64,
    /// Average task latency change, percent (paper: ~0).
    pub latency_change_pct: f64,
    /// Running-container (sellable-capacity) change, percent (paper: +2%).
    pub capacity_change_pct: f64,
    /// Welch t statistic of the throughput change (paper: 4.45 / 7.13).
    pub throughput_t: f64,
    /// Benchmark-job comparisons (Figure 11).
    pub benchmarks: Vec<BenchmarkComparison>,
    /// Implicit-SLO verdicts for every recurring template (§3.2 Level II):
    /// the job-level constraint the machine-level tuning must respect.
    pub slo: SloReport,
}

/// Runs the full pipeline.
///
/// # Errors
/// [`KeaError::Design`], before anything is simulated, for an
/// observation or evaluation window shorter than 2 hours: the
/// evaluation skips the first hour of each; propagates model-fitting,
/// optimization, and analysis errors; fails if the observation window
/// is too short to calibrate any group.
pub fn run_yarn_tuning(params: &YarnTuningParams) -> Result<YarnTuningOutcome, KeaError> {
    for (window, hours) in [
        ("observation", params.observe_hours),
        ("evaluation", params.eval_hours),
    ] {
        if hours < 2 {
            return Err(KeaError::Design(format!(
                "the {window} window lasts {hours} h; it needs at least 2 h, since the \
                 deployment evaluation skips its first hour"
            )));
        }
    }
    kea_sim::check_run(params.observe_hours, TARGET_OCCUPANCY).map_err(KeaError::Design)?;
    // ---- Phase: observe under the manual baseline -------------------
    let workload = WorkloadSpec::default_for(&params.cluster, TARGET_OCCUPANCY);
    let baseline_plan = ConfigPlan::baseline(&params.cluster.skus, kea_sim::SC1);
    let observe_cfg = SimConfig {
        cluster: params.cluster.clone(),
        workload: workload.clone(),
        plan: baseline_plan.clone(),
        duration_hours: params.observe_hours,
        seed: params.seed,
        task_log_every: 10,
        adhoc_job_log_every: 8,
    };
    let observed = run(&observe_cfg);

    // ---- Phase: model and optimize ------------------------------------
    // The default policy fits hourly rows: a scaled-down cluster trades
    // machines for hours (the paper's 45k machines make daily aggregates
    // plentiful).
    let tuned = tune(&observed.telemetry, &TunePolicy::default())?;

    // ---- Phase: deploy fleet-wide at the deployment hour --------------
    // One simulated world covering both windows: baseline until
    // `observe_hours`, tuned thereafter (per-SKU flights emulate the
    // staged config push).
    let total_hours = params.observe_hours + params.eval_hours;
    let mut plan = baseline_plan;
    for suggestion in &tuned.plan.suggestions {
        if suggestion.delta_step == 0 {
            continue;
        }
        let sku = suggestion.group.sku;
        let base_max = plan.base[&sku].max_running_containers as i64; // kea-lint: allow(index-in-library) — sku iterates this plan's own keys
        let new_max = (base_max + suggestion.delta_step as i64).max(1) as u32;
        let machines: BTreeSet<MachineId> = params
            .cluster
            .machines_of_sku(sku)
            .map(|m| m.id)
            .collect();
        plan.add_flight(Flight {
            label: format!("deploy-{sku:?}"),
            machines,
            start_hour: params.observe_hours,
            end_hour: total_hours,
            patch: ConfigPatch {
                max_running_containers: Some(new_max),
                ..Default::default()
            },
        });
    }
    let deploy_cfg = SimConfig {
        cluster: params.cluster.clone(),
        workload,
        plan,
        duration_hours: total_hours,
        seed: params.seed,
        task_log_every: 10,
        adhoc_job_log_every: 8,
    };
    let world = run(&deploy_cfg);

    // ---- Phase: evaluate ----------------------------------------------
    // Skip a warm-up hour on each side of the deployment edge so queued
    // backlogs don't bleed between windows.
    let before = (1, params.observe_hours);
    let after = (params.observe_hours + 1, total_hours);
    let guardrails = [Guardrail {
        metric: Metric::AverageTaskLatency,
        higher_is_worse: true,
        max_regression: 0.02,
        alpha: 0.05,
    }];
    let metrics = [
        Metric::TotalDataRead,
        Metric::AverageTaskLatency,
        Metric::AverageRunningContainers,
    ];
    let deployment =
        evaluate_deployment(&world.telemetry, before, after, &metrics, &guardrails)?;
    let pct_of = |d: &DeploymentReport, metric: Metric| -> f64 {
        d.effects
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|(_, e)| e.percent_change())
            .unwrap_or(f64::NAN) // metric is always in `metrics`; NaN degrades
    };
    let throughput_change_pct = pct_of(&deployment, Metric::TotalDataRead);
    let latency_change_pct = pct_of(&deployment, Metric::AverageTaskLatency);
    let capacity_change_pct = pct_of(&deployment, Metric::AverageRunningContainers);
    let throughput_t = deployment
        .effects
        .iter()
        .find(|(m, _)| *m == Metric::TotalDataRead)
        .map(|(_, e)| e.test.t)
        .unwrap_or(f64::NAN); // same: absent effect degrades to NaN

    // ---- Benchmarks (Figure 11) ----------------------------------------
    let mut benchmarks = Vec::new();
    for template in deploy_cfg
        .workload
        .templates
        .iter()
        .filter(|t| t.name.starts_with("bench-"))
    {
        let runtimes = world.job_runtimes(&template.name);
        let arrivals: Vec<f64> = world
            .jobs
            .iter()
            .filter(|j| j.template_name == template.name)
            .map(|j| j.arrival_hour)
            .collect();
        let mut before_rt = Vec::new();
        let mut after_rt = Vec::new();
        for (rt, arr) in runtimes.iter().zip(&arrivals) {
            if *arr < params.observe_hours as f64 {
                before_rt.push(*rt);
            } else {
                after_rt.push(*rt);
            }
        }
        if before_rt.is_empty() || after_rt.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let change = (mean(&after_rt) - mean(&before_rt)) / mean(&before_rt) * 100.0;
        benchmarks.push(BenchmarkComparison {
            name: template.name.clone(),
            before_runtimes_s: before_rt,
            after_runtimes_s: after_rt,
            mean_change_pct: change,
        });
    }

    // ---- Implicit SLOs (Level II): per-template before/after ----------
    let before_jobs: Vec<_> = world
        .jobs
        .iter()
        .filter(|j| j.arrival_hour < params.observe_hours as f64)
        .cloned()
        .collect();
    let after_jobs: Vec<_> = world
        .jobs
        .iter()
        .filter(|j| j.arrival_hour >= params.observe_hours as f64)
        .cloned()
        .collect();
    let slo = check_implicit_slos(&before_jobs, &after_jobs, 3, 0.01)?;

    Ok(YarnTuningOutcome {
        tuned,
        deployment,
        throughput_change_pct,
        latency_change_pct,
        capacity_change_pct,
        throughput_t,
        benchmarks,
        slo,
    })
}

/// Pooled benchmark significance: Welch t over all before vs after
/// benchmark runtimes (used when individual templates have few
/// instances).
///
/// # Errors
/// Needs at least two runtimes on each side.
pub fn pooled_benchmark_test(
    benchmarks: &[BenchmarkComparison],
) -> Result<kea_stats::TTestResult, KeaError> {
    let before: Vec<f64> = benchmarks
        .iter()
        .flat_map(|b| b.before_runtimes_s.iter().copied())
        .collect();
    let after: Vec<f64> = benchmarks
        .iter()
        .flat_map(|b| b.after_runtimes_s.iter().copied())
        .collect();
    Ok(t_test_welch(&after, &before, Alternative::Less)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::SkuId;

    // One shared end-to-end run: the pipeline is the expensive part, the
    // assertions are cheap, so bundle them.
    #[test]
    fn end_to_end_reproduces_section_5_2() {
        let params = YarnTuningParams::quick(ClusterSpec::tiny(), 1234);
        let outcome = run_yarn_tuning(&params).expect("pipeline runs");

        // Figure 9: models calibrated for every group with positive
        // utilization slopes.
        assert_eq!(outcome.tuned.engine.len(), 6);
        let mut positive_f = 0;
        for g in outcome.tuned.engine.groups() {
            assert!(
                g.g_containers_to_util.slope() > 0.0,
                "util rises with containers: {g:?}"
            );
            if g.f_util_to_latency.slope() > 0.0 {
                positive_f += 1;
            }
        }
        // Pegged groups (old SKUs at max all day on a tiny cluster) have
        // almost no utilization spread, so their latency slope can be
        // noise; the majority must still carry the signal.
        assert!(
            positive_f >= 4,
            "latency rises with utilization in most groups: {positive_f}/6"
        );

        // Figure 10 direction: the fastest generation grows, and the
        // latency gradient decreases from oldest to newest (the physics
        // the LP acts on). The slow-SKU *decrease* needs more machines
        // than a tiny cluster offers; the fig10 repro bench covers it.
        let suggestion_of = |sku: u16| {
            outcome
                .tuned
                .plan
                .suggestions
                .iter()
                .find(|s| s.group.sku == SkuId(sku))
                .cloned()
                .expect("suggestion per group")
        };
        assert!(suggestion_of(5).delta_step >= 1, "Gen 4.1 should grow");
        assert!(
            suggestion_of(0).latency_gradient > suggestion_of(5).latency_gradient,
            "older SKUs must carry the steeper latency gradient"
        );

        // §5.2.2 mechanics: the optimizer predicts a capacity gain at
        // unchanged latency, the deployment passes its guardrail, and
        // the measured world shows no serious regression. Measured
        // *magnitudes* are validated by the sec52 repro bench, which
        // pools several worlds for statistical power.
        assert!(
            outcome.tuned.plan.predicted_capacity_gain > 0.0,
            "predicted gain: {}",
            outcome.tuned.plan.predicted_capacity_gain
        );
        assert!(
            outcome.tuned.plan.predicted_latency
                <= outcome.tuned.plan.baseline_latency * (1.0 + 1e-9),
            "latency budget respected by the plan"
        );
        assert!(
            outcome.deployment.approved,
            "latency guardrail must pass: {:?}",
            outcome.deployment.guardrails
        );
        assert!(
            outcome.throughput_change_pct > -2.0,
            "no serious throughput regression: {}%",
            outcome.throughput_change_pct
        );
        assert!(outcome.throughput_t.is_finite());
        let _ = outcome.capacity_change_pct;
        let _ = outcome.latency_change_pct;

        // Level II: every testable recurring template keeps its implicit
        // SLO (the deployment was approved, after all).
        assert!(
            outcome.slo.all_hold,
            "implicit SLO violations: {:#?}",
            outcome
                .slo
                .templates
                .iter()
                .filter(|t| !t.holds)
                .collect::<Vec<_>>()
        );

        // Figure 11: benchmark comparisons exist for the three templates.
        assert!(!outcome.benchmarks.is_empty());
        for b in &outcome.benchmarks {
            assert!(!b.before_runtimes_s.is_empty());
            assert!(!b.after_runtimes_s.is_empty());
        }
    }
}
