//! Extension application: queue-length tuning (§5.3's discussion, made
//! concrete).
//!
//! "In the analyzed system, low priority containers will be queued on
//! each machine when all machines in the cluster reach the maximum number
//! of running containers. We observe that the queuing length and latency
//! vary significantly for machines with different SKUs and SCs (see
//! Figure 12). As faster machines have faster de-queue rate, we can allow
//! more containers to be queued on them. Therefore, similar tuning
//! methodology can be used to learn the relationship between the tuned
//! parameters, i.e. the maximum queuing length, and the objective
//! performance metrics, such as variance of queuing latency, to achieve
//! better queuing distribution."
//!
//! The pipeline follows the observational-tuning template exactly:
//!
//! 1. **Observe** a saturated window (queues only exist under pressure).
//! 2. **Model** per group: p99 queueing wait as a function of queue
//!    length — the slope is the group's inverse de-queue rate.
//! 3. **Optimize**: pick per-group `max_queue_length` caps so every
//!    group's predicted p99 wait meets a common target (the cluster
//!    median) — long queues are only allowed where they drain fast.
//! 4. **Deploy & evaluate**: compare per-group p99 waits and their
//!    across-group spread before/after.

use crate::error::KeaError;
use crate::monitor::PerformanceMonitor;
use kea_ml::LinearModel1D;
use kea_sim::{run, ClusterSpec, ConfigPlan, SimConfig, WorkloadSpec};
use kea_telemetry::{GroupKey, Metric};

/// Parameters of the queue-tuning study.
#[derive(Debug, Clone)]
pub struct QueueTuningParams {
    /// Cluster under tuning.
    pub cluster: ClusterSpec,
    /// Demand pressure; must exceed ~1.0 so queues exist.
    pub target_occupancy: f64,
    /// Hours of observation (and of post-deployment evaluation).
    pub window_hours: u64,
    /// Warm-up hours excluded from analysis.
    pub warmup_hours: u64,
    /// RNG seed.
    pub seed: u64,
}

impl QueueTuningParams {
    /// Quick preset.
    pub fn quick(cluster: ClusterSpec, seed: u64) -> Self {
        QueueTuningParams {
            cluster,
            target_occupancy: 1.1,
            window_hours: 36,
            warmup_hours: 4,
            seed,
        }
    }
}

/// Calibrated queueing model of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupQueueModel {
    /// The machine group.
    pub group: GroupKey,
    /// p99 wait (ms) as a function of queued containers.
    pub wait_vs_queue: LinearModel1D,
    /// Mean observed queue length.
    pub mean_queue: f64,
    /// Mean observed p99 wait, ms.
    pub mean_wait_ms: f64,
    /// The suggested `max_queue_length` cap.
    pub suggested_cap: u32,
}

/// Per-group before/after p99 queueing wait.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueOutcomeRow {
    /// The machine group.
    pub group: GroupKey,
    /// Mean hourly p99 wait before, ms.
    pub before_wait_ms: f64,
    /// Mean hourly p99 wait after, ms.
    pub after_wait_ms: f64,
}

/// Outcome of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueTuningOutcome {
    /// Calibrated models and suggested caps.
    pub models: Vec<GroupQueueModel>,
    /// The common wait target the caps were solved for, ms.
    pub target_wait_ms: f64,
    /// Before/after per-group waits.
    pub rows: Vec<QueueOutcomeRow>,
    /// Standard deviation of per-group mean waits before the change
    /// (the "variance of queuing latency" objective of §5.3).
    pub wait_spread_before: f64,
    /// The same spread after the change.
    pub wait_spread_after: f64,
    /// Cluster-wide mean task latency change, percent (guardrail-style
    /// sanity: capping queues must not hurt the tasks themselves).
    pub task_latency_change_pct: f64,
}

/// Runs the queue-tuning study.
///
/// # Errors
/// [`KeaError::Design`] when the window or the occupancy fails
/// [`kea_sim::check_run`]. The observation window must actually contain
/// queueing (raise `target_occupancy` otherwise) in at least two groups.
pub fn run_queue_tuning(params: &QueueTuningParams) -> Result<QueueTuningOutcome, KeaError> {
    kea_sim::check_run(params.window_hours, params.target_occupancy).map_err(KeaError::Design)?;
    let cluster = &params.cluster;
    let workload = WorkloadSpec::default_for(cluster, params.target_occupancy);
    let baseline = ConfigPlan::baseline(&cluster.skus, kea_sim::SC1);
    let observe = run(&SimConfig {
        cluster: cluster.clone(),
        workload: workload.clone(),
        plan: baseline.clone(),
        duration_hours: params.window_hours,
        seed: params.seed,
        task_log_every: 0,
        adhoc_job_log_every: 0,
    });
    // ---- Model: p99 wait vs queue length, per group --------------------
    let mut models = Vec::new();
    for group in observe.telemetry.groups() {
        let mut queue = Vec::new();
        let mut wait = Vec::new();
        for rec in observe.telemetry.by_group(group) {
            if rec.hour >= params.warmup_hours && rec.metrics.queue_latency_p99_ms > 0.0 {
                queue.push(rec.metrics.queued_containers);
                wait.push(rec.metrics.queue_latency_p99_ms);
            }
        }
        if queue.len() < 12 {
            continue; // This group barely queues; no cap needed.
        }
        let model = LinearModel1D::fit_huber(&queue, &wait)?;
        if model.slope() <= 0.0 {
            continue; // Degenerate fit; leave the group uncapped.
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        models.push(GroupQueueModel {
            group,
            wait_vs_queue: model,
            mean_queue: mean(&queue),
            mean_wait_ms: mean(&wait),
            suggested_cap: 0, // solved below once the target is known
        });
    }
    if models.len() < 2 {
        return Err(KeaError::NoObservations {
            what: format!(
                "only {} groups show queueing; raise target_occupancy",
                models.len()
            ),
        });
    }

    // ---- Optimize: common wait target = median of observed waits ------
    let mut waits: Vec<f64> = models.iter().map(|m| m.mean_wait_ms).collect();
    waits.sort_by(f64::total_cmp);
    let target_wait_ms = waits[waits.len() / 2]; // kea-lint: allow(index-in-library) — waits has >= 2 entries (checked above); len/2 < len
    for m in &mut models {
        // Invert the wait model at the target: the queue length at which
        // this group's p99 wait reaches the target.
        let cap = m
            .wait_vs_queue
            .inverse(target_wait_ms)
            .unwrap_or(f64::MAX)
            .max(1.0);
        // kea-lint: allow(truncating-as-cast) — cap is clamped to [1, 10_000] above; round of a finite value fits u32
        m.suggested_cap = cap.min(10_000.0).round() as u32;
    }

    // ---- Deploy & evaluate --------------------------------------------
    let mut tuned = baseline;
    for m in &models {
        // Every modeled group's SKU came from this plan; a missing entry
        // degrades to leaving that SKU's cap untouched.
        if let Some(base) = tuned.base.get_mut(&m.group.sku) {
            base.max_queue_length = m.suggested_cap;
        }
    }
    let after = run(&SimConfig {
        cluster: cluster.clone(),
        workload,
        plan: tuned,
        duration_hours: params.window_hours,
        seed: params.seed.wrapping_add(1),
        task_log_every: 0,
        adhoc_job_log_every: 0,
    });

    let group_wait = |out: &kea_sim::SimOutput, group: GroupKey| -> f64 {
        let waits: Vec<f64> = out
            .telemetry
            .by_group(group)
            .filter(|r| r.hour >= params.warmup_hours && r.metrics.queue_latency_p99_ms > 0.0)
            .map(|r| r.metrics.queue_latency_p99_ms)
            .collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        }
    };
    let rows: Vec<QueueOutcomeRow> = models
        .iter()
        .map(|m| QueueOutcomeRow {
            group: m.group,
            before_wait_ms: group_wait(&observe, m.group),
            after_wait_ms: group_wait(&after, m.group),
        })
        .collect();
    let spread = |select: fn(&QueueOutcomeRow) -> f64, rows: &[QueueOutcomeRow]| -> f64 {
        let vals: Vec<f64> = rows.iter().map(select).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt()
    };
    let latency = |out: &kea_sim::SimOutput| {
        PerformanceMonitor::new(&out.telemetry)
            .window_mean(
                Metric::AverageTaskLatency,
                params.warmup_hours,
                params.window_hours,
            )
            .unwrap_or(f64::NAN) // no telemetry → NaN change, not an abort
    };
    let before_lat = latency(&observe);
    let after_lat = latency(&after);

    Ok(QueueTuningOutcome {
        target_wait_ms,
        wait_spread_before: spread(|r| r.before_wait_ms, &rows),
        wait_spread_after: spread(|r| r.after_wait_ms, &rows),
        task_latency_change_pct: (after_lat / before_lat - 1.0) * 100.0,
        rows,
        models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_tuning_evens_out_the_wait_distribution() {
        let params = QueueTuningParams::quick(ClusterSpec::tiny(), 808);
        let outcome = run_queue_tuning(&params).expect("queues exist at 1.1 occupancy");

        // Models: slower groups must get smaller caps (their queues drain
        // slower). Compare the oldest and newest modeled groups.
        assert!(outcome.models.len() >= 2, "{:#?}", outcome.models.len());
        let first = outcome.models.first().expect("two groups");
        let last = outcome.models.last().expect("two groups");
        assert!(
            first.suggested_cap <= last.suggested_cap,
            "older groups get tighter caps: {} vs {}",
            first.suggested_cap,
            last.suggested_cap
        );

        // Objective: the across-group spread of p99 waits shrinks.
        assert!(
            outcome.wait_spread_after < outcome.wait_spread_before,
            "spread {} → {}",
            outcome.wait_spread_before,
            outcome.wait_spread_after
        );

        // Sanity: task latency does not blow up (queue caps redirect
        // waiting work, they don't add work).
        assert!(
            outcome.task_latency_change_pct < 5.0,
            "task latency {:+.2}%",
            outcome.task_latency_change_pct
        );
    }

    #[test]
    fn refuses_unsaturated_clusters() {
        let mut params = QueueTuningParams::quick(ClusterSpec::tiny(), 809);
        params.target_occupancy = 0.5; // nothing queues down here
        assert!(matches!(
            run_queue_tuning(&params),
            Err(KeaError::NoObservations { .. })
        ));
    }
}
