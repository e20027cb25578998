//! Simulation outputs: telemetry plus job/task logs and counters.
//!
//! The Performance Monitor consumes the [`kea_telemetry::TelemetryStore`];
//! the conceptualization analyses of Figures 5 and 6 need task-level
//! ground truth (durations, critical-path membership, type-by-rack/SKU
//! counts); the implicit-SLO validation and Figure 11 need per-job
//! runtimes. Task logs are sampled (1-in-N) to bound memory — exact
//! counters cover the distributional questions.

use crate::cluster::RackId;
use crate::workload::TaskType;
use kea_telemetry::{MachineId, ScId, SkuId, TelemetryStore};
use std::collections::BTreeMap;

/// One completed job instance.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index of the template in the workload spec.
    pub template: usize,
    /// Template name.
    pub template_name: String,
    /// Submission time, hours since simulation start.
    pub arrival_hour: f64,
    /// End-to-end runtime in seconds (arrival → last stage completion).
    pub runtime_s: f64,
    /// Total tasks executed.
    pub tasks: u32,
}

/// One sampled completed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Template index of the owning job; `usize::MAX` for closed-loop
    /// backlog tasks, which belong to no job.
    pub template: usize,
    /// Task classification.
    pub task_type: TaskType,
    /// Machine that ran the task.
    pub machine: MachineId,
    /// Machine's SKU.
    pub sku: SkuId,
    /// Software configuration active at task start.
    pub sc: ScId,
    /// Machine's rack.
    pub rack: RackId,
    /// Completion time, hours.
    pub end_hour: f64,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
    /// Time spent queued before starting, seconds.
    pub queue_wait_s: f64,
    /// Whether the task was the slowest of its stage (on the job's
    /// critical path).
    pub on_critical_path: bool,
}

/// Exact counters over *all* completed tasks (not sampled).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskCounters {
    /// Completed tasks per SKU.
    pub by_sku: BTreeMap<SkuId, u64>,
    /// Critical-path (stage-slowest) tasks per SKU.
    pub critical_by_sku: BTreeMap<SkuId, u64>,
    /// Completed tasks per (rack, type) — Figure 6 left.
    pub by_rack_type: BTreeMap<(RackId, TaskType), u64>,
    /// Completed tasks per (SKU, type) — Figure 6 right.
    pub by_sku_type: BTreeMap<(SkuId, TaskType), u64>,
    /// Total completed tasks.
    pub total: u64,
}

impl TaskCounters {
    /// Records one completed task.
    pub fn record(&mut self, sku: SkuId, rack: RackId, task_type: TaskType) {
        *self.by_sku.entry(sku).or_insert(0) += 1;
        *self.by_rack_type.entry((rack, task_type)).or_insert(0) += 1;
        *self.by_sku_type.entry((sku, task_type)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Marks one task as critical-path.
    pub fn record_critical(&mut self, sku: SkuId) {
        *self.critical_by_sku.entry(sku).or_insert(0) += 1;
    }

    /// Probability that a task landing on `sku` ends up on the critical
    /// path (Figure 5's key quantity). `None` if no tasks ran there.
    pub fn critical_path_probability(&self, sku: SkuId) -> Option<f64> {
        let total = *self.by_sku.get(&sku)?;
        if total == 0 {
            return None;
        }
        let critical = self.critical_by_sku.get(&sku).copied().unwrap_or(0);
        Some(critical as f64 / total as f64)
    }

    /// Task-type shares for one rack (Figure 6 left), in
    /// [`TaskType::ALL`] order. `None` if the rack ran nothing.
    pub fn type_shares_by_rack(&self, rack: RackId) -> Option<[f64; 4]> {
        let counts: Vec<u64> = TaskType::ALL
            .iter()
            .map(|t| self.by_rack_type.get(&(rack, *t)).copied().unwrap_or(0))
            .collect();
        shares(&counts)
    }

    /// Task-type shares for one SKU (Figure 6 right).
    pub fn type_shares_by_sku(&self, sku: SkuId) -> Option<[f64; 4]> {
        let counts: Vec<u64> = TaskType::ALL
            .iter()
            .map(|t| self.by_sku_type.get(&(sku, *t)).copied().unwrap_or(0))
            .collect();
        shares(&counts)
    }

    /// Folds another counter set into this one (key-wise sums). Racks and
    /// SKUs may span scheduling domains, so colliding keys add.
    pub fn absorb(&mut self, other: TaskCounters) {
        for (k, v) in other.by_sku {
            *self.by_sku.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.critical_by_sku {
            *self.critical_by_sku.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.by_rack_type {
            *self.by_rack_type.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.by_sku_type {
            *self.by_sku_type.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
    }
}

fn shares(counts: &[u64]) -> Option<[f64; 4]> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mut out = [0.0; 4];
    for (o, c) in out.iter_mut().zip(counts) {
        *o = *c as f64 / total as f64;
    }
    Some(out)
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Default)]
pub struct SimOutput {
    /// Machine-hour telemetry (the Performance Monitor's input).
    pub telemetry: TelemetryStore,
    /// Completed jobs.
    pub jobs: Vec<JobRecord>,
    /// Sampled completed tasks (every Nth).
    pub tasks: Vec<TaskRecord>,
    /// Exact task counters.
    pub counters: TaskCounters,
    /// Tasks still running or queued when the simulation ended.
    pub tasks_in_flight_at_end: u64,
    /// Jobs not yet finished when the simulation ended.
    pub jobs_in_flight_at_end: u64,
    /// Telemetry records rejected at ingest because a metric was
    /// non-finite (the same validation CSV ingest applies). Zero in any
    /// healthy run; non-zero flags a degenerate workload calibration.
    pub nonfinite_dropped: u64,
}

impl SimOutput {
    /// Completed-job runtimes for one template name.
    pub fn job_runtimes(&self, template_name: &str) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.template_name == template_name)
            .map(|j| j.runtime_s)
            .collect()
    }

    /// Folds one scheduling domain's output into this one. The federated
    /// engine calls this in domain order, so job/task logs concatenate
    /// deterministically; telemetry merges through the store's validating
    /// path and counters add key-wise.
    pub fn absorb(&mut self, other: SimOutput) {
        let dropped = self.telemetry.merge(other.telemetry);
        self.jobs.extend(other.jobs);
        self.tasks.extend(other.tasks);
        self.counters.absorb(other.counters);
        self.tasks_in_flight_at_end += other.tasks_in_flight_at_end;
        self.jobs_in_flight_at_end += other.jobs_in_flight_at_end;
        self.nonfinite_dropped += other.nonfinite_dropped + dropped as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_normalize() {
        let mut c = TaskCounters::default();
        let sku = SkuId(0);
        let rack = RackId(0);
        for _ in 0..8 {
            c.record(sku, rack, TaskType::Extract);
        }
        for _ in 0..2 {
            c.record(sku, rack, TaskType::Partition);
        }
        c.record_critical(sku);
        assert_eq!(c.total, 10);
        assert_eq!(c.critical_path_probability(sku), Some(0.1));
        let shares = c.type_shares_by_rack(rack).unwrap();
        assert!((shares[0] - 0.8).abs() < 1e-12); // Extract
        assert!((shares[3] - 0.2).abs() < 1e-12); // Partition
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let by_sku = c.type_shares_by_sku(sku).unwrap();
        assert_eq!(shares, by_sku);
    }

    #[test]
    fn missing_keys_give_none() {
        let c = TaskCounters::default();
        assert_eq!(c.critical_path_probability(SkuId(3)), None);
        assert_eq!(c.type_shares_by_rack(RackId(9)), None);
        assert_eq!(c.type_shares_by_sku(SkuId(9)), None);
    }

    #[test]
    fn job_runtimes_filter_by_template() {
        let mut out = SimOutput::default();
        out.jobs.push(JobRecord {
            template: 0,
            template_name: "a".to_string(),
            arrival_hour: 0.0,
            runtime_s: 100.0,
            tasks: 5,
        });
        out.jobs.push(JobRecord {
            template: 1,
            template_name: "b".to_string(),
            arrival_hour: 1.0,
            runtime_s: 200.0,
            tasks: 5,
        });
        assert_eq!(out.job_runtimes("a"), vec![100.0]);
        assert_eq!(out.job_runtimes("b"), vec![200.0]);
        assert!(out.job_runtimes("c").is_empty());
    }
}
