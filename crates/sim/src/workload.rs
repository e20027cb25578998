//! Workload model: job templates, stages, arrival processes.
//!
//! Cosmos workloads are dominated by *recurring* SCOPE jobs — "a job
//! template represents a recurring job" (§3.2, footnote 1) — whose past
//! runtimes induce implicit SLOs. We model:
//!
//! * **Job templates** with a linear DAG of stages (stage `i+1` starts when
//!   stage `i` finishes — the shape that produces critical paths);
//! * **Recurring schedules** (hourly/daily instances) for SLO-carrying
//!   production jobs and for the three TPC-derived benchmark jobs of
//!   Figure 11;
//! * A **Poisson background** of ad-hoc jobs whose rate follows diurnal
//!   and weekly seasonality (the shape of Figure 1), calibrated so the
//!   cluster reaches the paper's >60% average CPU utilization.

use crate::cluster::ClusterSpec;

/// Coarse task classification, used for the Figure 6 uniformity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskType {
    /// Input scan / extraction stages.
    Extract,
    /// CPU-bound processing stages.
    Process,
    /// Aggregation / reduce stages.
    Aggregate,
    /// Repartition / shuffle stages (temp-store heavy).
    Partition,
}

impl TaskType {
    /// All task types in reporting order.
    pub const ALL: [TaskType; 4] = [
        TaskType::Extract,
        TaskType::Process,
        TaskType::Aggregate,
        TaskType::Partition,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TaskType::Extract => "Extract",
            TaskType::Process => "Process",
            TaskType::Aggregate => "Aggregate",
            TaskType::Partition => "Partition",
        }
    }
}

/// One stage of a job template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Number of parallel tasks in the stage.
    pub tasks: u32,
    /// Mean task work in CPU-seconds on the reference SKU.
    pub mean_cpu_s: f64,
    /// Lognormal shape of task work (0 = deterministic).
    pub sigma: f64,
    /// Mean input bytes per task, GB.
    pub mean_input_gb: f64,
    /// Whether tasks hammer the local temp store (SC-sensitive).
    pub io_heavy: bool,
    /// Task classification.
    pub task_type: TaskType,
}

/// When instances of a template are submitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fixed-period recurrence: one instance every `period_hours`,
    /// starting at `offset_hours`.
    Recurring {
        /// Hours between instances.
        period_hours: f64,
        /// First submission time in hours.
        offset_hours: f64,
    },
    /// Poisson arrivals with the given *base* rate (instances/hour),
    /// modulated by the workload's seasonality.
    Poisson {
        /// Base arrival rate before seasonal modulation.
        rate_per_hour: f64,
    },
}

/// A recurring job template.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// Template name (job-template identity for implicit SLOs).
    pub name: String,
    /// Stages, executed sequentially; tasks within a stage are parallel.
    pub stages: Vec<StageSpec>,
    /// Submission schedule.
    pub schedule: Schedule,
}

impl JobTemplate {
    /// Total tasks per instance.
    pub fn total_tasks(&self) -> u32 {
        self.stages.iter().map(|s| s.tasks).sum()
    }
}

/// Seasonality of the ad-hoc load: Figure 1's diurnal wave plus a weekday
/// / weekend split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seasonality {
    /// Relative amplitude of the diurnal sine (0 = flat).
    pub diurnal_amplitude: f64,
    /// Hour of day with peak load.
    pub peak_hour: f64,
    /// Multiplier applied on Saturday/Sunday.
    pub weekend_factor: f64,
}

impl Default for Seasonality {
    fn default() -> Self {
        Seasonality {
            diurnal_amplitude: 0.30,
            peak_hour: 14.0,
            weekend_factor: 0.85,
        }
    }
}

impl Seasonality {
    /// Load multiplier at simulation time `hour` (hour 0 = Monday 00:00).
    pub fn factor(&self, hour: f64) -> f64 {
        let hod = hour.rem_euclid(24.0);
        let diurnal = 1.0
            + self.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * (hod - self.peak_hour) / 24.0).cos();
        // kea-lint: allow(truncating-as-cast) — simulated hours are small finite values; NaN saturates and still yields a valid weekday index
        let day = ((hour / 24.0).floor() as i64).rem_euclid(7);
        let weekly = if day >= 5 { self.weekend_factor } else { 1.0 };
        diurnal * weekly
    }

    /// Upper bound of [`Seasonality::factor`] (for Poisson thinning).
    pub fn max_factor(&self) -> f64 {
        1.0 + self.diurnal_amplitude
    }
}

/// The full workload specification for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Job templates (recurring and Poisson).
    pub templates: Vec<JobTemplate>,
    /// Seasonal modulation of Poisson templates.
    pub seasonality: Seasonality,
    /// Optional standing pool of opportunistic (low-priority batch)
    /// work: one stage whose `tasks` are permanently in flight, each
    /// completion spawning a replacement at once.
    ///
    /// Production clusters at Cosmos-like utilization are never
    /// demand-bound: a backlog of opportunistic jobs soaks up whatever
    /// capacity the SLO-carrying workload leaves free. The closed loop is
    /// what makes cluster throughput *elastic in capacity*: KEA's
    /// container re-balancing (§5.2.2) increases Total Data Read because
    /// the backlog converts freed slots into work.
    pub backlog: Option<StageSpec>,
}

impl WorkloadSpec {
    /// Builds the default Cosmos-like workload, calibrated so the cluster
    /// runs near `target_occupancy` (fraction of configured container
    /// slots busy; 0.75 reproduces the paper's >60% CPU utilization).
    ///
    /// The mix: ~80% of load from ad-hoc Poisson jobs, the rest from
    /// recurring production pipelines and the three benchmark templates
    /// of Figure 11.
    ///
    /// # Panics
    /// `target_occupancy` must be finite, in (0, 2];
    /// [`crate::check_run`] refuses it without panicking.
    pub fn default_for(cluster: &ClusterSpec, target_occupancy: f64) -> Self {
        if let Err(e) = crate::engine::check_occupancy(target_occupancy) {
            panic!("{e}"); // kea-lint: allow(panic-in-library) — documented `# Panics` contract; callers taking an occupancy from a user refuse it first with `check_run`
        }
        // Capacity under the manual-tuning baseline.
        let total_slots: f64 = cluster
            .skus
            .iter()
            .map(|s| s.default_max_containers as f64 * s.machine_count as f64)
            .sum();
        // Average task-duration multiplier over the fleet: speed × typical
        // interference (~1.25 at 65% util).
        let avg_speed: f64 = cluster
            .skus
            .iter()
            .map(|s| s.speed_factor * s.machine_count as f64)
            .sum::<f64>()
            / cluster.n_machines() as f64;
        let duration_multiplier = avg_speed * 1.25;

        let adhoc_stage = StageSpec {
            tasks: 20,
            mean_cpu_s: 240.0,
            sigma: 0.6,
            mean_input_gb: 0.6,
            io_heavy: false,
            task_type: TaskType::Process,
        };
        let adhoc_shuffle = StageSpec {
            tasks: 8,
            mean_cpu_s: 180.0,
            sigma: 0.5,
            mean_input_gb: 0.4,
            io_heavy: true,
            task_type: TaskType::Partition,
        };
        // Concurrency demand of one ad-hoc job ≈ Σ tasks·E[duration]/3600
        // slot-hours per hour of arrivals.
        let adhoc_slot_seconds = (adhoc_stage.tasks as f64 * adhoc_stage.mean_cpu_s
            + adhoc_shuffle.tasks as f64 * adhoc_shuffle.mean_cpu_s)
            * duration_multiplier;
        // Load mix: ~25% of the target occupancy from the opportunistic
        // backlog (which makes throughput capacity-elastic at saturated
        // peaks), ~62% from diurnal ad-hoc Poisson jobs (whose troughs
        // give every SKU the operating-point spread of Figures 8–9), the
        // remainder from recurring pipelines.
        let backlog = StageSpec {
            tasks: (target_occupancy * 0.25 * total_slots).round().max(4.0) as u32,
            mean_cpu_s: 300.0,
            sigma: 0.5,
            mean_input_gb: 0.7,
            io_heavy: false,
            task_type: TaskType::Process,
        };
        let target_busy_slot_seconds_per_hour = target_occupancy * 0.62 * total_slots * 3600.0;
        let adhoc_rate = target_busy_slot_seconds_per_hour / adhoc_slot_seconds;

        let mut templates = vec![JobTemplate {
            name: "adhoc".to_string(),
            stages: vec![adhoc_stage, adhoc_shuffle],
            schedule: Schedule::Poisson {
                rate_per_hour: adhoc_rate,
            },
        }];

        // Recurring production pipelines, sized relative to the cluster.
        let scale = (total_slots / 1000.0).max(0.2);
        let sized = |n: f64| (n * scale).round().max(2.0) as u32;
        templates.push(JobTemplate {
            name: "ingest-hourly".to_string(),
            stages: vec![
                StageSpec {
                    tasks: sized(40.0),
                    mean_cpu_s: 150.0,
                    sigma: 0.5,
                    mean_input_gb: 1.0,
                    io_heavy: true,
                    task_type: TaskType::Extract,
                },
                StageSpec {
                    tasks: sized(10.0),
                    mean_cpu_s: 200.0,
                    sigma: 0.4,
                    mean_input_gb: 0.5,
                    io_heavy: false,
                    task_type: TaskType::Aggregate,
                },
            ],
            schedule: Schedule::Recurring {
                period_hours: 1.0,
                offset_hours: 0.25,
            },
        });
        templates.push(JobTemplate {
            name: "rollup-daily".to_string(),
            stages: vec![
                StageSpec {
                    tasks: sized(120.0),
                    mean_cpu_s: 300.0,
                    sigma: 0.6,
                    mean_input_gb: 1.5,
                    io_heavy: false,
                    task_type: TaskType::Extract,
                },
                StageSpec {
                    tasks: sized(60.0),
                    mean_cpu_s: 240.0,
                    sigma: 0.5,
                    mean_input_gb: 0.8,
                    io_heavy: true,
                    task_type: TaskType::Partition,
                },
                StageSpec {
                    tasks: sized(12.0),
                    mean_cpu_s: 300.0,
                    sigma: 0.4,
                    mean_input_gb: 0.5,
                    io_heavy: false,
                    task_type: TaskType::Aggregate,
                },
            ],
            schedule: Schedule::Recurring {
                period_hours: 24.0,
                offset_hours: 2.0,
            },
        });
        // Benchmark jobs (Figure 11): three TPC-derived templates, daily.
        for (i, (name, tasks, cpu)) in [
            ("bench-tpch-q1", 24.0, 200.0),
            ("bench-tpcds-q64", 40.0, 260.0),
            ("bench-tpch-q18", 32.0, 320.0),
        ]
        .iter()
        .enumerate()
        {
            templates.push(JobTemplate {
                name: name.to_string(),
                stages: vec![
                    StageSpec {
                        tasks: sized(*tasks),
                        mean_cpu_s: *cpu,
                        sigma: 0.5,
                        mean_input_gb: 1.0,
                        io_heavy: i % 2 == 0,
                        task_type: TaskType::Extract,
                    },
                    StageSpec {
                        tasks: sized(tasks / 4.0),
                        mean_cpu_s: *cpu * 0.8,
                        sigma: 0.4,
                        mean_input_gb: 0.4,
                        io_heavy: false,
                        task_type: TaskType::Aggregate,
                    },
                ],
                schedule: Schedule::Recurring {
                    // Twice daily: enough instances for before/after
                    // runtime distributions even in short windows.
                    period_hours: 12.0,
                    offset_hours: 5.0 + i as f64 * 2.0,
                },
            });
        }
        WorkloadSpec {
            templates,
            seasonality: Seasonality::default(),
            backlog: Some(backlog),
        }
    }

    /// The same workload with the opportunistic backlog removed — a
    /// purely open (demand-driven) variant used by ablation benches.
    pub fn without_backlog(mut self) -> Self {
        self.backlog = None;
        self
    }

    /// The slice of this workload owned by one scheduling domain of the
    /// federated engine: a domain holding `machines_in_part` of
    /// `total_machines` machines, with `machines_before` machines in the
    /// domains ahead of it.
    ///
    /// Work divides so the union over domains reproduces the whole spec
    /// exactly, with no double counting and no remainder:
    ///
    /// * **Recurring stages and the backlog** split task counts by the
    ///   machine-weighted Bresenham rule
    ///   `floor((before+own)·T/total) − floor(before·T/total)` — the
    ///   telescoping sum over domains is exactly `T`. A slice may round a
    ///   small stage to zero tasks; the engine skips empty stages.
    /// * **Poisson templates** keep their full per-job stage structure
    ///   (an ad-hoc job runs wholly inside one domain, as a real
    ///   scheduler would place it) and scale the arrival *rate* by the
    ///   domain's machine fraction — splitting a Poisson process is
    ///   thinning, so the superposition matches the global process in
    ///   distribution.
    pub fn sliced(
        &self,
        machines_before: u64,
        machines_in_part: u64,
        total_machines: u64,
    ) -> Self {
        let total = total_machines.max(1);
        let share = |t: u32| -> u32 {
            let t = t as u64;
            let hi = (machines_before + machines_in_part).min(total) * t / total;
            let lo = machines_before.min(total) * t / total;
            (hi - lo) as u32
        };
        let fraction = machines_in_part as f64 / total as f64;
        let templates = self
            .templates
            .iter()
            .map(|tpl| {
                let mut tpl = tpl.clone();
                match &mut tpl.schedule {
                    Schedule::Recurring { .. } => {
                        for stage in &mut tpl.stages {
                            stage.tasks = share(stage.tasks);
                        }
                    }
                    Schedule::Poisson { rate_per_hour } => {
                        *rate_per_hour *= fraction;
                    }
                }
                tpl
            })
            .collect();
        let backlog = self.backlog.map(|mut b| {
            b.tasks = share(b.tasks);
            b
        });
        WorkloadSpec {
            templates,
            seasonality: self.seasonality,
            backlog,
        }
    }

    /// A coarsened variant preserving offered *load* while dividing the
    /// *event count* by `factor`: task counts (and Poisson rates) shrink
    /// by `factor`, mean per-task work grows by `factor`. Utilization,
    /// power, and resource telemetry stay calibrated while a fleet-week
    /// simulates with `factor`× fewer events — how the 300k-machine bench
    /// stays tractable. `factor = 1` (or 0) is the identity.
    pub fn scaled_tasks(&self, factor: u32) -> Self {
        let f = factor.max(1);
        if f == 1 {
            return self.clone();
        }
        let templates = self
            .templates
            .iter()
            .map(|tpl| {
                let mut tpl = tpl.clone();
                match &mut tpl.schedule {
                    Schedule::Recurring { .. } => {
                        for stage in &mut tpl.stages {
                            stage.tasks = stage.tasks.div_ceil(f);
                            stage.mean_cpu_s *= f as f64;
                        }
                    }
                    Schedule::Poisson { rate_per_hour } => {
                        *rate_per_hour /= f as f64;
                        for stage in &mut tpl.stages {
                            stage.mean_cpu_s *= f as f64;
                        }
                    }
                }
                tpl
            })
            .collect();
        let backlog = self.backlog.map(|mut b| {
            b.tasks = (b.tasks / f).max(1);
            b.mean_cpu_s *= f as f64;
            b
        });
        WorkloadSpec {
            templates,
            seasonality: self.seasonality,
            backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    #[test]
    fn seasonality_peaks_at_peak_hour() {
        let s = Seasonality::default();
        let peak = s.factor(s.peak_hour);
        let trough = s.factor(s.peak_hour + 12.0);
        assert!(peak > trough);
        assert!((peak - (1.0 + s.diurnal_amplitude)).abs() < 1e-9);
        assert!(peak <= s.max_factor() + 1e-12);
    }

    #[test]
    fn seasonality_weekend_dip() {
        let s = Seasonality::default();
        // Hour 0 is Monday 00:00; Saturday starts at hour 120.
        let monday = s.factor(10.0);
        let saturday = s.factor(120.0 + 10.0);
        assert!((saturday / monday - s.weekend_factor).abs() < 1e-9);
    }

    #[test]
    fn seasonality_is_periodic_weekly() {
        let s = Seasonality::default();
        for h in [3.0, 50.0, 100.0] {
            assert!((s.factor(h) - s.factor(h + 168.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn default_workload_has_all_template_kinds() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.75);
        assert!(spec.templates.iter().any(|t| matches!(
            t.schedule,
            Schedule::Poisson { .. }
        )));
        let recurring = spec
            .templates
            .iter()
            .filter(|t| matches!(t.schedule, Schedule::Recurring { .. }))
            .count();
        assert!(recurring >= 5, "production + 3 benchmark templates");
        assert_eq!(
            spec.templates
                .iter()
                .filter(|t| t.name.starts_with("bench-"))
                .count(),
            3
        );
    }

    #[test]
    fn calibration_scales_with_cluster_size() {
        let tiny = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.75);
        let small = WorkloadSpec::default_for(&ClusterSpec::small(), 0.75);
        let rate = |w: &WorkloadSpec| match w.templates[0].schedule {
            Schedule::Poisson { rate_per_hour } => rate_per_hour,
            _ => unreachable!("adhoc template is Poisson"),
        };
        assert!(rate(&small) > 2.0 * rate(&tiny));
    }

    #[test]
    fn calibration_scales_with_target() {
        let lo = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.4);
        let hi = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.8);
        let rate = |w: &WorkloadSpec| match w.templates[0].schedule {
            Schedule::Poisson { rate_per_hour } => rate_per_hour,
            _ => unreachable!("adhoc template is Poisson"),
        };
        assert!((rate(&hi) / rate(&lo) - 2.0).abs() < 0.01);
    }

    /// CPU-seconds of one instance on the reference SKU: Σ tasks × mean.
    fn cpu_s(t: &JobTemplate) -> f64 {
        t.stages
            .iter()
            .map(|s| f64::from(s.tasks) * s.mean_cpu_s)
            .sum()
    }

    #[test]
    fn template_accessors() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.75);
        for t in &spec.templates {
            assert!(t.total_tasks() > 0);
            assert!(cpu_s(t) > 0.0);
            assert!(!t.stages.is_empty());
        }
    }

    #[test]
    fn task_types_cover_reporting_set() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.75);
        let types: std::collections::BTreeSet<TaskType> = spec
            .templates
            .iter()
            .flat_map(|t| t.stages.iter().map(|s| s.task_type))
            .collect();
        assert!(types.len() >= 3, "workload should mix task types");
        for t in TaskType::ALL {
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "target_occupancy")]
    fn bad_target_panics() {
        WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.0);
    }

    #[test]
    fn slices_partition_work_exactly() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::small(), 0.75);
        // A skewed 3-way split of 100 machines: 90 / 7 / 3.
        let parts = [(0u64, 90u64), (90, 7), (97, 3)];
        let slices: Vec<WorkloadSpec> =
            parts.iter().map(|&(b, n)| spec.sliced(b, n, 100)).collect();
        // Recurring task counts telescope back to the original exactly.
        for (ti, tpl) in spec.templates.iter().enumerate() {
            if matches!(tpl.schedule, Schedule::Poisson { .. }) {
                // Poisson keeps stage structure, splits the rate.
                let rate = |w: &WorkloadSpec| match w.templates[ti].schedule {
                    Schedule::Poisson { rate_per_hour } => rate_per_hour,
                    _ => unreachable!("poisson template"),
                };
                let sum: f64 = slices.iter().map(rate).sum();
                assert!((sum - rate(&spec)).abs() < 1e-9 * rate(&spec));
                for s in &slices {
                    assert_eq!(
                        s.templates[ti].stages.iter().map(|s| s.tasks).collect::<Vec<_>>(),
                        tpl.stages.iter().map(|s| s.tasks).collect::<Vec<_>>()
                    );
                }
                continue;
            }
            for (si, stage) in tpl.stages.iter().enumerate() {
                let sum: u32 = slices.iter().map(|s| s.templates[ti].stages[si].tasks).sum();
                assert_eq!(sum, stage.tasks, "template {ti} stage {si}");
            }
        }
        let backlog_sum: u32 = slices
            .iter()
            .map(|s| s.backlog.map_or(0, |b| b.tasks))
            .sum();
        assert_eq!(backlog_sum, spec.backlog.unwrap().tasks);
    }

    #[test]
    fn tiny_slice_of_small_stage_can_be_empty() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::tiny(), 0.75);
        // 1 machine of 1000: most recurring stages round to zero tasks.
        let slice = spec.sliced(0, 1, 1000);
        let zero_stages = slice
            .templates
            .iter()
            .filter(|t| matches!(t.schedule, Schedule::Recurring { .. }))
            .flat_map(|t| t.stages.iter())
            .filter(|s| s.tasks == 0)
            .count();
        assert!(zero_stages > 0, "engine must tolerate empty stages");
    }

    #[test]
    fn scaled_tasks_preserves_offered_load() {
        let spec = WorkloadSpec::default_for(&ClusterSpec::small(), 0.75);
        let coarse = spec.scaled_tasks(8);
        for (a, b) in spec.templates.iter().zip(&coarse.templates) {
            match (a.schedule, b.schedule) {
                (
                    Schedule::Poisson { rate_per_hour: ra },
                    Schedule::Poisson { rate_per_hour: rb },
                ) => {
                    // Rate drops 8×, per-job work grows 8×: load constant.
                    assert!((ra / rb - 8.0).abs() < 1e-9);
                    assert!((cpu_s(b) / cpu_s(a) - 8.0).abs() < 1e-9);
                }
                _ => {
                    // Recurring: total CPU-seconds per instance within
                    // ceil-rounding of the original.
                    assert!(b.total_tasks() <= a.total_tasks());
                    assert!(cpu_s(b) >= cpu_s(a) - 1e-9);
                }
            }
        }
        let (a, b) = (spec.backlog.unwrap(), coarse.backlog.unwrap());
        assert_eq!(b.tasks, a.tasks / 8);
        assert!((b.mean_cpu_s / a.mean_cpu_s - 8.0).abs() < 1e-9);
        // Identity at factor 1 and 0.
        assert_eq!(spec.scaled_tasks(1), spec);
        assert_eq!(spec.scaled_tasks(0), spec);
    }
}
