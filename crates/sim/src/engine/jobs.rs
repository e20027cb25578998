//! The job side of both engines: what the workload asks of the cluster.
//!
//! Recurring templates arrive on their schedules and ad-hoc templates as
//! Poisson streams thinned against the diurnal/weekly envelope (§3.2
//! Levels II–III, Figure 1). A job releases its stages one at a time;
//! the slowest task of a stage sets the job's critical path, and the
//! last stage's completion completes the job. A closed-loop backlog
//! keeps a fixed number of opportunistic tasks in flight.
//!
//! Both engines run this one code path through [`JobSide`]: an engine
//! supplies its rng, its clock, an event push, task placement and its
//! output, and keeps only the machine side. So the job side's RNG draws,
//! slab reuse and event pushes are in the same order in both engines by
//! construction, and the agreement suite checks only the machine sides.

use super::EventKind;
use crate::cluster::Machine;
use crate::output::{JobRecord, SimOutput, TaskRecord};
use crate::rng::{exponential, lognormal_mean};
use crate::workload::{Schedule, StageSpec, TaskType, WorkloadSpec};
use kea_telemetry::{ScId, SkuId};
use rand::{Rng, RngCore};

/// Sentinel job id marking closed-loop backlog tasks.
const BACKLOG_JOB: u32 = u32::MAX;

/// One task from creation to finish. The machine side fills in where
/// and how long it ran.
#[derive(Debug, Clone, Copy)]
pub(super) struct TaskRun {
    job: u32,
    pub base_cpu_s: f64,
    pub input_gb: f64,
    pub io_heavy: bool,
    pub task_type: TaskType,
    /// `u32::MAX` until the task starts.
    pub machine: u32,
    pub queue_wait_s: f64,
    pub duration_s: f64,
    pub cpu_time_s: f64,
    /// Whether the task goes into the sampled task log when it finishes.
    sampled: bool,
}

#[derive(Debug)]
struct JobRun {
    template: usize,
    arrival_s: f64,
    stage: usize,
    remaining_in_stage: u32,
    total_tasks: u32,
    logged: bool,
    /// Slowest task of the current stage so far: (end time, sku, index
    /// in the task log or `u32::MAX`).
    stage_max: (f64, u16, u32),
}

const NO_STAGE_MAX: (f64, u16, u32) = (f64::NEG_INFINITY, 0, u32::MAX);

/// Slots freed last are reused first, so slot numbers (and the event
/// payloads that carry them) are a function of the event order alone.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, item: T) -> u32 {
        if let Some(i) = self.free.pop() {
            if let Some(slot) = self.items.get_mut(i as usize) {
                *slot = item;
                return i;
            }
        }
        self.items.push(item);
        (self.items.len() - 1) as u32
    }

    fn get(&self, i: u32) -> Option<&T> {
        self.items.get(i as usize)
    }

    fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        self.items.get_mut(i as usize)
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

/// The job side's state: the task and job slabs and the counters that
/// decide log sampling.
#[derive(Debug)]
pub(super) struct JobState<'a> {
    workload: &'a WorkloadSpec,
    duration_hours: u64,
    task_log_every: u32,
    adhoc_job_log_every: u32,
    tasks: Slab<TaskRun>,
    jobs: Slab<JobRun>,
    tasks_created: u64,
    tasks_completed: u64,
    adhoc_seen: u64,
    jobs_active: u64,
}

impl<'a> JobState<'a> {
    pub(super) fn new(cfg: &super::SimConfig, workload: &'a WorkloadSpec) -> Self {
        JobState {
            workload,
            duration_hours: cfg.duration_hours,
            task_log_every: cfg.task_log_every,
            adhoc_job_log_every: cfg.adhoc_job_log_every,
            tasks: Slab::new(),
            jobs: Slab::new(),
            tasks_created: 0,
            tasks_completed: 0,
            adhoc_seen: 0,
            jobs_active: 0,
        }
    }

    pub(super) fn task(&self, i: u32) -> Option<TaskRun> {
        self.tasks.get(i).copied()
    }

    pub(super) fn task_mut(&mut self, i: u32) -> Option<&mut TaskRun> {
        self.tasks.get_mut(i)
    }

    /// Ends the run's job side: records the jobs still in flight, and
    /// checks that every task created either finished or is among the
    /// machine side's `out.tasks_in_flight_at_end`.
    pub(super) fn close(&self, out: &mut SimOutput) {
        out.jobs_in_flight_at_end = self.jobs_active;
        debug_assert_eq!(
            self.tasks_created,
            self.tasks_completed + out.tasks_in_flight_at_end,
            "task conservation"
        );
    }
}

/// What an engine supplies to run the job side, which the provided
/// methods implement once for both engines.
pub(super) trait JobSide<'a> {
    /// The engine's random stream.
    type Random: RngCore;
    fn job_state(&mut self) -> &mut JobState<'a>;
    fn rng(&mut self) -> &mut Self::Random;
    fn now_s(&self) -> f64;
    fn push_event(&mut self, time_s: f64, kind: EventKind);
    /// Starts the task on a machine with a free slot, or queues it.
    fn place_task(&mut self, task_idx: u32);
    fn out(&mut self) -> &mut SimOutput;
    /// Machine position `m`'s identity and its software configuration
    /// now, for a sampled task record.
    fn task_site(&self, m: usize) -> Option<(Machine, ScId)>;

    /// Seeds the backlog, then schedules every template's arrivals.
    fn start_workload(&mut self) {
        let state = self.job_state();
        let (workload, duration_h) = (state.workload, state.duration_hours as f64);
        if let Some(backlog) = &workload.backlog {
            for _ in 0..backlog.tasks {
                self.spawn_task(BACKLOG_JOB, backlog);
            }
        }
        for (idx, tpl) in workload.templates.iter().enumerate() {
            let template = idx as u32;
            match tpl.schedule {
                Schedule::Recurring {
                    period_hours,
                    offset_hours,
                } => {
                    let mut t = offset_hours;
                    while t < duration_h {
                        self.push_event(t * 3600.0, EventKind::JobArrival { template });
                        t += period_hours;
                    }
                }
                Schedule::Poisson { rate_per_hour } => {
                    if rate_per_hour > 0.0 {
                        let first = self.next_poisson_gap(rate_per_hour);
                        self.push_event(first, EventKind::PoissonCandidate { template });
                    }
                }
            }
        }
    }

    /// Draws one task of `shape` for `job` (or the backlog), allocates
    /// its slot and places it.
    fn spawn_task(&mut self, job: u32, shape: &StageSpec) {
        let base_cpu_s = lognormal_mean(self.rng(), shape.mean_cpu_s, shape.sigma);
        let input_gb = lognormal_mean(self.rng(), shape.mean_input_gb, 0.4);
        let state = self.job_state();
        // Sampling into the task log is decided by creation order, so it
        // is unbiased w.r.t. queueing and placement.
        let sampled = state.task_log_every > 0
            && state
                .tasks_created
                .is_multiple_of(u64::from(state.task_log_every));
        let task_idx = state.tasks.alloc(TaskRun {
            job,
            base_cpu_s,
            input_gb,
            io_heavy: shape.io_heavy,
            task_type: shape.task_type,
            machine: u32::MAX,
            queue_wait_s: 0.0,
            duration_s: 0.0,
            cpu_time_s: 0.0,
            sampled,
        });
        state.tasks_created += 1;
        self.place_task(task_idx);
    }

    /// The next Poisson candidate time. Thinning: candidates come at the
    /// envelope's maximum rate and are accepted by the seasonal factor
    /// at their own time.
    fn next_poisson_gap(&mut self, base_rate_per_hour: f64) -> f64 {
        let max_rate = base_rate_per_hour * self.job_state().workload.seasonality.max_factor();
        self.now_s() + exponential(self.rng(), max_rate / 3600.0)
    }

    fn on_poisson_candidate(&mut self, template: usize) {
        let workload = self.job_state().workload;
        let Some(Schedule::Poisson { rate_per_hour }) =
            workload.templates.get(template).map(|t| t.schedule)
        else {
            return; // candidates are only scheduled for Poisson templates
        };
        // Chain the next candidate first.
        let next = self.next_poisson_gap(rate_per_hour);
        self.push_event(
            next,
            EventKind::PoissonCandidate {
                template: template as u32,
            },
        );
        // Accept-reject against the seasonal envelope.
        let season = &workload.seasonality;
        let accept_p = season.factor(self.now_s() / 3600.0) / season.max_factor();
        if self.rng().gen_range(0.0..1.0) < accept_p {
            self.on_job_arrival(template);
        }
    }

    /// Submits one job of `template`. Recurring jobs are always logged,
    /// ad-hoc ones every `adhoc_job_log_every`-th.
    fn on_job_arrival(&mut self, template: usize) {
        let arrival_s = self.now_s();
        let state = self.job_state();
        let Some(spec) = state.workload.templates.get(template) else {
            return;
        };
        let logged = if matches!(spec.schedule, Schedule::Poisson { .. }) {
            state.adhoc_seen += 1;
            state.adhoc_job_log_every > 0
                && state
                    .adhoc_seen
                    .is_multiple_of(u64::from(state.adhoc_job_log_every))
        } else {
            true
        };
        let job_idx = state.jobs.alloc(JobRun {
            template,
            arrival_s,
            stage: 0,
            remaining_in_stage: 0,
            total_tasks: 0,
            logged,
            stage_max: NO_STAGE_MAX,
        });
        state.jobs_active += 1;
        self.release_stage(job_idx);
    }

    /// Releases the job's current stage: every task of it is drawn and
    /// placed at once.
    fn release_stage(&mut self, job_idx: u32) {
        let workload = self.job_state().workload;
        let stage = loop {
            let Some(job) = self.job_state().jobs.get_mut(job_idx) else {
                return;
            };
            let Some(tpl) = workload.templates.get(job.template) else {
                return;
            };
            let Some(stage) = tpl.stages.get(job.stage) else {
                return;
            };
            if stage.tasks > 0 {
                job.remaining_in_stage = stage.tasks;
                job.total_tasks += stage.tasks;
                job.stage_max = NO_STAGE_MAX;
                break stage;
            }
            // Federated workload slicing can round a small stage down to
            // zero tasks; an empty stage completes instantly (and
            // contributes no critical path).
            if job.stage + 1 < tpl.stages.len() {
                job.stage += 1;
            } else {
                self.complete_job(job_idx);
                return;
            }
        };
        for _ in 0..stage.tasks {
            self.spawn_task(job_idx, stage);
        }
    }

    /// Finishes a job: logs it (if sampled and it ran any task at all)
    /// and recycles its slab slot.
    fn complete_job(&mut self, job_idx: u32) {
        let now_s = self.now_s();
        let state = self.job_state();
        let Some(job) = state.jobs.get(job_idx) else {
            return;
        };
        let record = (job.logged && job.total_tasks > 0).then(|| JobRecord {
            template: job.template,
            template_name: state
                .workload
                .templates
                .get(job.template)
                .map_or_else(String::new, |t| t.name.clone()),
            arrival_hour: job.arrival_s / 3600.0,
            runtime_s: now_s - job.arrival_s,
            tasks: job.total_tasks,
        });
        state.jobs_active = state.jobs_active.saturating_sub(1);
        state.jobs.release(job_idx);
        if let Some(record) = record {
            self.out().jobs.push(record);
        }
    }

    /// The job half of a task finish, once the machine side has let the
    /// task go from a machine of SKU `sku`: the sampled task record, the
    /// stage maximum, the critical-path mark, then the next stage or the
    /// job's completion. A backlog task is replaced at once instead. The
    /// task's slot is recycled before a replacement is drawn but after a
    /// next stage is.
    fn finish_task(&mut self, task_idx: u32, sku: SkuId) {
        let now_s = self.now_s();
        let Some(task) = self.job_state().task(task_idx) else {
            return;
        };
        self.job_state().tasks_completed += 1;
        let mut log_index = u32::MAX;
        if task.sampled {
            if let Some((info, sc)) = self.task_site(task.machine as usize) {
                let template = self
                    .job_state()
                    .jobs
                    .get(task.job)
                    .filter(|_| task.job != BACKLOG_JOB)
                    .map_or(usize::MAX, |j| j.template);
                let out = self.out();
                log_index = u32::try_from(out.tasks.len()).unwrap_or(u32::MAX);
                out.tasks.push(TaskRecord {
                    template,
                    task_type: task.task_type,
                    machine: info.id,
                    sku: info.sku,
                    sc,
                    rack: info.rack,
                    end_hour: now_s / 3600.0,
                    duration_s: task.duration_s,
                    queue_wait_s: task.queue_wait_s,
                    on_critical_path: false,
                });
            }
        }
        let state = self.job_state();
        if task.job == BACKLOG_JOB {
            state.tasks.release(task_idx);
            if let Some(backlog) = &state.workload.backlog {
                self.spawn_task(BACKLOG_JOB, backlog);
            }
            return;
        }
        let workload = state.workload;
        let Some(job) = state.jobs.get_mut(task.job) else {
            state.tasks.release(task_idx);
            return;
        };
        if now_s > job.stage_max.0 {
            job.stage_max = (now_s, sku.0, log_index);
        }
        job.remaining_in_stage = job.remaining_in_stage.saturating_sub(1);
        if job.remaining_in_stage == 0 {
            let (max_end, max_sku, max_log) = job.stage_max;
            debug_assert!(max_end.is_finite());
            let next_stage = job.stage + 1;
            let more = workload
                .templates
                .get(job.template)
                .is_some_and(|t| next_stage < t.stages.len());
            if more {
                job.stage = next_stage;
            }
            let out = self.out();
            out.counters.record_critical(SkuId(max_sku));
            if max_log != u32::MAX {
                if let Some(rec) = out.tasks.get_mut(max_log as usize) {
                    rec.on_critical_path = true;
                }
            }
            if more {
                self.release_stage(task.job);
            } else {
                self.complete_job(task.job);
            }
        }
        self.job_state().tasks.release(task_idx);
    }
}
