//! The reference discrete-event engine: a single global `BinaryHeap`
//! event queue driving the whole cluster.
//!
//! A classic event-driven core: job arrivals release stage tasks, a
//! YARN-like scheduler places each task on a uniformly random machine with
//! a free container slot (queueing it as a low-priority container when the
//! probed machines are full — §5.3), and task completions drive stage and
//! job completion. Machine state (running containers, queue length) is
//! integrated piecewise-constantly into per-machine-hour accumulators that
//! flush into a [`kea_telemetry::TelemetryStore`] at the end of the run.
//!
//! Determinism: all randomness flows through one seeded `StdRng`, so a
//! `SimConfig` fully determines the output.
//!
//! This engine is the **semantic oracle** for the fleet-scale engine in
//! the parent module: `engine::run` must reproduce [`run`] bit for bit
//! (same event order, same RNG draw sequence, same floating-point
//! expression order), and the agreement suite in `tests/` enforces it.
//! It stays simple — `ConfigPlan::effective` per lookup, telemetry
//! materialized whole — which is exactly why it does not scale to the
//! 300k-machine week the calendar-queue engine exists for.

// kea-lint: allow-file(index-in-library) — event-driven simulator hot loop; machine/task arena indices are maintained by this module and bounded by construction

use super::{percentile_sorted, EventKind, HourAcc, JobRun, SimConfig, TaskRun, BACKLOG_JOB};
use crate::machine::{self};
use crate::output::{JobRecord, SimOutput, TaskRecord};
use crate::rng::{exponential, gauge_noise_at, lognormal_mean};
use crate::workload::Schedule;
use kea_telemetry::{GroupKey, MachineHourRecord, MetricValues};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Runs a simulation to completion on the reference engine.
///
/// # Panics
/// Panics on nonsensical configs (zero duration, zero-`max_containers`
/// baselines) — these indicate caller bugs, not runtime conditions.
pub fn run(cfg: &SimConfig) -> SimOutput {
    super::assert_preconditions(cfg);
    Engine::new(cfg).run()
}

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

/// One scheduled event. Time is stored as the IEEE-754 bit pattern of a
/// non-negative `f64`, whose unsigned integer order equals `total_cmp`
/// order — so `#[derive(Ord)]` on `(time_bits, seq, …)` gives the exact
/// earliest-first, FIFO-on-ties order with branch-free integer compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    time_bits: u64,
    seq: u64,
    kind: EventKind,
}

// ---------------------------------------------------------------------
// Per-machine state
// ---------------------------------------------------------------------

#[derive(Debug)]
struct MachState {
    sku_idx: usize,
    running: u32,
    queue: VecDeque<(u32, f64)>, // (task index, enqueue time)
    last_s: f64,
    hours: Vec<HourAcc>,
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    rng: StdRng,
    now_s: f64,
    end_s: f64,
    seq: u64,
    events: BinaryHeap<Reverse<Ev>>,
    machines: Vec<MachState>,
    tasks: Vec<TaskRun>,
    task_free: Vec<u32>,
    jobs: Vec<JobRun>,
    job_free: Vec<u32>,
    out: SimOutput,
    tasks_created: u64,
    tasks_completed: u64,
    adhoc_seen: u64,
    jobs_active: u64,
    // Machines believed to have free container slots, as a swap-remove
    // index set for O(1) uniform sampling. Entries can be stale after
    // flight-driven max changes; `place_task` re-validates on pick.
    free_set: Vec<u32>,
    free_pos: Vec<u32>, // u32::MAX = not in set
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a SimConfig) -> Self {
        let hours = cfg.duration_hours as usize;
        let machines = cfg
            .cluster
            .machines
            .iter()
            .map(|m| MachState {
                sku_idx: cfg
                    .cluster
                    .skus
                    .iter()
                    .position(|s| s.id == m.sku)
                    // kea-lint: allow(panic-in-library) — construction-time check: cluster machines reference their own catalog
                    .expect("machine SKU in catalog"),
                running: 0,
                queue: VecDeque::new(),
                last_s: 0.0,
                hours: vec![HourAcc::default(); hours],
            })
            .collect();
        let n = cfg.cluster.machines.len();
        Engine {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            now_s: 0.0,
            end_s: cfg.duration_hours as f64 * 3600.0,
            seq: 0,
            events: BinaryHeap::new(),
            machines,
            tasks: Vec::new(),
            task_free: Vec::new(),
            jobs: Vec::new(),
            job_free: Vec::new(),
            out: SimOutput::default(),
            tasks_created: 0,
            tasks_completed: 0,
            adhoc_seen: 0,
            jobs_active: 0,
            free_set: (0..n as u32).collect(),
            free_pos: (0..n as u32).collect(),
        }
    }

    fn free_add(&mut self, m: usize) {
        if self.free_pos[m] == u32::MAX {
            // kea-lint: allow(truncating-as-cast) — fleet size < u32::MAX; u32 indices are the free-list layout choice
            self.free_pos[m] = self.free_set.len() as u32;
            self.free_set.push(m as u32);
        }
    }

    fn free_remove(&mut self, m: usize) {
        let pos = self.free_pos[m];
        if pos == u32::MAX {
            return;
        }
        // pos != MAX implies pos indexes the live set; degrade to a no-op
        // if the invariant is ever broken rather than aborting the sim.
        if pos as usize >= self.free_set.len() {
            return;
        }
        let Some(&last) = self.free_set.last() else {
            return;
        };
        // kea-lint: allow(panic-method-in-library) — pos < free_set.len() checked just above
        self.free_set.swap_remove(pos as usize);
        if last != m as u32 {
            self.free_pos[last as usize] = pos;
        }
        self.free_pos[m] = u32::MAX;
    }

    fn push_event(&mut self, time_s: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time_bits: time_s.to_bits(),
            seq: self.seq,
            kind,
        }));
    }

    fn run(mut self) -> SimOutput {
        self.seed_backlog();
        self.schedule_arrivals();
        while let Some(Reverse(ev)) = self.events.pop() {
            let time_s = f64::from_bits(ev.time_bits);
            if time_s > self.end_s {
                break;
            }
            self.now_s = time_s;
            match ev.kind {
                EventKind::JobArrival { template } => self.on_job_arrival(template as usize),
                EventKind::PoissonCandidate { template } => self.on_poisson_candidate(template as usize),
                EventKind::TaskFinish { task } => self.on_task_finish(task),
            }
        }
        self.flush()
    }

    // ------------------------------------------------------------------
    // Backlog (closed-loop opportunistic work)
    // ------------------------------------------------------------------

    fn seed_backlog(&mut self) {
        let Some(backlog) = self.cfg.workload.backlog else {
            return;
        };
        for _ in 0..backlog.concurrent_tasks {
            self.spawn_backlog_task(&backlog);
        }
    }

    fn spawn_backlog_task(&mut self, backlog: &crate::workload::BacklogSpec) {
        let base_cpu_s = lognormal_mean(&mut self.rng, backlog.mean_cpu_s, backlog.sigma);
        let input_gb = lognormal_mean(&mut self.rng, backlog.mean_input_gb, 0.4);
        let sampled = self.cfg.task_log_every > 0
            && self.tasks_created.is_multiple_of(self.cfg.task_log_every as u64);
        let task = TaskRun {
            job: BACKLOG_JOB,
            base_cpu_s,
            input_gb,
            io_heavy: backlog.io_heavy,
            task_type: backlog.task_type,
            machine: u32::MAX,
            queue_wait_s: 0.0,
            duration_s: 0.0,
            cpu_time_s: 0.0,
            log_index: if sampled { u32::MAX - 1 } else { u32::MAX },
        };
        let task_idx = self.alloc_task(task);
        self.tasks_created += 1;
        self.place_task(task_idx);
    }

    fn alloc_task(&mut self, task: TaskRun) -> u32 {
        match self.task_free.pop() {
            Some(i) => {
                self.tasks[i as usize] = task;
                i
            }
            None => {
                self.tasks.push(task);
                (self.tasks.len() - 1) as u32
            }
        }
    }

    // ------------------------------------------------------------------
    // Arrivals
    // ------------------------------------------------------------------

    fn schedule_arrivals(&mut self) {
        let duration_h = self.cfg.duration_hours as f64;
        for (idx, template) in self.cfg.workload.templates.iter().enumerate() {
            match template.schedule {
                Schedule::Recurring {
                    period_hours,
                    offset_hours,
                } => {
                    let mut t = offset_hours;
                    while t < duration_h {
                        self.push_event(t * 3600.0, EventKind::JobArrival { template: idx as u32 });
                        t += period_hours;
                    }
                }
                Schedule::Poisson { rate_per_hour } => {
                    if rate_per_hour > 0.0 {
                        let first = self.next_poisson_gap(rate_per_hour);
                        self.push_event(first, EventKind::PoissonCandidate { template: idx as u32 });
                    }
                }
            }
        }
    }

    fn next_poisson_gap(&mut self, base_rate_per_hour: f64) -> f64 {
        // Thinning: candidates at the max rate, accepted by the seasonal
        // factor at the candidate's time.
        let max_rate = base_rate_per_hour * self.cfg.workload.seasonality.max_factor();
        self.now_s + exponential(&mut self.rng, max_rate / 3600.0)
    }

    fn on_poisson_candidate(&mut self, template: usize) {
        let Schedule::Poisson { rate_per_hour } = self.cfg.workload.templates[template].schedule
        else {
            return; // candidates are only scheduled for Poisson templates
        };
        // Chain the next candidate first.
        let next = self.next_poisson_gap(rate_per_hour);
        self.push_event(next, EventKind::PoissonCandidate { template: template as u32 });
        // Accept-reject against the seasonal envelope.
        let season = &self.cfg.workload.seasonality;
        let accept_p = season.factor(self.now_s / 3600.0) / season.max_factor();
        if self.rng.gen_range(0.0..1.0) < accept_p {
            self.on_job_arrival(template);
        }
    }

    fn on_job_arrival(&mut self, template: usize) {
        let spec = &self.cfg.workload.templates[template];
        let is_adhoc = matches!(spec.schedule, Schedule::Poisson { .. });
        let logged = if is_adhoc {
            self.adhoc_seen += 1;
            self.cfg.adhoc_job_log_every > 0
                && self.adhoc_seen.is_multiple_of(self.cfg.adhoc_job_log_every as u64)
        } else {
            true
        };
        let job = JobRun {
            template,
            arrival_s: self.now_s,
            stage: 0,
            remaining_in_stage: 0,
            total_tasks: 0,
            logged,
            stage_max: (f64::NEG_INFINITY, 0, u32::MAX),
        };
        let job_idx = match self.job_free.pop() {
            Some(i) => {
                self.jobs[i as usize] = job;
                i
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u32
            }
        };
        self.jobs_active += 1;
        self.release_stage(job_idx);
    }

    // ------------------------------------------------------------------
    // Stages and tasks
    // ------------------------------------------------------------------

    fn release_stage(&mut self, job_idx: u32) {
        loop {
            let (template, stage_idx) = {
                let job = &self.jobs[job_idx as usize];
                (job.template, job.stage)
            };
            let n_stages = self.cfg.workload.templates[template].stages.len();
            let stage = self.cfg.workload.templates[template].stages[stage_idx].clone();
            if stage.tasks == 0 {
                // Federated workload slicing can round a small stage down
                // to zero tasks; an empty stage completes instantly (and
                // contributes no critical path).
                if stage_idx + 1 < n_stages {
                    self.jobs[job_idx as usize].stage = stage_idx + 1;
                    continue;
                }
                self.complete_job(job_idx);
                return;
            }
            {
                let job = &mut self.jobs[job_idx as usize];
                job.remaining_in_stage = stage.tasks;
                job.total_tasks += stage.tasks;
                job.stage_max = (f64::NEG_INFINITY, 0, u32::MAX);
            }
            for _ in 0..stage.tasks {
                let base_cpu_s = lognormal_mean(&mut self.rng, stage.mean_cpu_s, stage.sigma);
                let input_gb = lognormal_mean(&mut self.rng, stage.mean_input_gb, 0.4);
                // Sampling into the task log is decided by creation order, so
                // it is unbiased w.r.t. queueing and placement.
                let sampled = self.cfg.task_log_every > 0
                    && self.tasks_created.is_multiple_of(self.cfg.task_log_every as u64);
                let task = TaskRun {
                    job: job_idx,
                    base_cpu_s,
                    input_gb,
                    io_heavy: stage.io_heavy,
                    task_type: stage.task_type,
                    machine: u32::MAX,
                    queue_wait_s: 0.0,
                    duration_s: 0.0,
                    cpu_time_s: 0.0,
                    log_index: if sampled { u32::MAX - 1 } else { u32::MAX },
                };
                let task_idx = self.alloc_task(task);
                self.tasks_created += 1;
                self.place_task(task_idx);
            }
            return;
        }
    }

    /// Finishes a job: logs it (if sampled and it ran any task at all)
    /// and recycles its slab slot.
    fn complete_job(&mut self, job_idx: u32) {
        let job = self.jobs[job_idx as usize].clone();
        if job.logged && job.total_tasks > 0 {
            let name = self.cfg.workload.templates[job.template].name.clone();
            self.out.jobs.push(JobRecord {
                template: job.template,
                template_name: name,
                arrival_hour: job.arrival_s / 3600.0,
                runtime_s: self.now_s - job.arrival_s,
                tasks: job.total_tasks,
            });
        }
        self.jobs_active -= 1;
        self.job_free.push(job_idx);
    }

    /// The YARN-like placement policy: uniformly random over machines
    /// with a free container slot — the monolithic resource manager knows
    /// global capacity, and §3.2's Level-IV abstraction rests on exactly
    /// this uniformity. When *no* machine has capacity ("all machines in
    /// the cluster reach the maximum number of running containers", §5.3)
    /// the task queues as a low-priority container on a uniformly random
    /// machine.
    fn place_task(&mut self, task_idx: u32) {
        let hour = self.now_s / 3600.0;
        while !self.free_set.is_empty() {
            let pick = self.rng.gen_range(0..self.free_set.len());
            let m = self.free_set[pick] as usize;
            let info = self.cfg.cluster.machines[m];
            let cfg = self.cfg.plan.effective(info.id, info.sku, hour);
            if self.machines[m].running < cfg.max_running_containers {
                self.start_task(m, task_idx, 0.0);
                if self.machines[m].running >= cfg.max_running_containers {
                    self.free_remove(m);
                }
                return;
            }
            // Stale entry (flight lowered the max); evict and retry.
            self.free_remove(m);
        }
        // Cluster fully busy: queue as a low-priority container. Respect
        // per-machine queue caps (§5.3's tuning knob) by re-drawing a few
        // times; if the whole sample is capped out, force-enqueue at the
        // last draw — work is never dropped.
        let n = self.machines.len();
        let hour = self.now_s / 3600.0;
        let mut target = self.rng.gen_range(0..n);
        for _ in 0..10 {
            let info = self.cfg.cluster.machines[target];
            let cfg = self.cfg.plan.effective(info.id, info.sku, hour);
            // kea-lint: allow(truncating-as-cast) — queue length is capped by max_queue_length: u32 well before overflow
            if (self.machines[target].queue.len() as u32) < cfg.max_queue_length {
                break;
            }
            target = self.rng.gen_range(0..n);
        }
        self.advance(target, self.now_s);
        self.machines[target].queue.push_back((task_idx, self.now_s));
    }

    fn start_task(&mut self, m: usize, task_idx: u32, queue_wait_s: f64) {
        self.advance(m, self.now_s);
        // `spec` is a reborrow of the run config, independent of `self`'s
        // other fields — this keeps the borrows below disjoint.
        let spec: &SimConfig = self.cfg;
        let mach = &mut self.machines[m];
        mach.running += 1;
        let running = mach.running;
        let sku = &spec.cluster.skus[mach.sku_idx];
        let info = spec.cluster.machines[m];
        let cfg = spec.plan.effective(info.id, sku.id, self.now_s / 3600.0);
        let sc = crate::catalog::default_scs_static(cfg.sc);
        // Interference reflects the machine state including this task.
        let util = machine::cpu_utilization(sku, running);
        let task = &mut self.tasks[task_idx as usize];
        let st = machine::service_time(sku, sc, &cfg, task.base_cpu_s, task.io_heavy, util);
        task.machine = m as u32;
        task.queue_wait_s = queue_wait_s;
        task.duration_s = st.duration_s;
        task.cpu_time_s = st.cpu_time_s;
        let duration_s = st.duration_s;
        let hour = ((self.now_s / 3600.0) as usize).min(self.cfg.duration_hours as usize - 1);
        let acc = &mut self.machines[m].hours[hour];
        acc.latency_sum_s += duration_s;
        acc.latency_count += 1;
        let finish = self.now_s + duration_s;
        self.push_event(finish, EventKind::TaskFinish { task: task_idx });
    }

    fn on_task_finish(&mut self, task_idx: u32) {
        let task = self.tasks[task_idx as usize];
        let m = task.machine as usize;
        self.advance(m, self.now_s);
        self.machines[m].running -= 1;
        self.tasks_completed += 1;

        // Attribute completion metrics to the hour of completion.
        let hour = ((self.now_s / 3600.0) as usize).min(self.cfg.duration_hours as usize - 1);
        let acc = &mut self.machines[m].hours[hour];
        acc.tasks_finished += 1;
        acc.data_read_gb += task.input_gb;
        acc.exec_time_s += task.duration_s;
        acc.cpu_time_s += task.cpu_time_s;

        // Counters and sampled log.
        let mach_info = self.cfg.cluster.machines[m];
        let cfg = self
            .cfg
            .plan
            .effective(mach_info.id, mach_info.sku, self.now_s / 3600.0);
        self.out
            .counters
            .record(mach_info.sku, mach_info.rack, task.task_type);
        let mut log_index = u32::MAX;
        if task.log_index == u32::MAX - 1 {
            // kea-lint: allow(truncating-as-cast) — task log is sampled; u32 indices are the record-layout choice
            log_index = self.out.tasks.len() as u32;
            let template = if task.job == BACKLOG_JOB {
                usize::MAX
            } else {
                self.jobs[task.job as usize].template
            };
            self.out.tasks.push(TaskRecord {
                template,
                task_type: task.task_type,
                machine: mach_info.id,
                sku: mach_info.sku,
                sc: cfg.sc,
                rack: mach_info.rack,
                end_hour: self.now_s / 3600.0,
                duration_s: task.duration_s,
                queue_wait_s: task.queue_wait_s,
                on_critical_path: false,
            });
        }

        // Backlog tasks skip job bookkeeping and immediately respawn —
        // the closed loop that keeps opportunistic pressure constant.
        if task.job == BACKLOG_JOB {
            self.task_free.push(task_idx);
            // A backlog task can only exist if a backlog spec was set;
            // if not, degrade by not respawning.
            if let Some(backlog) = self.cfg.workload.backlog {
                self.spawn_backlog_task(&backlog);
            }
            self.serve_queue(m);
            return;
        }

        // Job bookkeeping.
        let job_idx = task.job;
        let stage_done = {
            let job = &mut self.jobs[job_idx as usize];
            if self.now_s > job.stage_max.0 {
                job.stage_max = (self.now_s, mach_info.sku.0, log_index);
            }
            job.remaining_in_stage -= 1;
            job.remaining_in_stage == 0
        };
        if stage_done {
            let (max_end, max_sku, max_log) = self.jobs[job_idx as usize].stage_max;
            debug_assert!(max_end.is_finite());
            self.out
                .counters
                .record_critical(kea_telemetry::SkuId(max_sku));
            if max_log != u32::MAX {
                self.out.tasks[max_log as usize].on_critical_path = true;
            }
            let n_stages =
                self.cfg.workload.templates[self.jobs[job_idx as usize].template].stages.len();
            let next_stage = self.jobs[job_idx as usize].stage + 1;
            if next_stage < n_stages {
                self.jobs[job_idx as usize].stage = next_stage;
                self.release_stage(job_idx);
            } else {
                self.complete_job(job_idx);
            }
        }

        // Recycle the task slot, then serve the machine's queue.
        self.task_free.push(task_idx);
        self.serve_queue(m);
    }

    fn serve_queue(&mut self, m: usize) {
        loop {
            let mach_info = self.cfg.cluster.machines[m];
            let cfg = self
                .cfg
                .plan
                .effective(mach_info.id, mach_info.sku, self.now_s / 3600.0);
            if self.machines[m].queue.is_empty()
                || self.machines[m].running >= cfg.max_running_containers
            {
                // Advertise remaining capacity to the global scheduler.
                if self.machines[m].running < cfg.max_running_containers {
                    self.free_add(m);
                } else {
                    self.free_remove(m);
                }
                return;
            }
            self.advance(m, self.now_s);
            // Non-empty checked at the top of the loop.
            let Some((task_idx, enqueued_s)) = self.machines[m].queue.pop_front() else {
                return;
            };
            let wait = self.now_s - enqueued_s;
            // Attribute the wait to the hour the container *enqueued*:
            // that pairs each wait with the queue state that caused it
            // (same reasoning as latency → start-hour attribution).
            let hour =
                ((enqueued_s / 3600.0) as usize).min(self.cfg.duration_hours as usize - 1);
            self.machines[m].hours[hour].queue_waits_s.push(wait);
            self.start_task(m, task_idx, wait);
        }
    }

    // ------------------------------------------------------------------
    // Piecewise-constant integration of machine state into hour buckets
    // ------------------------------------------------------------------

    fn advance(&mut self, m: usize, to_s: f64) {
        let mach_id = self.cfg.cluster.machines[m].id;
        let mach = &mut self.machines[m];
        if to_s <= mach.last_s {
            return;
        }
        let sku = &self.cfg.cluster.skus[mach.sku_idx];
        let running = mach.running;
        let queue_len = mach.queue.len() as f64;
        let util = machine::cpu_utilization(sku, running);
        let mut t = mach.last_s;
        while t < to_s {
            let hour = (t / 3600.0) as usize;
            let hour_end = (hour as f64 + 1.0) * 3600.0;
            let seg_end = hour_end.min(to_s);
            let dt = seg_end - t;
            if hour < mach.hours.len() {
                // Config can change at hour granularity (flights), so the
                // power path re-resolves per segment.
                let cfg = self.cfg.plan.effective(mach_id, sku.id, t / 3600.0);
                let sc = crate::catalog::default_scs_static(cfg.sc);
                let power = machine::power_draw(sku, &cfg, util);
                let res = machine::resource_usage(sku, sc, running);
                let acc = &mut mach.hours[hour];
                acc.container_seconds += running as f64 * dt;
                acc.util_seconds += util * dt;
                acc.power_joules += power * dt;
                acc.cores_seconds += res.cores_used * dt;
                acc.ram_seconds += res.ram_used_gb * dt;
                acc.ssd_seconds += res.ssd_used_gb * dt;
                acc.network_seconds += res.network_used_gbps * dt;
                acc.queue_len_seconds += queue_len * dt;
            }
            t = seg_end;
        }
        mach.last_s = to_s;
    }

    // ------------------------------------------------------------------
    // Final flush into telemetry records
    // ------------------------------------------------------------------

    fn flush(mut self) -> SimOutput {
        let end = self.end_s;
        for m in 0..self.machines.len() {
            self.advance(m, end);
        }
        let hours = self.cfg.duration_hours as usize;
        let mut records = Vec::with_capacity(self.machines.len() * hours);
        for (m, mach) in self.machines.iter_mut().enumerate() {
            let mach_info = self.cfg.cluster.machines[m];
            let in_flight = mach.running as u64 + mach.queue.len() as u64;
            self.out.tasks_in_flight_at_end += in_flight;
            for (hour, acc) in mach.hours.iter_mut().enumerate() {
                let cfg = self
                    .cfg
                    .plan
                    .effective(mach_info.id, mach_info.sku, hour as f64);
                let p99 = if acc.queue_waits_s.is_empty() {
                    0.0
                } else {
                    acc.queue_waits_s.sort_by(f64::total_cmp);
                    percentile_sorted(&acc.queue_waits_s, 99.0)
                };
                // Small measurement noise on resource gauges so the §6
                // regressions see realistic residuals. Keyed by
                // (machine, hour, lane) so any engine — whatever order it
                // emits records in — draws the identical perturbation.
                let noise =
                    |lane: u32| gauge_noise_at(self.cfg.seed, mach_info.id.0, hour as u64, lane);
                let metrics = MetricValues {
                    total_data_read_gb: acc.data_read_gb,
                    tasks_finished: acc.tasks_finished as f64,
                    task_exec_time_s: acc.exec_time_s,
                    cpu_time_s: acc.cpu_time_s,
                    cpu_utilization: acc.util_seconds / 3600.0 * 100.0,
                    avg_running_containers: acc.container_seconds / 3600.0,
                    avg_task_latency_s: if acc.latency_count > 0 {
                        acc.latency_sum_s / acc.latency_count as f64
                    } else {
                        0.0
                    },
                    queued_containers: acc.queue_len_seconds / 3600.0,
                    queue_latency_p99_ms: p99 * 1000.0,
                    power_draw_w: acc.power_joules / 3600.0,
                    ssd_used_gb: acc.ssd_seconds / 3600.0 * noise(0),
                    ram_used_gb: acc.ram_seconds / 3600.0 * noise(1),
                    cores_used: acc.cores_seconds / 3600.0 * noise(2),
                    network_used_gbps: acc.network_seconds / 3600.0 * noise(3),
                };
                records.push(MachineHourRecord {
                    machine: mach_info.id,
                    group: GroupKey::new(mach_info.sku, cfg.sc),
                    hour: hour as u64,
                    metrics,
                });
            }
        }
        // Ingest through the validating path (the same non-finite filter
        // CSV ingest applies), counting rejects instead of smuggling them.
        self.out.telemetry.reserve(records.len());
        let dropped = self.out.telemetry.extend(records);
        self.out.nonfinite_dropped += dropped as u64;
        self.out.jobs_in_flight_at_end = self.jobs_active;
        debug_assert_eq!(
            self.tasks_created,
            self.tasks_completed + self.out.tasks_in_flight_at_end,
            "task conservation"
        );
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    #[test]
    fn reference_smoke() {
        let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 4, 42));
        let spec = ClusterSpec::tiny();
        assert_eq!(out.telemetry.len(), spec.n_machines() * 4);
        assert!(out.counters.total > 0);
        assert_eq!(out.nonfinite_dropped, 0);
        // Determinism.
        let again = run(&SimConfig::baseline(ClusterSpec::tiny(), 4, 42));
        assert_eq!(out.counters.total, again.counters.total);
    }
}
