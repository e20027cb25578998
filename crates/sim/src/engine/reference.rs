//! The reference discrete-event engine: a single global `BinaryHeap`
//! event queue driving the whole cluster.
//!
//! It owns only the machine side of a run. A YARN-like scheduler places
//! each task on a uniformly random machine with a free container slot
//! (queueing it as a low-priority container when the probed machines are
//! full — §5.3), and machine state (running containers, queue length) is
//! integrated piecewise-constantly into per-machine-hour accumulators
//! that flush into a [`kea_telemetry::TelemetryStore`] at the end of the
//! run. Arrivals, stages, task completions and job completions are the
//! job side both engines share (`engine/jobs.rs`).
//!
//! Determinism: all randomness flows through one seeded `StdRng`, so a
//! `SimConfig` fully determines the output.
//!
//! This engine is the **semantic oracle** for the fleet-scale engine's
//! machine side: `engine::run` must reproduce [`run`] bit for bit (same
//! event order, same RNG draw sequence, same floating-point expression
//! order), and the agreement suite in `tests/` enforces it. It stays
//! simple — `ConfigPlan::effective` per lookup, telemetry materialized
//! whole — which is exactly why it does not scale to the 300k-machine
//! week the calendar-queue engine exists for.

// kea-lint: allow-file(index-in-library) — event-driven simulator hot loop; machine/task arena indices are maintained by this module and bounded by construction

use super::jobs::{JobSide, JobState};
use super::{ingest, EventKind, FreeSet, HourAcc, SimConfig};
use crate::cluster::Machine;
use crate::machine::{self};
use crate::output::SimOutput;
use kea_telemetry::ScId;
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
    jobs: JobState<'a>,
    free: FreeSet,
    out: SimOutput,
}

impl<'a> JobSide<'a> for Engine<'a> {
    type Random = StdRng;

    fn job_state(&mut self) -> &mut JobState<'a> {
        &mut self.jobs
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn now_s(&self) -> f64 {
        self.now_s
    }

    fn push_event(&mut self, time_s: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time_bits: time_s.to_bits(),
            seq: self.seq,
            kind,
        }));
    }

    fn out(&mut self) -> &mut SimOutput {
        &mut self.out
    }

    fn task_site(&self, m: usize) -> Option<(Machine, ScId)> {
        let info = self.cfg.cluster.machines[m];
        let cfg = self
            .cfg
            .plan
            .effective(info.id, info.sku, self.now_s / 3600.0);
        Some((info, cfg.sc))
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
        while let Some(m) = self.free.pick(&mut self.rng) {
            let info = self.cfg.cluster.machines[m];
            let cfg = self.cfg.plan.effective(info.id, info.sku, hour);
            if self.machines[m].running < cfg.max_running_containers {
                self.start_task(m, task_idx, 0.0);
                if self.machines[m].running >= cfg.max_running_containers {
                    self.free.evict(m);
                }
                return;
            }
            // Stale entry (flight lowered the max); evict and retry.
            self.free.evict(m);
        }
        // Cluster fully busy: queue as a low-priority container. Respect
        // per-machine queue caps (§5.3's tuning knob) by re-drawing a few
        // times; if the whole sample is capped out, force-enqueue at the
        // last draw — work is never dropped.
        let n = self.machines.len();
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
        Engine {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            now_s: 0.0,
            end_s: cfg.duration_hours as f64 * 3600.0,
            seq: 0,
            events: BinaryHeap::new(),
            machines,
            jobs: JobState::new(cfg, &cfg.workload),
            free: FreeSet::full(cfg.cluster.machines.len()),
            out: SimOutput::default(),
        }
    }

    fn run(mut self) -> SimOutput {
        self.start_workload();
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
        let Some(task) = self.jobs.task_mut(task_idx) else {
            return;
        };
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

    /// The machine half of a task finish; the job half is shared.
    fn on_task_finish(&mut self, task_idx: u32) {
        let Some(task) = self.jobs.task(task_idx) else {
            return;
        };
        let m = task.machine as usize;
        self.advance(m, self.now_s);
        self.machines[m].running -= 1;

        // Attribute completion metrics to the hour of completion.
        let hour = ((self.now_s / 3600.0) as usize).min(self.cfg.duration_hours as usize - 1);
        let acc = &mut self.machines[m].hours[hour];
        acc.tasks_finished += 1;
        acc.data_read_gb += task.input_gb;
        acc.exec_time_s += task.duration_s;
        acc.cpu_time_s += task.cpu_time_s;

        let info = self.cfg.cluster.machines[m];
        self.out
            .counters
            .record(info.sku, info.rack, task.task_type);
        self.finish_task(task_idx, info.sku);
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
                    self.free.add(m);
                } else {
                    self.free.evict(m);
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
                records.push(acc.record(self.cfg.seed, &mach_info, cfg.sc, hour as u64));
            }
        }
        ingest(&mut self.out, records);
        self.jobs.close(&mut self.out);
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
