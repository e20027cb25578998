//! Discrete-event simulation engines.
//!
//! A run has two sides. The **job side** — backlog seeding and respawn,
//! recurring and Poisson (thinned) arrivals, stage release, the sampled
//! task and job logs, critical-path marks, job completion, and the task
//! and job slabs — is written once, in `engine/jobs.rs`, and both
//! engines drive it through one trait that supplies the rng, the clock,
//! an event push, task placement and the output. The free-slot set that
//! placement samples from and the formula that turns a machine-hour
//! accumulator into a telemetry record are shared the same way. The two
//! engines differ only on the **machine side**:
//!
//! * [`reference`](mod@reference) — the original heap-driven machine
//!   side: one global `BinaryHeap` event queue, `ConfigPlan::effective`
//!   on every lookup, telemetry materialized whole at the end of the run.
//!   Simple, and the semantic oracle for everything below.
//! * **This module's fleet-scale engine** — what [`run`] and
//!   [`run_with_exec`] execute:
//!
//!   1. a hierarchical **calendar queue** ([`crate::calendar`]) replaces
//!      the binary heap, making event push/pop O(1) for the clustered
//!      near-future times a simulation produces;
//!   2. **model tables** (`ModelTables`) precompute every
//!      utilization / throttle / interference / power / resource value
//!      per (configuration × SKU × running-count), collapsing the
//!      per-event hot path (BTreeMap lookups, `powf`, flight scans in
//!      `ConfigPlan::effective`) to two array reads via the crate's
//!      `ResolvedPlan`;
//!   3. **windowed telemetry emission**: completed machine-hours stream
//!      into the output [`kea_telemetry::TelemetryStore`] once per
//!      simulated window (default daily) through `reserve` +
//!      the validating `extend`, bounding accumulator memory at
//!      300k-machine × week scale;
//!   4. optional **federated execution** (`ExecConfig::shards != 1`):
//!      scheduling is sharded per sub-cluster, each domain simulated by a
//!      scoped worker with its own counter-based RNG stream
//!      (`rng::CounterRng`) keyed by the domain's lowest machine
//!      id — so the output is deterministic and invariant in both the
//!      worker-thread count and the work-claiming schedule.
//!
//! **Agreement contract**: `run` (single global domain) reproduces
//! [`reference::run`] *bit for bit* — same event total order, same RNG
//! draw sequence, same floating-point expression order (service times go
//! through `machine::service_time_parts`, the single place the
//! multiplication order is written). The federated mode is a different
//! *scheduling model* by design (per-sub-cluster placement scope and RNG
//! streams); its guarantee is determinism and shard-count invariance, and
//! the `tests/` agreement suite enforces both. With the job side shared,
//! that suite checks the two machine sides against each other; the
//! golden pins in `tests/golden.rs` hold the output itself.

mod jobs;
pub mod reference;

use crate::cluster::{ClusterSpec, Machine, SubClusterId};
use crate::config::{ConfigPlan, ExecConfig, ResolvedPlan};
use crate::machine::{self};
use crate::output::SimOutput;
use crate::rng::{gauge_noise_at, CounterRng};
use crate::workload::{TaskType, WorkloadSpec};
use crate::CalendarQueue;
use jobs::{JobSide, JobState};
use kea_telemetry::{run_group_partitions, GroupKey, MachineHourRecord, MetricValues, ScId, SkuId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Full specification of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster topology and SKU catalog.
    pub cluster: ClusterSpec,
    /// Workload templates and seasonality.
    pub workload: WorkloadSpec,
    /// Configuration plan (baselines + flights).
    pub plan: ConfigPlan,
    /// Simulated duration in hours.
    pub duration_hours: u64,
    /// RNG seed; equal configs with equal seeds give identical outputs.
    pub seed: u64,
    /// Sample every Nth completed task into the task log (0 disables).
    pub task_log_every: u32,
    /// Log every Nth Poisson-scheduled (ad-hoc) job; recurring jobs are
    /// always logged. 1 logs everything.
    pub adhoc_job_log_every: u32,
}

impl SimConfig {
    /// A ready-to-run baseline: the given cluster under manual-tuning
    /// defaults (SC1, no capping, Feature off) with the default workload
    /// at 75% target occupancy.
    pub fn baseline(cluster: ClusterSpec, duration_hours: u64, seed: u64) -> Self {
        let workload = WorkloadSpec::default_for(&cluster, 0.75);
        let plan = ConfigPlan::baseline(&cluster.skus, crate::catalog::SC1);
        SimConfig {
            cluster,
            workload,
            plan,
            duration_hours,
            seed,
            task_log_every: 10,
            adhoc_job_log_every: 8,
        }
    }
}

/// Checks the simulator's two preconditions on a run: it lasts at least
/// one hour, and its workload's target occupancy (demand pressure; values
/// above ~1 saturate the cluster) is finite, in (0, 2].
///
/// [`run`] asserts the first and [`WorkloadSpec::default_for`] the
/// second, each through this check's own half. A caller that takes
/// either value from its user checks both here first and reports the
/// violation instead of panicking.
///
/// # Errors
/// Names the violated precondition.
pub fn check_run(duration_hours: u64, target_occupancy: f64) -> Result<(), String> {
    check_duration(duration_hours)?;
    check_occupancy(target_occupancy)
}

pub(crate) fn check_duration(duration_hours: u64) -> Result<(), String> {
    if duration_hours == 0 {
        return Err("duration must be at least 1 hour".to_string());
    }
    Ok(())
}

pub(crate) fn check_occupancy(target_occupancy: f64) -> Result<(), String> {
    // NaN fails both comparisons, and +∞ the upper bound.
    if target_occupancy > 0.0 && target_occupancy <= 2.0 {
        return Ok(());
    }
    Err(format!(
        "target_occupancy {target_occupancy} must be finite, in (0, 2]"
    ))
}

/// Runs a simulation to completion on the fleet-scale engine with
/// default execution (single global scheduling domain, daily telemetry
/// windows) — bit-identical to [`reference::run`].
///
/// # Panics
/// Panics on nonsensical configs (zero duration, zero-`max_containers`
/// baselines) — these indicate caller bugs, not runtime conditions.
/// [`check_run`] refuses a zero duration without panicking.
pub fn run(cfg: &SimConfig) -> SimOutput {
    run_with_exec(cfg, ExecConfig::default())
}

/// Runs a simulation with explicit execution knobs.
///
/// `exec.shards == 1` simulates one global scheduling domain with the
/// reference engine's exact semantics. Any other value federates
/// scheduling per sub-cluster (see the module docs); the output is then
/// deterministic and identical for every `shards` value in
/// `{0, 2, 3, …}`, but differs from the global domain by design.
///
/// # Panics
/// Same contract as [`run`].
pub fn run_with_exec(cfg: &SimConfig, exec: ExecConfig) -> SimOutput {
    assert_preconditions(cfg);
    if exec.shards == 1 {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Fleet::new(cfg, &cfg.cluster.machines, &cfg.workload, rng, exec.emit_window_hours).run()
    } else {
        run_federated(cfg, exec)
    }
}

/// The `# Panics` contract of [`run`] and [`reference::run`].
pub(crate) fn assert_preconditions(cfg: &SimConfig) {
    if let Err(e) = check_duration(cfg.duration_hours) {
        panic!("{e}"); // kea-lint: allow(panic-in-library) — documented `# Panics` contract; callers taking a duration from a user refuse it first with `check_run`
    }
    for (sku, mc) in &cfg.plan.base {
        // kea-lint: allow(panic-in-library) — documented `# Panics` contract; every base config comes from `ConfigPlan::baseline`, whose catalog defaults are positive
        assert!(
            mc.max_running_containers > 0,
            "max_running_containers must be positive for {sku:?}"
        );
    }
}

/// Federated execution: one scheduling domain per sub-cluster, simulated
/// by `min(shards, domains)` workers (`shards == 0` ⇒ one worker per
/// domain) work-stealing domains through
/// [`kea_telemetry::run_group_partitions`]. Outputs come back in domain
/// order and merge after the join, so the result does not depend on
/// which worker simulated which domain.
fn run_federated(cfg: &SimConfig, exec: ExecConfig) -> SimOutput {
    // Deterministic domain list: sub-clusters in id order. Machines keep
    // their global identity (ids, racks), so merged telemetry is exactly
    // a fleet-wide record set.
    let mut by_sc: BTreeMap<SubClusterId, Vec<Machine>> = BTreeMap::new();
    for m in &cfg.cluster.machines {
        by_sc.entry(m.subcluster).or_default().push(*m);
    }
    let total_machines = cfg.cluster.machines.len() as u64;
    // Slice the workload by machine share, cumulatively, so the union
    // over domains reproduces the global spec exactly.
    let mut before = 0u64;
    let domains: Vec<(Vec<Machine>, WorkloadSpec)> = by_sc
        .into_values()
        .map(|machines| {
            let n = machines.len() as u64;
            let slice = cfg.workload.sliced(before, n, total_machines);
            before += n;
            (machines, slice)
        })
        .collect();
    let workers = if exec.shards == 0 {
        domains.len()
    } else {
        exec.shards
    };
    let outputs = run_group_partitions(
        domains.len(),
        workers,
        || (),
        |_, i| {
            let (machines, workload) = domains.get(i)?;
            // The RNG stream is keyed by the domain's lowest machine id —
            // a property of the domain, not of the worker or claim order.
            let stream = machines.first().map_or(i as u64, |m| u64::from(m.id.0));
            let rng = CounterRng::new(cfg.seed, stream);
            Some(Fleet::new(cfg, machines, workload, rng, exec.emit_window_hours).run())
        },
    );
    let mut out = SimOutput::default();
    for domain_out in outputs.into_iter().flatten() {
        out.absorb(domain_out);
    }
    out
}

// ---------------------------------------------------------------------
// Shared simulation vocabulary (also used by `reference`)
// ---------------------------------------------------------------------

/// Payloads are `u32` so the enum packs into 8 bytes — a calendar-queue
/// entry is then 24 bytes instead of 32, which matters when a fleet-day
/// run moves tens of millions of them through the ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum EventKind {
    JobArrival { template: u32 },
    PoissonCandidate { template: u32 },
    TaskFinish { task: u32 },
}

#[derive(Debug, Clone, Default)]
pub(super) struct HourAcc {
    pub container_seconds: f64,
    pub util_seconds: f64,
    pub power_joules: f64,
    pub cores_seconds: f64,
    pub ram_seconds: f64,
    pub ssd_seconds: f64,
    pub network_seconds: f64,
    pub queue_len_seconds: f64,
    pub tasks_finished: u32,
    pub data_read_gb: f64,
    pub exec_time_s: f64,
    pub cpu_time_s: f64,
    // Latency is attributed to the hour a task *starts*, pairing each
    // observation with the utilization that caused it; throughput
    // metrics are attributed to the completion hour.
    pub latency_sum_s: f64,
    pub latency_count: u32,
    pub queue_waits_s: Vec<f64>,
}

impl HourAcc {
    /// The telemetry record of machine `info`'s hour `hour`, run under
    /// software configuration `sc`.
    fn record(&mut self, seed: u64, info: &Machine, sc: ScId, hour: u64) -> MachineHourRecord {
        let p99 = if self.queue_waits_s.is_empty() {
            0.0
        } else {
            self.queue_waits_s.sort_by(f64::total_cmp);
            percentile_sorted(&self.queue_waits_s, 99.0)
        };
        // Small measurement noise on resource gauges so the §6
        // regressions see realistic residuals. Keyed by (machine, hour,
        // lane), so the order records are emitted in does not matter.
        let noise = |lane: u32| gauge_noise_at(seed, info.id.0, hour, lane);
        let metrics = MetricValues {
            total_data_read_gb: self.data_read_gb,
            tasks_finished: self.tasks_finished as f64,
            task_exec_time_s: self.exec_time_s,
            cpu_time_s: self.cpu_time_s,
            cpu_utilization: self.util_seconds / 3600.0 * 100.0,
            avg_running_containers: self.container_seconds / 3600.0,
            avg_task_latency_s: if self.latency_count > 0 {
                self.latency_sum_s / self.latency_count as f64
            } else {
                0.0
            },
            queued_containers: self.queue_len_seconds / 3600.0,
            queue_latency_p99_ms: p99 * 1000.0,
            power_draw_w: self.power_joules / 3600.0,
            ssd_used_gb: self.ssd_seconds / 3600.0 * noise(0),
            ram_used_gb: self.ram_seconds / 3600.0 * noise(1),
            cores_used: self.cores_seconds / 3600.0 * noise(2),
            network_used_gbps: self.network_seconds / 3600.0 * noise(3),
        };
        MachineHourRecord {
            machine: info.id,
            group: GroupKey::new(info.sku, sc),
            hour,
            metrics,
        }
    }
}

/// Streams records into the output store through the validating ingest
/// path (the same non-finite filter CSV ingest applies), counting
/// rejects instead of smuggling them.
fn ingest(out: &mut SimOutput, records: Vec<MachineHourRecord>) {
    if records.is_empty() {
        return;
    }
    out.telemetry.reserve(records.len());
    let dropped = out.telemetry.extend(records);
    out.nonfinite_dropped += dropped as u64;
}

/// Percentile of a pre-sorted slice (linear interpolation). Local copy to
/// avoid a dev-only dependency cycle with `kea-stats`. Index-free so the
/// fleet engine stays lint-clean; the interpolation expression matches
/// the historical one bit for bit (`lo == hi` collapses because
/// `a·1.0 + b·0.0 == a` exactly for the non-negative waits fed in here).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len().saturating_sub(1)) as f64;
    let lo = (rank as usize).min(sorted.len().saturating_sub(1));
    let hi = (lo + 1).min(sorted.len().saturating_sub(1));
    let (Some(&a), Some(&b)) = (sorted.get(lo), sorted.get(hi)) else {
        return 0.0;
    };
    if lo == hi {
        return a;
    }
    let frac = rank - lo as f64;
    a * (1.0 - frac) + b * frac
}

/// Machines believed to have a free container slot, as a swap-remove
/// index set for O(1) uniform sampling (hand-rolled so the removal
/// cannot panic). Entries can go stale when a flight lowers a machine's
/// maximum; placement re-validates each pick.
#[derive(Debug)]
struct FreeSet {
    set: Vec<u32>,
    pos: Vec<u32>, // u32::MAX = not in set
}

impl FreeSet {
    /// All `n` machine positions, in order.
    fn full(n: usize) -> Self {
        FreeSet {
            set: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    /// A uniformly drawn member; `None`, without a draw, when empty.
    fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.set.is_empty() {
            return None;
        }
        let pick = rng.gen_range(0..self.set.len());
        self.set.get(pick).map(|&m| m as usize)
    }

    fn add(&mut self, m: usize) {
        let set_len = self.set.len();
        let Some(pos) = self.pos.get_mut(m) else {
            return;
        };
        if *pos != u32::MAX {
            return;
        }
        *pos = u32::try_from(set_len).unwrap_or(u32::MAX);
        self.set.push(m as u32);
    }

    fn evict(&mut self, m: usize) {
        let Some(&pos32) = self.pos.get(m) else {
            return;
        };
        if pos32 == u32::MAX {
            return;
        }
        let pos = pos32 as usize;
        // pos != MAX implies pos indexes the live set; degrade to a no-op
        // if the invariant is ever broken rather than aborting the sim.
        if pos >= self.set.len() {
            return;
        }
        let Some(&last) = self.set.last() else {
            return;
        };
        // Hand-rolled swap-remove: move the tail entry into `pos`, drop
        // the tail. Identical set order to `Vec::swap_remove`.
        if let Some(slot) = self.set.get_mut(pos) {
            *slot = last;
        }
        self.set.pop();
        if last != m as u32 {
            if let Some(p) = self.pos.get_mut(last as usize) {
                *p = pos32;
            }
        }
        if let Some(p) = self.pos.get_mut(m) {
            *p = u32::MAX;
        }
    }
}

// ---------------------------------------------------------------------
// Model tables: the per-event hot path, precomputed
// ---------------------------------------------------------------------

/// Precomputed machine-model values for one (configuration, SKU) pair.
///
/// Every per-running-count table is built by calling the *same*
/// `machine::*` functions the reference engine calls per event, so the
/// stored values are bitwise identical to what the reference computes
/// inline.
#[derive(Debug, Clone)]
struct ModelEntry {
    max_running: u32,
    max_queue: u32,
    sc_io_mult: f64,
    speed: f64,
    feature: f64,
    /// Indexed by running-container count (0..=global max). One row is
    /// exactly 64 bytes, so each per-event lookup touches a single cache
    /// line instead of eight scattered arrays.
    rows: Box<[ModelRow]>,
}

/// Everything the engine reads per (config, SKU, running-count) triple,
/// packed for locality. Eight `f64`s = one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct ModelRow {
    util: f64,
    throttle: f64,
    interference: f64,
    power: f64,
    cores: f64,
    ram: f64,
    ssd: f64,
    net: f64,
}

/// All [`ModelEntry`]s of a run: one per (interned configuration × SKU).
#[derive(Debug, Clone)]
struct ModelTables {
    n_skus: usize,
    entries: Vec<ModelEntry>,
}

impl ModelTables {
    fn build(skus: &[crate::catalog::SkuSpec], resolved: &ResolvedPlan) -> Self {
        // A flight can lower `max_running_containers` under live tasks,
        // so the running count can transiently exceed the *current*
        // config's max — size every table by the global max instead.
        let cap = resolved
            .configs()
            .iter()
            .map(|c| c.max_running_containers)
            .max()
            .unwrap_or(1);
        let mut entries = Vec::with_capacity(resolved.configs().len() * skus.len());
        for cfg in resolved.configs() {
            let sc = crate::catalog::default_scs_static(cfg.sc);
            for sku in skus {
                let feature = if cfg.feature_on {
                    machine::FEATURE_SPEED_FACTOR
                } else {
                    1.0
                };
                let mut rows = Vec::with_capacity(cap as usize + 1);
                for containers in 0..=cap {
                    let u = machine::cpu_utilization(sku, containers);
                    let res = machine::resource_usage(sku, sc, containers);
                    rows.push(ModelRow {
                        util: u,
                        throttle: machine::throttle_multiplier(sku, cfg, u),
                        interference: 1.0 + machine::INTERFERENCE_GAMMA * u * u,
                        power: machine::power_draw(sku, cfg, u),
                        cores: res.cores_used,
                        ram: res.ram_used_gb,
                        ssd: res.ssd_used_gb,
                        net: res.network_used_gbps,
                    });
                }
                entries.push(ModelEntry {
                    max_running: cfg.max_running_containers,
                    max_queue: cfg.max_queue_length,
                    sc_io_mult: sc.io_heavy_multiplier,
                    speed: sku.speed_factor,
                    feature,
                    rows: rows.into_boxed_slice(),
                });
            }
        }
        ModelTables {
            n_skus: skus.len(),
            entries,
        }
    }

    fn entry(&self, cfg_idx: u32, sku_idx: usize) -> Option<&ModelEntry> {
        self.entries.get(cfg_idx as usize * self.n_skus + sku_idx)
    }
}

// ---------------------------------------------------------------------
// The fleet-scale engine core
// ---------------------------------------------------------------------

/// The current-hour accumulator, held inline in [`MachState`] so the
/// per-event hot paths (integration, task-start latency, completion
/// attribution) never chase the window deque's heap buffer. Spilled into
/// the windowed [`HourAcc`] when the machine's hour advances.
#[derive(Debug, Clone, Copy, Default)]
struct AdvAcc {
    container_seconds: f64,
    util_seconds: f64,
    power_joules: f64,
    cores_seconds: f64,
    ram_seconds: f64,
    ssd_seconds: f64,
    network_seconds: f64,
    queue_len_seconds: f64,
    data_read_gb: f64,
    exec_time_s: f64,
    cpu_time_s: f64,
    latency_sum_s: f64,
    tasks_finished: u32,
    latency_count: u32,
}

/// Per-machine state. Unlike the reference engine's full
/// `hours: Vec<HourAcc>` (one accumulator per machine-hour for the whole
/// run), only the un-flushed window tail is held: `window[i]` accumulates
/// hour `window_base + i`, and flushed hours are gone.
#[derive(Debug)]
struct MachState {
    sku_idx: usize,
    /// Copied from [`Machine`] so the per-finish counter path stays on
    /// this (already hot) struct instead of touching `machines_info`.
    sku_id: SkuId,
    rack_idx: u32,
    /// Cached configuration index: valid for the whole run whenever
    /// `!flighted` — the common case, sparing every hot-path config
    /// lookup two scattered loads through the resolved plan — and for
    /// the hour `cfg_hour` otherwise (flights switch only on integer
    /// hour boundaries, so one resolve per machine-hour suffices).
    cfg_idx: u32,
    /// Hour `cfg_idx` was resolved at; only consulted when `flighted`.
    cfg_hour: u64,
    /// True when a flight can change this machine's config mid-run, so
    /// `cfg_idx` must be re-resolved when the hour moves off `cfg_hour`.
    flighted: bool,
    running: u32,
    queue: VecDeque<(u32, f64)>, // (task index, enqueue time)
    last_s: f64,
}

/// Per-machine accumulation state, kept in an arena parallel to the
/// [`MachState`] one. The split is deliberate: placement probes hit
/// machines uniformly at random and only need the small scheduling
/// struct, so the (much larger) accumulator — visited only by
/// integration, attribution, and flushing — must not dilute its cache
/// density.
#[derive(Debug)]
struct MachAcc {
    /// Hour `cur` is integrating; `u64::MAX` when `cur` is empty. Hours
    /// advance monotonically, so each hour is integrated contiguously
    /// and spilled into the window exactly once.
    cur_hour: u64,
    cur: AdvAcc,
    window_base: u64,
    window: VecDeque<HourAcc>,
}

impl MachAcc {
    fn new() -> Self {
        MachAcc {
            cur_hour: u64::MAX,
            cur: AdvAcc::default(),
            window_base: 0,
            window: VecDeque::new(),
        }
    }

    /// Folds the inline current-hour integrals into the windowed
    /// accumulator. Exact: the window's advance-owned fields are written
    /// nowhere else, so adding the completed sum into the zeroed field
    /// reproduces direct per-segment accumulation bit-for-bit.
    fn spill_cur(&mut self) {
        let h = self.cur_hour;
        if h == u64::MAX {
            return;
        }
        self.cur_hour = u64::MAX;
        let cur = self.cur;
        self.cur = AdvAcc::default();
        if h < self.window_base {
            return;
        }
        let idx = (h - self.window_base) as usize;
        while self.window.len() <= idx {
            self.window.push_back(HourAcc::default());
        }
        if let Some(acc) = self.window.get_mut(idx) {
            acc.container_seconds += cur.container_seconds;
            acc.util_seconds += cur.util_seconds;
            acc.power_joules += cur.power_joules;
            acc.cores_seconds += cur.cores_seconds;
            acc.ram_seconds += cur.ram_seconds;
            acc.ssd_seconds += cur.ssd_seconds;
            acc.network_seconds += cur.network_seconds;
            acc.queue_len_seconds += cur.queue_len_seconds;
            acc.data_read_gb += cur.data_read_gb;
            acc.exec_time_s += cur.exec_time_s;
            acc.cpu_time_s += cur.cpu_time_s;
            acc.latency_sum_s += cur.latency_sum_s;
            acc.tasks_finished += cur.tasks_finished;
            acc.latency_count += cur.latency_count;
        }
    }

    /// Points the inline accumulator at `hour`, spilling any previous
    /// hour first. `None` when the hour is outside the live window
    /// (already flushed, or past the horizon). Callers only ever target
    /// the machine's current hour, so the pointed-at hour is monotone
    /// and each hour's contributions stay contiguous — which is what
    /// keeps the spilled sums bit-identical to direct accumulation.
    fn cur_for(&mut self, hour: u64, duration_hours: u64) -> Option<&mut AdvAcc> {
        if self.cur_hour != hour {
            if hour < self.window_base || hour >= duration_hours {
                return None;
            }
            self.spill_cur();
            self.cur_hour = hour;
        }
        Some(&mut self.cur)
    }
}

struct Fleet<'a, R: RngCore> {
    // Immutable run parameters.
    machines_info: &'a [Machine],
    resolved: ResolvedPlan,
    tables: ModelTables,
    duration_hours: u64,
    end_s: f64,
    seed: u64,
    emit_window_s: f64,
    // Mutable simulation state.
    rng: R,
    now_s: f64,
    events: CalendarQueue<EventKind>,
    mach: Vec<MachState>,
    accs: Vec<MachAcc>,
    jobs: JobState<'a>,
    free: FreeSet,
    out: SimOutput,
    records: Vec<MachineHourRecord>,
    // Dense task counters, folded into the output's `TaskCounters`
    // BTreeMaps once at the end of the run — three array increments per
    // task finish instead of three tree walks.
    sku_ids: Vec<SkuId>,
    n_racks: usize,
    cnt_sku: Vec<u64>,
    cnt_sku_type: Vec<u64>,  // sku-major, × TaskType::ALL
    cnt_rack_type: Vec<u64>, // rack-major, × TaskType::ALL
}

impl<'a, R: RngCore> JobSide<'a> for Fleet<'a, R> {
    type Random = R;

    fn job_state(&mut self) -> &mut JobState<'a> {
        &mut self.jobs
    }

    fn rng(&mut self) -> &mut R {
        &mut self.rng
    }

    fn now_s(&self) -> f64 {
        self.now_s
    }

    fn push_event(&mut self, time_s: f64, kind: EventKind) {
        self.events.push(time_s, kind);
    }

    fn out(&mut self) -> &mut SimOutput {
        &mut self.out
    }

    fn task_site(&self, m: usize) -> Option<(Machine, ScId)> {
        let info = *self.machines_info.get(m)?;
        let hour = (self.now_s / 3600.0) as u64;
        Some((info, self.resolved.config_at(m, hour).sc))
    }

    /// The YARN-like placement policy of the reference engine, with the
    /// per-event configuration lookups served from [`ModelTables`].
    fn place_task(&mut self, task_idx: u32) {
        let hour = (self.now_s / 3600.0) as u64;
        while let Some(m) = self.free.pick(&mut self.rng) {
            let Some((running, sku_idx, cfg_idx)) = self.mach.get_mut(m).map(|ms| {
                if ms.flighted && ms.cfg_hour != hour {
                    ms.cfg_idx = self.resolved.config_index(m, hour);
                    ms.cfg_hour = hour;
                }
                (ms.running, ms.sku_idx, ms.cfg_idx)
            }) else {
                self.free.evict(m);
                continue;
            };
            let Some(entry) = self.tables.entry(cfg_idx, sku_idx) else {
                self.free.evict(m);
                continue;
            };
            let max_running = entry.max_running;
            if running < max_running {
                self.start_task(m, task_idx, 0.0);
                let now_running = self.mach.get(m).map_or(0, |ms| ms.running);
                if now_running >= max_running {
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
        let n = self.mach.len();
        let mut target = self.rng.gen_range(0..n);
        for _ in 0..10 {
            let (qlen, sku_idx, cfg_idx) = self.mach.get_mut(target).map_or((0, 0, 0), |ms| {
                if ms.flighted && ms.cfg_hour != hour {
                    ms.cfg_idx = self.resolved.config_index(target, hour);
                    ms.cfg_hour = hour;
                }
                (ms.queue.len(), ms.sku_idx, ms.cfg_idx)
            });
            let Some(entry) = self.tables.entry(cfg_idx, sku_idx) else {
                break;
            };
            let max_queue = entry.max_queue;
            if (qlen as u64) < u64::from(max_queue) {
                break;
            }
            target = self.rng.gen_range(0..n);
        }
        self.advance(target, self.now_s);
        if let Some(ms) = self.mach.get_mut(target) {
            ms.queue.push_back((task_idx, self.now_s));
        }
    }
}

impl<'a, R: RngCore> Fleet<'a, R> {
    fn new(
        cfg: &'a SimConfig,
        machines: &'a [Machine],
        workload: &'a WorkloadSpec,
        rng: R,
        emit_window_hours: u64,
    ) -> Self {
        let resolved = ResolvedPlan::resolve(&cfg.plan, machines, cfg.duration_hours);
        let tables = ModelTables::build(&cfg.cluster.skus, &resolved);
        let mach: Vec<MachState> = machines
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let sku_idx = cfg.cluster.skus.iter().position(|s| s.id == m.sku);
                // kea-lint: allow(panic-in-library) — `ClusterSpec::build` makes every machine from its own catalog
                assert!(sku_idx.is_some(), "machine SKU in catalog");
                MachState {
                    sku_idx: sku_idx.unwrap_or(0),
                    sku_id: m.sku,
                    rack_idx: m.rack.0,
                    cfg_idx: resolved.config_index(i, 0),
                    cfg_hour: 0,
                    flighted: resolved.is_flighted(i),
                    running: 0,
                    queue: VecDeque::new(),
                    last_s: 0.0,
                }
            })
            .collect();
        let n = machines.len();
        let sku_ids: Vec<SkuId> = cfg.cluster.skus.iter().map(|s| s.id).collect();
        let n_skus = sku_ids.len();
        let n_types = TaskType::ALL.len();
        let n_racks = machines
            .iter()
            .map(|m| m.rack.0 as usize + 1)
            .max()
            .unwrap_or(0);
        Fleet {
            machines_info: machines,
            resolved,
            tables,
            duration_hours: cfg.duration_hours,
            end_s: cfg.duration_hours as f64 * 3600.0,
            seed: cfg.seed,
            emit_window_s: emit_window_hours.max(1) as f64 * 3600.0,
            rng,
            now_s: 0.0,
            events: CalendarQueue::new(),
            mach,
            accs: (0..n).map(|_| MachAcc::new()).collect(),
            jobs: JobState::new(cfg, workload),
            free: FreeSet::full(n),
            out: SimOutput::default(),
            records: Vec::new(),
            sku_ids,
            n_racks,
            cnt_sku: vec![0; n_skus],
            cnt_sku_type: vec![0; n_skus * n_types],
            cnt_rack_type: vec![0; n_racks * n_types],
        }
    }

    /// Index of a task type in [`TaskType::ALL`] (reporting order).
    fn type_idx(t: TaskType) -> usize {
        match t {
            TaskType::Extract => 0,
            TaskType::Process => 1,
            TaskType::Aggregate => 2,
            TaskType::Partition => 3,
        }
    }

    /// Folds the dense per-(SKU, rack, type) counter arrays into the
    /// output's `TaskCounters` maps — identical to what per-task
    /// `TaskCounters::record` calls would have built (zero-count keys
    /// stay absent).
    fn fold_counters(&mut self) {
        let n_types = TaskType::ALL.len();
        for (i, &sku) in self.sku_ids.iter().enumerate() {
            let n = self.cnt_sku.get(i).copied().unwrap_or(0);
            if n > 0 {
                self.out.counters.by_sku.insert(sku, n);
                self.out.counters.total += n;
            }
            for (ti, &tt) in TaskType::ALL.iter().enumerate() {
                let n = self.cnt_sku_type.get(i * n_types + ti).copied().unwrap_or(0);
                if n > 0 {
                    self.out.counters.by_sku_type.insert((sku, tt), n);
                }
            }
        }
        for rack in 0..self.n_racks {
            for (ti, &tt) in TaskType::ALL.iter().enumerate() {
                let n = self
                    .cnt_rack_type
                    .get(rack * n_types + ti)
                    .copied()
                    .unwrap_or(0);
                if n > 0 {
                    self.out
                        .counters
                        .by_rack_type
                        .insert((crate::cluster::RackId(rack as u32), tt), n);
                }
            }
        }
    }

    fn run(mut self) -> SimOutput {
        self.start_workload();
        let mut next_emit_s = self.emit_window_s;
        while let Some((time_s, kind)) = self.events.pop() {
            if time_s > self.end_s {
                break;
            }
            // Cross every window boundary before processing the event:
            // all state integration up to the boundary is then final, and
            // completed hours stream out.
            while time_s >= next_emit_s {
                self.emit_window(next_emit_s);
                next_emit_s += self.emit_window_s;
            }
            self.now_s = time_s;
            match kind {
                EventKind::JobArrival { template } => self.on_job_arrival(template as usize),
                EventKind::PoissonCandidate { template } => self.on_poisson_candidate(template as usize),
                EventKind::TaskFinish { task } => self.on_task_finish(task),
            }
        }
        self.finish()
    }

    fn start_task(&mut self, m: usize, task_idx: u32, queue_wait_s: f64) {
        self.advance(m, self.now_s);
        let hour = (self.now_s / 3600.0) as u64;
        let Some((running, sku_idx, cfg_idx)) = self.mach.get_mut(m).map(|ms| {
            ms.running += 1;
            if ms.flighted && ms.cfg_hour != hour {
                ms.cfg_idx = self.resolved.config_index(m, hour);
                ms.cfg_hour = hour;
            }
            (ms.running, ms.sku_idx, ms.cfg_idx)
        }) else {
            return;
        };
        let Some(entry) = self.tables.entry(cfg_idx, sku_idx) else {
            return;
        };
        // Interference reflects the machine state including this task.
        let r = running as usize;
        let row = entry.rows.get(r).copied();
        let throttle = row.map_or(1.0, |row| row.throttle);
        let interference = row.map_or(1.0, |row| row.interference);
        let speed = entry.speed;
        let feature = entry.feature;
        let sc_io_mult = entry.sc_io_mult;
        let Some(task) = self.jobs.task_mut(task_idx) else {
            return;
        };
        let sc_mult = if task.io_heavy { sc_io_mult } else { 1.0 };
        let st = machine::service_time_parts(
            task.base_cpu_s,
            speed,
            throttle,
            feature,
            interference,
            sc_mult,
        );
        task.machine = m as u32;
        task.queue_wait_s = queue_wait_s;
        task.duration_s = st.duration_s;
        task.cpu_time_s = st.cpu_time_s;
        let duration_s = st.duration_s;
        let lat_hour = hour.min(self.duration_hours - 1);
        let duration_hours = self.duration_hours;
        if let Some(acc) = self.accs.get_mut(m) {
            if let Some(cur) = acc.cur_for(lat_hour, duration_hours) {
                cur.latency_sum_s += duration_s;
                cur.latency_count += 1;
            }
        }
        let finish = self.now_s + duration_s;
        self.events.push(finish, EventKind::TaskFinish { task: task_idx });
    }

    /// The machine half of a task finish: integration up to now, the
    /// freed container, completion metrics and counters; then the job
    /// half, then the machine's queue.
    fn on_task_finish(&mut self, task_idx: u32) {
        let Some(task) = self.jobs.task(task_idx) else {
            return;
        };
        let m = task.machine as usize;
        self.advance(m, self.now_s);
        let Some((sku_idx, sku_id, rack_idx)) = self.mach.get_mut(m).map(|ms| {
            ms.running = ms.running.saturating_sub(1);
            (ms.sku_idx, ms.sku_id, ms.rack_idx as usize)
        }) else {
            return;
        };

        // Attribute completion metrics to the hour of completion — via
        // the inline accumulator when it is already on that hour (the
        // overwhelmingly common case after `advance`), else the window.
        let hour = ((self.now_s / 3600.0) as u64).min(self.duration_hours - 1);
        let duration_hours = self.duration_hours;
        if let Some(acc) = self.accs.get_mut(m) {
            if let Some(cur) = acc.cur_for(hour, duration_hours) {
                cur.tasks_finished += 1;
                cur.data_read_gb += task.input_gb;
                cur.exec_time_s += task.duration_s;
                cur.cpu_time_s += task.cpu_time_s;
            }
        }

        // Exact counters: dense increments, folded into the BTreeMaps at
        // the end of the run (`fold_counters`).
        let n_types = TaskType::ALL.len();
        let ti = Self::type_idx(task.task_type);
        if let Some(c) = self.cnt_sku.get_mut(sku_idx) {
            *c += 1;
        }
        if let Some(c) = self.cnt_sku_type.get_mut(sku_idx * n_types + ti) {
            *c += 1;
        }
        if let Some(c) = self.cnt_rack_type.get_mut(rack_idx * n_types + ti) {
            *c += 1;
        }
        self.finish_task(task_idx, sku_id);
        self.serve_queue(m);
    }

    fn serve_queue(&mut self, m: usize) {
        loop {
            let hour = (self.now_s / 3600.0) as u64;
            let Some((running, queue_empty, sku_idx, cfg_idx)) = self.mach.get_mut(m).map(|ms| {
                if ms.flighted && ms.cfg_hour != hour {
                    ms.cfg_idx = self.resolved.config_index(m, hour);
                    ms.cfg_hour = hour;
                }
                (ms.running, ms.queue.is_empty(), ms.sku_idx, ms.cfg_idx)
            }) else {
                return;
            };
            let Some(entry) = self.tables.entry(cfg_idx, sku_idx) else {
                return;
            };
            let max_running = entry.max_running;
            if queue_empty || running >= max_running {
                // Advertise remaining capacity to the global scheduler.
                if running < max_running {
                    self.free.add(m);
                } else {
                    self.free.evict(m);
                }
                return;
            }
            self.advance(m, self.now_s);
            let popped = self.mach.get_mut(m).and_then(|ms| ms.queue.pop_front());
            let Some((task_idx, enqueued_s)) = popped else {
                return;
            };
            let wait = self.now_s - enqueued_s;
            // Attribute the wait to the hour the container *enqueued*:
            // that pairs each wait with the queue state that caused it
            // (same reasoning as latency → start-hour attribution).
            let wait_hour = ((enqueued_s / 3600.0) as u64).min(self.duration_hours - 1);
            if let Some(acc) = self.acc_mut(m, wait_hour) {
                acc.queue_waits_s.push(wait);
            }
            self.start_task(m, task_idx, wait);
        }
    }

    // ------------------------------------------------------------------
    // Piecewise-constant integration of machine state into hour buckets
    // ------------------------------------------------------------------

    /// Accumulator for machine `m`'s hour `hour`, growing the window on
    /// demand. `None` if the hour was already flushed (never happens for
    /// live attributions: the window watermark holds back any hour a
    /// queued task could still write) or lies past the horizon.
    fn acc_mut(&mut self, m: usize, hour: u64) -> Option<&mut HourAcc> {
        if hour >= self.duration_hours {
            return None;
        }
        let acc = self.accs.get_mut(m)?;
        if hour < acc.window_base {
            return None;
        }
        let idx = (hour - acc.window_base) as usize;
        while acc.window.len() <= idx {
            acc.window.push_back(HourAcc::default());
        }
        acc.window.get_mut(idx)
    }

    fn advance(&mut self, m: usize, to_s: f64) {
        let Some(ms) = self.mach.get_mut(m) else {
            return;
        };
        if to_s <= ms.last_s {
            return;
        }
        let running_f = f64::from(ms.running);
        let queue_len_f = ms.queue.len() as f64;
        let r = ms.running as usize;
        let sku_idx = ms.sku_idx;
        let flighted = ms.flighted;
        let mut t = ms.last_s;
        ms.last_s = to_s;
        let Some(acc) = self.accs.get_mut(m) else {
            return;
        };
        while t < to_s {
            let hour = (t / 3600.0) as u64;
            let hour_end = (hour as f64 + 1.0) * 3600.0;
            let seg_end = hour_end.min(to_s);
            let dt = seg_end - t;
            // Skip hours past the horizon or already flushed (the window
            // watermark guarantees live hours are never flushed early).
            if hour < self.duration_hours && hour >= acc.window_base {
                // Config can change at hour granularity (flights), so
                // flighted machines re-resolve when the segment's hour
                // moves off the cached one.
                if flighted && ms.cfg_hour != hour {
                    ms.cfg_idx = self.resolved.config_index(m, hour);
                    ms.cfg_hour = hour;
                }
                let cfg_idx = ms.cfg_idx;
                let row = self
                    .tables
                    .entry(cfg_idx, sku_idx)
                    .and_then(|e| e.rows.get(r));
                if let Some(&row) = row {
                    if acc.cur_hour != hour {
                        acc.spill_cur();
                        acc.cur_hour = hour;
                    }
                    acc.cur.container_seconds += running_f * dt;
                    acc.cur.util_seconds += row.util * dt;
                    acc.cur.power_joules += row.power * dt;
                    acc.cur.cores_seconds += row.cores * dt;
                    acc.cur.ram_seconds += row.ram * dt;
                    acc.cur.ssd_seconds += row.ssd * dt;
                    acc.cur.network_seconds += row.net * dt;
                    acc.cur.queue_len_seconds += queue_len_f * dt;
                }
            }
            t = seg_end;
        }
    }

    // ------------------------------------------------------------------
    // Windowed telemetry emission
    // ------------------------------------------------------------------

    /// Flushes all machine-hours completed before the window boundary:
    /// advances every machine to the boundary (finalizing integration),
    /// converts completed accumulators to records in (machine, hour)
    /// order, and streams them into the output store.
    fn emit_window(&mut self, boundary_s: f64) {
        let boundary_hour = (boundary_s / 3600.0) as u64;
        // Hour `duration - 1` is special: events scheduled at exactly the
        // end of the run still attribute to it, so it only flushes in the
        // final flush.
        let limit = boundary_hour.min(self.duration_hours.saturating_sub(1));
        for m in 0..self.mach.len() {
            self.advance(m, boundary_s);
        }
        for m in 0..self.mach.len() {
            self.flush_machine(m, limit, true);
        }
        ingest(&mut self.out, std::mem::take(&mut self.records));
    }

    /// Converts machine `m`'s completed hours `< limit_hour` into
    /// telemetry records. With `respect_queue`, hours a queued container
    /// could still record a wait into (anything ≥ the queue front's
    /// enqueue hour) are held back until the queue drains past them.
    fn flush_machine(&mut self, m: usize, limit_hour: u64, respect_queue: bool) {
        let Some(&info) = self.machines_info.get(m) else {
            return;
        };
        let Some(ms) = self.mach.get_mut(m) else {
            return;
        };
        let Some(macc) = self.accs.get_mut(m) else {
            return;
        };
        let mut limit = limit_hour;
        if respect_queue {
            if let Some(&(_, enqueued_s)) = ms.queue.front() {
                limit = limit.min((enqueued_s / 3600.0) as u64);
            }
        }
        // An hour about to flush may still sit in the inline accumulator.
        if macc.cur_hour < limit {
            macc.spill_cur();
        }
        while macc.window_base < limit {
            let hour = macc.window_base;
            let mut acc = macc.window.pop_front().unwrap_or_default();
            macc.window_base += 1;
            let sc = self.resolved.config_at(m, hour).sc;
            self.records.push(acc.record(self.seed, &info, sc, hour));
        }
    }

    fn finish(mut self) -> SimOutput {
        let end = self.end_s;
        for m in 0..self.mach.len() {
            self.advance(m, end);
        }
        for ms in &self.mach {
            let in_flight = ms.running as u64 + ms.queue.len() as u64;
            self.out.tasks_in_flight_at_end += in_flight;
        }
        // Final flush: every remaining hour, queue watermark ignored —
        // leftover queued tasks never start, so they record no waits.
        for m in 0..self.mach.len() {
            self.flush_machine(m, self.duration_hours, false);
        }
        ingest(&mut self.out, std::mem::take(&mut self.records));
        self.fold_counters();
        self.jobs.close(&mut self.out);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    fn quick_sim(hours: u64, seed: u64) -> SimOutput {
        run(&SimConfig::baseline(ClusterSpec::tiny(), hours, seed))
    }

    #[test]
    fn produces_full_telemetry_grid() {
        let out = quick_sim(6, 1);
        let spec = ClusterSpec::tiny();
        assert_eq!(
            out.telemetry.len(),
            spec.n_machines() * 6,
            "one record per machine per hour"
        );
        assert_eq!(out.telemetry.hour_span(), Some((0, 6)));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick_sim(4, 42);
        let b = quick_sim(4, 42);
        assert_eq!(a.telemetry.len(), b.telemetry.len());
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.counters.total, b.counters.total);
        let pick = |o: &SimOutput| o.telemetry.iter().map(|r| r.metrics.cpu_utilization).sum::<f64>();
        assert_eq!(pick(&a), pick(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick_sim(4, 1);
        let b = quick_sim(4, 2);
        let pick = |o: &SimOutput| o.telemetry.iter().map(|r| r.metrics.cpu_utilization).sum::<f64>();
        assert_ne!(pick(&a), pick(&b));
    }

    #[test]
    fn utilization_in_target_band() {
        // The workload is calibrated for ~75% occupancy; the fleet-wide
        // mean CPU utilization should land in a broad band around the
        // paper's >60% (warm-up drags the first hours down).
        let out = quick_sim(24, 7);
        let utils: Vec<f64> = out
            .telemetry
            .by_hours(4, 24)
            .map(|r| r.metrics.cpu_utilization)
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        assert!(
            (35.0..95.0).contains(&mean),
            "fleet mean utilization {mean}%"
        );
    }

    #[test]
    fn jobs_complete_and_have_positive_runtimes() {
        let out = quick_sim(24, 3);
        assert!(!out.jobs.is_empty());
        for job in &out.jobs {
            assert!(job.runtime_s > 0.0);
            assert!(job.tasks > 0);
            assert!(job.arrival_hour >= 0.0);
        }
        // Recurring templates produce their scheduled counts (hourly
        // ingest: ~23 completed instances in 24h).
        let ingest = out.job_runtimes("ingest-hourly");
        assert!(ingest.len() >= 15, "got {}", ingest.len());
    }

    #[test]
    fn task_conservation() {
        let out = quick_sim(8, 11);
        // counters.total counts completed tasks; in-flight are the rest.
        assert!(out.counters.total > 0);
        assert!(out.tasks_in_flight_at_end < out.counters.total / 2);
    }

    #[test]
    fn older_skus_run_hotter() {
        // Figure 2's right panel: the manual baseline pushes old SKUs
        // to higher utilization.
        let out = quick_sim(24, 5);
        let spec = ClusterSpec::tiny();
        let util_of = |sku: u16| {
            let recs: Vec<f64> = out
                .telemetry
                .iter()
                .filter(|r| r.group.sku.0 == sku && r.hour >= 4)
                .map(|r| r.metrics.cpu_utilization)
                .collect();
            recs.iter().sum::<f64>() / recs.len() as f64
        };
        let oldest = util_of(0);
        let newest = util_of(spec.skus.len() as u16 - 1);
        assert!(
            oldest > newest + 5.0,
            "Gen1.1 {oldest}% vs Gen4.1 {newest}%"
        );
    }

    #[test]
    fn tasks_on_old_skus_are_slower() {
        // Figure 5's premise.
        let out = quick_sim(24, 9);
        let dur_of = |sku: u16| {
            let d: Vec<f64> = out
                .tasks
                .iter()
                .filter(|t| t.sku.0 == sku)
                .map(|t| t.duration_s)
                .collect();
            assert!(!d.is_empty(), "no sampled tasks on sku {sku}");
            d.iter().sum::<f64>() / d.len() as f64
        };
        assert!(dur_of(0) > dur_of(5) * 1.3);
    }

    #[test]
    fn critical_path_skews_to_slow_machines() {
        let out = quick_sim(24, 13);
        let p_old = out
            .counters
            .critical_path_probability(kea_telemetry::SkuId(0))
            .expect("tasks ran on Gen 1.1");
        let p_new = out
            .counters
            .critical_path_probability(kea_telemetry::SkuId(5))
            .expect("tasks ran on Gen 4.1");
        assert!(
            p_old > p_new,
            "critical-path probability old {p_old} vs new {p_new}"
        );
    }

    #[test]
    fn task_types_spread_uniformly_across_skus() {
        // Figure 6: the scheduler's uniform placement makes the type mix
        // of each SKU resemble the global mix.
        let out = quick_sim(24, 17);
        let global: Vec<f64> = {
            let shares: Vec<[f64; 4]> = (0..6)
                .filter_map(|s| out.counters.type_shares_by_sku(kea_telemetry::SkuId(s)))
                .collect();
            assert_eq!(shares.len(), 6);
            (0..4)
                .map(|i| shares.iter().map(|s| s[i]).sum::<f64>() / shares.len() as f64)
                .collect()
        };
        for s in 0..6u16 {
            let shares = out
                .counters
                .type_shares_by_sku(kea_telemetry::SkuId(s))
                .expect("tasks on every SKU");
            for (share, g) in shares.iter().zip(&global) {
                assert!(
                    (share - g).abs() < 0.08,
                    "sku {s}: share {share} vs global {g}"
                );
            }
        }
    }

    #[test]
    fn power_draw_between_idle_and_peak() {
        let out = quick_sim(6, 19);
        let spec = ClusterSpec::tiny();
        for rec in out.telemetry.iter() {
            let sku = spec.sku(rec.group.sku);
            assert!(
                rec.metrics.power_draw_w >= sku.idle_power_w * 0.99,
                "power below idle"
            );
            assert!(
                rec.metrics.power_draw_w <= sku.peak_power_w * 1.01,
                "power above peak"
            );
        }
    }

    #[test]
    fn telemetry_values_are_sane() {
        let out = quick_sim(6, 23);
        for rec in out.telemetry.iter() {
            let m = &rec.metrics;
            assert!(m.is_finite());
            assert!(m.cpu_utilization >= 0.0 && m.cpu_utilization <= 100.0);
            assert!(m.avg_running_containers >= 0.0);
            assert!(m.tasks_finished >= 0.0);
            assert!(m.queued_containers >= 0.0);
            assert!(m.ssd_used_gb >= 0.0 && m.ram_used_gb >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_panics() {
        run(&SimConfig::baseline(ClusterSpec::tiny(), 0, 1));
    }

    #[test]
    fn emit_window_size_does_not_change_output() {
        // Streaming emission is an implementation detail: hourly windows,
        // daily windows, and one big final flush must produce identical
        // record multisets.
        let cfg = SimConfig::baseline(ClusterSpec::tiny(), 8, 29);
        let sorted = |o: &SimOutput| {
            let mut v: Vec<_> = o.telemetry.iter().cloned().collect();
            v.sort_by_key(|r| (r.machine.0, r.hour));
            v
        };
        let daily = run_with_exec(&cfg, ExecConfig { shards: 1, emit_window_hours: 24 });
        let hourly = run_with_exec(&cfg, ExecConfig { shards: 1, emit_window_hours: 1 });
        let coarse = run_with_exec(&cfg, ExecConfig { shards: 1, emit_window_hours: 0 });
        assert_eq!(sorted(&daily), sorted(&hourly));
        assert_eq!(sorted(&daily), sorted(&coarse));
        assert_eq!(daily.counters.total, hourly.counters.total);
        assert_eq!(daily.jobs.len(), hourly.jobs.len());
    }

    #[test]
    fn federated_output_is_worker_count_invariant() {
        let cfg = SimConfig::baseline(ClusterSpec::tiny(), 6, 31);
        let sorted = |o: &SimOutput| {
            let mut v: Vec<_> = o.telemetry.iter().cloned().collect();
            v.sort_by_key(|r| (r.machine.0, r.hour));
            v
        };
        let two = run_with_exec(&cfg, ExecConfig { shards: 2, emit_window_hours: 24 });
        let four = run_with_exec(&cfg, ExecConfig { shards: 4, emit_window_hours: 24 });
        let all = run_with_exec(&cfg, ExecConfig { shards: 0, emit_window_hours: 24 });
        assert_eq!(sorted(&two), sorted(&four));
        assert_eq!(sorted(&two), sorted(&all));
        assert_eq!(two.counters.total, four.counters.total);
        assert_eq!(two.counters.total, all.counters.total);
        assert_eq!(two.jobs.len(), four.jobs.len());
        // Full grid: every machine-hour present after the merge.
        let spec = ClusterSpec::tiny();
        assert_eq!(two.telemetry.len(), spec.n_machines() * 6);
    }

    #[test]
    fn zero_task_stages_complete_without_hanging_jobs() {
        // A workload slice can round stages down to zero tasks; jobs must
        // still run to completion (the reference engine's historical
        // behavior was to leave such jobs dangling forever).
        let cluster = ClusterSpec::tiny();
        let mut cfg = SimConfig::baseline(cluster, 6, 37);
        for tpl in &mut cfg.workload.templates {
            if tpl.name == "ingest-hourly" {
                // First stage empty, second real: the job must skip ahead.
                if let Some(s) = tpl.stages.first_mut() {
                    s.tasks = 0;
                }
            }
        }
        let out = run(&cfg);
        let ingest = out.job_runtimes("ingest-hourly");
        assert!(!ingest.is_empty(), "empty leading stage must not hang the job");
        for r in &ingest {
            assert!(*r > 0.0);
        }
        // And a job that is *all* empty stages completes instantly
        // without being logged (it ran nothing). Isolate the template so
        // no other in-flight work muddies the end-of-run accounting.
        let mut cfg2 = SimConfig::baseline(ClusterSpec::tiny(), 4, 41);
        cfg2.workload.templates.retain(|t| t.name == "ingest-hourly");
        cfg2.workload.backlog = None;
        for tpl in &mut cfg2.workload.templates {
            for s in &mut tpl.stages {
                s.tasks = 0;
            }
        }
        let out2 = run(&cfg2);
        assert!(out2.job_runtimes("ingest-hourly").is_empty());
        assert_eq!(out2.jobs_in_flight_at_end, 0, "no dangling jobs");
        assert_eq!(out2.counters.total, 0);
    }
}
