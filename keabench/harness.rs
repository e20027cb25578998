//! What every workload shares: the run context that counts calls and
//! collects samples, the fixture, the traced fit probes, the restart
//! path, and the assembly of metrics from samples and spans.

use crate::metrics::{self, MetricDef, Stat};
use crate::trace::{self, Recorder};
use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{optimize_max_containers, OperatingPoint, PerformanceMonitor, YarnOptimization};
use kea_ml::LinearModel1D;
use kea_sim::{ClusterSpec, ExecConfig, SimConfig, SC1};
use kea_telemetry::{GroupKey, GroupUtilization, Metric, SyncStats, TelemetryStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Training-row floor for every fit.
pub const MIN_ROWS: usize = 24;
/// Conservative roll-out bound δ for every optimizer call.
pub const MAX_STEP: f64 = 1.0;
/// Size of one record in the store's on-disk codec.
pub const RECORD_BYTES: f64 = 127.0;
/// Sim workers. Federated output is identical for every worker count
/// other than 1, so two workers keep the inputs the same on any host;
/// keabench refuses to run on fewer than two CPUs.
pub const SIM_EXEC: ExecConfig = ExecConfig {
    shards: 2,
    emit_window_hours: 24,
};

/// Fixture size: `full` is what the benchmark measures, `smoke` a
/// ~150-machine version of every workload for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Inputs per run: each set-up builds one from a seed of its own,
    /// and the cycles take them in turn, so a run's medians do not hang
    /// on a single draw of the simulator.
    pub fn inputs(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Smoke => 2,
        }
    }

    /// Rounds per thread of one run of the calibration kernel.
    fn calibration_rounds(self) -> u32 {
        match self {
            Scale::Full => 1_000_000,
            Scale::Smoke => 20_000,
        }
    }
}

/// The calibration kernel's time per round on the reference host (the
/// one the README's baseline was measured on) when nothing else slows
/// it. Timings are reported at this speed.
pub const REFERENCE_NS_PER_ROUND: f64 = 14.0;

/// How fast the host runs right now: the time per round of a fixed
/// compute kernel, run on as many threads as the fits fan out to.
/// Each round steps four independent multiply-add chains and one
/// xorshift, so the kernel keeps the core's pipelines busy and slows
/// with everything that takes them away (another tenant on the core,
/// a descheduled virtual CPU). It touches no memory beyond registers,
/// so nothing the workload leaves behind changes it.
pub fn calibration_ns_per_round(rounds: u32) -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = |seed: u64| {
        let (mut a, mut b, mut c, mut d) = (1.0f64, 2.0f64, 3.0f64, 4.0f64);
        let mut h = seed | 1;
        for i in 0..rounds {
            let f = 1e-9 * f64::from(i);
            a = a.mul_add(1.000_000_1, f);
            b = b.mul_add(0.999_999_9, f);
            c = c.mul_add(1.000_000_2, f);
            d = d.mul_add(0.999_999_8, f);
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
        }
        std::hint::black_box((a, b, c, d, h));
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 1..threads {
            s.spawn(move || work(t as u64));
        }
        work(0);
    });
    start.elapsed().as_secs_f64() * 1e9 / f64::from(rounds)
}

/// The `sim_scale` fixture: the default catalog's per-SKU counts times
/// `mult` over 8 sub-clusters (`smoke` uses the catalog at 1/10 scale,
/// 150 machines), the default workload coarsened 8× by
/// `scaled_tasks`, with sampled task and job logs.
pub fn sim_config(scale: Scale, mult: u32, hours: u64, seed: u64) -> SimConfig {
    let mut skus = kea_sim::default_skus(match scale {
        Scale::Full => 1,
        Scale::Smoke => 10,
    });
    for s in &mut skus {
        s.machine_count *= match scale {
            Scale::Full => mult,
            Scale::Smoke => 1,
        };
    }
    let mut cfg = SimConfig::baseline(ClusterSpec::build(skus, 8), hours, seed);
    cfg.workload = cfg.workload.scaled_tasks(8);
    cfg.task_log_every = 1_000;
    cfg.adhoc_job_log_every = 64;
    cfg
}

/// Machine counts `n_k` of the cluster's SC1 groups.
pub fn sc1_counts(cfg: &SimConfig) -> BTreeMap<GroupKey, usize> {
    cfg.cluster
        .skus
        .iter()
        .map(|s| (GroupKey::new(s.id, SC1), s.machine_count as usize))
        .collect()
}

/// A seed for one purpose derived from the run's `--seed` (SplitMix64).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the syncs of one store wrote, for write amplification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTally {
    /// Records ingested before these syncs, which they made durable.
    pub records: u64,
    pub syncs: u64,
    pub rotations: u64,
    pub segments: u64,
    pub segment_bytes: u64,
    pub wal_bytes: u64,
}

impl StoreTally {
    pub fn add(&mut self, s: SyncStats) {
        self.syncs += 1;
        self.rotations += u64::from(s.rotated);
        self.segments += s.segments_written as u64;
        self.segment_bytes += s.segment_bytes;
        self.wal_bytes += s.wal_bytes;
    }

    /// (segment + WAL bytes) ÷ (records × codec size).
    pub fn write_amp(&self) -> f64 {
        (self.segment_bytes + self.wal_bytes) as f64 / (self.records as f64 * RECORD_BYTES)
    }
}

/// One traced fit replayed through public functions: how long the
/// fit took, how long collecting its training rows takes, and how long
/// the Huber fits on those rows take with the fit's own fan-out.
#[derive(Debug, Clone, Copy)]
pub struct FitProbe {
    pub fit_ms: f64,
    pub scan_ms: f64,
    pub huber_ms: f64,
}

/// What a restart produced: its plan and the monitor's group view.
pub type Restart = (YarnOptimization, Vec<GroupUtilization>);

/// Everything one workload run collects.
pub struct Ctx {
    pub rec: Recorder,
    pub seconds: f64,
    pub scale: Scale,
    pub dir: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    /// Failed calls, as `name: error`.
    pub errors: Vec<String>,
    /// Failed output checks.
    pub check_failures: Vec<String>,
    /// Set-up, cycle and restart times, each at reference host speed.
    pub setup_s: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    /// Wall time in ms of every pass, as measured, by pass name.
    pub wall_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Every calibration: the kernel's ns per round.
    pub calibrations: Vec<f64>,
    pub space_amp: Vec<f64>,
    pub probes: Vec<FitProbe>,
    pub peak_rss_mb: f64,
    /// Per-layer counts, from the last store, sim call and fit.
    pub tally: StoreTally,
    pub sim_tasks: u64,
    pub runs_live: usize,
    pub resident_runs: usize,
    pub whatif_rows: usize,
    pub digest: String,
}

impl Ctx {
    pub fn new(trace: bool, seconds: f64, scale: Scale, dir: PathBuf) -> Ctx {
        Ctx {
            rec: Recorder::new(trace),
            seconds,
            scale,
            dir,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            check_failures: Vec::new(),
            setup_s: Vec::new(),
            cycle_ms: Vec::new(),
            restart_ms: Vec::new(),
            wall_ms: BTreeMap::new(),
            calibrations: Vec::new(),
            space_amp: Vec::new(),
            probes: Vec::new(),
            peak_rss_mb: f64::NAN,
            tally: StoreTally::default(),
            sim_tasks: 0,
            runs_live: 0,
            resident_runs: 0,
            whatif_rows: 0,
            digest: String::new(),
        }
    }

    /// Runs an infallible layer call inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(name, f)
    }

    /// Runs a fallible layer call inside a span, counting it as
    /// attempted and, on `Err`, as failed.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        self.rec.span(name, f).map_err(|e| {
            self.failed += 1;
            format!("{name}: {e}")
        })
    }

    /// Runs `body` as one parent span (`setup`, `warmup`, `cycle` or
    /// `restart`) and returns its result with its time in ms at
    /// reference host speed: the wall time divided by how much slower
    /// than the reference the calibration kernel ran, on average, just
    /// before and just after it. A shared virtual host can slow by up
    /// to 2× for seconds to minutes at a time (README.md, "Bounds"); a
    /// pass's wall time and the kernels around it slow together, so the
    /// quotient holds still where the wall time does not.
    pub fn pass<T>(
        &mut self,
        name: &'static str,
        index: usize,
        body: impl FnOnce(&mut Ctx) -> Result<T, String>,
    ) -> (Result<T, String>, f64) {
        let before = self.calibrate();
        let open = self
            .rec
            .begin_pass(name, u32::try_from(index).unwrap_or(u32::MAX));
        let start = Instant::now();
        let out = body(self);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.rec.end(open);
        let after = self.calibrate();
        self.wall_ms.entry(name).or_default().push(ms);
        let slowdown = (before + after) / 2.0 / REFERENCE_NS_PER_ROUND;
        (out, ms / slowdown)
    }

    /// Runs the calibration kernel outside every span and keeps its
    /// time per round.
    fn calibrate(&mut self) -> f64 {
        let ns = calibration_ns_per_round(self.scale.calibration_rounds());
        self.calibrations.push(ns);
        ns
    }

    /// Records a failed call's error; the run continues.
    pub fn note<T>(&mut self, result: Result<T, String>) -> Option<T> {
        result.map_err(|e| self.errors.push(e)).ok()
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The median wall time of the passes named `name`, as measured.
    pub fn wall_median_ms(&self, name: &str) -> f64 {
        self.wall_ms
            .get(name)
            .map_or(f64::NAN, |v| Stat::median(v).value)
    }

    /// The host's median slowdown over the run: the calibration
    /// kernel's median time ÷ its reference time.
    pub fn host_slowdown(&self) -> f64 {
        Stat::median(&self.calibrations).value / REFERENCE_NS_PER_ROUND
    }

    /// Builds the run's inputs: `setup(ctx, k)` for every input `k`,
    /// each timed as one `setup_s` sample.
    pub fn setups<T>(
        &mut self,
        mut setup: impl FnMut(&mut Ctx, u64) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut inputs = Vec::new();
        for k in 0..self.scale.inputs() {
            let (input, ms) = self.pass("setup", k, |ctx| setup(ctx, k as u64));
            self.setup_s.push(ms / 1e3);
            inputs.push(input?);
        }
        Ok(inputs)
    }

    /// Calls `body(ctx, i)` for i = 0, 1, … until at least `min` calls
    /// have run and `--seconds` have elapsed since the first. A failed
    /// call is recorded and the loop goes on.
    pub fn repeat(
        &mut self,
        min: usize,
        mut body: impl FnMut(&mut Ctx, usize) -> Result<(), String>,
    ) {
        let start = Instant::now();
        let mut i = 0;
        while i < min || start.elapsed().as_secs_f64() < self.seconds {
            let result = body(self, i);
            self.note(result);
            i += 1;
        }
    }

    /// Fits the What-if Engine (Huber, `MIN_ROWS`). In a traced run the
    /// fit's inputs are then replayed through public functions, so the
    /// fit's time splits into row collection, IRLS, and the rest.
    pub fn fit(
        &mut self,
        store: &TelemetryStore,
        granularity: Granularity,
    ) -> Result<WhatIfEngine, String> {
        let monitor = PerformanceMonitor::new(store);
        let start = Instant::now();
        let engine = self.call("whatif.fit", || {
            WhatIfEngine::fit_at(&monitor, FitMethod::Huber, granularity, MIN_ROWS)
        })?;
        let fit_ms = start.elapsed().as_secs_f64() * 1e3;
        self.whatif_rows = engine.groups().map(|g| g.n_rows).sum();
        if self.rec.enabled() {
            let start = Instant::now();
            let rows = match granularity {
                Granularity::Hourly => self.span("store.by_group_scan", || hourly_rows(store)),
                Granularity::Daily => self.span("aggregate.daily_scan", || daily_rows(store)),
            };
            let scan_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            self.span("ml.fit_huber", || fit_huber_fan_out(&rows));
            let huber_ms = start.elapsed().as_secs_f64() * 1e3;
            self.probes.push(FitProbe {
                fit_ms,
                scan_ms,
                huber_ms,
            });
        }
        Ok(engine)
    }

    /// The paper's plan at the median operating point.
    pub fn optimize(
        &mut self,
        engine: &WhatIfEngine,
        counts: &BTreeMap<GroupKey, usize>,
    ) -> Result<YarnOptimization, String> {
        self.call("optimizer.optimize", || {
            optimize_max_containers(engine, counts, MAX_STEP, OperatingPoint::Median)
        })
    }

    /// Syncs `store`, adding what the sync wrote to `tally`.
    pub fn sync(
        &mut self,
        store: &mut TelemetryStore,
        tally: &mut StoreTally,
    ) -> Result<(), String> {
        let stats = self.call("persist.sync", || store.sync())?;
        tally.add(stats);
        Ok(())
    }

    /// One restart from the synced store at `dir`, timed as
    /// `restart_to_plan`: open → verify → monitor roll-ups → fit →
    /// optimize. Returns the plan and the group utilization view.
    pub fn restart(
        &mut self,
        dir: &Path,
        granularity: Granularity,
        counts: &BTreeMap<GroupKey, usize>,
    ) -> Result<Restart, String> {
        let (result, ms) = self.pass("restart", self.restart_ms.len(), |ctx| {
            let store = ctx.call("persist.open", || TelemetryStore::open(dir))?;
            ctx.call("persist.verify", || store.verify())?;
            let monitor = PerformanceMonitor::new(&store);
            let view = ctx.span("aggregate.group_utilization", || {
                monitor.group_utilization()
            });
            ctx.call("aggregate.fleet_series", || {
                monitor.hourly_fleet_series(Metric::CpuUtilization)
            })?;
            let engine = ctx.fit(&store, granularity)?;
            let plan = ctx.optimize(&engine, counts)?;
            Ok((plan, view, store))
        });
        let (plan, view, store) = result?;
        self.restart_ms.push(ms);
        drop(store); // outside the timed restart
        Ok((plan, view))
    }

    /// Ends the measured part of the run: records the process's peak
    /// resident set before any output check allocates.
    pub fn finish_measuring(&mut self) {
        self.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    }

    /// Output checks shared by all workloads: every restart's plan
    /// equals the live plan, and the monitor sees every SC1 machine.
    pub fn check_restarts(
        &mut self,
        live: &YarnOptimization,
        restarts: &[Restart],
        counts: &BTreeMap<GroupKey, usize>,
    ) {
        for (i, (plan, view)) in restarts.iter().enumerate() {
            self.check(plan.steps() == live.steps(), || {
                format!(
                    "restart {i} plan {:?} differs from the live plan {:?}",
                    plan.steps(),
                    live.steps()
                )
            });
            for (group, &n) in counts {
                let seen = view
                    .iter()
                    .find(|u| u.group == *group)
                    .map_or(0, |u| u.machines);
                self.check(seen == n, || {
                    format!("restart {i}: {group:?} shows {seen} machines, cluster has {n}")
                });
            }
        }
    }

    /// Checks a plan against the reference optimizer and its own
    /// latency budget.
    pub fn check_plan(
        &mut self,
        engine: &WhatIfEngine,
        counts: &BTreeMap<GroupKey, usize>,
        plan: &YarnOptimization,
    ) {
        match kea_core::optimizer::reference::optimize_max_containers(
            engine,
            counts,
            MAX_STEP,
            OperatingPoint::Median,
        ) {
            Ok(reference) => self.check(reference.steps() == plan.steps(), || {
                format!(
                    "plan {:?} differs from the reference optimizer's {:?}",
                    plan.steps(),
                    reference.steps()
                )
            }),
            Err(e) => self.check(false, || format!("reference optimizer failed: {e}")),
        }
        self.check(
            plan.predicted_latency <= plan.baseline_latency * (1.0 + 1e-9),
            || {
                format!(
                    "plan predicts latency {} above the baseline {}",
                    plan.predicted_latency, plan.baseline_latency
                )
            },
        );
    }
}

/// Training rows per group: (containers, util, tasks, latency).
type Rows = Vec<(GroupKey, Vec<[f64; 4]>)>;

fn push_row(rows: &mut Rows, group: GroupKey, row: [f64; 4]) {
    match rows.last_mut() {
        Some((g, r)) if *g == group => r.push(row),
        _ => rows.push((group, vec![row])),
    }
}

/// The hourly fit's row collection: every group's records with
/// finished tasks, in `by_group` order.
fn hourly_rows(store: &TelemetryStore) -> Rows {
    let mut rows = Rows::new();
    for group in store.groups() {
        for r in store.by_group(group) {
            let m = &r.metrics;
            if m.tasks_finished > 0.0 {
                push_row(
                    &mut rows,
                    group,
                    [
                        m.avg_running_containers,
                        m.cpu_utilization,
                        m.tasks_finished,
                        m.avg_task_latency_s,
                    ],
                );
            }
        }
    }
    rows.retain(|(_, r)| r.len() >= MIN_ROWS);
    rows
}

/// The daily fit's row collection: daily per-machine aggregates with
/// finished tasks.
fn daily_rows(store: &TelemetryStore) -> Rows {
    let mut rows = Rows::new();
    for a in kea_telemetry::daily_group_aggregates(store) {
        if a.mean(Metric::NumberOfTasks) > 0.0 {
            let row = [
                a.mean(Metric::AverageRunningContainers),
                a.mean(Metric::CpuUtilization),
                a.mean(Metric::NumberOfTasks),
                a.mean(Metric::AverageTaskLatency),
            ];
            push_row(&mut rows, a.group, row);
        }
    }
    rows.retain(|(_, r)| r.len() >= MIN_ROWS);
    rows
}

/// The three Huber fits per group (g, h, f), spread over the same
/// work-stealing fan-out as `WhatIfEngine::fit_at`.
fn fit_huber_fan_out(rows: &Rows) {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, rows.len().max(1));
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some((_, r)) = rows.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let col = |i: usize| r.iter().map(|row| row[i]).collect::<Vec<f64>>();
            let (containers, util, tasks, latency) = (col(0), col(1), col(2), col(3));
            for (x, y) in [(&containers, &util), (&util, &tasks), (&util, &latency)] {
                let _ = std::hint::black_box(LinearModel1D::fit_huber(x, y));
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
}

/// `VmHWM` of this process in MiB (Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Store directory bytes ÷ (records × codec size).
pub fn space_amp(dir: &Path, records: usize) -> f64 {
    dir_bytes(dir) as f64 / (records as f64 * RECORD_BYTES)
}

/// Integer-only fingerprint of a workload's inputs and result: tasks
/// simulated, records, fitted groups, per-group training rows, and plan
/// steps.
pub fn digest(
    tasks: u64,
    records: usize,
    engine: &WhatIfEngine,
    plan: &YarnOptimization,
) -> String {
    let key = |g: GroupKey| format!("{}.{}", g.sku.0, g.sc.0);
    let rows: Vec<String> = engine
        .groups()
        .map(|g| format!("{}:{}", key(g.group), g.n_rows))
        .collect();
    let steps: Vec<String> = plan
        .steps()
        .into_iter()
        .map(|(g, s)| format!("{}:{s:+}", key(g)))
        .collect();
    format!(
        "tasks={tasks} records={records} groups={} rows=[{}] steps=[{}]",
        engine.len(),
        rows.join(","),
        steps.join(",")
    )
}

/// FNV-1a 64 of a digest string, for a compact comparison.
pub fn fingerprint(digest: &str) -> String {
    let hash = digest.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Every end-to-end metric, from an untraced run's samples.
pub fn end_to_end(ctx: &Ctx) -> Vec<(&'static MetricDef, Stat)> {
    metrics::END_TO_END
        .iter()
        .map(|m| {
            let stat = match m.name {
                "setup_s" => Stat::median(&ctx.setup_s),
                "cycle_ms" => Stat::median(&ctx.cycle_ms),
                "restart_to_plan_ms" => Stat::median(&ctx.restart_ms),
                "space_amp" => Stat::median(&ctx.space_amp),
                "peak_rss_mb" => Stat::exact(ctx.peak_rss_mb),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m, stat)
        })
        .collect()
}

/// Monitor roll-up spans (the probes' row replays are not roll-ups).
const ROLLUPS: [&str; 4] = [
    "aggregate.group_utilization",
    "aggregate.fleet_series",
    "aggregate.daily_window",
    "aggregate.fleet_series_window",
];

/// Every per-layer metric, from a traced run's spans and counts.
pub fn per_layer(ctx: &Ctx) -> Vec<(&'static MetricDef, Stat)> {
    let spans = ctx.rec.spans();
    let median_of = |name: &str| Stat::median(&trace::durations_ms(spans, name));
    let probe =
        |f: fn(&FitProbe) -> f64| Stat::median(&ctx.probes.iter().map(f).collect::<Vec<_>>());
    let count = |v: u64| Stat::exact(v as f64);
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            let stat = match m.name {
                "sim.run_ms" => median_of("sim.run"),
                "sim.tasks" => count(ctx.sim_tasks),
                "store.extend_ms" => median_of("store.extend"),
                "store.runs_live" => count(ctx.runs_live as u64),
                "store.resident_runs" => count(ctx.resident_runs as u64),
                "persist.sync_ms_p50" => median_of("persist.sync"),
                "persist.sync_ms_p98" => {
                    Stat::quantile(&trace::durations_ms(spans, "persist.sync"), 0.98)
                }
                "persist.open_ms" => median_of("persist.open"),
                "persist.verify_ms" => median_of("persist.verify"),
                "persist.sync_calls" => count(ctx.tally.syncs),
                "persist.rotations" => count(ctx.tally.rotations),
                "persist.segments_written" => count(ctx.tally.segments),
                "persist.segment_bytes" => count(ctx.tally.segment_bytes),
                "persist.wal_bytes" => count(ctx.tally.wal_bytes),
                "persist.write_amp" => Stat::exact(ctx.tally.write_amp()),
                "aggregate.rollup_ms" => {
                    let all: Vec<f64> = ROLLUPS
                        .iter()
                        .flat_map(|n| trace::durations_ms(spans, n))
                        .collect();
                    let mean = all.iter().sum::<f64>() / all.len() as f64;
                    Stat {
                        value: mean,
                        ..Stat::median(&all)
                    }
                }
                "whatif.fit_ms" => median_of("whatif.fit"),
                "whatif.input_scan_ms" => probe(|p| p.scan_ms),
                "whatif.fit_rest_ms" => probe(|p| p.fit_ms - p.scan_ms - p.huber_ms),
                "whatif.rows" => count(ctx.whatif_rows as u64),
                "ml.fit_huber_ms" => probe(|p| p.huber_ms),
                "optimizer.solve_ms" => {
                    let mut all = trace::durations_ms(spans, "optimizer.optimize");
                    all.extend(trace::durations_ms(spans, "optimizer.sweep"));
                    Stat::median(&all)
                }
                "harness.unattributed_share" => Stat::exact(trace::unattributed_share(spans)),
                "harness.host_slowdown" => Stat::median(
                    &ctx.calibrations
                        .iter()
                        .map(|ns| ns / REFERENCE_NS_PER_ROUND)
                        .collect::<Vec<_>>(),
                ),
                other => unreachable!("per-layer metric {other} has no source"),
            };
            (m, stat)
        })
        .collect()
}
