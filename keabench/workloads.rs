//! The three workloads. Each set-up builds one input from a seed of its
//! own (the `setup_s` samples); the cycles then take the inputs in
//! turn for `--seconds`, each cycle followed by a restart from its
//! durable store. Output checks run after the measured part.
//!
//! Load is a closed loop with one caller: every cycle, hour batch and
//! restart starts when the previous call returns, on simulated time.

use crate::harness::{
    derive_seed, digest, sc1_counts, sim_config, space_amp, Ctx, Scale, StoreTally, MAX_STEP,
    SIM_EXEC,
};
use kea_core::whatif::{Granularity, WhatIfEngine};
use kea_core::{
    optimize_max_containers, optimize_sweep, OperatingPoint, PerformanceMonitor, YarnOptimization,
};
use kea_sim::{run_with_exec, ConfigPatch, Flight, SimConfig, SC2};
use kea_telemetry::{
    daily_group_aggregates, daily_group_aggregates_window, hourly_fleet_series_window,
    DailyAggregate, GroupKey, MachineHourRecord, Metric, TelemetryStore,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    FleetDay,
    MonthRetune,
    FitWeek,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FleetDay, Workload::MonthRetune, Workload::FitWeek];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet_day",
            Workload::MonthRetune => "month_retune",
            Workload::FitWeek => "fit_week",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload into `ctx`.
    pub fn run(self, ctx: &mut Ctx, seed: u64) {
        match self {
            Workload::FleetDay => fleet_day(ctx, seed),
            Workload::MonthRetune => month_retune(ctx, seed),
            Workload::FitWeek => fit_week(ctx, seed),
        }
    }
}

fn hours(scale: Scale, full: u64) -> u64 {
    match scale {
        Scale::Full => full,
        Scale::Smoke => 48,
    }
}

/// Compares two daily roll-ups to 1e-9 relative per metric.
fn aggregates_match(got: &[DailyAggregate], want: &[DailyAggregate]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} daily aggregates, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        if (g.machine, g.group, g.day, g.hours_observed)
            != (w.machine, w.group, w.day, w.hours_observed)
        {
            return Err(format!(
                "aggregate key {:?} != {:?}",
                (g.machine, g.group, g.day),
                (w.machine, w.group, w.day)
            ));
        }
        for m in Metric::ALL {
            let (a, b) = (g.mean(m), w.mean(m));
            if (a - b).abs() > 1e-9 * a.abs().max(b.abs()).max(1e-300) {
                return Err(format!("{:?} day {} {m}: {a} != {b}", g.machine, g.day));
            }
        }
    }
    Ok(())
}

/// Records that every repetition of one input gives the same digest,
/// and keeps the first.
fn same_digest(ctx: &mut Ctx, kept: &mut Option<String>, d: String, what: &str) {
    match kept {
        None => *kept = Some(d),
        Some(d0) => ctx.check(*d0 == d, || format!("{what}: digest {d} differs from {d0}")),
    }
}

/// The run's digest: every input's, in input order. An input that
/// never ran fails the run.
fn join_digests(ctx: &mut Ctx, digests: Vec<Option<String>>) {
    let n = digests.len();
    let ran: Vec<String> = digests.into_iter().flatten().collect();
    ctx.check(ran.len() == n, || {
        format!("only {} of {n} inputs completed a cycle", ran.len())
    });
    ctx.digest = ran.join(" | ");
}

// ---------------------------------------------------------------------
// fleet_day: the one-shot tuning pass at fleet scale
// ---------------------------------------------------------------------

/// 12,000 machines: the default catalog × 8.
const FLEET_DAY_MULT: u32 = 8;

/// Ten concurrent flights jointly covering a quarter of the fleet over
/// the middle half of the day, each moving its machines to SC2 (so the
/// telemetry holds SC1 and SC2 groups) — a tuning service running
/// several A/B tests at once.
fn add_flights(cfg: &mut SimConfig) {
    const FLIGHTS: usize = 10;
    const STEP: usize = 40; // every 40th machine per flight: 10/40 = 25%
    let hours = cfg.duration_hours;
    for f in 0..FLIGHTS {
        let machines: BTreeSet<_> = cfg
            .cluster
            .machines
            .iter()
            .skip(f)
            .step_by(STEP)
            .map(|m| m.id)
            .collect();
        cfg.plan.add_flight(Flight {
            label: format!("keabench-flight-{f}"),
            machines,
            start_hour: hours / 4,
            end_hour: hours - hours / 4,
            patch: ConfigPatch {
                power_cap_fraction: Some(0.05 + 0.05 * (f % 3) as f64),
                feature_on: Some(f % 2 == 0),
                sc: Some(SC2),
                ..ConfigPatch::default()
            },
        });
    }
}

/// One fleet_day input: the day to simulate, the daily roll-up of its
/// in-memory telemetry (what every pass's store is checked against),
/// and the last pass's store, engine and plan.
struct FleetInput {
    cfg: SimConfig,
    counts: BTreeMap<GroupKey, usize>,
    expected: Vec<DailyAggregate>,
    digest: Option<String>,
    last: Option<(PathBuf, WhatIfEngine, YarnOptimization)>,
}

/// A set-up builds the fleet and simulates its day once. Each cycle is
/// one full tuning pass on the next input: simulate the day → open a
/// fresh durable store → ingest every record → seal → sync → monitor
/// roll-ups → Daily fit → plan. A restart from the pass's store follows
/// each pass.
fn fleet_day(ctx: &mut Ctx, seed: u64) {
    let scale = ctx.scale;
    let inputs = ctx.setups(|ctx, k| {
        let mut cfg = sim_config(scale, FLEET_DAY_MULT, 24, derive_seed(seed, 10 + k));
        add_flights(&mut cfg);
        let out = ctx.span("sim.run", || run_with_exec(&cfg, SIM_EXEC));
        Ok(FleetInput {
            counts: sc1_counts(&cfg),
            expected: daily_group_aggregates(&out.telemetry),
            cfg,
            digest: None,
            last: None,
        })
    });
    let Some(mut inputs) = ctx.note(inputs) else {
        return;
    };

    let n_inputs = inputs.len();
    ctx.repeat(n_inputs, |ctx, i| {
        let input = &mut inputs[i % n_inputs];
        let expected_records = input.cfg.cluster.n_machines() * 24;
        let dir = ctx.dir.join(format!("pass-{i}"));
        let (result, ms) = ctx.pass("cycle", i, |ctx| {
            let out = ctx.span("sim.run", || run_with_exec(&input.cfg, SIM_EXEC));
            let mut store = ctx.call("persist.create", || TelemetryStore::open(&dir))?;
            let rejected = ctx.span("store.extend", || {
                store.extend_validated(out.telemetry.iter().copied())
            });
            ctx.span("store.seal", || store.seal());
            let mut tally = StoreTally::default();
            ctx.sync(&mut store, &mut tally)?;
            let monitor = PerformanceMonitor::new(&store);
            ctx.span("aggregate.group_utilization", || {
                monitor.group_utilization()
            });
            ctx.call("aggregate.fleet_series", || {
                monitor.hourly_fleet_series(Metric::CpuUtilization)
            })?;
            let engine = ctx.fit(&store, Granularity::Daily)?;
            let plan = ctx.optimize(&engine, &input.counts)?;
            Ok((out, store, rejected, tally, engine, plan))
        });
        let (out, store, rejected, mut tally, engine, plan) = result?;
        ctx.cycle_ms.push(ms);

        let records = store.len();
        ctx.check(records == expected_records && rejected == 0, || {
            format!(
                "pass {i}: {records} records ({rejected} rejected), expected {expected_records}"
            )
        });
        ctx.space_amp.push(space_amp(&dir, records));
        tally.records = records as u64;
        (ctx.tally, ctx.sim_tasks) = (tally, out.counters.total);
        (ctx.runs_live, ctx.resident_runs) = (store.run_count(), store.resident_runs());
        let d = digest(ctx.sim_tasks, records, &engine, &plan);
        same_digest(ctx, &mut input.digest, d, &format!("pass {i}"));
        drop((out, store));
        let restart = ctx.restart(&dir, Granularity::Daily, &input.counts)?;
        ctx.check_restarts(&plan, &[restart], &input.counts);
        if let Some((old, ..)) = input.last.replace((dir, engine, plan)) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(())
    });
    ctx.finish_measuring();

    let mut digests = Vec::new();
    for input in inputs {
        digests.push(input.digest);
        let Some((dir, engine, plan)) = input.last else {
            continue;
        };
        let expected_records = input.cfg.cluster.n_machines() * 24;
        ctx.check_plan(&engine, &input.counts, &plan);
        match TelemetryStore::open(&dir) {
            Ok(store) => {
                ctx.check(store.len() == expected_records, || {
                    format!("reopened store holds {} records", store.len())
                });
                let matched = aggregates_match(&daily_group_aggregates(&store), &input.expected);
                ctx.check(matched.is_ok(), || {
                    format!("reopened store vs sim telemetry: {}", matched.unwrap_err())
                });
            }
            Err(e) => ctx.check(false, || format!("reopen for checks: {e}")),
        }
    }
    join_digests(ctx, digests);
}

// ---------------------------------------------------------------------
// month_retune: continuous tuning on one durable store
// ---------------------------------------------------------------------

/// Hours per retune cycle.
const RETUNE_EVERY: u64 = 6;
/// Trailing window of the retune's roll-ups.
const WINDOW_HOURS: u64 = 168;
/// Restarts after each replay of the tail: one replay gives only a few
/// restart samples, so each gives several.
const RESTARTS_PER_REPLAY: usize = 3;
/// Hours replayed, with their retunes, in the measured part; the hours
/// before them are replayed in the set-up.
fn tail_hours(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 48,
        Scale::Smoke => 24,
    }
}

fn ingest_hour(
    ctx: &mut Ctx,
    store: &mut TelemetryStore,
    tally: &mut StoreTally,
    batch: &[MachineHourRecord],
    hour: u64,
) -> Result<usize, String> {
    let rejected = ctx.span("store.extend", || {
        store.extend_validated(batch.iter().copied())
    });
    tally.records += batch.len() as u64;
    if (hour + 1).is_multiple_of(24) {
        ctx.span("store.seal", || store.seal());
    }
    ctx.sync(store, tally)?;
    Ok(rejected)
}

/// Copies a closed store's directory (its files are flat).
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// One month_retune input: the store as it stands after the set-up's
/// replay, the hour batches of the trailing window (which hold the
/// tail the cycles replay), and what the last replay of the tail gave.
struct MonthInput {
    counts: BTreeMap<GroupKey, usize>,
    machines: usize,
    sim_tasks: u64,
    base: PathBuf,
    /// Batches of hours `window_start..n_hours`.
    window: Vec<Vec<MachineHourRecord>>,
    digest: Option<String>,
    last: Option<(Vec<DailyAggregate>, WhatIfEngine, YarnOptimization)>,
}

/// A set-up simulates a month and replays all but its last two days
/// hour by hour into an empty durable store, as a service would have
/// ingested them: one `extend_validated` + `sync` per hour, `seal` at
/// day close. The measured part then repeats the month's end on the
/// next input: a copy of the set-up's store is opened, and each cycle
/// ingests 6 more hours and retunes — trailing-week roll-ups, a Daily
/// fit over all retained history, and a plan. Restarts from the
/// finished store follow each replay of the tail.
fn month_retune(ctx: &mut Ctx, seed: u64) {
    let scale = ctx.scale;
    let n_hours = hours(scale, 720);
    let base_hours = n_hours - tail_hours(scale);
    let window_start = n_hours.saturating_sub(WINDOW_HOURS);
    let inputs = ctx.setups(|ctx, k| {
        let cfg = sim_config(scale, 1, n_hours, derive_seed(seed, 20 + k));
        let out = ctx.span("sim.run", || run_with_exec(&cfg, SIM_EXEC));
        let mut by_hour: Vec<Vec<MachineHourRecord>> = vec![Vec::new(); n_hours as usize];
        for r in out.telemetry.iter() {
            by_hour[r.hour as usize].push(*r);
        }
        let sim_tasks = out.counters.total;
        drop(out);
        let base = ctx.dir.join(format!("month-base-{k}"));
        let mut store = ctx.call("persist.create", || TelemetryStore::open(&base))?;
        let mut tally = StoreTally::default();
        let mut rejected = 0;
        for h in 0..base_hours {
            rejected += ingest_hour(ctx, &mut store, &mut tally, &by_hour[h as usize], h)?;
        }
        if rejected != 0 {
            return Err(format!("set-up {k}: {rejected} records rejected"));
        }
        Ok(MonthInput {
            counts: sc1_counts(&cfg),
            machines: cfg.cluster.n_machines(),
            sim_tasks,
            base,
            window: by_hour.split_off(window_start as usize),
            digest: None,
            last: None,
        })
    });
    let Some(mut inputs) = ctx.note(inputs) else {
        return;
    };

    let n_inputs = inputs.len();
    ctx.repeat(n_inputs, |ctx, e| {
        let input = &mut inputs[e % n_inputs];
        let dir = ctx.dir.join(format!("month-{e}"));
        copy_store(&input.base, &dir)?;
        let (store, _) = ctx.pass("warmup", e, |ctx| {
            ctx.call("persist.open", || TelemetryStore::open(&dir))
        });
        let mut store = store?;
        let mut tally = StoreTally::default();
        let mut rejected = 0;
        let mut retune = None;
        for c in base_hours / RETUNE_EVERY..n_hours / RETUNE_EVERY {
            let end = (c + 1) * RETUNE_EVERY;
            let (result, ms) = ctx.pass("cycle", c as usize, |ctx| {
                for h in c * RETUNE_EVERY..end {
                    let batch = &input.window[(h - window_start) as usize];
                    rejected += ingest_hour(ctx, &mut store, &mut tally, batch, h)?;
                }
                let start = end.saturating_sub(WINDOW_HOURS);
                let window = ctx.span("aggregate.daily_window", || {
                    daily_group_aggregates_window(&store, start, end)
                });
                ctx.span("aggregate.fleet_series_window", || {
                    hourly_fleet_series_window(&store, Metric::CpuUtilization, start, end)
                });
                let engine = ctx.fit(&store, Granularity::Daily)?;
                let plan = ctx.optimize(&engine, &input.counts)?;
                Ok((window, engine, plan))
            });
            retune = Some(result?);
            ctx.cycle_ms.push(ms);
        }
        let (window, engine, plan) = retune.ok_or("the month has no retune")?;

        let records = store.len();
        let expected_records = input.machines * n_hours as usize;
        ctx.check(records == expected_records && rejected == 0, || {
            format!(
                "replay {e}: {records} records ({rejected} rejected), expected {expected_records}"
            )
        });
        ctx.space_amp.push(space_amp(&dir, records));
        (ctx.tally, ctx.sim_tasks) = (tally, input.sim_tasks);
        (ctx.runs_live, ctx.resident_runs) = (store.run_count(), store.resident_runs());
        let d = digest(input.sim_tasks, records, &engine, &plan);
        same_digest(ctx, &mut input.digest, d, &format!("replay {e}"));
        drop(store);
        let mut restarts = Vec::new();
        for _ in 0..RESTARTS_PER_REPLAY {
            restarts.push(ctx.restart(&dir, Granularity::Daily, &input.counts)?);
        }
        ctx.check_restarts(&plan, &restarts, &input.counts);
        let _ = std::fs::remove_dir_all(&dir);
        input.last = Some((window, engine, plan));
        Ok(())
    });
    ctx.finish_measuring();

    let mut digests = Vec::new();
    for input in inputs {
        digests.push(input.digest);
        let Some((window, engine, plan)) = input.last else {
            continue;
        };
        ctx.check_plan(&engine, &input.counts, &plan);
        let mut reference = kea_telemetry::store::reference::TelemetryStore::new();
        reference.extend(input.window.into_iter().flatten());
        let expected = kea_telemetry::aggregate::reference::daily_group_aggregates_window(
            &reference,
            window_start,
            n_hours,
        );
        let matched = aggregates_match(&window, &expected);
        ctx.check(matched.is_ok(), || {
            format!(
                "last retune's window vs reference: {}",
                matched.unwrap_err()
            )
        });
    }
    join_digests(ctx, digests);
}

// ---------------------------------------------------------------------
// fit_week: the hourly calibration
// ---------------------------------------------------------------------

/// 3,000 machines: the default catalog × 2.
const FIT_WEEK_MULT: u32 = 2;

/// The Median plan and its sensitivity percentiles.
const SWEEP: [OperatingPoint; 6] = [
    OperatingPoint::Median,
    OperatingPoint::Percentile(50.0),
    OperatingPoint::Percentile(60.0),
    OperatingPoint::Percentile(70.0),
    OperatingPoint::Percentile(80.0),
    OperatingPoint::Percentile(90.0),
];

/// One fit_week input: a sealed, synced week and the first cycle's
/// engine and sweep on it.
struct WeekInput {
    counts: BTreeMap<GroupKey, usize>,
    sim_tasks: u64,
    store: TelemetryStore,
    dir: PathBuf,
    first: Option<(WhatIfEngine, Vec<YarnOptimization>)>,
}

/// A set-up simulates a week into a sealed, synced durable store. Each
/// cycle fits the next input hourly and sweeps the plan over six
/// operating points; a restart from that input's directory follows
/// (the live store is idle, so a second reader sees exactly the synced
/// week).
fn fit_week(ctx: &mut Ctx, seed: u64) {
    let scale = ctx.scale;
    let n_hours = hours(scale, 168);
    let inputs = ctx.setups(|ctx, k| {
        let cfg = sim_config(scale, FIT_WEEK_MULT, n_hours, derive_seed(seed, 30 + k));
        let out = ctx.span("sim.run", || run_with_exec(&cfg, SIM_EXEC));
        let dir = ctx.dir.join(format!("week-{k}"));
        let mut store = ctx.call("persist.create", || TelemetryStore::open(&dir))?;
        let rejected = ctx.span("store.extend", || {
            store.extend_validated(out.telemetry.iter().copied())
        });
        let sim_tasks = out.counters.total;
        drop(out);
        ctx.span("store.seal", || store.seal());
        let mut tally = StoreTally {
            records: store.len() as u64,
            ..StoreTally::default()
        };
        ctx.sync(&mut store, &mut tally)?;
        let expected = cfg.cluster.n_machines() * n_hours as usize;
        if store.len() != expected || rejected != 0 {
            return Err(format!(
                "set-up {k}: {} records ({rejected} rejected), expected {expected}",
                store.len()
            ));
        }
        (ctx.tally, ctx.sim_tasks) = (tally, sim_tasks);
        Ok(WeekInput {
            counts: sc1_counts(&cfg),
            sim_tasks,
            store,
            dir,
            first: None,
        })
    });
    let Some(mut inputs) = ctx.note(inputs) else {
        return;
    };

    let n_inputs = inputs.len();
    ctx.repeat(n_inputs, |ctx, i| {
        let input = &mut inputs[i % n_inputs];
        let (result, ms) = ctx.pass("cycle", i, |ctx| {
            let engine = ctx.fit(&input.store, Granularity::Hourly)?;
            let plans = ctx.call("optimizer.sweep", || {
                optimize_sweep(&engine, &input.counts, MAX_STEP, &SWEEP)
            })?;
            Ok((engine, plans))
        });
        let (engine, plans) = result?;
        ctx.cycle_ms.push(ms);
        let restart = ctx.restart(&input.dir, Granularity::Hourly, &input.counts)?;
        ctx.check_restarts(&plans[0], &[restart], &input.counts);
        match &input.first {
            None => input.first = Some((engine, plans)),
            Some((e0, p0)) => ctx.check(engine == *e0 && plans == *p0, || {
                format!("cycle {i}'s engine or sweep differs from the input's first")
            }),
        }
        Ok(())
    });
    if let Some(input) = inputs.last() {
        ctx.space_amp.push(space_amp(&input.dir, input.store.len()));
        (ctx.runs_live, ctx.resident_runs) = (input.store.run_count(), input.store.resident_runs());
    }
    ctx.finish_measuring();

    let mut digests = Vec::new();
    for input in inputs {
        let Some((engine, plans)) = input.first else {
            digests.push(None);
            continue;
        };
        let records = input.store.len();
        drop(input.store);
        digests.push(Some(digest(input.sim_tasks, records, &engine, &plans[0])));
        ctx.check_plan(&engine, &input.counts, &plans[0]);
        for (at, warm) in SWEEP.iter().zip(&plans) {
            let agreed = optimize_max_containers(&engine, &input.counts, MAX_STEP, *at)
                .map_err(|e| e.to_string())
                .and_then(|cold| plans_agree(warm, &cold));
            ctx.check(agreed.is_ok(), || {
                format!(
                    "sweep point {at:?} vs a cold solve: {}",
                    agreed.unwrap_err()
                )
            });
        }
    }
    join_digests(ctx, digests);
}

/// A warm-started plan agrees with a cold one when every step is equal
/// and the continuous optimum and predicted latency match to 1e-9 (the
/// warm start may take another pivot path to the same optimum).
fn plans_agree(warm: &YarnOptimization, cold: &YarnOptimization) -> Result<(), String> {
    if warm.steps() != cold.steps() {
        return Err(format!("steps {:?} vs {:?}", warm.steps(), cold.steps()));
    }
    for (w, c) in warm.suggestions.iter().zip(&cold.suggestions) {
        if (w.delta_continuous - c.delta_continuous).abs() >= 1e-9 {
            return Err(format!(
                "{:?} continuous step {} vs {}",
                w.group, w.delta_continuous, c.delta_continuous
            ));
        }
    }
    if (warm.predicted_latency - cold.predicted_latency).abs()
        >= 1e-9 * cold.predicted_latency.abs().max(1.0)
    {
        return Err(format!(
            "predicted latency {} vs {}",
            warm.predicted_latency, cold.predicted_latency
        ));
    }
    Ok(())
}
