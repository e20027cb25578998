//! `kea` — the command-line front door to the KEA reproduction.
//!
//! ```text
//! kea observe  --hours 48 --out telemetry.csv     # simulate + export telemetry
//! kea models   --telemetry telemetry.csv          # calibrate the What-if Engine
//! kea optimize --telemetry telemetry.csv          # solve the YARN LP on it
//! kea yarn                                        # full observational pipeline
//! kea sku-design                                  # hypothetical tuning (§6.1)
//! kea power                                       # power-capping study (§7.2)
//! kea sc                                          # SC1-vs-SC2 experiment (§7.1)
//! kea queues                                      # queue-length tuning (§5.3)
//! kea value --machines 300000 --gain-pct 2        # capacity gain → $/year
//! ```
//!
//! Run `kea <command> --help` (or no args) for per-command flags. Every
//! command is deterministic given `--seed`.

use kea_core::apps::power_capping::{run_power_capping, PowerCappingParams};
use kea_core::apps::queue_tuning::{run_queue_tuning, QueueTuningParams};
use kea_core::apps::sc_selection::{run_sc_selection, ScSelectionParams};
use kea_core::apps::sku_design::{run_sku_design, CostModel, SkuDesignParams};
use kea_core::apps::yarn_config::{run_yarn_tuning, YarnTuningParams};
use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{
    capacity_gain_value, tune, FleetCostModel, OperatingPoint, PerformanceMonitor, TunePolicy,
};
use kea_sim::{check_run, run, ClusterSpec, SimConfig, WorkloadSpec, SC1};
use kea_telemetry::{read_csv, write_csv, GroupKey, SkuId, TelemetryStore};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::ExitCode;

/// Minimal `--flag value` parser: flags may appear in any order; unknown
/// flags are an error (typos must not be silently ignored).
struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}' (flags start with --)"));
            };
            if !allowed.contains(&name) {
                return Err(format!(
                    "unknown flag --{name}; allowed: {}",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{name} '{v}': {e}")),
        }
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn require(&self, name: &str) -> Result<&String, String> {
        self.flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn cluster_by_name(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "tiny" => Ok(ClusterSpec::tiny()),
        "small" => Ok(ClusterSpec::small()),
        "medium" => Ok(ClusterSpec::medium()),
        "full" => Ok(ClusterSpec::default_cluster()),
        other => Err(format!(
            "unknown cluster '{other}' (tiny | small | medium | full)"
        )),
    }
}

/// Loads telemetry from either a CSV file or a durable store directory
/// (WAL + segments); a directory path selects crash recovery via
/// `TelemetryStore::open`, anything else is parsed as CSV.
fn load_telemetry(path: &str) -> Result<TelemetryStore, String> {
    if std::path::Path::new(path).is_dir() {
        return TelemetryStore::open(path).map_err(|e| format!("recover {path}: {e}"));
    }
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_csv(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => ("help", Vec::new()),
    };
    let result = match cmd {
        "observe" => cmd_observe(&rest),
        "models" => cmd_models(&rest),
        "optimize" => cmd_optimize(&rest),
        "yarn" => cmd_yarn(&rest),
        "sku-design" => cmd_sku_design(&rest),
        "power" => cmd_power(&rest),
        "sc" => cmd_sc(&rest),
        "queues" => cmd_queues(&rest),
        "value" => cmd_value(&rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; run `kea help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "kea — data-driven cluster tuning (SIGMOD'21 reproduction)\n\
         \n\
         commands:\n\
         \x20 observe     simulate a cluster and export telemetry CSV\n\
         \x20 models      calibrate the What-if Engine from telemetry CSV\n\
         \x20 optimize    solve the YARN container-rebalancing LP\n\
         \x20 yarn        full observational-tuning pipeline (§5.2)\n\
         \x20 sku-design  SSD/RAM sizing for a future SKU (§6.1)\n\
         \x20 power       power-capping study (§7.2)\n\
         \x20 sc          SC1-vs-SC2 ideal-setting experiment (§7.1)\n\
         \x20 queues      queue-length tuning (§5.3 extension)\n\
         \x20 value       convert a capacity gain into $/year (§5.3)\n\
         \n\
         common flags: --cluster tiny|small|medium|full, --seed N, --hours N\n\
         \n\
         --telemetry accepts a CSV file or a durable store directory\n\
         (WAL + segment files, recovered via TelemetryStore::open)"
    );
}

fn cmd_observe(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["cluster", "hours", "occupancy", "seed", "out"])?;
    let cluster = cluster_by_name(&args.get_str("cluster", "small"))?;
    let hours: u64 = args.get("hours", 48)?;
    let occupancy: f64 = args.get("occupancy", 0.95)?;
    let seed: u64 = args.get("seed", 1)?;
    let out_path = args.get_str("out", "telemetry.csv");
    check_run(hours, occupancy)?;
    let sim = run(&SimConfig {
        cluster: cluster.clone(),
        workload: WorkloadSpec::default_for(&cluster, occupancy),
        plan: kea_sim::ConfigPlan::baseline(&cluster.skus, SC1),
        duration_hours: hours,
        seed,
        task_log_every: 0,
        adhoc_job_log_every: 0,
    });
    let file = std::fs::File::create(&out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    write_csv(&sim.telemetry, std::io::BufWriter::new(file))
        .map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "observed {} machines for {hours}h (occupancy {occupancy}, seed {seed}); \
         {} machine-hour records → {out_path}",
        cluster.n_machines(),
        sim.telemetry.len()
    );
    Ok(())
}

fn fit_engine(args: &Args) -> Result<(TelemetryStore, FitMethod, Granularity), String> {
    let store = load_telemetry(args.require("telemetry")?)?;
    let method = match args.get_str("method", "huber").as_str() {
        "huber" => FitMethod::Huber,
        "ols" => FitMethod::Ols,
        other => return Err(format!("unknown method '{other}' (huber | ols)")),
    };
    let granularity = match args.get_str("granularity", "hourly").as_str() {
        "hourly" => Granularity::Hourly,
        "daily" => Granularity::Daily,
        other => return Err(format!("unknown granularity '{other}' (hourly | daily)")),
    };
    Ok((store, method, granularity))
}

fn cmd_models(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["telemetry", "method", "granularity", "min-rows"])?;
    let (store, method, granularity) = fit_engine(&args)?;
    let min_rows: usize = args.get("min-rows", 24)?;
    let monitor = PerformanceMonitor::new(&store);
    let engine = WhatIfEngine::fit_at(&monitor, method, granularity, min_rows)
        .map_err(|e| e.to_string())?;
    println!(
        "{:<14}{:>9}{:>10}{:>8}{:>10}{:>10}{:>8}{:>10}{:>10}",
        "group", "rows", "g slope", "g R2", "h slope", "f slope", "f R2", "median m", "median u"
    );
    for g in engine.groups() {
        println!(
            "sku{:<3} sc{:<5}{:>9}{:>10.3}{:>8.2}{:>10.3}{:>10.3}{:>8.2}{:>10.2}{:>10.1}",
            g.group.sku.0,
            g.group.sc.0,
            g.n_rows,
            g.g_containers_to_util.slope(),
            g.r2.0,
            g.h_util_to_tasks.slope(),
            g.f_util_to_latency.slope(),
            g.r2.2,
            g.current_containers,
            g.current_util,
        );
    }
    Ok(())
}

fn cmd_optimize(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["telemetry", "method", "granularity", "max-step", "percentile"])?;
    let (store, method, granularity) = fit_engine(&args)?;
    let max_step: f64 = args.get("max-step", 1.0)?;
    let at = match args.flags.get("percentile") {
        None => OperatingPoint::Median,
        Some(p) => {
            let p: f64 = p.parse().map_err(|e| format!("--percentile '{p}': {e}"))?;
            if !(0.0..=100.0).contains(&p) {
                eprintln!(
                    "warning: --percentile {p} is outside 0–100; \
                     clamping to the nearest observed extreme"
                );
            }
            OperatingPoint::Percentile(p)
        }
    };
    let policy = TunePolicy {
        method,
        granularity,
        max_step,
        at,
    };
    let opt = tune(&store, &policy).map_err(|e| e.to_string())?.plan;
    println!("{:<14}{:>8}{:>10}{:>12}{:>10}", "group", "step", "m'", "gradient", "machines");
    for s in &opt.suggestions {
        println!(
            "sku{:<3} sc{:<5}{:>+8}{:>10.2}{:>12.3}{:>10}",
            s.group.sku.0,
            s.group.sc.0,
            s.delta_step,
            s.current_containers,
            s.latency_gradient,
            s.n_machines
        );
    }
    println!(
        "predicted capacity gain {:+.2}% at latency {:.1}s → {:.1}s",
        opt.predicted_capacity_gain * 100.0,
        opt.baseline_latency,
        opt.predicted_latency
    );
    Ok(())
}

fn cmd_yarn(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["cluster", "seed", "observe-hours", "eval-hours"])?;
    let cluster = cluster_by_name(&args.get_str("cluster", "small"))?;
    let mut params = YarnTuningParams::quick(cluster, args.get("seed", 30)?);
    params.observe_hours = args.get("observe-hours", params.observe_hours)?;
    params.eval_hours = args.get("eval-hours", params.eval_hours)?;
    let o = run_yarn_tuning(&params).map_err(|e| e.to_string())?;
    for s in &o.tuned.plan.suggestions {
        println!(
            "sku{:<3} step {:+}  (m' = {:.1})",
            s.group.sku.0, s.delta_step, s.current_containers
        );
    }
    println!(
        "measured: throughput {:+.2}% (t={:.2}), latency {:+.2}%, capacity {:+.2}%; \
         guardrail {}; implicit SLOs {}",
        o.throughput_change_pct,
        o.throughput_t,
        o.latency_change_pct,
        o.capacity_change_pct,
        if o.deployment.approved { "PASSED" } else { "FAILED" },
        if o.slo.all_hold { "hold" } else { "VIOLATED" },
    );
    Ok(())
}

fn cmd_sku_design(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["telemetry", "cluster", "seed", "cores", "sku", "draws"])?;
    // Either analyze provided telemetry or observe a fresh window.
    let store = match args.flags.get("telemetry") {
        Some(path) => load_telemetry(path)?,
        None => {
            let cluster = cluster_by_name(&args.get_str("cluster", "small"))?;
            run(&SimConfig::baseline(cluster, 72, args.get("seed", 77)?)).telemetry
        }
    };
    let monitor = PerformanceMonitor::new(&store);
    let sku: u16 = args.get("sku", 4)?;
    let cores: u32 = args.get("cores", 128)?;
    // Project demand, then bracket it with candidates.
    let params_probe = SkuDesignParams {
        source_group: GroupKey::new(SkuId(sku), SC1),
        future_cores: cores,
        candidate_ssd_gb: vec![1.0],
        candidate_ram_gb: vec![1.0],
        cost: CostModel::default(),
        draws: 1,
        seed: args.get("seed", 78)?,
    };
    let probe = run_sku_design(&monitor, &params_probe).map_err(|e| e.to_string())?;
    let ssd_demand = probe.ssd_model.predict(cores as f64).max(1.0);
    let ram_demand = probe.ram_model.predict(cores as f64).max(1.0);
    let grid = |d: f64| (3..=9).map(|i| (d * 0.25 * i as f64).round()).collect::<Vec<_>>();
    let params = SkuDesignParams {
        candidate_ssd_gb: grid(ssd_demand),
        candidate_ram_gb: grid(ram_demand),
        draws: args.get("draws", 1000)?,
        ..params_probe
    };
    let o = run_sku_design(&monitor, &params).map_err(|e| e.to_string())?;
    println!(
        "usage models ({} obs): SSD = {:.1} + {:.2}·c; RAM = {:.1} + {:.2}·c",
        o.n_observations,
        o.ssd_model.intercept(),
        o.ssd_model.slope(),
        o.ram_model.intercept(),
        o.ram_model.slope()
    );
    println!(
        "projected demand at {cores} cores: SSD {ssd_demand:.0} GB, RAM {ram_demand:.0} GB"
    );
    println!(
        "sweet spot: {:.0} GB SSD + {:.0} GB RAM (expected cost {:.2} ± {:.2}); \
suggested NIC ≥ {:.0} Gbit/s",
        o.best.ssd_gb, o.best.ram_gb, o.best.expected_cost, o.best.std_err,
        o.suggested_nic_gbps
    );
    Ok(())
}

fn cmd_power(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["cluster", "sku", "caps", "group-size", "hours", "seed"])?;
    let caps: Vec<f64> = args
        .get_str("caps", "0.10,0.20,0.30")
        .split(',')
        .map(|c| c.trim().parse().map_err(|e| format!("--caps '{c}': {e}")))
        .collect::<Result<_, _>>()?;
    let params = PowerCappingParams {
        cluster: cluster_by_name(&args.get_str("cluster", "medium"))?,
        sku: SkuId(args.get("sku", 0)?),
        cap_levels: caps,
        group_size: args.get("group-size", 16)?,
        hours_per_round: args.get("hours", 24)?,
        warmup_hours: 3,
        seed: args.get("seed", 88)?,
    };
    let o = run_power_capping(&params).map_err(|e| e.to_string())?;
    println!("{:<26}{:>12}{:>12}{:>8}", "arm", "B/CPU-t %", "B/s %", "t");
    for c in &o.cells {
        println!(
            "cap {:>2.0}% {:<18}{:>12.2}{:>12.2}{:>8.2}",
            c.cap_level * 100.0,
            format!("{:?}", c.arm),
            c.bytes_per_cpu_change_pct,
            c.bytes_per_sec_change_pct,
            c.t_bytes_per_cpu
        );
    }
    Ok(())
}

fn cmd_sc(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["cluster", "sku", "racks", "hours", "seed"])?;
    let params = ScSelectionParams {
        cluster: cluster_by_name(&args.get_str("cluster", "medium"))?,
        sku: SkuId(args.get("sku", 0)?),
        n_racks: args.get("racks", 4)?,
        duration_hours: args.get("hours", 60)?,
        warmup_hours: 4,
        seed: args.get("seed", 99)?,
    };
    let o = run_sc_selection(&params).map_err(|e| e.to_string())?;
    for row in &o.table4 {
        println!(
            "{:<28} SC1 {:>10.2}  SC2 {:>10.2}  change {:>+7.2}%  t {:>7.2}",
            row.metric.name(),
            row.sc1_mean,
            row.sc2_mean,
            row.change_pct,
            row.t_value
        );
    }
    println!(
        "recommendation: {} ({} machines per group)",
        o.recommendation, o.machines_per_group
    );
    Ok(())
}

fn cmd_queues(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["cluster", "occupancy", "hours", "seed"])?;
    let mut params = QueueTuningParams::quick(
        cluster_by_name(&args.get_str("cluster", "small"))?,
        args.get("seed", 808)?,
    );
    params.target_occupancy = args.get("occupancy", params.target_occupancy)?;
    params.window_hours = args.get("hours", params.window_hours)?;
    let o = run_queue_tuning(&params).map_err(|e| e.to_string())?;
    for (m, r) in o.models.iter().zip(&o.rows) {
        println!(
            "sku{:<3} cap {:>4}   p99 wait {:>10.0} → {:>10.0} ms",
            m.group.sku.0, m.suggested_cap, r.before_wait_ms, r.after_wait_ms
        );
    }
    println!(
        "across-group spread {:.0} → {:.0} ms; task latency {:+.2}%",
        o.wait_spread_before, o.wait_spread_after, o.task_latency_change_pct
    );
    Ok(())
}

fn cmd_value(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["machines", "gain-pct", "power-w"])?;
    let machines: usize = args.get("machines", 300_000)?;
    if machines == 0 {
        return Err("--machines must be at least 1".to_string());
    }
    let gain_pct: f64 = args.get("gain-pct", 2.0)?;
    let power_w: f64 = args.get("power-w", 260.0)?;
    let v = capacity_gain_value(
        machines,
        &FleetCostModel::default(),
        gain_pct / 100.0,
        power_w,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{} machines: fleet cost ${:.1}M/year; a {:+.2}% capacity gain is worth ${:.2}M/year",
        v.machines,
        v.fleet_cost_per_year / 1e6,
        gain_pct,
        v.total_per_year / 1e6
    );
    Ok(())
}
