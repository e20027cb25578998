//! keabench: the KEA tuning pipeline timed end to end and layer by
//! layer, on three workloads.
//!
//! ```text
//! keabench --workload <fleet_day|month_retune|fit_week|all> [--seed N] [--seconds S]
//!          [--trace 0|1] [--scale full|smoke] [--runs R] [--json OUT] [--spans OUT] [--dir DIR]
//! keabench compare A.json B.json
//! ```
//!
//! A run prints a readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) record a span around every call into a layer and
//! report the per-layer metrics. See README.md beside this file.

mod compare;
mod harness;
mod json;
mod metrics;
mod trace;
mod workloads;

use harness::{fingerprint, Ctx, Scale};
use metrics::{json_num, MetricDef, Stat};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
/// Traced runs may leave at most this share of the timed phase outside
/// every layer span.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Default-seed, full-scale digests: a change in the inputs (for
/// example in the simulator) shows as a mismatch in the report.
const PINNED_DIGESTS: [(&str, &str); 3] = [
    ("fleet_day", "36a2141d8f49a8ed"),
    ("month_retune", "79a4c4c65ef64e19"),
    ("fit_week", "958840ce9496ea82"),
];

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    runs: usize,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    dir: PathBuf,
}

const USAGE: &str = "usage: keabench --workload <fleet_day|month_retune|fit_week|all> [--seed N] \
[--seconds S] [--trace 0|1] [--scale full|smoke] [--runs R] [--json OUT] [--spans OUT] [--dir DIR]\n       \
keabench compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        runs: 1,
        json: None,
        spans: None,
        dir: PathBuf::from(".keabench-tmp"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads =
                    match name.as_str() {
                        "all" => Workload::ALL.to_vec(),
                        _ => vec![Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name}"))?],
                    };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be within [0, 3600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            "--runs" => {
                opts.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if opts.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            "--spans" => opts.spans = Some(PathBuf::from(value()?)),
            "--dir" => opts.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => run_compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("keabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_host().and_then(|()| check_profiles(ROOT_MANIFEST, OWN_MANIFEST)) {
        eprintln!("keabench: {e}");
        return ExitCode::from(2);
    }
    if opts.workloads.len() == 1 && opts.runs == 1 {
        return run_one(opts.workloads[0], &opts);
    }
    run_children(&opts)
}

/// The federated simulator needs two workers, and keabench runs no more
/// threads than the host has CPUs.
fn check_host() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(format!(
            "needs at least 2 CPUs for the simulator's two workers, this host has {nproc}"
        ));
    }
    Ok(())
}

const ROOT_MANIFEST: &str = include_str!("../Cargo.toml");
const OWN_MANIFEST: &str = include_str!("Cargo.toml");

/// The `[profile.*]` tables of a manifest, without comments and blank
/// lines.
fn profile_tables(manifest: &str) -> Vec<&str> {
    let mut in_profile = false;
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| {
            if l.starts_with('[') {
                in_profile = l.starts_with("[profile.");
            }
            in_profile && !l.is_empty()
        })
        .collect()
}

/// keabench builds as a workspace of its own, which does not inherit
/// the root workspace's profiles. It refuses to measure a build whose
/// profiles differ from the ones the repository ships.
fn check_profiles(root: &str, own: &str) -> Result<(), String> {
    let (root, own) = (profile_tables(root), profile_tables(own));
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "the [profile.*] tables of keabench/Cargo.toml ({own:?}) differ from the root \
             Cargo.toml's ({root:?}); copy the root's so the benchmark measures the shipped build"
        ))
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let sets = compare::load(a).and_then(|sa| compare::load(b).map(|sb| (sa, sb)));
    match sets.and_then(|(sa, sb)| compare::compare_sets(&sa, &sb)) {
        Ok(rows) => {
            let flagged = rows
                .iter()
                .filter(|(_, _, v)| {
                    matches!(v, compare::Verdict::Worse | compare::Verdict::Unresolved)
                })
                .count();
            println!("{} rows, {flagged} worse or unresolved", rows.len());
            if flagged == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("keabench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs each workload of each run in a child process of its own, one
/// after another, so every result's `peak_rss_mb` is its workload's.
fn run_children(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("keabench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for _ in 0..opts.runs {
        for w in &opts.workloads {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .args(["--scale", opts.scale.as_str()])
                .arg("--dir")
                .arg(&opts.dir);
            if let Some(json) = &opts.json {
                cmd.arg("--json").arg(json);
            }
            if let Some(spans) = &opts.spans {
                cmd.arg("--spans")
                    .arg(spans.with_extension(format!("{}.jsonl", w.name())));
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("keabench: {} exited with {status}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("keabench: cannot run {}: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A scratch directory removed when dropped, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds once empty
        }
    }
}

/// Runs one workload in this process.
fn run_workload(w: Workload, opts: &Opts) -> Result<Ctx, String> {
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch = Scratch(
        opts.dir
            .join(format!("{}-{}-{run}", w.name(), std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let mut ctx = Ctx::new(opts.trace, opts.seconds, opts.scale, scratch.0.clone());
    w.run(&mut ctx, opts.seed);
    if opts.trace {
        if let Err(e) = trace::check_nesting(ctx.rec.spans()) {
            ctx.check_failures.push(format!("span nesting: {e}"));
        }
        let share = trace::unattributed_share(ctx.rec.spans());
        if share > MAX_UNATTRIBUTED {
            ctx.check_failures.push(format!(
                "unattributed share {share:.4} exceeds {MAX_UNATTRIBUTED}"
            ));
        }
    }
    Ok(ctx)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn run_one(w: Workload, opts: &Opts) -> ExitCode {
    let ctx = match run_workload(w, opts) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("keabench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if opts.trace {
        harness::per_layer(&ctx)
    } else {
        harness::end_to_end(&ctx)
    };
    let correct = ctx.check_failures.is_empty() && ctx.failed == 0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()),
        &["--version"],
    );
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);

    println!(
        "keabench {} seed={} scale={} trace={} seconds={} nproc={nproc} rustc=\"{rustc}\" commit={commit}",
        w.name(),
        opts.seed,
        opts.scale.as_str(),
        u8::from(opts.trace),
        opts.seconds
    );
    println!(
        "  samples: setups={} cycles={} restarts={}",
        ctx.setup_s.len(),
        ctx.cycle_ms.len(),
        ctx.restart_ms.len()
    );
    println!(
        "  host: {:.4}x slower than the reference (median of {} calibrations); \
         wall-time medians: setup {:.1} ms, cycle {:.1} ms, restart {:.1} ms",
        ctx.host_slowdown(),
        ctx.calibrations.len(),
        ctx.wall_median_ms("setup"),
        ctx.wall_median_ms("cycle"),
        ctx.wall_median_ms("restart")
    );
    for (m, s) in &metrics {
        println!(
            "  {:<28} {:>16.6} {:<5}  (n={}, q1={:.6}, q3={:.6})",
            m.name, s.value, m.unit, s.n, s.q1, s.q3
        );
    }
    if opts.trace {
        print_breakdown(&ctx);
    }
    let print = fingerprint(&ctx.digest);
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(n, _)| *n == w.name())
        .map_or("", |(_, d)| *d);
    let note = if opts.seed != DEFAULT_SEED || opts.scale != Scale::Full {
        ""
    } else if pinned == print {
        " (matches the pinned default-seed digest)"
    } else {
        " (DIFFERS from the pinned default-seed digest: the inputs changed)"
    };
    println!("  digest {print}{note}: {}", ctx.digest);
    println!(
        "  calls: {} attempted, {} failed",
        ctx.attempted, ctx.failed
    );
    for e in &ctx.errors {
        println!("  failed call: {e}");
    }
    for f in &ctx.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("  checks: {}", if correct { "ok" } else { "FAILED" });

    if let Some(path) = &opts.spans {
        if let Err(e) = ctx.rec.write_jsonl(path) {
            eprintln!("keabench: write spans to {}: {e}", path.display());
        }
    }
    if let Some(path) = &opts.json {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"scale\":\"{}\",\"trace\":{},\"seconds\":{},\"commit\":\"{commit}\",\
             \"nproc\":{nproc},\"rustc\":\"{rustc}\",\"digest\":\"{}\",\"host_slowdown\":{},\
             \"wall_ms\":{{\"setup\":{},\"cycle\":{},\"restart\":{}}},\"correct\":{correct},\"attempted\":{},\
             \"failed\":{},\"metrics\":{}}}",
            w.name(),
            opts.seed,
            opts.scale.as_str(),
            u8::from(opts.trace),
            json_num(opts.seconds),
            ctx.digest,
            json_num(ctx.host_slowdown()),
            json_num(ctx.wall_median_ms("setup")),
            json_num(ctx.wall_median_ms("cycle")),
            json_num(ctx.wall_median_ms("restart")),
            ctx.attempted,
            ctx.failed,
            metrics_json(&metrics, true)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("keabench: append to {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        ctx.attempted,
        ctx.failed,
        metrics_json(&metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `{"name": {"value": v, "unit": u}, …}`, with the sample count and
/// quartiles when `detail` is set.
fn metrics_json(metrics: &[(&'static MetricDef, Stat)], detail: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            let extra = if detail {
                format!(
                    ",\"n\":{},\"q1\":{},\"q3\":{}",
                    s.n,
                    json_num(s.q1),
                    json_num(s.q3)
                )
            } else {
                String::new()
            };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"{extra}}}",
                m.name,
                json_num(s.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Where the timed phase went: every layer call made directly inside a
/// warm-up, cycle or restart, by total time.
fn print_breakdown(ctx: &Ctx) {
    let spans = ctx.rec.spans();
    let timed: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| trace::TIMED_PARENTS.contains(&s.name))
        .map(|s| s.id)
        .collect();
    let total: u64 = spans
        .iter()
        .filter(|s| timed.contains(&s.id))
        .map(|s| s.duration_ns())
        .sum();
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    for s in spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| timed.contains(&p)))
    {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
    println!("  timed phase {:.3} s, by layer call:", total as f64 / 1e9);
    for (name, (calls, ns)) in rows {
        println!(
            "    {name:<30} {calls:>7} calls {:>10.3} s {:>6.2}%",
            ns as f64 / 1e9,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use std::sync::OnceLock;

    fn opts(trace: bool, seed: u64) -> Opts {
        Opts {
            workloads: Vec::new(),
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
            runs: 1,
            json: None,
            spans: None,
            dir: std::env::temp_dir().join(format!("keabench-test-{}", std::process::id())),
        }
    }

    /// Every workload at smoke scale, untraced and traced, default seed —
    /// run once and shared by the tests below.
    fn smoke() -> &'static [(Workload, bool, Ctx)] {
        static RUNS: OnceLock<Vec<(Workload, bool, Ctx)>> = OnceLock::new();
        RUNS.get_or_init(|| {
            let mut runs = Vec::new();
            for w in Workload::ALL {
                for trace in [false, true] {
                    let ctx = run_workload(w, &opts(trace, DEFAULT_SEED)).expect("scratch dir");
                    runs.push((w, trace, ctx));
                }
            }
            runs
        })
    }

    /// The repository's `BENCHMARK.json`, found above this package.
    fn benchmark_json() -> Json {
        let mut dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        loop {
            let path = dir.join("BENCHMARK.json");
            if let Ok(text) = std::fs::read_to_string(&path) {
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            dir = dir.parent().expect("BENCHMARK.json above the package");
        }
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks() {
        for (w, trace, ctx) in smoke() {
            let what = format!("{} trace={trace}", w.name());
            assert!(
                ctx.check_failures.is_empty(),
                "{what}: {:?}",
                ctx.check_failures
            );
            assert!(
                ctx.errors.is_empty() && ctx.failed == 0,
                "{what}: {:?}",
                ctx.errors
            );
            assert!(ctx.attempted > 0, "{what}");
            assert!(
                ctx.cycle_ms.len() >= 2 && ctx.restart_ms.len() >= 2,
                "{what}"
            );
            assert!(!ctx.digest.is_empty(), "{what}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_catalog() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), catalog.len(), "{key}");
            for (entry, m) in listed.iter().zip(catalog) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(m.name));
                assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(field("better"), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for (w, trace, ctx) in smoke() {
            let (emitted, catalog) = if *trace {
                (harness::per_layer(ctx), &PER_LAYER[..])
            } else {
                (harness::end_to_end(ctx), &END_TO_END[..])
            };
            let names: Vec<(&str, &str)> = emitted.iter().map(|(m, _)| (m.name, m.unit)).collect();
            let want: Vec<(&str, &str)> = catalog.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, want, "{}", w.name());
            for (m, s) in &emitted {
                assert!(s.value.is_finite(), "{} {}: {}", w.name(), m.name, s.value);
                // The fit's rest is a difference of timings, and in a
                // small fit noise can push it below zero.
                if m.bound.is_some() || (m.unit == "ms" && m.name != "whatif.fit_rest_ms") {
                    assert!(
                        s.value > 0.0,
                        "{} {} must be positive: {}",
                        w.name(),
                        m.name,
                        s.value
                    );
                }
            }
        }
    }

    #[test]
    fn spans_nest_and_cover_the_timed_phase() {
        for (w, _, ctx) in smoke().iter().filter(|(_, trace, _)| *trace) {
            let spans = ctx.rec.spans();
            trace::check_nesting(spans).unwrap();
            let share = trace::unattributed_share(spans);
            assert!(
                (0.0..=MAX_UNATTRIBUTED).contains(&share),
                "{}: {share}",
                w.name()
            );
            let parents: Vec<_> = spans
                .iter()
                .filter(|s| trace::TIMED_PARENTS.contains(&s.name))
                .collect();
            assert!(parents.len() >= ctx.cycle_ms.len() + ctx.restart_ms.len());
            assert!(parents
                .iter()
                .all(|p| spans.iter().any(|s| s.parent == Some(p.id))));
        }
        for (_, _, ctx) in smoke().iter().filter(|(_, trace, _)| !*trace) {
            assert!(ctx.rec.spans().is_empty());
        }
    }

    #[test]
    fn digest_follows_the_seed() {
        for w in Workload::ALL {
            let digests: Vec<&str> = smoke()
                .iter()
                .filter(|r| r.0 == w)
                .map(|r| r.2.digest.as_str())
                .collect();
            assert_eq!(
                digests[0],
                digests[1],
                "{}: tracing changed the outputs",
                w.name()
            );
        }
        let other = run_workload(Workload::FleetDay, &opts(false, DEFAULT_SEED + 1)).unwrap();
        let same = smoke().iter().find(|r| r.0 == Workload::FleetDay).unwrap();
        assert_ne!(other.digest, same.2.digest);
    }

    #[test]
    fn a_perturbed_plan_fails_the_plan_check() {
        use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
        let cfg = harness::sim_config(Scale::Smoke, 1, 48, 7);
        let counts = harness::sc1_counts(&cfg);
        let out = kea_sim::run_with_exec(&cfg, harness::SIM_EXEC);
        let monitor = kea_core::PerformanceMonitor::new(&out.telemetry);
        let engine = WhatIfEngine::fit_at(
            &monitor,
            FitMethod::Huber,
            Granularity::Daily,
            harness::MIN_ROWS,
        )
        .unwrap();
        let mut ctx = Ctx::new(false, 0.0, Scale::Smoke, std::env::temp_dir());
        let mut plan = ctx.optimize(&engine, &counts).unwrap();
        ctx.check_plan(&engine, &counts, &plan);
        assert!(ctx.check_failures.is_empty(), "{:?}", ctx.check_failures);
        plan.suggestions[0].delta_step += 1;
        ctx.check_plan(&engine, &counts, &plan);
        assert_eq!(ctx.check_failures.len(), 1, "{:?}", ctx.check_failures);
        ctx.check_restarts(&plan, &[(plan.clone(), Vec::new())], &counts);
        assert!(
            ctx.check_failures.len() > 1,
            "an empty monitor view must fail the restart check"
        );
    }

    #[test]
    fn refuses_a_build_whose_profiles_drifted_from_the_root() {
        check_profiles(ROOT_MANIFEST, OWN_MANIFEST).unwrap();
        let drifted = ROOT_MANIFEST.replace("[profile.release]", "[profile.release]\nlto = true");
        assert_ne!(drifted, ROOT_MANIFEST);
        assert!(check_profiles(&drifted, OWN_MANIFEST).is_err());
        // Comments and blank lines do not count.
        let commented = OWN_MANIFEST.replace("[profile.release]", "# note\n\n[profile.release]");
        check_profiles(ROOT_MANIFEST, &commented).unwrap();
    }

    #[test]
    fn parses_the_benchmark_invocation() {
        let args: Vec<String> = "--workload month_retune --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.workloads, vec![Workload::MonthRetune]);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.scale),
            (7, 10.0, true, Scale::Full)
        );
        let all = parse_args(&["--workload".to_string(), "all".to_string()]).unwrap();
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "nope"],
            &["--seed"],
            &["--seconds", "5"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?}");
        }
    }
}
