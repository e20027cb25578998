//! `keabench compare A.json B.json`: the verdict of result set B (the
//! change) against result set A (the parent) for every workload and
//! end-to-end metric.

use crate::json::{self, Json};
use crate::metrics::{quantile_sorted, Better, END_TO_END};
use std::collections::BTreeMap;

/// Fewest runs per workload a set must hold.
pub const MIN_RUNS: usize = 3;
/// Fewest runs per set behind a `better` verdict: a gain needs ten
/// runs of each side (choosing-metrics §8). Three runs of unchanged
/// code beat three others in every pair one time in twenty.
pub const GAIN_RUNS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the sets
    /// cannot tell a change within the bound from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median and quartiles of one set's per-run values.
fn summary(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.75),
    )
}

/// The verdict of `b` against `a` for a metric with bound `bound`:
///
/// * `unresolved` when either set's quartile spread, as a share of its
///   median, exceeds the bound — unless every run of `b` beats every
///   run of `a`, which is `better`;
/// * `worse` when `b`'s median is worse than `a`'s by more than the bound;
/// * `better` when `b`'s median is better by more than `a`'s quartile
///   spread and `b` wins at least nine tenths of all run pairs;
/// * `same` otherwise.
///
/// Either `better` needs [`GAIN_RUNS`] runs in each set; with fewer,
/// the verdict is `unresolved` or `same` instead.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let (ma, qa1, qa3) = summary(a);
    let (mb, qb1, qb3) = summary(b);
    let rel = |x: f64, base: f64| x / base.abs().max(f64::MIN_POSITIVE);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let pairs = a.len() * b.len();
    let won = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| beats(x, y)).count())
        .sum::<usize>();
    let can_gain = a.len().min(b.len()) >= GAIN_RUNS;
    let spread = rel(qa3 - qa1, ma).max(rel(qb3 - qb1, mb));
    if spread > bound {
        return if can_gain && won == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => rel(mb - ma, ma),
        Better::Higher => rel(ma - mb, ma),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if can_gain
        && worse_by < 0.0
        && (mb - ma).abs() > qa3 - qa1
        && won as f64 >= 0.9 * pairs as f64
    {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The untraced runs of one result set, all on one input.
#[derive(Debug, Default)]
pub struct Set {
    /// `(scale, seed)` shared by every run of the set.
    input: Option<(String, u64)>,
    /// Per workload, per metric: the value of every run.
    runs: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

/// Reads a result set: one JSON run record per line, as `--json` writes.
/// A run that failed an output check or a call, or that ran on another
/// scale or seed than the set's first run, makes the whole set invalid:
/// a timing of wrong or different work is no measurement.
pub fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{path}:{}", i + 1);
        let run = json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let field = |k: &str| run.get(k).ok_or_else(|| format!("{at}: no {k}"));
        if field("correct")?.as_bool() != Some(true) {
            return Err(format!("{at}: the run failed its output checks"));
        }
        let failed = field("failed")?.as_f64();
        if failed != Some(0.0) {
            return Err(format!("{at}: the run had failed calls ({failed:?})"));
        }
        let scale = field("scale")?.as_str().ok_or(format!("{at}: bad scale"))?;
        let seed = field("seed")?
            .as_f64()
            .filter(|s| *s >= 0.0 && s.fract() == 0.0)
            .ok_or(format!("{at}: bad seed"))? as u64;
        let input = set.input.get_or_insert_with(|| (scale.to_string(), seed));
        if *input != (scale.to_string(), seed) {
            return Err(format!(
                "{at}: scale {scale} seed {seed}, but the set's first run had scale {} seed {}",
                input.0, input.1
            ));
        }
        let workload = field("workload")?
            .as_str()
            .ok_or(format!("{at}: bad workload"))?;
        let metrics = field("metrics")?
            .as_object()
            .ok_or(format!("{at}: bad metrics"))?;
        let entry = set.runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// One printed row per workload × end-to-end metric. Returns the rows
/// with their verdicts.
pub fn compare_sets(a: &Set, b: &Set) -> Result<Vec<(String, &'static str, Verdict)>, String> {
    if a.input != b.input {
        return Err(format!(
            "the sets ran on different inputs: {:?} and {:?} (scale, seed)",
            a.input, b.input
        ));
    }
    let (a, b) = (&a.runs, &b.runs);
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<19} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    for (workload, a_metrics) in a {
        let b_metrics = b
            .get(workload)
            .ok_or_else(|| format!("set B has no {workload} runs"))?;
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                return Err(format!("{workload}: {} missing from a set", m.name));
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{workload}: {} needs at least {MIN_RUNS} runs per set (have {} and {})",
                    m.name,
                    va.len(),
                    vb.len()
                ));
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, bound, m.better);
            let (ma, qa1, qa3) = summary(va);
            let (mb, qb1, qb3) = summary(vb);
            println!(
                "{workload:<13} {:<19} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>5.1}%  {}",
                m.name,
                format!("[{qa1:.4}, {qa3:.4}]"),
                format!("[{qb1:.4}, {qb3:.4}]"),
                bound * 100.0,
                v.as_str()
            );
            rows.push((workload.clone(), m.name, v));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs: `v`'s five values, each once more and 0.1 higher.
    fn ten(v: [f64; 5]) -> Vec<f64> {
        v.iter()
            .chain(v.iter())
            .zip(0..)
            .map(|(x, i)| x + 0.1 * f64::from(i / 5))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let a = ten([100.0, 101.0, 99.0, 100.5, 99.5]);
        // Within the bound and within the noise.
        assert_eq!(
            verdict(
                &a,
                &ten([100.2, 99.8, 100.9, 99.1, 100.0]),
                0.10,
                Better::Lower
            ),
            Verdict::Same
        );
        // 20% slower with tight spread.
        let slower = ten([120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict(&a, &slower, 0.10, Better::Lower), Verdict::Worse);
        // 8% faster, every pair won, beyond the parent's spread...
        let faster = ten([92.0, 92.5, 91.5, 92.2, 91.8]);
        assert_eq!(verdict(&a, &faster, 0.10, Better::Lower), Verdict::Better);
        // ...but three runs a side are too few to claim it.
        assert_eq!(
            verdict(&a[..3], &faster[..3], 0.10, Better::Lower),
            Verdict::Same
        );
        // Spread wider than the bound: no verdict either way...
        let noisy = ten([80.0, 120.0, 100.0, 70.0, 130.0]);
        assert_eq!(
            verdict(&a, &noisy, 0.10, Better::Lower),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A, over ten runs.
        let noisy_fast = ten([50.0, 70.0, 60.0, 40.0, 75.0]);
        assert_eq!(
            verdict(&a, &noisy_fast, 0.10, Better::Lower),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a[..3], &noisy_fast[..3], 0.10, Better::Lower),
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&a, &slower, 0.10, Better::Higher), Verdict::Better);
        assert_eq!(
            verdict(
                &a,
                &ten([80.0, 81.0, 79.0, 80.5, 79.5]),
                0.10,
                Better::Higher
            ),
            Verdict::Worse
        );
        // Exact metrics: identical sets are the same.
        assert_eq!(
            verdict(&[1.06; 3], &[1.06; 3], 0.05, Better::Lower),
            Verdict::Same
        );
    }

    /// One `--json` run record of fit_week with every end-to-end metric
    /// at `v`; `extra` overrides the fields after it.
    fn record(v: f64, extra: &str) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit))
            .collect();
        let fields = [
            ("workload", "\"fit_week\""),
            ("trace", "0"),
            ("scale", "\"full\""),
            ("seed", "1"),
            ("correct", "true"),
            ("failed", "0"),
        ];
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| {
                let over = extra
                    .split(',')
                    .find_map(|kv| kv.strip_prefix(&format!("{k}=")));
                format!("\"{k}\":{}", over.unwrap_or(v))
            })
            .collect();
        format!(
            "{{{},\"metrics\":{{{}}}}}",
            fields.join(","),
            metrics.join(",")
        )
    }

    /// Writes `lines` as a result set and loads it. Each name gets a
    /// directory of its own, as tests run in parallel and no two tests
    /// use the same name.
    fn load_set(name: &str, lines: &[String]) -> Result<Set, String> {
        let dir =
            std::env::temp_dir().join(format!("keabench-compare-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let set = load(path.to_str().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        set
    }

    #[test]
    fn sets_need_three_runs_per_workload() {
        let a = load_set(
            "three",
            &[record(1.0, ""), record(1.0004, ""), record(0.9996, "")],
        )
        .unwrap();
        let b = load_set("two", &[record(1.0, ""), record(1.3, "")]).unwrap();
        assert_eq!(a.runs["fit_week"]["cycle_ms"], vec![1.0, 1.0004, 0.9996]);
        assert!(compare_sets(&a, &b).is_err(), "two runs must not be enough");
        let rows = compare_sets(&a, &a).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|(_, _, v)| *v == Verdict::Same));
    }

    #[test]
    fn sets_refuse_failed_runs_and_mixed_inputs() {
        let good = || vec![record(1.0, ""), record(1.0, "")];
        for (what, extra) in [
            ("a failed output check", "correct=false"),
            ("a failed call", "failed=1"),
            ("another scale", "scale=\"smoke\""),
            ("another seed", "seed=2"),
        ] {
            let mut lines = good();
            lines.push(record(0.5, extra));
            assert!(load_set("bad", &lines).is_err(), "a set with {what} loaded");
        }
        // A traced run is skipped, whatever it holds.
        let mut lines = good();
        lines.push(record(1.0, "trace=1,correct=false"));
        assert!(load_set("traced", &lines).is_ok());
        // Both sets must share the input.
        let mut a = good();
        a.push(record(1.0, ""));
        let b: Vec<String> = (0..3).map(|_| record(1.0, "seed=2")).collect();
        let (a, b) = (load_set("a", &a).unwrap(), load_set("b", &b).unwrap());
        assert!(compare_sets(&a, &b).is_err(), "different seeds compared");
    }
}
