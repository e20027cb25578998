//! The metric catalog (the single list `BENCHMARK.json` mirrors) and
//! the order statistics every metric is reported with.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run, for every workload. Timings are at
/// reference host speed (`Ctx::pass`); their bounds are about twice the
/// widest run-to-run spread left after that (README.md, "Bounds").
/// `space_amp` repeats exactly, so any change beyond rounding counts.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", 0.25),
    e2e("cycle_ms", "ms", 0.25),
    e2e("restart_to_plan_ms", "ms", 0.25),
    e2e("space_amp", "ratio", 0.001),
    e2e("peak_rss_mb", "MiB", 0.10),
];

/// Reported by every traced run, for every workload.
pub const PER_LAYER: [MetricDef; 24] = [
    layer("sim.run_ms", "ms", Lower),
    layer("sim.tasks", "count", Higher),
    layer("store.extend_ms", "ms", Lower),
    layer("store.runs_live", "count", Lower),
    layer("store.resident_runs", "count", Lower),
    layer("persist.sync_ms_p50", "ms", Lower),
    layer("persist.sync_ms_p98", "ms", Lower),
    layer("persist.open_ms", "ms", Lower),
    layer("persist.verify_ms", "ms", Lower),
    layer("persist.sync_calls", "count", Lower),
    layer("persist.rotations", "count", Lower),
    layer("persist.segments_written", "count", Lower),
    layer("persist.segment_bytes", "B", Lower),
    layer("persist.wal_bytes", "B", Lower),
    layer("persist.write_amp", "ratio", Lower),
    layer("aggregate.rollup_ms", "ms", Lower),
    layer("whatif.fit_ms", "ms", Lower),
    layer("whatif.input_scan_ms", "ms", Lower),
    layer("whatif.fit_rest_ms", "ms", Lower),
    layer("whatif.rows", "count", Higher),
    layer("ml.fit_huber_ms", "ms", Lower),
    layer("optimizer.solve_ms", "ms", Lower),
    layer("harness.unattributed_share", "ratio", Lower),
    layer("harness.host_slowdown", "ratio", Lower),
];

/// Quantile `q ∈ [0, 1]` of an ascending slice, by linear interpolation
/// between order statistics. `NaN` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// A metric's value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// A single measured or counted value.
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The `q` quantile of `samples`, with their quartiles.
    pub fn quantile(samples: &[f64], q: f64) -> Stat {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Stat {
            value: quantile_sorted(&sorted, q),
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    pub fn median(samples: &[f64]) -> Stat {
        Stat::quantile(samples, 0.5)
    }
}

/// Formats a float as JSON: finite values with every digit Rust keeps,
/// anything else as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&s, 0.9), 4.6);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        let st = Stat::median(&[5.0, 1.0, 3.0]);
        assert_eq!((st.value, st.n, st.q1, st.q3), (3.0, 3, 2.0, 4.0));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        // Set-up has the widest bound, so work moved into it shows.
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some() && m.bound <= setup.bound));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
