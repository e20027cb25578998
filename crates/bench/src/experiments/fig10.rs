//! Figure 10 — the suggested configuration change: decrease containers
//! on slower generations, increase on faster ones; the direction agrees
//! between the median-load and high-percentile runs.

use crate::common::{observe, ExperimentScale, Report, STANDARD_OCCUPANCY};
use kea_core::{optimize_max_containers, tune, OperatingPoint, TunePolicy};

/// Regenerates the suggested-change bar chart (as a signed-step table)
/// plus the high-load sensitivity run.
pub fn run(scale: ExperimentScale) -> Report {
    let cluster = scale.cluster();
    let out = observe(&cluster, STANDARD_OCCUPANCY, scale.observe_hours(), 27);
    let tuned = tune(&out.telemetry, &TunePolicy::default()).expect("enough telemetry");
    let (engine, counts, median) = (&tuned.engine, &tuned.machine_counts, &tuned.plan);
    let p90 = optimize_max_containers(engine, counts, 1.0, OperatingPoint::Percentile(90.0))
        .expect("solvable LP");

    let mut r = Report::new(
        "Figure 10: suggested max-container change per SKU",
        "decrease for slower (Gen 1.1), increase for faster (Gen 4.1); same direction under heavy load",
    );
    r.headers(&["step@median", "step@p90", "grad s/cont", "machines"]);
    let mut agree = true;
    for (m, p) in median.suggestions.iter().zip(&p90.suggestions) {
        let name = &cluster.sku(m.group.sku).name;
        if m.delta_step.signum() != p.delta_step.signum()
            && m.delta_step != 0
            && p.delta_step != 0
        {
            agree = false;
        }
        r.row(
            name,
            vec![
                m.delta_step as f64,
                p.delta_step as f64,
                m.latency_gradient,
                m.n_machines as f64,
            ],
        );
    }
    r.note(format!(
        "direction agreement between median and p90 runs: {agree} (paper: same direction)"
    ));
    r.note(format!(
        "predicted capacity gain {:.2}% at unchanged cluster latency ({:.1}s → {:.1}s predicted)",
        median.predicted_capacity_gain * 100.0,
        median.baseline_latency,
        median.predicted_latency,
    ));
    // The paper's next round allowed ±2 containers and expected ~5% more
    // capacity; project it with the same models.
    if let Ok(round2) = optimize_max_containers(engine, counts, 2.0, OperatingPoint::Median) {
        r.note(format!(
            "round 2 (±2 containers): predicted capacity gain {:.2}% (paper expected ~5% more)",
            round2.predicted_capacity_gain * 100.0
        ));
    }
    r
}
