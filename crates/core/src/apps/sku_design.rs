//! Application 2: machine configuration design via Hypothetical Tuning
//! (§6.1, Figures 13–14, Table 3 row 2).
//!
//! Given that the next hardware generation's CPU core count is fixed
//! (128), choose the most cost-efficient SSD and RAM sizes. No flighting,
//! no deployment — machines that don't exist can't be experimented on:
//!
//! 1. Fit `s = p(c) = α_s + β_s·c` and `r = q(c) = α_r + β_r·c` on
//!    observational (cores-used, SSD-used, RAM-used) telemetry
//!    (Figure 13).
//! 2. Derive the *empirical distribution* of per-observation slopes
//!    (β_s, β_r) — the "full distribution … based on each observation to
//!    capture the nature variances and noises".
//! 3. Monte-Carlo each candidate design (S, R): draw a slope pair,
//!    compute the binding resource `c = min(128, p⁻¹(S), q⁻¹(R))`, price
//!    idle cores/SSD/RAM and add stranding penalties when SSD or RAM run
//!    out (running out of CPU "is handled more gracefully").
//! 4. Pick the sweet spot of the expected-cost surface (Figure 14).

use crate::error::KeaError;
use crate::monitor::PerformanceMonitor;
use kea_ml::LinearModel1D;
use kea_opt::minimize_expected_cost;
use kea_telemetry::{GroupKey, Metric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Unit costs and penalties of the §6.1 cost model, in arbitrary
/// consistent money units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Penalty per idle CPU core.
    pub idle_core_cost: f64,
    /// Penalty per idle GB of SSD.
    pub idle_ssd_cost_per_gb: f64,
    /// Penalty per idle GB of RAM.
    pub idle_ram_cost_per_gb: f64,
    /// Penalty for stranding the machine on SSD (running out).
    pub out_of_ssd_penalty: f64,
    /// Penalty for stranding the machine on RAM.
    pub out_of_ram_penalty: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Running out of RAM/SSD is catastrophic (OOM kills, spill
        // failures) while idle capacity is merely wasted capex — the
        // paper's "extra penalty of running out".
        CostModel {
            idle_core_cost: 1.0,
            idle_ssd_cost_per_gb: 0.01,
            idle_ram_cost_per_gb: 0.05,
            out_of_ssd_penalty: 120.0,
            out_of_ram_penalty: 160.0,
        }
    }
}

/// Parameters of a SKU-design study.
#[derive(Debug, Clone)]
pub struct SkuDesignParams {
    /// Telemetry group supplying the usage models (a current production
    /// SKU running representative workloads).
    pub source_group: GroupKey,
    /// Core count of the future machine (128 in the paper).
    pub future_cores: u32,
    /// Candidate SSD sizes, GB.
    pub candidate_ssd_gb: Vec<f64>,
    /// Candidate RAM sizes, GB.
    pub candidate_ram_gb: Vec<f64>,
    /// Cost model.
    pub cost: CostModel,
    /// Monte-Carlo draws per design (1000 in the paper).
    pub draws: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Expected cost of one candidate design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignCost {
    /// Candidate SSD size, GB.
    pub ssd_gb: f64,
    /// Candidate RAM size, GB.
    pub ram_gb: f64,
    /// Monte-Carlo mean cost.
    pub expected_cost: f64,
    /// Standard error of the mean.
    pub std_err: f64,
}

/// Outcome of the study.
#[derive(Debug, Clone)]
pub struct SkuDesignOutcome {
    /// Fitted SSD-vs-cores model (`p`, Figure 13 left).
    pub ssd_model: LinearModel1D,
    /// Fitted RAM-vs-cores model (`q`, Figure 13 right).
    pub ram_model: LinearModel1D,
    /// Fitted network-vs-cores model — the §6.2 extension ("the same
    /// methodology is also applicable … such as network bandwidth").
    pub network_model: LinearModel1D,
    /// Suggested NIC line rate for the future machine: projected network
    /// demand at `future_cores` with 40% headroom for storage and
    /// replication traffic, Gbit/s.
    pub suggested_nic_gbps: f64,
    /// Per-observation slope pairs `(β_s, β_r)` the Monte-Carlo draws
    /// from.
    pub slope_pairs: Vec<(f64, f64)>,
    /// The full expected-cost surface (Figure 14), row-major over
    /// (ssd, ram) candidates.
    pub surface: Vec<DesignCost>,
    /// The winning design.
    pub best: DesignCost,
    /// Observations used to fit the models.
    pub n_observations: usize,
}

/// Runs the SKU-design study on a telemetry window.
///
/// # Errors
/// Needs enough observations with non-trivial core usage in the source
/// group, non-empty candidate lists, a future SKU with at least one
/// core, and positive draw count.
pub fn run_sku_design(
    monitor: &PerformanceMonitor<'_>,
    params: &SkuDesignParams,
) -> Result<SkuDesignOutcome, KeaError> {
    if params.candidate_ssd_gb.is_empty() || params.candidate_ram_gb.is_empty() {
        return Err(KeaError::Design("no candidate designs".to_string()));
    }
    if params.future_cores == 0 {
        return Err(KeaError::Design("the future SKU has no cores".to_string()));
    }
    // Gather (cores, ssd, ram) observations for the source group.
    let mut cores = Vec::new();
    let mut ssd = Vec::new();
    let mut ram = Vec::new();
    let mut network = Vec::new();
    for rec in monitor.store().by_group(params.source_group) {
        let c = Metric::CoresUsed.value(&rec.metrics);
        if c > 0.5 {
            cores.push(c);
            ssd.push(Metric::SsdUsed.value(&rec.metrics));
            ram.push(Metric::RamUsed.value(&rec.metrics));
            network.push(Metric::NetworkUsed.value(&rec.metrics));
        }
    }
    if cores.len() < 20 {
        return Err(KeaError::NoObservations {
            what: format!(
                "only {} usable observations for {:?}",
                cores.len(),
                params.source_group
            ),
        });
    }

    let ssd_model = LinearModel1D::fit_huber(&cores, &ssd)?;
    let ram_model = LinearModel1D::fit_huber(&cores, &ram)?;
    let network_model = LinearModel1D::fit_huber(&cores, &network)?;
    let suggested_nic_gbps = network_model.predict(params.future_cores as f64).max(0.0) * 1.4;

    // Per-observation slopes around the fitted intercepts.
    let slope_pairs: Vec<(f64, f64)> = cores
        .iter()
        .zip(ssd.iter().zip(&ram))
        .filter_map(|(&c, (&s, &r))| {
            let beta_s = (s - ssd_model.intercept()) / c;
            let beta_r = (r - ram_model.intercept()) / c;
            (beta_s > 0.0 && beta_r > 0.0).then_some((beta_s, beta_r))
        })
        .collect();
    if slope_pairs.len() < 10 {
        return Err(KeaError::NoObservations {
            what: "too few positive slope observations".to_string(),
        });
    }

    // Candidate grid, row-major over (ssd, ram).
    let candidates: Vec<(f64, f64)> = params
        .candidate_ssd_gb
        .iter()
        .flat_map(|&s| params.candidate_ram_gb.iter().map(move |&r| (s, r)))
        .collect();

    let alpha_s = ssd_model.intercept();
    let alpha_r = ram_model.intercept();
    let cores_cap = params.future_cores as f64;
    let cost_model = params.cost;
    let pairs = slope_pairs.clone();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let report = minimize_expected_cost(
        &candidates,
        params.draws,
        &mut rng,
        move |&(s_cap, r_cap), rng: &mut StdRng| {
            let (beta_s, beta_r) = pairs[rng.gen_range(0..pairs.len())]; // kea-lint: allow(index-in-library) — gen_range(0..len) is in bounds
            // Binding resource: cores usable before SSD or RAM strands us.
            let c_ssd = (s_cap - alpha_s) / beta_s;
            let c_ram = (r_cap - alpha_r) / beta_r;
            let c = cores_cap.min(c_ssd).min(c_ram).max(0.0);
            let idle_cores = cores_cap - c;
            let idle_ssd = (s_cap - (alpha_s + beta_s * c)).max(0.0);
            let idle_ram = (r_cap - (alpha_r + beta_r * c)).max(0.0);
            let mut cost = idle_cores * cost_model.idle_core_cost
                + idle_ssd * cost_model.idle_ssd_cost_per_gb
                + idle_ram * cost_model.idle_ram_cost_per_gb;
            // Stranded: the binding resource ran out before the cores did.
            if c < cores_cap {
                if c_ssd <= c_ram {
                    cost += cost_model.out_of_ssd_penalty;
                } else {
                    cost += cost_model.out_of_ram_penalty;
                }
            }
            cost
        },
    )?;

    let surface: Vec<DesignCost> = report
        .candidates
        .iter()
        .map(|cc| DesignCost {
            // kea-lint: allow(index-in-library) — cc.index enumerates candidates in minimize_expected_cost
            ssd_gb: candidates[cc.index].0,
            ram_gb: candidates[cc.index].1, // kea-lint: allow(index-in-library) — same in-bounds cc.index as the line above
            expected_cost: cc.mean_cost,
            std_err: cc.std_err,
        })
        .collect();
    let best = surface[report.best_index]; // kea-lint: allow(index-in-library) — best_index < candidates.len() == surface.len() by construction

    Ok(SkuDesignOutcome {
        ssd_model,
        ram_model,
        network_model,
        suggested_nic_gbps,
        slope_pairs,
        surface,
        best,
        n_observations: cores.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::{
        MachineHourRecord, MachineId, MetricValues, ScId, SkuId, TelemetryStore,
    };

    /// Synthetic telemetry with known usage laws:
    /// ssd = 100 + 8·cores, ram = 10 + 2·cores, cores ∈ [5, 40].
    fn usage_store() -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..20u32 {
            for h in 0..72u64 {
                let c = 5.0 + ((m as u64 * 7 + h * 3) % 36) as f64;
                let jitter = ((m as u64 + h) % 5) as f64 * 0.3 - 0.6;
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(4), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        cores_used: c,
                        ssd_used_gb: 100.0 + 8.0 * c + jitter * 4.0,
                        ram_used_gb: 10.0 + 2.0 * c + jitter,
                        network_used_gbps: 0.5 + 0.25 * c + jitter * 0.05,
                        tasks_finished: 1.0,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    fn params() -> SkuDesignParams {
        SkuDesignParams {
            source_group: GroupKey::new(SkuId(4), ScId(1)),
            future_cores: 128,
            // True demand at 128 cores: ssd ≈ 100 + 8·128 = 1124;
            // ram ≈ 10 + 2·128 = 266.
            candidate_ssd_gb: vec![512.0, 768.0, 1024.0, 1280.0, 1536.0, 2048.0],
            candidate_ram_gb: vec![128.0, 192.0, 256.0, 320.0, 384.0, 512.0],
            cost: CostModel::default(),
            draws: 400,
            seed: 9,
        }
    }

    #[test]
    fn recovers_usage_models_and_sweet_spot() {
        let store = usage_store();
        let mon = PerformanceMonitor::new(&store);
        let out = run_sku_design(&mon, &params()).unwrap();
        // Figure 13: the fitted laws match ground truth.
        assert!((out.ssd_model.slope() - 8.0).abs() < 0.3, "{:?}", out.ssd_model);
        assert!((out.ram_model.slope() - 2.0).abs() < 0.1, "{:?}", out.ram_model);
        assert!((out.ssd_model.intercept() - 100.0).abs() < 10.0);
        // §6.2 extension: the network model recovers its law and the NIC
        // suggestion covers the 128-core demand (0.5 + 0.25·128 ≈ 32.5
        // Gbit/s) with headroom.
        assert!((out.network_model.slope() - 0.25).abs() < 0.02);
        assert!(
            out.suggested_nic_gbps > 33.0 && out.suggested_nic_gbps < 60.0,
            "nic {}",
            out.suggested_nic_gbps
        );
        // Figure 14: the sweet spot covers the 128-core demand without
        // gross overprovisioning: demand is (1124, 266).
        assert!(
            out.best.ssd_gb >= 1024.0 && out.best.ssd_gb <= 1536.0,
            "best ssd {}",
            out.best.ssd_gb
        );
        assert!(
            out.best.ram_gb >= 256.0 && out.best.ram_gb <= 384.0,
            "best ram {}",
            out.best.ram_gb
        );
        // Full surface evaluated.
        assert_eq!(out.surface.len(), 36);
        // Under-provisioned corners are dominated by stranding penalties.
        let corner = out
            .surface
            .iter()
            .find(|d| d.ssd_gb == 512.0 && d.ram_gb == 128.0)
            .unwrap();
        assert!(corner.expected_cost > out.best.expected_cost * 1.5);
    }

    #[test]
    fn surface_is_u_shaped_along_each_axis() {
        let store = usage_store();
        let mon = PerformanceMonitor::new(&store);
        let out = run_sku_design(&mon, &params()).unwrap();
        // Fix RAM at the winner and walk SSD: endpoints dearer than best.
        let row: Vec<&DesignCost> = out
            .surface
            .iter()
            .filter(|d| d.ram_gb == out.best.ram_gb)
            .collect();
        let best = row
            .iter()
            .map(|d| d.expected_cost)
            .fold(f64::INFINITY, f64::min);
        assert!(row.first().unwrap().expected_cost > best);
        assert!(row.last().unwrap().expected_cost > best);
    }

    #[test]
    fn deterministic_under_seed() {
        let store = usage_store();
        let mon = PerformanceMonitor::new(&store);
        let a = run_sku_design(&mon, &params()).unwrap();
        let b = run_sku_design(&mon, &params()).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.surface.len(), b.surface.len());
    }

    #[test]
    fn rejects_missing_group_and_empty_candidates() {
        let store = usage_store();
        let mon = PerformanceMonitor::new(&store);
        let mut p = params();
        p.source_group = GroupKey::new(SkuId(9), ScId(1));
        assert!(matches!(
            run_sku_design(&mon, &p),
            Err(KeaError::NoObservations { .. })
        ));
        let mut p = params();
        p.candidate_ssd_gb.clear();
        assert!(matches!(run_sku_design(&mon, &p), Err(KeaError::Design(_))));
        let mut p = params();
        p.future_cores = 0;
        assert!(matches!(run_sku_design(&mon, &p), Err(KeaError::Design(_))));
    }
}
