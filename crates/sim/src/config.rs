//! Cluster configuration and time-windowed overrides (flighting).
//!
//! KEA tunes *cluster-wide, per-group* configuration (§2), and deploys
//! candidate values to machine subsets through the flighting tool: "users
//! can specify the machine names and the starting/ending time of each
//! flighting" (§4.1). [`MachineConfig`] is the tunable surface,
//! [`ConfigPatch`] a partial override, and [`ConfigPlan`] the composition
//! of per-SKU baselines with a list of [`Flight`]s.

use crate::cluster::Machine;
use kea_telemetry::{MachineId, ScId, SkuId};
use std::collections::{BTreeMap, BTreeSet};

/// Execution knobs for the fleet-scale engine — *how* a scenario runs,
/// orthogonal to *what* is simulated (which stays in `SimConfig`, so the
/// simulated system is bit-identical under every `ExecConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker-thread budget. `1` (the default) runs a single global
    /// scheduling domain with exactly the reference engine's semantics.
    /// `0` or `>= 2` federates scheduling per sub-cluster and runs
    /// `min(shards, sub-clusters)` scoped workers over the domains (`0`
    /// means "one worker per sub-cluster"). Output is invariant in the
    /// worker count: domains are deterministic given the cluster, and
    /// results merge in domain order.
    pub shards: usize,
    /// Telemetry flush cadence in simulated hours: completed machine-hours
    /// stream into the output store once per window instead of
    /// materializing the whole run, bounding memory at fleet scale.
    /// `0` is treated as 1.
    pub emit_window_hours: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shards: 1,
            emit_window_hours: 24,
        }
    }
}

/// The per-machine tunable configuration — the knobs of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// YARN `max_num_running_containers` (application 1).
    pub max_running_containers: u32,
    /// Power cap as a fraction below the provisioned level: 0.10 caps at
    /// 90% of provisioned power; 0.0 disables capping (application 3).
    pub power_cap_fraction: f64,
    /// Processor acceleration feature flag ("Feature" in §7.2).
    pub feature_on: bool,
    /// Software configuration (application 4).
    pub sc: ScId,
    /// Maximum low-priority containers queued per machine (the §5.3
    /// extension knob). `u32::MAX` disables the cap (the baseline).
    pub max_queue_length: u32,
}

/// A partial configuration override; `None` fields inherit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfigPatch {
    /// Override for `max_running_containers`.
    pub max_running_containers: Option<u32>,
    /// Override for `power_cap_fraction`.
    pub power_cap_fraction: Option<f64>,
    /// Override for `feature_on`.
    pub feature_on: Option<bool>,
    /// Override for the software configuration.
    pub sc: Option<ScId>,
    /// Override for `max_queue_length`.
    pub max_queue_length: Option<u32>,
}

impl ConfigPatch {
    /// Applies this patch on top of `base`.
    pub fn apply(&self, base: MachineConfig) -> MachineConfig {
        MachineConfig {
            max_running_containers: self
                .max_running_containers
                .unwrap_or(base.max_running_containers),
            power_cap_fraction: self.power_cap_fraction.unwrap_or(base.power_cap_fraction),
            feature_on: self.feature_on.unwrap_or(base.feature_on),
            sc: self.sc.unwrap_or(base.sc),
            max_queue_length: self.max_queue_length.unwrap_or(base.max_queue_length),
        }
    }

    /// True when the patch overrides nothing.
    pub fn is_empty(&self) -> bool {
        *self == ConfigPatch::default()
    }
}

/// A flighting deployment: a patch applied to a set of machines during
/// `[start_hour, end_hour)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Human-readable label for reports.
    pub label: String,
    /// Target machines.
    pub machines: BTreeSet<MachineId>,
    /// First hour (inclusive) the patch is live.
    pub start_hour: u64,
    /// First hour (exclusive) after the patch ends.
    pub end_hour: u64,
    /// The configuration override.
    pub patch: ConfigPatch,
}

impl Flight {
    /// Whether the flight is live at simulation time `hour`.
    pub fn active_at(&self, hour: f64) -> bool {
        hour >= self.start_hour as f64 && hour < self.end_hour as f64
    }
}

/// The full configuration plan for a simulation run: per-SKU baselines
/// plus flights. Later flights win when several target the same machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigPlan {
    /// Baseline config per SKU.
    pub base: BTreeMap<SkuId, MachineConfig>,
    /// Time-windowed overrides, applied in order.
    pub flights: Vec<Flight>,
}

impl ConfigPlan {
    /// The manual-tuning baseline: every SKU at its
    /// `default_max_containers`, no power cap, Feature off, SC1 — the
    /// pre-KEA production state.
    pub fn baseline(skus: &[crate::catalog::SkuSpec], sc: ScId) -> Self {
        let base = skus
            .iter()
            .map(|s| {
                (
                    s.id,
                    MachineConfig {
                        max_running_containers: s.default_max_containers,
                        power_cap_fraction: 0.0,
                        feature_on: false,
                        sc,
                        max_queue_length: u32::MAX,
                    },
                )
            })
            .collect();
        ConfigPlan {
            base,
            flights: Vec::new(),
        }
    }

    /// Sets the baseline `max_running_containers` for one SKU.
    ///
    /// # Panics
    /// The SKU must exist in the plan.
    pub fn set_max_containers(&mut self, sku: SkuId, max: u32) {
        self.base
            .get_mut(&sku)
            // kea-lint: allow(panic-in-library) — documented `# Panics` contract; plans are built from the same catalog
            .expect("SKU present in plan")
            .max_running_containers = max;
    }

    /// Adds a flight.
    pub fn add_flight(&mut self, flight: Flight) {
        self.flights.push(flight);
    }

    /// Resolves the effective configuration of `machine` (of `sku`) at
    /// simulation time `hour` (fractional hours are fine).
    ///
    /// # Panics
    /// The SKU must exist in the plan.
    pub fn effective(&self, machine: MachineId, sku: SkuId, hour: f64) -> MachineConfig {
        // kea-lint: allow(panic-in-library) — documented `# Panics` contract; engine validates SKUs at construction
        let mut cfg = *self.base.get(&sku).expect("SKU present in plan");
        for flight in &self.flights {
            if flight.active_at(hour) && flight.machines.contains(&machine) {
                cfg = flight.patch.apply(cfg);
            }
        }
        cfg
    }
}

/// Defensive value for out-of-range lookups in [`ResolvedPlan`]; never
/// reached when the plan was resolved against the machine set in use.
const FALLBACK_CONFIG: MachineConfig = MachineConfig {
    max_running_containers: 1,
    power_cap_fraction: 0.0,
    feature_on: false,
    sc: ScId(1),
    max_queue_length: u32::MAX,
};

/// A [`ConfigPlan`] resolved against a fixed machine set and horizon.
///
/// [`ConfigPlan::effective`] is a BTreeMap lookup plus a linear flight
/// scan — fine per telemetry row, ruinous on the event hot path where the
/// engine needs the machine's configuration at every placement, start,
/// and finish. Flights activate and end on integer hour boundaries, so
/// the effective configuration is piecewise-constant per machine-hour;
/// this resolver interns the few distinct [`MachineConfig`] values and
/// tabulates, per machine position, either one constant index (machines
/// in no flight — the overwhelming majority) or a dense per-hour index
/// table. Lookup is then two array reads.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedPlan {
    /// The distinct configurations that occur anywhere in the run.
    configs: Vec<MachineConfig>,
    /// Per machine position: index into `configs` when the machine is in
    /// no flight (constant over the whole run).
    base_idx: Vec<u32>,
    /// Per machine position: `Some` per-hour index table (length
    /// `hours + 1`) for machines targeted by at least one flight.
    overrides: Vec<Option<Box<[u32]>>>,
    /// Simulation horizon the tables were built for.
    hours: u64,
}

/// Interns `cfg` into `configs`, returning its index. The distinct-config
/// population is tiny (per-SKU baselines plus flight variants), so a
/// linear scan beats any hashing.
fn intern_config(configs: &mut Vec<MachineConfig>, cfg: MachineConfig) -> u32 {
    if let Some(i) = configs.iter().position(|c| *c == cfg) {
        return i as u32;
    }
    configs.push(cfg);
    (configs.len() - 1) as u32
}

impl ResolvedPlan {
    /// Resolves `plan` for `machines` over `[0, duration_hours]`.
    ///
    /// # Panics
    /// Propagates [`ConfigPlan::effective`]'s contract: every machine's
    /// SKU must exist in the plan.
    pub fn resolve(plan: &ConfigPlan, machines: &[Machine], duration_hours: u64) -> Self {
        let mut configs = Vec::new();
        let mut base_idx = Vec::with_capacity(machines.len());
        let mut overrides = Vec::with_capacity(machines.len());
        for m in machines {
            let in_flight = plan.flights.iter().any(|f| f.machines.contains(&m.id));
            if in_flight {
                let tab: Box<[u32]> = (0..=duration_hours)
                    .map(|h| {
                        intern_config(&mut configs, plan.effective(m.id, m.sku, h as f64))
                    })
                    .collect();
                // The base slot still needs a valid value; hour 0 serves.
                base_idx.push(tab.first().copied().unwrap_or(0));
                overrides.push(Some(tab));
            } else {
                // No flight targets this machine, so `effective` is the
                // per-SKU baseline at every hour.
                base_idx.push(intern_config(&mut configs, plan.effective(m.id, m.sku, 0.0)));
                overrides.push(None);
            }
        }
        ResolvedPlan {
            configs,
            base_idx,
            overrides,
            hours: duration_hours,
        }
    }

    /// The distinct configurations; `config_index` values index this.
    pub fn configs(&self) -> &[MachineConfig] {
        &self.configs
    }

    /// Index (into [`Self::configs`]) of machine position `m`'s effective
    /// configuration during hour `hour`.
    pub fn config_index(&self, m: usize, hour: u64) -> u32 {
        if let Some(Some(tab)) = self.overrides.get(m) {
            let h = hour.min(self.hours) as usize;
            if let Some(i) = tab.get(h) {
                return *i;
            }
        }
        self.base_idx.get(m).copied().unwrap_or(0)
    }

    /// Effective configuration of machine position `m` during hour `hour`.
    pub fn config_at(&self, m: usize, hour: u64) -> MachineConfig {
        let idx = self.config_index(m, hour) as usize;
        self.configs.get(idx).copied().unwrap_or(FALLBACK_CONFIG)
    }

    /// True when machine position `m` is targeted by any flight (its
    /// configuration may change between hours).
    pub fn is_flighted(&self, m: usize) -> bool {
        matches!(self.overrides.get(m), Some(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{default_skus, SC1, SC2};

    fn plan() -> ConfigPlan {
        ConfigPlan::baseline(&default_skus(50), SC1)
    }

    #[test]
    fn baseline_uses_manual_defaults() {
        let skus = default_skus(50);
        let p = ConfigPlan::baseline(&skus, SC1);
        for sku in &skus {
            let cfg = p.effective(MachineId(0), sku.id, 0.0);
            assert_eq!(cfg.max_running_containers, sku.default_max_containers);
            assert_eq!(cfg.power_cap_fraction, 0.0);
            assert!(!cfg.feature_on);
            assert_eq!(cfg.sc, SC1);
        }
    }

    #[test]
    fn patch_apply_overrides_only_set_fields() {
        let base = MachineConfig {
            max_running_containers: 10,
            power_cap_fraction: 0.0,
            feature_on: false,
            sc: SC1,
            max_queue_length: u32::MAX,
        };
        let patch = ConfigPatch {
            max_running_containers: Some(12),
            sc: Some(SC2),
            ..Default::default()
        };
        let out = patch.apply(base);
        assert_eq!(out.max_running_containers, 12);
        assert_eq!(out.sc, SC2);
        assert_eq!(out.power_cap_fraction, 0.0);
        assert!(!out.feature_on);
        assert!(ConfigPatch::default().is_empty());
        assert!(!patch.is_empty());
    }

    #[test]
    fn flight_window_respected() {
        let mut p = plan();
        let sku = SkuId(0);
        p.add_flight(Flight {
            label: "pilot".to_string(),
            machines: [MachineId(0)].into_iter().collect(),
            start_hour: 24,
            end_hour: 48,
            patch: ConfigPatch {
                max_running_containers: Some(99),
                ..Default::default()
            },
        });
        assert_ne!(
            p.effective(MachineId(0), sku, 23.9).max_running_containers,
            99
        );
        assert_eq!(
            p.effective(MachineId(0), sku, 24.0).max_running_containers,
            99
        );
        assert_eq!(
            p.effective(MachineId(0), sku, 47.9).max_running_containers,
            99
        );
        assert_ne!(
            p.effective(MachineId(0), sku, 48.0).max_running_containers,
            99
        );
        // Non-target machine unaffected.
        assert_ne!(
            p.effective(MachineId(1), sku, 30.0).max_running_containers,
            99
        );
    }

    #[test]
    fn later_flights_win() {
        let mut p = plan();
        let m: BTreeSet<MachineId> = [MachineId(5)].into_iter().collect();
        for (i, v) in [(0u64, 20u32), (0, 30)] {
            p.add_flight(Flight {
                label: format!("f{i}"),
                machines: m.clone(),
                start_hour: 0,
                end_hour: 100,
                patch: ConfigPatch {
                    max_running_containers: Some(v),
                    ..Default::default()
                },
            });
        }
        assert_eq!(
            p.effective(MachineId(5), SkuId(0), 1.0).max_running_containers,
            30
        );
    }

    #[test]
    fn set_max_containers_mutates_baseline() {
        let mut p = plan();
        p.set_max_containers(SkuId(5), 25);
        assert_eq!(
            p.effective(MachineId(0), SkuId(5), 0.0).max_running_containers,
            25
        );
    }

    #[test]
    fn resolved_plan_agrees_with_effective_everywhere() {
        let cluster = crate::cluster::ClusterSpec::tiny();
        let mut p = ConfigPlan::baseline(&cluster.skus, SC1);
        // Two overlapping flights (later wins) plus a disjoint one.
        p.add_flight(Flight {
            label: "a".into(),
            machines: [MachineId(0), MachineId(3), MachineId(7)].into_iter().collect(),
            start_hour: 2,
            end_hour: 6,
            patch: ConfigPatch {
                max_running_containers: Some(30),
                ..Default::default()
            },
        });
        p.add_flight(Flight {
            label: "b".into(),
            machines: [MachineId(3)].into_iter().collect(),
            start_hour: 4,
            end_hour: 8,
            patch: ConfigPatch {
                sc: Some(SC2),
                feature_on: Some(true),
                ..Default::default()
            },
        });
        let hours = 10;
        let r = ResolvedPlan::resolve(&p, &cluster.machines, hours);
        assert!(r.configs().len() >= 3, "baselines + flight variants interned");
        for (pos, m) in cluster.machines.iter().enumerate() {
            for h in 0..=hours {
                // Sample fractional offsets inside the hour too: the
                // effective config is constant within an integer hour.
                for frac in [0.0, 0.25, 0.999] {
                    let want = p.effective(m.id, m.sku, h as f64 + frac);
                    // Past the horizon the table clamps; skip those.
                    if h as f64 + frac > hours as f64 {
                        continue;
                    }
                    assert_eq!(r.config_at(pos, h), want, "machine {pos} hour {h}");
                }
            }
        }
        assert!(r.is_flighted(3));
        assert!(!r.is_flighted(1));
    }

    #[test]
    fn exec_config_default_is_single_shard_daily_window() {
        let e = ExecConfig::default();
        assert_eq!(e.shards, 1);
        assert_eq!(e.emit_window_hours, 24);
    }
}
