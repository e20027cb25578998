//! Hardware (SKU) and software-configuration (SC) catalog.
//!
//! The paper's clusters mix 6–9 hardware generations ("after a decade of
//! operation, Cosmos involves more than 20 hardware generations … Each
//! cluster consists of 6 to 9 SKUs", §2) and two software configurations
//! (SC1: local temp store on HDD, SC2: on SSD, §7.1). The default catalog
//! models six generations named after the paper's figures
//! (Gen 1.1 … Gen 4.1, Figures 2, 9, 10) with capabilities that encode the
//! qualitative facts KEA must rediscover from telemetry:
//!
//! * older SKUs are slower (`speed_factor` > 1) and have fewer slots;
//! * the manual-tuning baseline pushes old SKUs close to their physical
//!   slot count while new SKUs are conservatively capped (the right-hand
//!   side of Figure 2: "older-generation machines … are substantially more
//!   utilized");
//! * provisioned power carries ~12% headroom above physical peak draw, the
//!   "conservatively high power consumption limit" §4.2 calls out: light
//!   caps are free, deep caps bite only at high utilization.

use kea_telemetry::{ScId, SkuId};

/// A hardware generation (stock keeping unit).
#[derive(Debug, Clone, PartialEq)]
pub struct SkuSpec {
    /// Identifier used in telemetry group keys.
    pub id: SkuId,
    /// Display name, e.g. "Gen 1.1".
    pub name: String,
    /// Physical CPU cores.
    pub cores: u32,
    /// Installed RAM in GB.
    pub ram_gb: f64,
    /// Installed SSD capacity in GB.
    pub ssd_gb: f64,
    /// NIC line rate in Gbit/s.
    pub nic_gbps: f64,
    /// Task-duration multiplier relative to the reference generation
    /// (1.0); older machines are slower, so > 1.
    pub speed_factor: f64,
    /// Physical container slots (hard capacity).
    pub slots: u32,
    /// The manual-tuning baseline for `max_num_running_containers` — what
    /// years of expert tuning arrived at before KEA.
    pub default_max_containers: u32,
    /// Power draw at idle, watts.
    pub idle_power_w: f64,
    /// Power draw at full utilization, watts.
    pub peak_power_w: f64,
    /// Provisioned (budgeted) power per machine, watts. Deliberately
    /// conservative: ~12% above physical peak draw.
    pub provisioned_power_w: f64,
    /// Machines of this SKU in the default cluster spec.
    pub machine_count: u32,
    /// Year the generation entered the fleet (drives Figure 2 ordering).
    pub intro_year: u16,
}

impl SkuSpec {
    /// Effective CPU fraction consumed per running container. Containers
    /// are not perfectly CPU-bound; 0.88 of a slot's share is typical.
    pub fn cpu_per_container(&self) -> f64 {
        0.88 / self.slots as f64
    }

    /// RAM working set per container, GB.
    pub fn ram_per_container(&self) -> f64 {
        self.ram_gb * 0.75 / self.slots as f64
    }

    /// SSD working set per container, GB (before SC adjustments).
    pub fn ssd_per_container(&self) -> f64 {
        self.ssd_gb * 0.5 / self.slots as f64
    }

    /// Network bandwidth per container, Gbit/s. Big-data tasks stream
    /// their inputs; ~60% of the NIC is consumable by containers before
    /// storage/replication traffic takes the rest.
    pub fn network_per_container(&self) -> f64 {
        self.nic_gbps * 0.6 / self.slots as f64
    }
}

/// A software configuration: how logical drives map to physical media.
#[derive(Debug, Clone, PartialEq)]
pub struct ScSpec {
    /// Identifier used in telemetry group keys.
    pub id: ScId,
    /// Display name ("SC1" / "SC2").
    pub name: String,
    /// Duration multiplier applied to I/O-heavy tasks. SC1 keeps the local
    /// temp store on HDD and suffers write contention (> 1); SC2 moves it
    /// to SSD (< 1). §7.1.
    pub io_heavy_multiplier: f64,
    /// Baseline SSD occupancy in GB (SC2's temp store lives on SSD).
    pub ssd_base_gb: f64,
    /// Fraction of the per-container SSD working set actually placed on
    /// SSD (SC1 spills part to HDD).
    pub ssd_share: f64,
}

/// SC identifier constants matching the paper's naming.
pub const SC1: ScId = ScId(1);
/// See [`SC1`].
pub const SC2: ScId = ScId(2);

/// Builds the two software configurations of §7.1.
pub fn default_scs() -> Vec<ScSpec> {
    vec![
        ScSpec {
            id: SC1,
            name: "SC1".to_string(),
            io_heavy_multiplier: 1.15,
            ssd_base_gb: 20.0,
            ssd_share: 0.35,
        },
        ScSpec {
            id: SC2,
            name: "SC2".to_string(),
            io_heavy_multiplier: 0.96,
            ssd_base_gb: 120.0,
            ssd_share: 1.0,
        },
    ]
}

/// Looks up one of the two paper SCs by id, backed by a process-wide
/// cache (the hot path of the simulation engine resolves an SC at every
/// task start).
///
/// # Panics
/// The id must be [`SC1`] or [`SC2`].
pub(crate) fn default_scs_static(id: ScId) -> &'static ScSpec {
    use std::sync::OnceLock;
    static SCS: OnceLock<Vec<ScSpec>> = OnceLock::new();
    SCS.get_or_init(default_scs)
        .iter()
        .find(|s| s.id == id)
        // kea-lint: allow(panic-in-library) — documented `# Panics` contract; ScId is a two-variant enum
        .expect("ScId must be SC1 or SC2")
}

/// Builds the default six-generation catalog. `scale` divides machine
/// counts so tests can run miniature clusters (scale = 1 is the headline
/// ~1,500-machine cluster, a 1:30 scale model of the paper's 45k-machine
/// cluster).
///
/// # Panics
/// `scale` must be at least 1.
pub fn default_skus(scale: u32) -> Vec<SkuSpec> {
    // kea-lint: allow(panic-in-library) — documented `# Panics` contract; every library caller passes a literal scale (the `ClusterSpec` presets)
    assert!(scale >= 1, "scale must be at least 1");
    let scaled = |n: u32| (n / scale).max(2);
    vec![
        SkuSpec {
            id: SkuId(0),
            name: "Gen 1.1".to_string(),
            cores: 16,
            ram_gb: 64.0,
            ssd_gb: 240.0,
            nic_gbps: 10.0,
            speed_factor: 1.60,
            slots: 12,
            default_max_containers: 12,
            idle_power_w: 100.0,
            peak_power_w: 300.0,
            provisioned_power_w: 336.0,
            machine_count: scaled(300),
            intro_year: 2012,
        },
        SkuSpec {
            id: SkuId(1),
            name: "Gen 2.1".to_string(),
            cores: 24,
            ram_gb: 96.0,
            ssd_gb: 480.0,
            nic_gbps: 10.0,
            speed_factor: 1.35,
            slots: 16,
            default_max_containers: 15,
            idle_power_w: 110.0,
            peak_power_w: 350.0,
            provisioned_power_w: 392.0,
            machine_count: scaled(250),
            intro_year: 2014,
        },
        SkuSpec {
            id: SkuId(2),
            name: "Gen 2.2".to_string(),
            cores: 24,
            ram_gb: 128.0,
            ssd_gb: 960.0,
            nic_gbps: 10.0,
            speed_factor: 1.25,
            slots: 18,
            default_max_containers: 16,
            idle_power_w: 110.0,
            peak_power_w: 360.0,
            provisioned_power_w: 403.0,
            machine_count: scaled(200),
            intro_year: 2015,
        },
        SkuSpec {
            id: SkuId(3),
            name: "Gen 3.1".to_string(),
            cores: 32,
            ram_gb: 128.0,
            ssd_gb: 960.0,
            nic_gbps: 25.0,
            speed_factor: 1.10,
            slots: 20,
            default_max_containers: 17,
            idle_power_w: 120.0,
            peak_power_w: 400.0,
            provisioned_power_w: 448.0,
            machine_count: scaled(350),
            intro_year: 2017,
        },
        SkuSpec {
            id: SkuId(4),
            name: "Gen 3.2".to_string(),
            cores: 40,
            ram_gb: 192.0,
            ssd_gb: 1920.0,
            nic_gbps: 25.0,
            speed_factor: 1.00,
            slots: 24,
            default_max_containers: 19,
            idle_power_w: 130.0,
            peak_power_w: 450.0,
            provisioned_power_w: 504.0,
            machine_count: scaled(250),
            intro_year: 2018,
        },
        SkuSpec {
            id: SkuId(5),
            name: "Gen 4.1".to_string(),
            cores: 64,
            ram_gb: 256.0,
            ssd_gb: 3840.0,
            nic_gbps: 40.0,
            speed_factor: 0.80,
            slots: 32,
            default_max_containers: 22,
            idle_power_w: 150.0,
            peak_power_w: 550.0,
            provisioned_power_w: 616.0,
            machine_count: scaled(150),
            intro_year: 2020,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalog_has_six_generations() {
        let skus = default_skus(1);
        assert_eq!(skus.len(), 6);
        // Unique ids and names.
        let mut ids: Vec<u16> = skus.iter().map(|s| s.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn older_generations_are_slower_and_smaller() {
        let skus = default_skus(1);
        for pair in skus.windows(2) {
            assert!(pair[0].intro_year < pair[1].intro_year);
            assert!(pair[0].speed_factor > pair[1].speed_factor);
            assert!(pair[0].cores <= pair[1].cores);
        }
    }

    #[test]
    fn manual_baseline_pushes_old_skus_harder() {
        // The Figure 2 premise: tuned fraction (max/slots) decreases with
        // generation age.
        let skus = default_skus(1);
        let fractions: Vec<f64> = skus
            .iter()
            .map(|s| s.default_max_containers as f64 / s.slots as f64)
            .collect();
        for pair in fractions.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "newer SKUs must be relatively less pushed: {fractions:?}"
            );
        }
        assert_eq!(fractions[0], 1.0); // oldest maxed out
        assert!(fractions[5] < 0.75); // newest conservative
    }

    #[test]
    fn provisioned_power_has_headroom() {
        for sku in default_skus(1) {
            let headroom = sku.provisioned_power_w / sku.peak_power_w;
            assert!(
                (1.05..1.25).contains(&headroom),
                "{}: headroom {headroom}",
                sku.name
            );
            assert!(sku.idle_power_w < sku.peak_power_w);
            assert!(sku.default_max_containers <= sku.slots);
        }
    }

    #[test]
    fn scaling_shrinks_counts_with_floor() {
        let full = default_skus(1);
        let tiny = default_skus(100);
        for (f, t) in full.iter().zip(&tiny) {
            assert!(t.machine_count >= 2);
            assert!(t.machine_count <= f.machine_count);
        }
    }

    #[test]
    fn per_container_footprints_positive() {
        for sku in default_skus(1) {
            assert!(sku.cpu_per_container() > 0.0 && sku.cpu_per_container() < 0.1);
            assert!(sku.ram_per_container() > 0.0);
            assert!(sku.ssd_per_container() > 0.0);
            assert!(sku.network_per_container() > 0.0);
            assert!(sku.nic_gbps >= 10.0);
        }
    }

    #[test]
    fn scs_match_section_7_1() {
        let scs = default_scs();
        assert_eq!(scs.len(), 2);
        let sc1 = &scs[0];
        let sc2 = &scs[1];
        assert_eq!(sc1.id, SC1);
        assert_eq!(sc2.id, SC2);
        // SC1 (temp on HDD) penalizes I/O-heavy tasks; SC2 helps them.
        assert!(sc1.io_heavy_multiplier > 1.0);
        assert!(sc2.io_heavy_multiplier < 1.0);
        // SC2 spends SSD on the temp store.
        assert!(sc2.ssd_base_gb > sc1.ssd_base_gb);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        default_skus(0);
    }
}
