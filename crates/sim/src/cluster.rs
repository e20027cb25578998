//! Cluster topology: machines, racks, sub-clusters.
//!
//! Topology matters to KEA's Experiment Module: the "ideal setting" picks
//! every other machine *within a rack* (§7), pilot flights target
//! sub-clusters (§5.2.2), and Figure 6 checks task-type uniformity across
//! racks. The builder lays machines of each SKU contiguously, then deals
//! them into racks of 40 and sub-clusters of roughly a third of the fleet,
//! so racks are SKU-homogeneous — as in real datacenters, where racks are
//! purchased and installed as units.

use crate::catalog::SkuSpec;
use kea_telemetry::{MachineId, SkuId};

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// Identifier of a sub-cluster (the unit of the third/fourth pilot
/// flights in §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubClusterId(pub u32);

/// Machines per rack in the default topology.
pub const MACHINES_PER_RACK: u32 = 20;

/// One physical machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Unique id within the cluster.
    pub id: MachineId,
    /// Hardware generation.
    pub sku: SkuId,
    /// Rack the machine is mounted in.
    pub rack: RackId,
    /// Sub-cluster membership.
    pub subcluster: SubClusterId,
}

/// A fully laid-out cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// SKU catalog in use.
    pub skus: Vec<SkuSpec>,
    /// All machines, id-ordered.
    pub machines: Vec<Machine>,
    /// Number of sub-clusters.
    pub n_subclusters: u32,
}

impl ClusterSpec {
    /// Builds a cluster from a SKU catalog: machines of each SKU are laid
    /// out contiguously, racked in units of [`MACHINES_PER_RACK`], and
    /// dealt into `n_subclusters` contiguous sub-clusters.
    ///
    /// # Panics
    /// `n_subclusters` must be ≥ 1 and the catalog non-empty.
    pub fn build(skus: Vec<SkuSpec>, n_subclusters: u32) -> Self {
        // kea-lint: allow(panic-in-library) — documented `# Panics` contract; every library caller passes `default_skus`, which is never empty
        assert!(!skus.is_empty(), "catalog must be non-empty");
        // kea-lint: allow(panic-in-library) — documented `# Panics` contract; every library caller passes a literal sub-cluster count
        assert!(n_subclusters >= 1, "need at least one sub-cluster");
        let total: u32 = skus.iter().map(|s| s.machine_count).sum();
        let mut machines = Vec::with_capacity(total as usize);
        let mut next_id = 0u32;
        let mut rack = 0u32;
        for sku in &skus {
            // Racks are purchase units: a new hardware generation starts
            // a fresh rack, so racks are SKU-homogeneous (the property
            // the ideal experiment setting of §7 relies on).
            let mut in_rack = 0u32;
            for _ in 0..sku.machine_count {
                machines.push(Machine {
                    id: MachineId(next_id),
                    sku: sku.id,
                    rack: RackId(rack),
                    // Sub-clusters interleave across the fleet so each is
                    // a representative hardware sample — the property the
                    // §5.2.2 sub-cluster pilots rely on.
                    subcluster: SubClusterId(next_id % n_subclusters),
                });
                next_id += 1;
                in_rack += 1;
                if in_rack == MACHINES_PER_RACK {
                    rack += 1;
                    in_rack = 0;
                }
            }
            if in_rack > 0 {
                rack += 1;
            }
        }
        ClusterSpec {
            skus,
            machines,
            n_subclusters,
        }
    }

    /// The default headline cluster (~1,500 machines at scale 1).
    pub fn default_cluster() -> Self {
        Self::build(crate::catalog::default_skus(1), 3)
    }

    /// A mid-size cluster for statistically powered experiments
    /// (scale 4 ⇒ ~375 machines).
    pub fn medium() -> Self {
        Self::build(crate::catalog::default_skus(4), 3)
    }

    /// A miniature cluster for fast tests (scale 10 ⇒ ~150 machines).
    pub fn small() -> Self {
        Self::build(crate::catalog::default_skus(10), 3)
    }

    /// A tiny cluster for unit tests (scale 50 ⇒ ~30 machines).
    pub fn tiny() -> Self {
        Self::build(crate::catalog::default_skus(50), 3)
    }

    /// Total machine count.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Looks up a SKU spec by id.
    ///
    /// # Panics
    /// The id must come from this cluster's catalog.
    pub fn sku(&self, id: SkuId) -> &SkuSpec {
        self.skus
            .iter()
            .find(|s| s.id == id)
            // kea-lint: allow(panic-in-library) — documented `# Panics` contract on this lookup API
            .expect("SkuId from this cluster's catalog")
    }

    /// Looks up a machine by id.
    ///
    /// # Panics
    /// The id must be in range.
    pub fn machine(&self, id: MachineId) -> &Machine {
        // kea-lint: allow(index-in-library) — documented `# Panics` contract on this lookup API
        &self.machines[id.0 as usize]
    }

    /// Machines of one SKU.
    pub fn machines_of_sku(&self, sku: SkuId) -> impl Iterator<Item = &Machine> {
        self.machines.iter().filter(move |m| m.sku == sku)
    }

    /// Machines of one rack.
    pub fn machines_of_rack(&self, rack: RackId) -> impl Iterator<Item = &Machine> {
        self.machines.iter().filter(move |m| m.rack == rack)
    }

    /// Machines of one sub-cluster.
    pub fn machines_of_subcluster(&self, sub: SubClusterId) -> impl Iterator<Item = &Machine> {
        self.machines.iter().filter(move |m| m.subcluster == sub)
    }

    /// Number of racks.
    pub fn n_racks(&self) -> u32 {
        self.machines.last().map_or(0, |m| m.rack.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::default_skus;

    #[test]
    fn build_assigns_all_machines() {
        let spec = ClusterSpec::default_cluster();
        let expected: u32 = spec.skus.iter().map(|s| s.machine_count).sum();
        assert_eq!(spec.n_machines(), expected as usize);
        // Ids are dense and ordered.
        for (i, m) in spec.machines.iter().enumerate() {
            assert_eq!(m.id, MachineId(i as u32));
        }
    }

    #[test]
    fn racks_are_sku_homogeneous() {
        // Each generation starts a fresh rack, so racks never mix SKUs.
        let spec = ClusterSpec::default_cluster();
        for rack in 0..spec.n_racks() {
            let skus: std::collections::BTreeSet<_> = spec
                .machines_of_rack(RackId(rack))
                .map(|m| m.sku)
                .collect();
            assert_eq!(skus.len(), 1, "rack {rack} spans {} SKUs", skus.len());
        }
        // And every rack holds at most the rack capacity.
        for rack in 0..spec.n_racks() {
            assert!(spec.machines_of_rack(RackId(rack)).count() <= MACHINES_PER_RACK as usize);
        }
    }

    #[test]
    fn subclusters_partition_the_fleet_representatively() {
        let spec = ClusterSpec::default_cluster();
        let total: usize = (0..spec.n_subclusters)
            .map(|s| spec.machines_of_subcluster(SubClusterId(s)).count())
            .sum();
        assert_eq!(total, spec.n_machines());
        // Roughly equal thirds.
        for s in 0..spec.n_subclusters {
            let n = spec.machines_of_subcluster(SubClusterId(s)).count();
            assert!(n >= spec.n_machines() / 4, "subcluster {s} has {n}");
        }
        // Representative: every sub-cluster carries every SKU.
        for s in 0..spec.n_subclusters {
            let skus: std::collections::BTreeSet<_> = spec
                .machines_of_subcluster(SubClusterId(s))
                .map(|m| m.sku)
                .collect();
            assert_eq!(skus.len(), spec.skus.len(), "subcluster {s} not representative");
        }
    }

    #[test]
    fn sku_lookup_and_filters_agree() {
        let spec = ClusterSpec::small();
        for sku in &spec.skus {
            let count = spec.machines_of_sku(sku.id).count();
            assert_eq!(count, sku.machine_count as usize);
        }
    }

    #[test]
    fn presets_scale_down() {
        assert!(ClusterSpec::tiny().n_machines() < ClusterSpec::small().n_machines());
        assert!(ClusterSpec::small().n_machines() < ClusterSpec::default_cluster().n_machines());
        // Tiny still carries every SKU (needed for per-group models).
        assert_eq!(ClusterSpec::tiny().skus.len(), 6);
    }

    #[test]
    fn machine_accessor_round_trips() {
        let spec = ClusterSpec::tiny();
        let m = spec.machine(MachineId(3));
        assert_eq!(m.id, MachineId(3));
        let sku = spec.sku(m.sku);
        assert!(default_skus(1).iter().any(|s| s.name == sku.name));
    }

    #[test]
    #[should_panic(expected = "sub-cluster")]
    fn zero_subclusters_panics() {
        ClusterSpec::build(default_skus(50), 0);
    }
}
