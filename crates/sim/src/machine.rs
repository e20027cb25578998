//! The machine performance model.
//!
//! Pure functions mapping (SKU, SC, config, load) to instantaneous machine
//! behaviour. These encode the ground-truth "system fundamentals" that the
//! paper's §5.1 argues are invariant under configuration changes — the
//! relationships KEA's models must rediscover from telemetry:
//!
//! * CPU utilization rises ~linearly with running containers (Figure 9);
//! * task service time grows convexly with utilization (interference);
//! * power follows utilization between idle and peak, clipped by any cap,
//!   and a cap below current demand throttles the clock (§7.2);
//! * the "Feature" improves instructions/joule, trading a small power
//!   reduction and speedup (§7.2);
//! * SC1 penalizes I/O-heavy tasks via HDD temp-store contention (§7.1);
//! * SSD/RAM usage is affine in cores used (Figure 13).

use crate::catalog::{ScSpec, SkuSpec};
use crate::config::MachineConfig;

/// Baseline CPU fraction consumed by the OS and storage agents on an
/// otherwise idle machine.
pub const IDLE_UTIL_FRACTION: f64 = 0.03;

/// Quadratic interference coefficient: service time multiplier is
/// `1 + GAMMA · util²`.
pub const INTERFERENCE_GAMMA: f64 = 0.6;

/// Power-vs-utilization exponent (slightly super-linear).
pub const POWER_EXPONENT: f64 = 1.1;

/// Exponent of the throttle penalty when demand exceeds the power cap.
pub const THROTTLE_EXPONENT: f64 = 0.9;

/// Power-demand multiplier when the Feature is enabled.
pub const FEATURE_POWER_FACTOR: f64 = 0.93;

/// Service-time multiplier when the Feature is enabled.
pub const FEATURE_SPEED_FACTOR: f64 = 0.95;

/// Baseline RAM occupied by the OS and daemons, GB.
pub const BASE_RAM_GB: f64 = 8.0;

/// Instantaneous CPU utilization fraction (0–1) of a machine running
/// `containers` containers.
pub fn cpu_utilization(sku: &SkuSpec, containers: u32) -> f64 {
    (IDLE_UTIL_FRACTION + containers as f64 * sku.cpu_per_container()).min(1.0)
}

/// Instantaneous electrical power demand in watts, *before* capping,
/// given a utilization fraction.
pub fn power_demand(sku: &SkuSpec, util: f64, feature_on: bool) -> f64 {
    let dynamic = (sku.peak_power_w - sku.idle_power_w) * util.powf(POWER_EXPONENT);
    let demand = sku.idle_power_w + dynamic;
    if feature_on {
        demand * FEATURE_POWER_FACTOR
    } else {
        demand
    }
}

/// The configured power cap in watts, or `None` when capping is disabled.
pub fn power_cap_w(sku: &SkuSpec, config: &MachineConfig) -> Option<f64> {
    if config.power_cap_fraction > 0.0 {
        Some(sku.provisioned_power_w * (1.0 - config.power_cap_fraction))
    } else {
        None
    }
}

/// Power actually drawn (demand clipped at the cap) in watts.
pub fn power_draw(sku: &SkuSpec, config: &MachineConfig, util: f64) -> f64 {
    let demand = power_demand(sku, util, config.feature_on);
    match power_cap_w(sku, config) {
        Some(cap) => demand.min(cap),
        None => demand,
    }
}

/// Clock-throttle multiplier on service time when the cap binds:
/// `(demand / cap)^θ ≥ 1`, else 1.
pub fn throttle_multiplier(sku: &SkuSpec, config: &MachineConfig, util: f64) -> f64 {
    let demand = power_demand(sku, util, config.feature_on);
    match power_cap_w(sku, config) {
        Some(cap) if demand > cap => (demand / cap).powf(THROTTLE_EXPONENT),
        _ => 1.0,
    }
}

/// Components of a task's service time on a given machine state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTime {
    /// Wall-clock duration in seconds.
    pub duration_s: f64,
    /// CPU seconds consumed (wall time on core, so throttling and Feature
    /// affect it too).
    pub cpu_time_s: f64,
}

/// Combines pre-resolved service-time factors into a [`ServiceTime`].
///
/// This is the single place the multiplication order is written down:
/// [`service_time`] resolves the factors from the machine environment and
/// delegates here, and the fleet-scale engine calls this directly with
/// factors looked up from its precomputed per-configuration tables. Both
/// paths therefore evaluate the exact same floating-point expression and
/// agree bit for bit.
pub(crate) fn service_time_parts(
    base_cpu_s: f64,
    speed: f64,
    throttle: f64,
    feature: f64,
    interference: f64,
    sc_mult: f64,
) -> ServiceTime {
    // CPU time: intrinsic work, scaled by hardware generation, the clock
    // (throttle), and the microarchitectural Feature.
    let cpu_time_s = base_cpu_s * speed * throttle * feature;
    // Wall time additionally suffers co-runner interference and the SC's
    // I/O path for temp-store-heavy tasks.
    let duration_s = cpu_time_s * interference * sc_mult;
    ServiceTime {
        duration_s,
        cpu_time_s,
    }
}

/// Computes a task's service time from its intrinsic work and the machine
/// environment at start.
///
/// `base_cpu_s` is the task's CPU-seconds of work on the reference SKU at
/// nominal clock; `io_heavy` marks tasks dominated by local temp-store
/// traffic (SC-sensitive); `util` is the machine's utilization fraction
/// when the task starts.
pub fn service_time(
    sku: &SkuSpec,
    sc: &ScSpec,
    config: &MachineConfig,
    base_cpu_s: f64,
    io_heavy: bool,
    util: f64,
) -> ServiceTime {
    debug_assert!(base_cpu_s > 0.0);
    let speed = sku.speed_factor;
    let feature = if config.feature_on {
        FEATURE_SPEED_FACTOR
    } else {
        1.0
    };
    let throttle = throttle_multiplier(sku, config, util);
    let interference = 1.0 + INTERFERENCE_GAMMA * util * util;
    let sc_mult = if io_heavy { sc.io_heavy_multiplier } else { 1.0 };
    service_time_parts(base_cpu_s, speed, throttle, feature, interference, sc_mult)
}

/// Instantaneous resource usage of a machine running `containers`
/// containers under software configuration `sc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    /// CPU cores in use.
    pub cores_used: f64,
    /// RAM in use, GB.
    pub ram_used_gb: f64,
    /// SSD capacity in use, GB.
    pub ssd_used_gb: f64,
    /// Network bandwidth in use, Gbit/s.
    pub network_used_gbps: f64,
}

/// Computes instantaneous resource usage (the ground truth behind the
/// affine SSD/RAM-vs-cores models of §6.1).
pub fn resource_usage(sku: &SkuSpec, sc: &ScSpec, containers: u32) -> ResourceUsage {
    let c = containers as f64;
    let cores_used = cpu_utilization(sku, containers) * sku.cores as f64;
    let ram_used_gb = (BASE_RAM_GB + sku.ram_per_container() * c).min(sku.ram_gb);
    let ssd_used_gb =
        (sc.ssd_base_gb + sku.ssd_per_container() * sc.ssd_share * c).min(sku.ssd_gb);
    // Background replication/heartbeat traffic plus per-container streams.
    let network_used_gbps =
        (0.2 + sku.network_per_container() * c).min(sku.nic_gbps);
    ResourceUsage {
        cores_used,
        ram_used_gb,
        ssd_used_gb,
        network_used_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{default_scs, default_skus, SC1};

    fn sku(i: usize) -> SkuSpec {
        default_skus(1)[i].clone()
    }

    fn base_config() -> MachineConfig {
        MachineConfig {
            max_running_containers: 12,
            power_cap_fraction: 0.0,
            feature_on: false,
            sc: SC1,
            max_queue_length: u32::MAX,
        }
    }

    #[test]
    fn utilization_linear_then_saturates() {
        let s = sku(0); // 12 slots
        assert!((cpu_utilization(&s, 0) - IDLE_UTIL_FRACTION).abs() < 1e-12);
        let one = cpu_utilization(&s, 1) - cpu_utilization(&s, 0);
        let six = cpu_utilization(&s, 6) - cpu_utilization(&s, 5);
        assert!((one - six).abs() < 1e-12, "linear region");
        assert_eq!(cpu_utilization(&s, 100), 1.0, "saturates at 100%");
    }

    #[test]
    fn newer_skus_reach_lower_util_per_container() {
        let old = sku(0);
        let new = sku(5);
        assert!(cpu_utilization(&old, 10) > cpu_utilization(&new, 10));
    }

    #[test]
    fn power_monotone_in_util_between_idle_and_peak() {
        let s = sku(3);
        let p0 = power_demand(&s, 0.0, false);
        let p50 = power_demand(&s, 0.5, false);
        let p100 = power_demand(&s, 1.0, false);
        assert!((p0 - s.idle_power_w).abs() < 1e-9);
        assert!((p100 - s.peak_power_w).abs() < 1e-9);
        assert!(p0 < p50 && p50 < p100);
    }

    #[test]
    fn feature_reduces_power() {
        let s = sku(4);
        assert!(power_demand(&s, 0.8, true) < power_demand(&s, 0.8, false));
    }

    #[test]
    fn light_caps_do_not_throttle() {
        // Provisioned power has ~12% headroom, so a 10% cap sits just
        // above peak and never binds — the paper's core power-capping
        // finding (the original provision was "conservatively high").
        let s = sku(5);
        let cfg = MachineConfig {
            power_cap_fraction: 0.10,
            ..base_config()
        };
        assert_eq!(throttle_multiplier(&s, &cfg, 1.0), 1.0);
        // Power draw equals demand.
        assert!((power_draw(&s, &cfg, 1.0) - s.peak_power_w).abs() < 1e-9);
    }

    #[test]
    fn deep_caps_throttle_at_high_util() {
        let s = sku(5);
        let cfg = MachineConfig {
            power_cap_fraction: 0.30,
            ..base_config()
        };
        let t_high = throttle_multiplier(&s, &cfg, 1.0);
        assert!(t_high > 1.0, "30% cap must bind at full util: {t_high}");
        // But not at low utilization.
        assert_eq!(throttle_multiplier(&s, &cfg, 0.2), 1.0);
        // Drawn power is clipped to the cap.
        let cap = power_cap_w(&s, &cfg).unwrap();
        assert!((power_draw(&s, &cfg, 1.0) - cap).abs() < 1e-9);
    }

    #[test]
    fn feature_softens_deep_caps() {
        // With the Feature on, demand is lower, so the same cap throttles
        // less — the Figure 15 interaction.
        let s = sku(5);
        let capped = MachineConfig {
            power_cap_fraction: 0.30,
            ..base_config()
        };
        let capped_feature = MachineConfig {
            feature_on: true,
            ..capped
        };
        assert!(
            throttle_multiplier(&s, &capped_feature, 1.0)
                < throttle_multiplier(&s, &capped, 1.0)
        );
    }

    #[test]
    fn service_time_structure() {
        let scs = default_scs();
        let (sc1, sc2) = (&scs[0], &scs[1]);
        let s = sku(4); // reference speed 1.0
        let cfg = base_config();
        let st = service_time(&s, sc1, &cfg, 100.0, false, 0.0);
        assert!((st.cpu_time_s - 100.0).abs() < 1e-9);
        assert!((st.duration_s - 100.0).abs() < 1e-9);
        // Interference stretches wall time, not CPU time.
        let busy = service_time(&s, sc1, &cfg, 100.0, false, 0.8);
        assert!((busy.cpu_time_s - 100.0).abs() < 1e-9);
        assert!(busy.duration_s > 130.0);
        // Old hardware is slower in both.
        let old = service_time(&sku(0), sc1, &cfg, 100.0, false, 0.0);
        assert!((old.cpu_time_s - 160.0).abs() < 1e-9);
        // SC matters only for io-heavy tasks.
        let io_sc1 = service_time(&s, sc1, &cfg, 100.0, true, 0.5);
        let io_sc2 = service_time(&s, sc2, &cfg, 100.0, true, 0.5);
        let cpu_sc1 = service_time(&s, sc1, &cfg, 100.0, false, 0.5);
        let cpu_sc2 = service_time(&s, sc2, &cfg, 100.0, false, 0.5);
        assert!(io_sc2.duration_s < io_sc1.duration_s);
        assert!((cpu_sc1.duration_s - cpu_sc2.duration_s).abs() < 1e-9);
    }

    #[test]
    fn feature_speeds_up_tasks() {
        let scs = default_scs();
        let s = sku(4);
        let off = base_config();
        let on = MachineConfig {
            feature_on: true,
            ..off
        };
        let st_off = service_time(&s, &scs[0], &off, 100.0, false, 0.5);
        let st_on = service_time(&s, &scs[0], &on, 100.0, false, 0.5);
        assert!((st_on.cpu_time_s / st_off.cpu_time_s - FEATURE_SPEED_FACTOR).abs() < 1e-9);
        assert!(st_on.duration_s < st_off.duration_s);
    }

    #[test]
    fn resource_usage_affine_in_containers() {
        let scs = default_scs();
        let s = sku(3);
        let r0 = resource_usage(&s, &scs[1], 0);
        let r5 = resource_usage(&s, &scs[1], 5);
        let r10 = resource_usage(&s, &scs[1], 10);
        // Affine: equal increments.
        assert!(
            ((r10.ram_used_gb - r5.ram_used_gb) - (r5.ram_used_gb - r0.ram_used_gb)).abs()
                < 1e-9
        );
        assert!(
            ((r10.ssd_used_gb - r5.ssd_used_gb) - (r5.ssd_used_gb - r0.ssd_used_gb)).abs()
                < 1e-9
        );
        assert!(r0.ram_used_gb >= BASE_RAM_GB);
        // Clamped at installed capacity.
        let huge = resource_usage(&s, &scs[1], 10_000);
        assert!(huge.ram_used_gb <= s.ram_gb);
        assert!(huge.ssd_used_gb <= s.ssd_gb);
        assert!(huge.network_used_gbps <= s.nic_gbps);
        // Network is affine in containers too (the §6.2 extension).
        assert!(
            ((r10.network_used_gbps - r5.network_used_gbps)
                - (r5.network_used_gbps - r0.network_used_gbps))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn sc1_places_less_on_ssd() {
        let scs = default_scs();
        let s = sku(3);
        let sc1_use = resource_usage(&s, &scs[0], 10);
        let sc2_use = resource_usage(&s, &scs[1], 10);
        assert!(sc1_use.ssd_used_gb < sc2_use.ssd_used_gb);
        // RAM is SC-independent.
        assert_eq!(sc1_use.ram_used_gb, sc2_use.ram_used_gb);
    }
}
