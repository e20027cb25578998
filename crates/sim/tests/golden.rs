//! Golden pins: the simulator's whole output, hashed, against constants.
//!
//! `agreement.rs` and the workspace determinism suite compare runs of
//! the same code with each other, so a change that moves both engines
//! the same way passes them. These pins do not: each hashes everything a
//! run produces (canonical telemetry with every metric's bits, the job
//! log, the task log, the counters and the end-of-run counts) and
//! compares the digest with a constant. A change meant to move the
//! output updates the constant and says why.

use kea_sim::{
    run, run_with_exec, ClusterSpec, ConfigPatch, ExecConfig, Flight, SimConfig, SimOutput, SC2,
};
use kea_telemetry::MachineId;
use std::collections::BTreeSet;

/// FNV-1a, 64-bit: a fixed, dependency-free byte hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(out: &SimOutput) -> u64 {
    let mut h = Fnv::new();
    let mut telemetry: Vec<_> = out.telemetry.iter().cloned().collect();
    telemetry.sort_by_key(|r| (r.machine.0, r.hour));
    h.u64(telemetry.len() as u64);
    for r in &telemetry {
        h.u64(u64::from(r.machine.0));
        h.u64(r.hour);
        h.u64(u64::from(r.group.sku.0));
        h.u64(u64::from(r.group.sc.0));
        let m = &r.metrics;
        for v in [
            m.total_data_read_gb,
            m.tasks_finished,
            m.task_exec_time_s,
            m.cpu_time_s,
            m.cpu_utilization,
            m.avg_running_containers,
            m.avg_task_latency_s,
            m.queued_containers,
            m.queue_latency_p99_ms,
            m.power_draw_w,
            m.ssd_used_gb,
            m.ram_used_gb,
            m.cores_used,
            m.network_used_gbps,
        ] {
            h.f64(v);
        }
    }
    h.u64(out.jobs.len() as u64);
    for j in &out.jobs {
        h.u64(j.template as u64);
        h.bytes(j.template_name.as_bytes());
        h.f64(j.arrival_hour);
        h.f64(j.runtime_s);
        h.u64(u64::from(j.tasks));
    }
    h.u64(out.tasks.len() as u64);
    for t in &out.tasks {
        h.u64(t.template as u64);
        h.u64(t.task_type as u64);
        h.u64(u64::from(t.machine.0));
        h.u64(u64::from(t.sku.0));
        h.u64(u64::from(t.sc.0));
        h.u64(u64::from(t.rack.0));
        h.f64(t.end_hour);
        h.f64(t.duration_s);
        h.f64(t.queue_wait_s);
        h.u64(u64::from(t.on_critical_path));
    }
    let c = &out.counters;
    for (sku, n) in &c.by_sku {
        h.u64(u64::from(sku.0));
        h.u64(*n);
    }
    for (sku, n) in &c.critical_by_sku {
        h.u64(u64::from(sku.0));
        h.u64(*n);
    }
    for ((rack, tt), n) in &c.by_rack_type {
        h.u64(u64::from(rack.0));
        h.u64(*tt as u64);
        h.u64(*n);
    }
    for ((sku, tt), n) in &c.by_sku_type {
        h.u64(u64::from(sku.0));
        h.u64(*tt as u64);
        h.u64(*n);
    }
    h.u64(c.total);
    h.u64(out.tasks_in_flight_at_end);
    h.u64(out.jobs_in_flight_at_end);
    h.u64(out.nonfinite_dropped);
    h.0
}

/// The flighted fixture of `agreement.rs`: one global scheduling domain,
/// a third of the tiny fleet under a flight that changes every knob for
/// hours 6–18.
#[test]
fn flighted_tiny_day_output_is_pinned() {
    let mut cfg = SimConfig::baseline(ClusterSpec::tiny(), 24, 91);
    let targets: BTreeSet<MachineId> = cfg
        .cluster
        .machines
        .iter()
        .filter(|m| m.id.0 % 3 == 0)
        .map(|m| m.id)
        .collect();
    cfg.plan.add_flight(Flight {
        label: "agreement-flight".into(),
        machines: targets,
        start_hour: 6,
        end_hour: 18,
        patch: ConfigPatch {
            max_running_containers: Some(6),
            power_cap_fraction: Some(0.25),
            feature_on: Some(true),
            sc: Some(SC2),
            max_queue_length: Some(4),
        },
    });
    let out = run(&cfg);
    assert_eq!(format!("{:016x}", digest(&out)), "ba75d4ad905d5f0a");
}

/// The small-cluster fixture of `agreement.rs`, federated: one scheduling
/// domain per sub-cluster, each on its own counter-based stream.
#[test]
fn federated_small_half_day_output_is_pinned() {
    let cfg = SimConfig::baseline(ClusterSpec::small(), 12, 17);
    let out = run_with_exec(
        &cfg,
        ExecConfig {
            shards: 2,
            emit_window_hours: 24,
        },
    );
    assert_eq!(format!("{:016x}", digest(&out)), "5066c89572c4dc0f");
}
