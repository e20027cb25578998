//! A discrete-event, Cosmos-like big-data cluster simulator.
//!
//! The KEA paper's evaluation runs on Microsoft's proprietary Cosmos fleet
//! (300k+ machines). This crate is the substitution mandated by the
//! reproduction: a simulator whose *ground-truth dynamics* encode the same
//! qualitative relationships KEA's models must learn from telemetry, so
//! the full KEA pipeline (Performance Monitor → What-if Engine →
//! Optimizer → Flighting → Deployment) exercises identical code paths.
//!
//! Components:
//!
//! * [`catalog`] — SKU generations (Gen 1.1 … Gen 4.1) and software
//!   configurations (SC1/SC2), with the manual-tuning baseline encoded;
//! * [`cluster`] — machines, racks, sub-clusters;
//! * [`config`] — tunable machine configuration, flighting overrides;
//! * [`workload`] — recurring job templates, stage DAGs, diurnal/weekly
//!   seasonality, TPC-derived benchmark templates;
//! * [`machine`] — the per-machine performance model (utilization,
//!   interference, power, throttling, SSD/RAM usage);
//! * [`engine`] — the fleet-scale event loop (calendar queue, model
//!   tables, windowed telemetry, optional federated sharding) plus the
//!   reference engine it must agree with; both drive one job side;
//! * [`calendar`] — the hierarchical calendar event queue;
//! * [`output`] — job/task logs and exact counters;
//! * [`rng`] — seeded distribution samplers.
//!
//! # Example
//!
//! ```
//! use kea_sim::{run, ClusterSpec, SimConfig};
//!
//! let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 4, 42));
//! assert_eq!(out.telemetry.len(), ClusterSpec::tiny().n_machines() * 4);
//! assert!(out.counters.total > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod calendar;
pub mod catalog;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod machine;
pub mod output;
pub mod rng;
pub mod workload;

pub use calendar::CalendarQueue;
pub use catalog::{default_scs, default_skus, ScSpec, SkuSpec, SC1, SC2};
pub use cluster::{ClusterSpec, Machine, RackId, SubClusterId, MACHINES_PER_RACK};
pub use config::{ConfigPatch, ConfigPlan, ExecConfig, Flight, MachineConfig};
pub use engine::{check_run, run, run_with_exec, SimConfig};
pub use output::{JobRecord, SimOutput, TaskCounters, TaskRecord};
pub use workload::{JobTemplate, Schedule, Seasonality, StageSpec, TaskType, WorkloadSpec};
