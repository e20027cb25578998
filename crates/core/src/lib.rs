//! # KEA: data-driven tuning of an exabyte-scale data infrastructure
//!
//! A from-scratch Rust reproduction of *"KEA: Tuning an Exabyte-Scale
//! Data Infrastructure"* (SIGMOD 2021). KEA replaces manual cluster
//! tuning with models learned from passively observed telemetry,
//! escalating to production experiments only as a last resort.
//!
//! ## Architecture (Figure 7 of the paper)
//!
//! * [`monitor`] — the **Performance Monitor**: joins telemetry and
//!   computes the machine-group metrics of Table 2.
//! * [`whatif`] — the **Modeling Module**'s What-if Engine: per-group
//!   Huber regressions `g_k`, `h_k`, `f_k` (Equations 1–6).
//! * [`optimizer`] — the **Optimizer**: the container-rebalancing LP
//!   (Equations 7–10), linearized into one row and solved in closed form.
//! * [`tune`](mod@tune) — one observational tuning pass through the three:
//!   [`tune()`] fits the engine on a telemetry window and solves the LP
//!   under a [`TunePolicy`].
//! * [`experiment`] — the **Experiment Module**: ideal / time-slicing /
//!   hybrid designs and treatment-effect analysis (§7).
//! * [`flighting`] — the **Flighting Tool** and **Deployment Module**:
//!   windowed config overrides, before/after evaluation, guardrails.
//! * [`conceptualization`] — Phase I validations of the abstraction
//!   ladder (Figures 4–6).
//! * [`slo`] — implicit-SLO validation at the job level (§3.2 Level II).
//! * [`economics`] — converting capacity gains into dollars (§5.3's
//!   "monetary values").
//! * [`apps`] — the four production applications of Table 3, plus the
//!   §5.3 queue-length extension.
//!
//! The proprietary Cosmos fleet is replaced by the [`kea_sim`] simulator
//! (see `DESIGN.md` for the substitution argument); everything else —
//! models, optimizer, statistics, experiment designs — is exactly the
//! paper's machinery.
//!
//! ## Quickstart
//!
//! ```
//! use kea_core::monitor::PerformanceMonitor;
//! use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
//! use kea_sim::{run, ClusterSpec, SimConfig};
//!
//! // Observe a (simulated) cluster for two days.
//! let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 7));
//! // Calibrate the What-if Engine from telemetry alone.
//! let monitor = PerformanceMonitor::new(&out.telemetry);
//! let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Daily, 4).unwrap();
//! // Ask a what-if question: utilization at 10 containers per machine.
//! let group = engine.groups().next().unwrap().group;
//! let (util, tasks_per_hour, latency) = engine.predict(group, 10.0).unwrap();
//! assert!(util > 0.0 && tasks_per_hour > 0.0 && latency > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod conceptualization;
pub mod economics;
pub mod error;
pub mod experiment;
pub mod flighting;
pub mod monitor;
pub mod optimizer;
pub mod slo;
pub mod tune;
pub mod whatif;

pub use economics::{capacity_gain_value, AnnualValue, FleetCostModel};
pub use error::KeaError;
pub use slo::{check_implicit_slos, SloReport};
pub use experiment::{
    analyze, analyze_time_slices, hybrid_groups, ideal_setting, time_slices, MachineSplit,
};
pub use flighting::{evaluate_deployment, DeploymentReport, FlightingTool, Guardrail};
pub use monitor::PerformanceMonitor;
pub use optimizer::{optimize_max_containers, optimize_sweep, OperatingPoint, YarnOptimization};
pub use tune::{tune, TunePolicy, TunedPlan};
pub use whatif::{FitMethod, GroupModels, WhatIfEngine};
