//! Statistical toolkit for the KEA reproduction.
//!
//! KEA ("Tuning an Exabyte-Scale Data Infrastructure", SIGMOD 2021) leans on
//! classical statistics rather than heavyweight ML: the paper validates every
//! configuration change with Student's t-tests, summarises machine behaviour
//! with descriptive statistics, evaluates production roll-outs with
//! treatment-effect analysis, and sizes its experiments for significance.
//! This crate implements that machinery from scratch:
//!
//! * [`describe`] — means and variances (Welford).
//! * [`dist`] — special functions (log-gamma, regularized incomplete beta),
//!   the Student-t distribution built on them, and the standard normal
//!   quantile.
//! * [`ttest`] — Welch's two-sample t-test.
//! * [`power`] — experiment sizing: the group size a two-sample comparison
//!   needs (§7's "relatively large sample size", made quantitative).
//! * [`treatment`] — before/after treatment effects, as used for the
//!   §5.2.2 production roll-out.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod describe;
pub mod dist;
pub mod error;
pub mod power;
pub mod treatment;
pub mod ttest;

pub use describe::{mean, stddev, variance, Welford};
pub use dist::{Normal, StudentsT};
pub use error::StatsError;
pub use power::required_n_two_sample;
pub use treatment::{treatment_effect, TreatmentEffect};
pub use ttest::{t_test_welch, Alternative, TTestResult};
