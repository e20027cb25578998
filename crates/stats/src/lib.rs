//! Statistical toolkit for the KEA reproduction.
//!
//! KEA ("Tuning an Exabyte-Scale Data Infrastructure", SIGMOD 2021) leans on
//! classical statistics rather than heavyweight ML: the paper validates every
//! configuration change with Student's t-tests, summarises machine behaviour
//! with descriptive statistics, and evaluates production roll-outs with
//! treatment-effect analysis. This crate implements that machinery from
//! scratch:
//!
//! * [`describe`] — means and variances (Welford).
//! * [`dist`] — special functions (log-gamma, regularized incomplete beta)
//!   and the Student-t distribution built on them.
//! * [`ttest`] — Welch's two-sample t-test.
//! * [`treatment`] — before/after treatment effects, as used for the
//!   §5.2.2 production roll-out.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod describe;
pub mod dist;
pub mod error;
pub mod treatment;
pub mod ttest;

pub use describe::{mean, variance, Welford};
pub use dist::StudentsT;
pub use error::StatsError;
pub use treatment::{treatment_effect, TreatmentEffect};
pub use ttest::{t_test_welch, Alternative, TTestResult};
