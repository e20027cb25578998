//! Statistical toolkit for the KEA reproduction.
//!
//! KEA ("Tuning an Exabyte-Scale Data Infrastructure", SIGMOD 2021) leans on
//! classical statistics rather than heavyweight ML: the paper validates every
//! configuration change with Student's t-tests, summarises machine behaviour
//! with descriptive statistics, and evaluates production roll-outs with
//! treatment-effect analysis. This crate implements that machinery from
//! scratch:
//!
//! * [`ttest`] — Welch's two-sample t-test.
//! * [`treatment`] — before/after treatment effects, as used for the
//!   §5.2.2 production roll-out.
//!
//! Both rest on two private modules: `describe` (the mean, and Welford's
//! streaming mean and variance) and `dist` (log-gamma, the regularized
//! incomplete beta, and the Student-t distribution built on them).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod describe;
mod dist;
pub mod error;
pub mod treatment;
pub mod ttest;

pub use error::StatsError;
pub use treatment::{treatment_effect, TreatmentEffect};
pub use ttest::{t_test_welch, Alternative, TTestResult};
