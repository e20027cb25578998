//! Optimization toolkit for KEA's Optimizer module.
//!
//! The paper's Optimizer consumes calibrated models and picks the best
//! configuration. Two solvers cover the applications:
//!
//! * [`knapsack`] — the exact closed-form optimum of the linear program
//!   of §5.2 (Equations 7–10: maximize total running containers subject
//!   to the cluster-wide average-latency constraint, linearized into one
//!   row, with a `[−δ, δ]` step box per group). One sort solves that
//!   continuous knapsack where the paper used "commercial solvers". The
//!   tests certify each solution optimal against the LP's exact dual
//!   bound.
//! * [`monte_carlo`] — the Monte-Carlo expected-cost minimizer of §6.1,
//!   used to choose SSD/RAM sizes for future SKUs (Figure 14).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod knapsack;
pub mod monte_carlo;

pub use error::OptError;
pub use monte_carlo::{minimize_expected_cost, CandidateCost, MonteCarloReport};
