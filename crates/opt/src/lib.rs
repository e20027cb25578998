//! Optimization toolkit for KEA's Optimizer module.
//!
//! The paper's Optimizer consumes calibrated models and picks the best
//! configuration. Two solvers cover the applications:
//!
//! * [`simplex`] — a from-scratch bounded-variable two-phase primal
//!   simplex solving the linear program of §5.2 (Equations 7–10:
//!   maximize total running containers subject to the cluster-wide
//!   average-latency constraint). Per-variable bounds are carried as
//!   variable status instead of tableau rows, and
//!   [`LpProblem::solve_warm`] re-solves a re-costed instance from a
//!   previous optimal [`Basis`] — the operating-point sweep's hot path.
//!   The paper uses "commercial solvers"; the original row-materialising
//!   solver survives as `simplex::reference`, the executable
//!   specification the property tests pin the production solver against.
//! * [`monte_carlo`] — the Monte-Carlo expected-cost minimizer of §6.1,
//!   used to choose SSD/RAM sizes for future SKUs (Figure 14).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod monte_carlo;
pub mod simplex;

pub use error::OptError;
pub use monte_carlo::{minimize_expected_cost, CandidateCost, MonteCarloReport};
pub use simplex::{Basis, LpProblem, LpSolution, Relation};
