//! The univariate regression models of KEA's What-if Engine.
//!
//! The paper (§5.1) uses "regression models as the predictors, such as
//! linear regression (LR), support vector machines (SVM), or deep neural
//! nets (DNN). Linear models are more explainable, which is critical for
//! domain experts", and §5.2.1 specifically uses a **Huber Regressor**
//! because it is "more robust to outliers compared to the Least Squares
//! Regression". Every model the paper calibrates is a line in one
//! variable, so this crate provides exactly that:
//!
//! * [`mod@line`] — [`LinearModel1D`], fitted by OLS or by Huber robust
//!   regression (IRLS with a scale of 1.4826 × the median absolute
//!   residual), used for the paper's `g_k`, `h_k`, `f_k`, `p`, `q` models,
//!   with an exact inverse (needed by the Monte-Carlo SKU-design
//!   optimizer, §6.1). The two fits live in the private `linreg` and
//!   `huber` modules and share the 2×2 solve in `matrix`.
//! * [`metrics`] — R², the goodness of fit reviewed with domain experts.
//! * [`error`] — [`MlError`], the typed reasons a fit is refused.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
mod huber;
pub mod line;
mod linreg;
mod matrix;
pub mod metrics;

pub use error::MlError;
pub use line::LinearModel1D;
pub use metrics::r2_score;
