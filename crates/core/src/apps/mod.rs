//! The four production KEA applications of Table 3.
//!
//! | Application | Tuning approach | Parameter |
//! |---|---|---|
//! | [`yarn_config`] | Observational | max running containers per SC-SKU |
//! | [`sku_design`] | Hypothetical | RAM / SSD of future machines |
//! | [`power_capping`] | Experimental | % below current power provision |
//! | [`sc_selection`] | Experimental | SC1 vs SC2 |
//! | [`queue_tuning`] | Observational | max queue length per group (§5.3 extension) |

pub mod power_capping;
pub mod queue_tuning;
pub mod sc_selection;
pub mod sku_design;
pub mod yarn_config;
