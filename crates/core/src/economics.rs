//! Converting performance into money (§5.3).
//!
//! "Based on the ML models proposed in Equations (1)–(6), KEA can also be
//! used to convert any performance improvement into capacity gain (given
//! the same task latency), allowing detailed quantitative evaluation for
//! all engineering changes in monetary values." The paper's headline —
//! "tens of millions of dollars per year" from a 2% capacity gain on a
//! fleet worth over $1B — is exactly this arithmetic. This module makes
//! it a typed, testable calculation instead of a slide.

use crate::error::KeaError;

/// Cost structure of a machine fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetCostModel {
    /// Amortized capital cost per machine per year (purchase price /
    /// depreciation years).
    pub capex_per_machine_year: f64,
    /// Datacenter overhead per machine per year (rack, cooling, space —
    /// the fixed costs §4.2's power-capping application amortizes).
    pub facility_per_machine_year: f64,
    /// Electricity price per kWh.
    pub price_per_kwh: f64,
}

impl Default for FleetCostModel {
    fn default() -> Self {
        // Public warehouse-scale ballparks (Barroso et al., the paper's
        // reference [7]): ~$6k server amortized over 4 years, facility
        // overhead of similar order, industrial electricity ~$0.07/kWh.
        FleetCostModel {
            capex_per_machine_year: 1_500.0,
            facility_per_machine_year: 1_200.0,
            price_per_kwh: 0.07,
        }
    }
}

/// The annual value of a tuning outcome on a given fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnualValue {
    /// Fleet size the estimate is for.
    pub machines: usize,
    /// Total annual cost of owning the fleet (capex + facility + power).
    pub fleet_cost_per_year: f64,
    /// Value of the capacity gain: the machines you no longer have to
    /// buy to serve the same (grown) demand.
    pub total_per_year: f64,
}

/// Prices a capacity gain (e.g. the +2% of §5.2.2) on a fleet of
/// `machines` machines: a `g`% capacity gain is worth `g`% of the
/// fleet's annual ownership cost — the machines that gain substitutes
/// for.
///
/// `mean_power_w` is the fleet-average electrical draw per machine (from
/// telemetry), used for the power component of ownership cost.
///
/// # Errors
/// The gain must be a finite fraction > −1 and the power non-negative.
pub fn capacity_gain_value(
    machines: usize,
    cost: &FleetCostModel,
    capacity_gain_fraction: f64,
    mean_power_w: f64,
) -> Result<AnnualValue, KeaError> {
    if !capacity_gain_fraction.is_finite() || capacity_gain_fraction <= -1.0 {
        return Err(KeaError::Design(
            "capacity gain must be a finite fraction above -1".to_string(),
        ));
    }
    if !mean_power_w.is_finite() || mean_power_w < 0.0 {
        return Err(KeaError::Design("mean power must be non-negative".to_string()));
    }
    let power_cost_per_machine = mean_power_w / 1000.0 * 24.0 * 365.0 * cost.price_per_kwh;
    let per_machine_year =
        cost.capex_per_machine_year + cost.facility_per_machine_year + power_cost_per_machine;
    let fleet_cost_per_year = per_machine_year * machines as f64;
    Ok(AnnualValue {
        machines,
        fleet_cost_per_year,
        total_per_year: fleet_cost_per_year * capacity_gain_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_percent_on_a_large_fleet_is_tens_of_millions() {
        // The paper's arithmetic: 300k machines, +2% capacity.
        let value = capacity_gain_value(300_000, &FleetCostModel::default(), 0.02, 250.0)
            .expect("valid inputs");
        assert!(
            value.total_per_year > 10_000_000.0,
            "paper: tens of millions; got ${:.0}",
            value.total_per_year
        );
        assert!(value.total_per_year < 100_000_000.0, "sanity upper bound");
    }

    #[test]
    fn value_scales_linearly_in_the_gain() {
        let cost = FleetCostModel::default();
        let one = capacity_gain_value(150, &cost, 0.01, 250.0).unwrap();
        let three = capacity_gain_value(150, &cost, 0.03, 250.0).unwrap();
        assert!((three.total_per_year / one.total_per_year - 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_gains_price_as_losses() {
        let v = capacity_gain_value(150, &FleetCostModel::default(), -0.01, 250.0).unwrap();
        assert!(v.total_per_year < 0.0);
    }

    #[test]
    fn input_validation() {
        let cost = FleetCostModel::default();
        assert!(capacity_gain_value(60, &cost, f64::NAN, 250.0).is_err());
        assert!(capacity_gain_value(60, &cost, -1.5, 250.0).is_err());
        assert!(capacity_gain_value(60, &cost, 0.02, -1.0).is_err());
    }
}
