//! Monte-Carlo expected-cost minimization (§6.1).
//!
//! The SKU-design application estimates the expected total cost of each
//! candidate (SSD, RAM) configuration by repeatedly (1) drawing per-core
//! usage slopes from the observational distribution, (2) computing the
//! binding resource, (3) pricing idle resources and stranding penalties.
//! "By repeating the above process 1000 times, we estimate the expected
//! cost for each design configuration" — this module is that loop, made
//! generic over the cost sampler so power-capping what-ifs can reuse it.

use crate::error::OptError;
use rand::Rng;

/// Expected-cost estimate for one candidate configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// Index of the candidate in the input slice.
    pub index: usize,
    /// Sample mean of the cost draws.
    pub mean_cost: f64,
    /// Sample standard deviation of the cost draws.
    pub std_cost: f64,
    /// Standard error of the mean (`std / √draws`).
    pub std_err: f64,
    /// Number of Monte-Carlo draws used.
    pub draws: usize,
}

/// Full report of a Monte-Carlo sweep: per-candidate estimates plus the
/// winner.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Per-candidate cost estimates, in input order.
    pub candidates: Vec<CandidateCost>,
    /// Index of the candidate with the lowest mean cost.
    pub best_index: usize,
}

/// Estimates the expected cost of each candidate with `draws` Monte-Carlo
/// samples and returns the argmin.
///
/// `cost` is called as `cost(candidate, rng)` and must return one cost
/// draw. Candidates are generic (`C`), matching the paper's (SSD, RAM)
/// design pairs.
///
/// # Errors
/// Needs at least one candidate, at least one draw, and finite cost draws.
pub fn minimize_expected_cost<C, F, R>(
    candidates: &[C],
    draws: usize,
    rng: &mut R,
    mut cost: F,
) -> Result<MonteCarloReport, OptError>
where
    F: FnMut(&C, &mut R) -> f64,
    R: Rng + ?Sized,
{
    if candidates.is_empty() {
        return Err(OptError::EmptySearchSpace);
    }
    if draws == 0 {
        return Err(OptError::InvalidParameter("draws must be positive"));
    }
    let mut out = Vec::with_capacity(candidates.len());
    for (index, cand) in candidates.iter().enumerate() {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..draws {
            let c = cost(cand, rng);
            if !c.is_finite() {
                return Err(OptError::NonFiniteInput);
            }
            sum += c;
            sum_sq += c * c;
        }
        let n = draws as f64;
        let mean = sum / n;
        let var = if draws > 1 {
            ((sum_sq - sum * sum / n) / (n - 1.0)).max(0.0)
        } else {
            0.0
        };
        let std = var.sqrt();
        out.push(CandidateCost {
            index,
            mean_cost: mean,
            std_cost: std,
            std_err: std / n.sqrt(),
            draws,
        });
    }
    let best_index = out
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.mean_cost.total_cmp(&b.mean_cost))
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(MonteCarloReport {
        candidates: out,
        best_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn picks_the_cheapest_candidate() {
        // Candidate k has cost k + noise; candidate 0 must win.
        let candidates = [0.0, 1.0, 2.0, 3.0];
        let mut rng = StdRng::seed_from_u64(5);
        let report = minimize_expected_cost(&candidates, 500, &mut rng, |&c, rng| {
            c + rng.gen_range(-0.1..0.1)
        })
        .unwrap();
        assert_eq!(report.best_index, 0);
        assert!((report.candidates[0].mean_cost - 0.0).abs() < 0.05);
        assert_eq!(report.candidates.len(), 4);
    }

    #[test]
    fn sweet_spot_shape_like_figure_14() {
        // U-shaped expected cost in the candidate value — too little
        // resource strands the machine, too much wastes capex. The
        // minimizer should land near the middle.
        let sizes: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let report = minimize_expected_cost(&sizes, 2000, &mut rng, |&s, rng| {
            let demand = rng.gen_range(3.0..6.0);
            let idle = (s - demand).max(0.0) * 1.0; // idle penalty
            let stranded = if s < demand { (demand - s) * 10.0 } else { 0.0 };
            idle + stranded
        })
        .unwrap();
        let best_size = sizes[report.best_index];
        assert!(
            (5.0..=7.0).contains(&best_size),
            "best size = {best_size}"
        );
        // Cost curve is U-shaped: endpoints more expensive than the winner.
        let first = report.candidates.first().unwrap().mean_cost;
        let last = report.candidates.last().unwrap().mean_cost;
        let best = report.candidates[report.best_index].mean_cost;
        assert!(best < first && best < last);
    }

    #[test]
    fn deterministic_under_seed() {
        let candidates = [1.0, 2.0];
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            minimize_expected_cost(&candidates, 100, &mut rng, |&c, rng| {
                c * rng.gen_range(0.9..1.1)
            })
            .unwrap()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn std_err_shrinks_with_more_draws() {
        let candidates = [1.0];
        let run = |draws: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            minimize_expected_cost(&candidates, draws, &mut rng, |_, rng| {
                rng.gen_range(0.0..1.0)
            })
            .unwrap()
            .candidates[0]
                .std_err
        };
        assert!(run(4000) < run(100));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty: [f64; 0] = [];
        assert_eq!(
            minimize_expected_cost(&empty, 10, &mut rng, |_, _| 0.0),
            Err(OptError::EmptySearchSpace)
        );
        assert!(matches!(
            minimize_expected_cost(&[1.0], 0, &mut rng, |_, _| 0.0),
            Err(OptError::InvalidParameter(_))
        ));
        assert_eq!(
            minimize_expected_cost(&[1.0], 10, &mut rng, |_, _| f64::NAN),
            Err(OptError::NonFiniteInput)
        );
    }

    #[test]
    fn single_draw_has_zero_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let report = minimize_expected_cost(&[1.0], 1, &mut rng, |_, _| 7.0).unwrap();
        assert_eq!(report.candidates[0].std_cost, 0.0);
        assert_eq!(report.candidates[0].mean_cost, 7.0);
    }
}
