//! Property-based tests for the statistics toolkit: invariants that must
//! hold for *any* finite input, not just the unit-test fixtures.

use kea_stats::describe::percentile_of_sorted;
use kea_stats::{mean, t_test_welch, variance, Alternative, Summary, Welford};
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..60)
}

proptest! {
    #[test]
    fn percentile_is_monotone_and_bounded(data in finite_vec(1), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let a = percentile_of_sorted(&sorted, lo);
        let b = percentile_of_sorted(&sorted, hi);
        prop_assert!(a <= b + 1e-9);
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    #[test]
    fn welford_matches_batch_moments(data in finite_vec(2)) {
        let mut acc = Welford::new();
        for &v in &data {
            acc.push(v);
        }
        let m = mean(&data).unwrap();
        let v = variance(&data).unwrap();
        prop_assert!((acc.mean() - m).abs() <= 1e-6 * m.abs().max(1.0));
        prop_assert!((acc.sample_variance() - v).abs() <= 1e-6 * v.abs().max(1.0));
    }

    #[test]
    fn welch_t_is_antisymmetric(a in finite_vec(3), b in finite_vec(3)) {
        let ab = t_test_welch(&a, &b, Alternative::TwoSided);
        let ba = t_test_welch(&b, &a, Alternative::TwoSided);
        match (ab, ba) {
            (Ok(x), Ok(y)) => {
                prop_assert!((x.t + y.t).abs() < 1e-9);
                prop_assert!((x.p_value - y.p_value).abs() < 1e-9);
                prop_assert!(x.p_value >= 0.0 && x.p_value <= 1.0 + 1e-12);
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            _ => prop_assert!(false, "asymmetric error behaviour"),
        }
    }

    #[test]
    fn summary_orders_its_quantiles(data in finite_vec(1)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    }
}
