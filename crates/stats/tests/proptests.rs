//! Property-based tests for the statistics toolkit: invariants that must
//! hold for *any* finite input, not just the unit-test fixtures.

use kea_stats::{mean, t_test_welch, variance, Alternative, Welford};
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..60)
}

proptest! {
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
}
