//! Property-based tests for the statistics toolkit: invariants that must
//! hold for *any* finite input, not just the unit-test fixtures.

use kea_stats::{t_test_welch, Alternative};
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..60)
}

proptest! {
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
