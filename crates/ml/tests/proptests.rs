//! Property-based tests for the line fits.

use kea_ml::LinearModel1D;
use proptest::prelude::*;

proptest! {
    #[test]
    fn ols_recovers_exact_lines(
        intercept in -100.0..100.0f64,
        slope in -50.0..50.0f64,
        n in 3usize..40,
    ) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| intercept + slope * v).collect();
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        prop_assert!((m.intercept() - intercept).abs() < 1e-6 * intercept.abs().max(1.0));
        prop_assert!((m.slope() - slope).abs() < 1e-6 * slope.abs().max(1.0));
    }

    #[test]
    fn huber_recovers_lines_despite_planted_outliers(
        intercept in -10.0..10.0f64,
        slope in 0.1..10.0f64,
        outlier in 100.0..1000.0f64,
    ) {
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let base = intercept + slope * i as f64 * 0.5
                    + ((i * 13) % 7) as f64 * 0.01; // tiny noise for scale
                if i % 12 == 5 { base + outlier } else { base }
            })
            .collect();
        let m = LinearModel1D::fit_huber(&x, &y).unwrap();
        prop_assert!(
            (m.slope() - slope).abs() < 0.05 * slope.max(1.0),
            "slope {} vs true {}", m.slope(), slope
        );
    }

    #[test]
    fn prediction_is_affine_in_features(
        intercept in -5.0..5.0f64,
        slope in -5.0..5.0f64,
        x in -100.0..100.0f64,
    ) {
        // Two exact points pin the line: (0, intercept), (1, intercept + slope).
        let m = LinearModel1D::fit_ols(&[0.0, 1.0], &[intercept, intercept + slope]).unwrap();
        let direct = m.predict(x);
        prop_assert!((direct - (intercept + slope * x)).abs() < 1e-9);
        // Affinity: doubling x doubles the non-intercept part.
        let doubled = m.predict(2.0 * x);
        prop_assert!(((doubled - intercept) - 2.0 * (direct - intercept)).abs() < 1e-6);
    }
}
