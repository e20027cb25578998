//! Distribution samplers on top of `rand`'s uniform generator, plus the
//! counter-based streams the sharded engine relies on.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! simulator carries its own normal (Box–Muller), lognormal, and
//! exponential samplers. All take `&mut impl Rng`, keeping every draw
//! attributable to the run's seed.

use rand::{Rng, RngCore};

/// SplitMix64's odd increment (the golden-ratio constant).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a strong 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based random stream: output `i` is a pure function of
/// `(seed, stream, i)`, with no sequential state beyond the counter.
///
/// This is what makes the sharded engine's results independent of shard
/// count and worker schedule: each scheduling domain owns the stream
/// keyed by its lowest machine id, so the same domain draws the same
/// sequence whether it runs alone, under `engine::reference`, or
/// interleaved with seven sibling shards. The generator is SplitMix64
/// with the stream folded into the starting state — one multiply and
/// three xor-shift rounds per draw, no branches.
#[derive(Debug, Clone)]
pub(crate) struct CounterRng {
    key: u64,
    ctr: u64,
}

impl CounterRng {
    /// Builds the stream `stream` of the family keyed by `seed`.
    ///
    /// Distinct `(seed, stream)` pairs give statistically independent
    /// sequences; equal pairs give identical sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        // Decorrelate the two halves of the key so that nearby seeds and
        // nearby stream ids land in unrelated parts of the state space.
        let key = mix64(seed ^ GOLDEN_GAMMA).wrapping_add(mix64(stream.wrapping_mul(GOLDEN_GAMMA)));
        CounterRng { key, ctr: 0 }
    }
}

impl RngCore for CounterRng {
    fn next_u64(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix64(self.key.wrapping_add(self.ctr.wrapping_mul(GOLDEN_GAMMA)))
    }
}

/// The ±1.5% measurement noise applied to resource gauges at telemetry
/// emission, keyed by `(machine, hour, lane)` rather than drawn from a
/// sequential stream — so the value is independent of emission order and
/// identical whether records flush machine-major at the end of a run
/// (the reference engine) or stream out per simulated day per shard.
pub(crate) fn gauge_noise_at(seed: u64, machine: u32, hour: u64, lane: u32) -> f64 {
    let stream = ((machine as u64) << 32) | (hour << 2) | lane as u64;
    let mut rng = CounterRng::new(seed ^ 0x5eed_7e1e, stream);
    normal(&mut rng, 1.0, 0.015).clamp(0.9, 1.1)
}

/// Standard normal draw via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal draw with the given mean and standard deviation.
///
/// # Panics
/// Debug-asserts `sd >= 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd >= 0.0, "sd must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Lognormal draw parameterized by the *mean of the resulting
/// distribution* and the shape `sigma` (the sd of the underlying normal).
/// This parameterization is what workload specs want: "tasks average 300
/// CPU-seconds with sigma 0.5".
///
/// # Panics
/// Debug-asserts `mean > 0` and `sigma >= 0`.
pub fn lognormal_mean<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    debug_assert!(mean > 0.0, "lognormal mean must be positive");
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    // If X ~ LogNormal(mu, sigma), E[X] = exp(mu + sigma²/2); solve for mu.
    let mu = mean.ln() - sigma * sigma / 2.0;
    (mu + sigma * standard_normal(rng)).exp()
}

/// Exponential draw with the given rate (events per unit time).
///
/// # Panics
/// Debug-asserts `rate > 0`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample<F: FnMut(&mut StdRng) -> f64>(n: usize, mut f: F) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(123);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn standard_normal_moments() {
        let s = sample(200_000, standard_normal);
        let m = mean(&s);
        let var = s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / s.len() as f64;
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let s = sample(100_000, |r| normal(r, 50.0, 5.0));
        assert!((mean(&s) - 50.0).abs() < 0.1);
        let sd = (s.iter().map(|x| (x - 50.0) * (x - 50.0)).sum::<f64>() / s.len() as f64).sqrt();
        assert!((sd - 5.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_mean_parameterization_is_exact() {
        let s = sample(300_000, |r| lognormal_mean(r, 300.0, 0.5));
        // Mean must match the requested mean, not exp(mu).
        assert!((mean(&s) - 300.0).abs() < 3.0, "mean {}", mean(&s));
        assert!(s.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn lognormal_zero_sigma_is_deterministic() {
        let s = sample(100, |r| lognormal_mean(r, 42.0, 0.0));
        for v in s {
            assert!((v - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let s = sample(200_000, |r| exponential(r, 0.25));
        assert!((mean(&s) - 4.0).abs() < 0.05, "mean {}", mean(&s));
        assert!(s.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = sample(10, standard_normal);
        let b = sample(10, standard_normal);
        assert_eq!(a, b);
    }

    #[test]
    fn counter_rng_is_deterministic_per_stream() {
        let mut a = CounterRng::new(7, 3);
        let mut b = CounterRng::new(7, 3);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn counter_rng_streams_are_distinct() {
        let mut a = CounterRng::new(7, 0);
        let mut b = CounterRng::new(7, 1);
        let mut c = CounterRng::new(8, 0);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
        assert_ne!(xs, zs);
        assert_ne!(ys, zs);
    }

    #[test]
    fn counter_rng_uniform_moments() {
        let mut rng = CounterRng::new(42, 9);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            sum += u;
            sum_sq += u * u;
        }
        let m = sum / n as f64;
        let var = sum_sq / n as f64 - m * m;
        assert!((m - 0.5).abs() < 0.005, "mean {m}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn counter_rng_normal_sampler_moments() {
        // The Box–Muller samplers must stay well-behaved on the counter
        // stream, not just on StdRng.
        let mut rng = CounterRng::new(5, 0);
        let s: Vec<f64> = (0..100_000).map(|_| standard_normal(&mut rng)).collect();
        let m = mean(&s);
        let var = s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / s.len() as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gauge_noise_is_keyed_not_sequential() {
        let a = gauge_noise_at(11, 3, 7, 2);
        let b = gauge_noise_at(11, 3, 7, 2);
        assert_eq!(a, b, "same key, same noise");
        assert_ne!(gauge_noise_at(11, 3, 7, 1), a);
        assert_ne!(gauge_noise_at(11, 4, 7, 2), a);
        assert_ne!(gauge_noise_at(12, 3, 7, 2), a);
        assert!((0.9..=1.1).contains(&a));
    }
}
