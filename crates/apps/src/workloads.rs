//! Synthetic workloads for the load-balancing experiment (E6).
//!
//! The paper motivates `df` with lists "of features when the size of the
//! list and/or its elements depends on the input data and thus requires
//! some form of dynamic load-balancing to achieve good efficiency" (§2).
//! These generators produce item-cost distributions with a controllable
//! coefficient of variation; E6 compares dynamic farming against static
//! Split/Compute/Merge chunking on identical items in simulated time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `n` item costs (abstract units) with mean ≈ `mean` and the
/// given coefficient of variation `cv` (0 = perfectly regular), via a
/// log-normal-style distribution. Deterministic in `seed`.
pub fn skewed_units(n: usize, mean: f64, cv: f64, seed: u64) -> Vec<u64> {
    assert!(
        mean > 0.0 && cv >= 0.0,
        "mean must be positive, cv non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma2 = (1.0 + cv * cv).ln();
    let sigma = sigma2.sqrt();
    let mu = mean.ln() - sigma2 / 2.0;
    (0..n)
        .map(|_| {
            // Box–Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mu + sigma * z).exp().max(1.0) as u64
        })
        .collect()
}

/// Empirical coefficient of variation of a cost list.
pub fn coefficient_of_variation(items: &[u64]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let n = items.len() as f64;
    let mean = items.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = items
        .iter()
        .map(|&x| (x as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Burns roughly `units` of CPU work (calibration-free busy loop: E14's
/// host column reports the wall-clock it costs, nothing gates on it).
pub fn spin(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(
            skewed_units(32, 100.0, 1.0, 9),
            skewed_units(32, 100.0, 1.0, 9)
        );
        assert_ne!(
            skewed_units(32, 100.0, 1.0, 9),
            skewed_units(32, 100.0, 1.0, 10)
        );
    }

    #[test]
    fn zero_cv_is_regular() {
        let items = skewed_units(64, 500.0, 0.0, 1);
        assert!(coefficient_of_variation(&items) < 0.05);
        let mean = items.iter().sum::<u64>() as f64 / 64.0;
        assert!((mean - 500.0).abs() / 500.0 < 0.1, "mean {mean}");
    }

    #[test]
    fn cv_increases_spread() {
        let regular = skewed_units(512, 1000.0, 0.1, 2);
        let skewed = skewed_units(512, 1000.0, 2.0, 2);
        assert!(coefficient_of_variation(&skewed) > 3.0 * coefficient_of_variation(&regular));
    }

    #[test]
    fn df_and_scm_compute_identical_results() {
        // The farm folds with XOR, so it must equal the sequential fold.
        use skipper::{Backend, PoolBackend};
        let items = skewed_units(40, 2000.0, 1.5, 3);
        let farm = skipper::df(4, |&u: &u64| spin(u), |z: u64, y: u64| z ^ y, 0u64);
        let df_result = PoolBackend::new().run(&farm, &items[..]);
        let seq_result = items.iter().map(|&u| spin(u)).fold(0u64, |z, y| z ^ y);
        assert_eq!(df_result, seq_result);
    }
}
