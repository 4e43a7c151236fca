//! Synthetic workloads for the load-balancing and hot-path experiments
//! (E6, E18).
//!
//! The paper motivates `df` with lists "of features when the size of the
//! list and/or its elements depends on the input data and thus requires
//! some form of dynamic load-balancing to achieve good efficiency" (§2).
//! These generators produce item-cost distributions with a controllable
//! coefficient of variation, and the runners compare dynamic farming
//! against static Split/Compute/Merge chunking on identical items.
//!
//! The E18 half measures the **frame fan-out cost**: farming the bands
//! of a heavyweight (1080p/4K) frame either by sharing the frame behind
//! an [`Arc`] (the zero-copy hot path) or by deep-copying it into every
//! band item (the pre-refactor clone-per-worker semantics).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipper::{run_with, Dispatch};
use skipper_vision::Image;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Burns roughly `units` of CPU work (calibration-free busy loop; the
/// absolute scale is irrelevant because E6 compares ratios).
pub fn spin(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
    acc
}

/// Wall-clock of processing `items` with a dynamic `df` farm of degree
/// `workers` on `backend` (a persistent pool or shards, created by the
/// caller outside the timed region).
pub fn time_df(backend: &dyn Dispatch, items: &[u64], workers: usize) -> Duration {
    let farm = skipper::df(workers, |&u: &u64| spin(u), |z: u64, y: u64| z ^ y, 0u64);
    let t0 = Instant::now();
    std::hint::black_box(run_with(&farm, Some(backend), items));
    t0.elapsed()
}

/// Wall-clock of processing `items` on `backend` with a static `scm`
/// decomposition into `workers` contiguous chunks.
pub fn time_scm(backend: &dyn Dispatch, items: &[u64], workers: usize) -> Duration {
    let scm = skipper::scm(
        workers,
        |v: &Vec<u64>, n| {
            if v.is_empty() {
                return Vec::new();
            }
            v.chunks(v.len().div_ceil(n)).map(<[u64]>::to_vec).collect()
        },
        |chunk: Vec<u64>| chunk.iter().map(|&u| spin(u)).fold(0u64, |z, y| z ^ y),
        |ps: Vec<u64>| ps.into_iter().fold(0u64, |z, y| z ^ y),
    );
    let owned = items.to_vec();
    let t0 = Instant::now();
    std::hint::black_box(run_with(&scm, Some(backend), &owned));
    t0.elapsed()
}

/// Near-equal horizontal band bounds `(y0, y1)` covering `h` rows in
/// `bands` contiguous strips (clamped to at most one strip per row).
pub fn band_bounds(h: usize, bands: usize) -> Vec<(usize, usize)> {
    let bands = bands.clamp(1, h.max(1));
    let (base, extra) = (h / bands, h % bands);
    let mut out = Vec::with_capacity(bands);
    let mut y0 = 0;
    for b in 0..bands {
        let y1 = y0 + base + usize::from(b < extra);
        out.push((y0, y1));
        y0 = y1;
    }
    out
}

/// A deterministic synthetic camera frame at an arbitrary resolution
/// (gradient plus hashed noise): the 1080p/4K input of E18 and the
/// `large_frames` bench, cheap enough to render at 4K in tests.
pub fn large_frame(width: usize, height: usize, seed: u64) -> Image<u8> {
    let mut s = seed | 1;
    Image::from_fn(width, height, |x, y| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let noise = (s >> 58) as u8; // 0..63
        ((x * 192 / width.max(1) + y * 48 / height.max(1)) as u8).wrapping_add(noise)
    })
}

/// Pixels strictly above `thr` in rows `[y0, y1)` of `frame` — the
/// per-band body of both E18 scans.
fn count_band(frame: &Image<u8>, y0: usize, y1: usize, thr: u8) -> u64 {
    let w = frame.width();
    frame.as_slice()[y0 * w..y1 * w]
        .iter()
        .filter(|&&p| p > thr)
        .count() as u64
}

/// Farms every frame's bands **zero-copy**: each item carries an `Arc`
/// of the shared frame, so fanning a 2 MB (1080p) or 8 MB (4K) frame
/// out to the workers moves refcounts, never pixels. The farm is
/// prepared once, outside the timed region. Returns the folded count
/// across all frames and the wall-clock of the scans.
pub fn time_frame_scan_zero_copy(
    backend: &skipper::HostBackend,
    frames: &[Arc<Image<u8>>],
    bands: usize,
    thr: u8,
) -> (u64, Duration) {
    use skipper::{Backend, Executable};
    type Item = (Arc<Image<u8>>, usize, usize);
    let farm = skipper::df(
        bands,
        move |it: &Item| count_band(&it.0, it.1, it.2, thr),
        |z: u64, y: u64| z + y,
        0u64,
    );
    let exec = Backend::<_, &[Item]>::prepare(backend, &farm);
    let t0 = Instant::now();
    let mut total = 0u64;
    for frame in frames {
        let items: Vec<Item> = band_bounds(frame.height(), bands)
            .into_iter()
            .map(|(y0, y1)| (Arc::clone(frame), y0, y1))
            .collect();
        total = total.wrapping_add(exec.run(&items[..]));
    }
    (total, t0.elapsed())
}

/// The pre-refactor baseline for the same scan: every band item carries
/// its **own deep copy** of the whole frame (`Image::deep_clone` — plain
/// `clone()` is a refcount share now) — the clone-per-worker cost the
/// shared-`Arc` hot path removed (`bands` full-frame copies per frame).
/// Same farm, same fold, identical result.
pub fn time_frame_scan_deep_copy(
    backend: &skipper::HostBackend,
    frames: &[Arc<Image<u8>>],
    bands: usize,
    thr: u8,
) -> (u64, Duration) {
    use skipper::{Backend, Executable};
    type Item = (Image<u8>, usize, usize);
    let farm = skipper::df(
        bands,
        move |it: &Item| count_band(&it.0, it.1, it.2, thr),
        |z: u64, y: u64| z + y,
        0u64,
    );
    let exec = Backend::<_, &[Item]>::prepare(backend, &farm);
    let t0 = Instant::now();
    let mut total = 0u64;
    for frame in frames {
        let items: Vec<Item> = band_bounds(frame.height(), bands)
            .into_iter()
            .map(|(y0, y1)| (frame.deep_clone(), y0, y1))
            .collect();
        total = total.wrapping_add(exec.run(&items[..]));
    }
    (total, t0.elapsed())
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
        // Both runners fold with XOR, so results must agree exactly.
        use skipper::{Backend, PoolBackend};
        let items = skewed_units(40, 2000.0, 1.5, 3);
        let farm = skipper::df(4, |&u: &u64| spin(u), |z: u64, y: u64| z ^ y, 0u64);
        let df_result = PoolBackend::new().run(&farm, &items[..]);
        let seq_result = items.iter().map(|&u| spin(u)).fold(0u64, |z, y| z ^ y);
        assert_eq!(df_result, seq_result);
    }

    #[test]
    fn dynamic_beats_static_under_heavy_skew() {
        // A few huge items among many small ones: static chunking strands
        // the big chunk on one worker.
        let mut items = vec![20_000u64; 4];
        items.extend(vec![200u64; 60]);
        let pool = skipper::PoolBackend::new();
        let df = time_df(&pool, &items, 4);
        let scm = time_scm(&pool, &items, 4);
        // df should not be slower by more than a small factor; typically it
        // is faster. Use a lenient bound to stay robust on loaded CI boxes.
        assert!(
            df < scm * 2,
            "df {df:?} should not be much slower than scm {scm:?}"
        );
    }

    #[test]
    fn band_bounds_partition_the_rows_exactly() {
        for (h, bands) in [(1, 1), (1, 8), (7, 3), (1080, 8), (5, 5), (4, 9)] {
            let bounds = band_bounds(h, bands);
            assert_eq!(bounds.len(), bands.clamp(1, h));
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds.last().unwrap().1, h);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "bands must be contiguous");
                assert!(w[0].0 < w[0].1, "bands must be non-empty");
            }
        }
    }

    #[test]
    fn zero_copy_and_deep_copy_scans_agree_on_every_backend() {
        // The two fan-out strategies differ only in ownership; the folded
        // count must be identical (and equal to the sequential count) on
        // the pool and the sharded pools alike.
        let frames: Vec<Arc<Image<u8>>> = (0..3)
            .map(|k| Arc::new(large_frame(96, 64, 40 + k)))
            .collect();
        let thr = 90u8;
        let expected: u64 = frames
            .iter()
            .map(|f| f.as_slice().iter().filter(|&&p| p > thr).count() as u64)
            .sum();
        assert!(expected > 0, "threshold must keep the scan non-trivial");
        for backend in [
            skipper::HostBackend::Seq,
            skipper::HostBackend::Pool(skipper::PoolBackend::new()),
            skipper::HostBackend::Shard(skipper::ShardBackend::new(2)),
        ] {
            let (zero, _) = time_frame_scan_zero_copy(&backend, &frames, 4, thr);
            let (deep, _) = time_frame_scan_deep_copy(&backend, &frames, 4, thr);
            assert_eq!(zero, expected, "zero-copy scan on {}", backend.name());
            assert_eq!(deep, expected, "deep-copy scan on {}", backend.name());
        }
    }

    #[test]
    fn zero_copy_items_alias_the_frame_rather_than_copying_it() {
        // The aliasing regression the hot path depends on: an Arc-carried
        // band item points at the very same pixel buffer as the source
        // frame, while the deep-copy baseline materialises fresh storage.
        let frame = Arc::new(large_frame(32, 16, 7));
        let items: Vec<(Arc<Image<u8>>, usize, usize)> = band_bounds(frame.height(), 4)
            .into_iter()
            .map(|(y0, y1)| (Arc::clone(&frame), y0, y1))
            .collect();
        for (shared, _, _) in &items {
            assert!(
                std::ptr::eq(shared.as_slice().as_ptr(), frame.as_slice().as_ptr()),
                "Arc band items must alias the source pixels"
            );
        }
        let copy = frame.deep_clone();
        assert!(
            !std::ptr::eq(copy.as_slice().as_ptr(), frame.as_slice().as_ptr()),
            "a deep copy must own fresh pixels"
        );
    }
}
