//! Connected-component labelling with the `scm` skeleton.
//!
//! The application of Ginhac, Sérot & Dérutin (MVA'98, cited as \[7\]):
//! the image is split into horizontal bands, each band is labelled
//! independently, and the merge step resolves label equivalences across
//! band boundaries with a union-find pass — a textbook Split/Compute/Merge
//! decomposition.

use skipper::{Backend, Executable, FrameSource, Scm, SeqBackend};
use skipper_vision::label::{
    label_components, label_components_reference, Connectivity, DisjointSets,
};
use skipper_vision::split::{split_rows, RowBand};
use skipper_vision::Image;

/// Per-band computation result: the band metadata plus its local label map
/// and label count.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledBand {
    /// The band (metadata + original pixels).
    pub band: RowBand,
    /// Local label map (dense from 1).
    pub labels: Image<u32>,
    /// Number of local labels.
    pub count: u32,
}

/// Sequential reference: number of 8-connected components.
pub fn count_components_seq(img: &Image<u8>) -> u32 {
    skipper_vision::label::count_components(img, Connectivity::Eight)
}

/// The `scm` split function: `n` bands, no halo (labelling merges across
/// the seam explicitly). Bands are zero-copy views of the frame: fanning
/// a 4K frame out to the farm moves refcounts, never pixels.
pub fn split_bands(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    split_rows(img, n, 0)
}

/// The `scm` compute function: label one band locally with the row-slice
/// strip labeller, writing into a label map leased from the worker's
/// frame arena — on the persistent pool/shard workers the same buffer is
/// recycled frame after frame.
pub fn label_band(band: RowBand) -> LabelledBand {
    let labels = label_components(&band.pixels, Connectivity::Eight);
    let count = labels.as_slice().iter().copied().max().unwrap_or(0);
    LabelledBand {
        band,
        labels,
        count,
    }
}

/// The pre-arena baseline split: every band deep-copies its rows out of
/// the frame — the copy-per-band behaviour this PR removed. Kept for the
/// E19 benchmark and differential tests.
pub fn split_bands_copying(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    split_rows(img, n, 0)
        .into_iter()
        .map(|mut b| {
            b.pixels = b.pixels.deep_clone();
            b
        })
        .collect()
}

/// The pre-arena baseline compute: the per-pixel reference labeller into
/// a freshly allocated label map (see [`label_band`] for the hot path).
pub fn label_band_copying(band: RowBand) -> LabelledBand {
    let labels = label_components_reference(&band.pixels, Connectivity::Eight);
    let count = labels.as_slice().iter().copied().max().unwrap_or(0);
    LabelledBand {
        band,
        labels,
        count,
    }
}

/// The `scm` merge function: resolve cross-boundary equivalences and count
/// global components.
pub fn merge_bands(parts: Vec<LabelledBand>) -> u32 {
    if parts.is_empty() {
        return 0;
    }
    // Global id = offset[band] + local_label - 1.
    let mut offsets = Vec::with_capacity(parts.len());
    let mut total = 0u32;
    for p in &parts {
        offsets.push(total);
        total += p.count;
    }
    let mut ds = DisjointSets::new(total as usize);
    // Union across each seam: last row of band i touches first row of
    // band i+1 (8-connectivity: straight and diagonal neighbours).
    for i in 0..parts.len().saturating_sub(1) {
        let (top, bottom) = (&parts[i], &parts[i + 1]);
        if top.labels.height() == 0 || bottom.labels.height() == 0 {
            continue;
        }
        let ty = top.labels.height() - 1;
        let w = top.labels.width();
        for x in 0..w {
            let lt = top.labels.get(x, ty);
            if lt == 0 {
                continue;
            }
            let gt = offsets[i] + lt - 1;
            for dx in -1i64..=1 {
                let bx = x as i64 + dx;
                if bx < 0 || bx >= w as i64 {
                    continue;
                }
                let lb = bottom.labels.get(bx as usize, 0);
                if lb != 0 {
                    let gb = offsets[i + 1] + lb - 1;
                    ds.union(gt as usize, gb as usize);
                }
            }
        }
    }
    // Count distinct roots.
    let mut roots = std::collections::HashSet::new();
    for g in 0..total {
        roots.insert(ds.find(g as usize));
    }
    roots.len() as u32
}

/// The `scm` program type built by [`ccl_program`].
pub type CclProgram = Scm<
    fn(&Image<u8>, usize) -> Vec<RowBand>,
    fn(RowBand) -> LabelledBand,
    fn(Vec<LabelledBand>) -> u32,
>;

/// The labelling program: one `scm` value shared by every backend.
pub fn ccl_program(n: usize) -> CclProgram {
    Scm::new(n, split_bands, label_band, merge_bands)
}

/// The copy-per-band baseline program: identical results to
/// [`ccl_program`], but splitting deep-copies every band and labelling
/// allocates fresh with the per-pixel reference algorithm — the whole
/// pipeline exactly as it ran before the arena/view refactor. E19
/// measures [`ccl_program`] against it.
pub fn ccl_program_copying(n: usize) -> CclProgram {
    Scm::new(n, split_bands_copying, label_band_copying, merge_bands)
}

/// The same count through the declarative semantics (sequential emulation).
pub fn count_components_scm_seq(img: &Image<u8>, n: usize) -> u32 {
    SeqBackend.run(&ccl_program(n), img)
}

/// The count on a caller-chosen backend (e.g. `skipper::HostBackend`
/// parsed from a `--backend` flag, or a shared `skipper::PoolBackend`
/// when labelling every frame of a stream).
pub fn count_components_on<B>(backend: &B, img: &Image<u8>, n: usize) -> u32
where
    B: for<'a> Backend<CclProgram, &'a Image<u8>, Output = u32>,
{
    backend.run(&ccl_program(n), img)
}

/// Labels a whole frame stream through **one prepared executable**
/// (prepare-once/run-many): the labelling program is compiled for the
/// backend once and every frame pays only the run cost — the per-frame
/// regime `Backend::run` would re-derive dispatch structure for.
pub fn count_components_stream_on<'f, B>(backend: &B, frames: &'f [Image<u8>], n: usize) -> Vec<u32>
where
    B: Backend<CclProgram, &'f Image<u8>, Output = u32>,
{
    let prog = ccl_program(n);
    let exec = backend.prepare(&prog);
    let mut src = skipper::stream_of(frames);
    let mut counts = Vec::with_capacity(frames.len());
    while let Some(img) = src.next_frame() {
        counts.push(exec.run(img));
    }
    counts
}

/// Labels every frame a [`FrameSource`] yields through an
/// **already-prepared executable** — the source-consuming generalisation
/// of [`count_components_stream_on`] for live feeds and the serving
/// engine, where frames are owned and produced on demand rather than
/// sliced from a pre-recorded buffer.
pub fn count_components_from_source<E, S>(exec: &E, mut frames: S) -> Vec<u32>
where
    E: for<'a> Executable<&'a Image<u8>, Output = u32>,
    S: FrameSource<Image<u8>>,
{
    let mut counts = Vec::new();
    while let Some(img) = frames.next_frame() {
        counts.push(exec.run(&img));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper::PoolBackend;
    use skipper_vision::synth::random_blobs;

    #[test]
    fn merge_counts_single_blob_across_seam() {
        let pool = PoolBackend::new();
        // A vertical bar crossing all band boundaries.
        let mut img = Image::<u8>::new(16, 16);
        img.fill_rect(7, 0, 2, 16, 255);
        assert_eq!(count_components_seq(&img), 1);
        for n in [2, 3, 4, 8] {
            assert_eq!(count_components_on(&pool, &img, n), 1, "n={n}");
        }
    }

    #[test]
    fn diagonal_contact_across_seam_merges() {
        let pool = PoolBackend::new();
        // Two pixels touching only diagonally across the seam of 2 bands
        // over a 4-row image (seam between rows 1 and 2).
        let mut img = Image::<u8>::new(4, 4);
        img.set(1, 1, 255);
        img.set(2, 2, 255);
        assert_eq!(count_components_seq(&img), 1);
        assert_eq!(count_components_on(&pool, &img, 2), 1);
    }

    #[test]
    fn parallel_equals_sequential_on_random_blobs() {
        let pool = PoolBackend::new();
        for seed in 0..6 {
            let img = random_blobs(96, 96, 14, seed);
            let expected = count_components_seq(&img);
            for n in [1, 2, 3, 5, 8] {
                assert_eq!(
                    count_components_on(&pool, &img, n),
                    expected,
                    "seed={seed} n={n}"
                );
                assert_eq!(count_components_scm_seq(&img, n), expected);
            }
        }
    }

    #[test]
    fn empty_image_has_zero_components() {
        let pool = PoolBackend::new();
        let img = Image::<u8>::new(32, 32);
        assert_eq!(count_components_on(&pool, &img, 4), 0);
    }

    #[test]
    fn separate_blobs_stay_separate() {
        let pool = PoolBackend::new();
        let mut img = Image::<u8>::new(32, 32);
        img.fill_rect(2, 2, 4, 4, 255);
        img.fill_rect(20, 20, 4, 4, 255);
        img.fill_rect(10, 28, 4, 2, 255);
        assert_eq!(count_components_on(&pool, &img, 4), 3);
    }

    #[test]
    fn source_helper_matches_prepared_slice_helper() {
        use skipper::{VecSource, Workers};
        let frames: Vec<Image<u8>> = (0..4).map(|s| random_blobs(48, 48, 6, s)).collect();
        let backend = PoolBackend::configured(Workers::exact(2));
        let expected = count_components_stream_on(&backend, &frames, 3);
        let prog = ccl_program(3);
        let exec = <PoolBackend as Backend<CclProgram, &Image<u8>>>::prepare(&backend, &prog);
        let got = count_components_from_source(&exec, VecSource::new(frames));
        assert_eq!(got, expected);
    }

    #[test]
    fn copying_baseline_matches_the_arena_pipeline() {
        let backend = PoolBackend::new();
        for seed in 0..4 {
            let img = random_blobs(80, 64, 10, seed);
            for n in [1, 3, 4] {
                let fast = count_components_on(&backend, &img, n);
                let slow: u32 = backend.run(&ccl_program_copying(n), &img);
                assert_eq!(fast, slow, "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn split_bands_is_zero_copy_and_baseline_is_not() {
        let img = random_blobs(64, 48, 8, 1);
        for b in split_bands(&img, 4) {
            assert!(b.pixels.shares_buffer_with(&img));
        }
        for b in split_bands_copying(&img, 4) {
            assert!(!b.pixels.shares_buffer_with(&img));
        }
    }

    #[test]
    fn more_bands_than_rows_still_correct() {
        let pool = PoolBackend::new();
        let img = random_blobs(64, 6, 5, 9);
        assert_eq!(
            count_components_on(&pool, &img, 16),
            count_components_seq(&img)
        );
    }
}
