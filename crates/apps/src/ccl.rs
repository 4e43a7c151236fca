//! Connected-component labelling with the `scm` skeleton.
//!
//! The application of Ginhac, Sérot & Dérutin (MVA'98, cited as \[7\]):
//! the image is split into horizontal bands, each band is labelled
//! independently, and the merge step resolves label equivalences across
//! band boundaries with a union-find pass — a textbook Split/Compute/Merge
//! decomposition.

use skipper::{Backend, Executable, FrameSource, Scm, SeqBackend};
use skipper_vision::label::{label_components, Connectivity, DisjointSets};
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
        let square = (0..6).map(|seed| random_blobs(96, 96, 14, seed));
        let wide = (0..4).map(|seed| random_blobs(80, 64, 10, seed));
        for (i, img) in square.chain(wide).enumerate() {
            let expected = count_components_seq(&img);
            for n in [1, 2, 3, 4, 5, 8] {
                assert_eq!(
                    count_components_on(&pool, &img, n),
                    expected,
                    "image {i} n={n}"
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
    fn receipts_agree_across_backends_and_with_the_pre_arena_golden() {
        use skipper::receipt::{begin_trace, fnv1a};
        use skipper::wire::{canonical_bytes, ToWire};
        use skipper::{receipted, RunReceipt, ShardBackend};
        // The receipts the copy-per-band pipeline (bands deep-copied, the
        // per-pixel reference labeller) produced on this frame: moving
        // band pixels into shared views and leased label maps changed
        // where the buffers live, not the run. Pinned under the word
        // hash of wire version 2 ...
        const INPUT: u64 = 0x93eb_ee5d_aa75_4890;
        const OUTPUT: u64 = 0x8682_94ea_bc48_4007;
        let golden = [(1, 0xd29a_a177_ce73_bb14), (4, 0x4639_f6f5_fd9f_996b)];
        // ... and, from the same canonical bytes and trace events, under
        // the FNV-1a receipts of version 1 they were first pinned in.
        const V1_INPUT: u64 = 0x796e_d797_b92b_1fd2;
        const V1_OUTPUT: u64 = 0x334f_81cd_fac6_dc98;
        let v1_golden = [0xa232_b3ec_4451_82c9, 0xd0f8_5d0a_a784_94d5];
        let img = random_blobs(160, 120, 12, 70);
        let pool = PoolBackend::new();
        let shards = ShardBackend::new(2);
        for ((n, trace_hash), v1_trace_hash) in golden.into_iter().zip(v1_golden) {
            let prog = ccl_program(n);
            // `Image` is not a wire payload: the input leg hashes a frame id.
            let (count, seq) = receipted(&0u64, || SeqBackend.run(&prog, &img));
            let (_, on_pool) = receipted(&0u64, || pool.run(&prog, &img));
            let (_, on_shards) = receipted(&0u64, || shards.run(&prog, &img));
            assert_eq!(count, 10, "n={n}");
            assert_eq!(seq, on_pool, "seq/pool receipts, n={n}");
            assert_eq!(seq, on_shards, "seq/shard receipts, n={n}");
            let baseline = RunReceipt {
                input_hash: INPUT,
                trace_hash,
                output_hash: OUTPUT,
            };
            assert_eq!(seq, baseline, "receipt moved from the baseline's, n={n}");

            let scope = begin_trace();
            SeqBackend.run(&prog, &img);
            let mut events = Vec::new();
            scope
                .finish()
                .events
                .iter()
                .for_each(|ev| ev.hash_into(&mut events));
            let v1 = RunReceipt {
                input_hash: fnv1a(&canonical_bytes(&0u64.to_wire())),
                trace_hash: fnv1a(&events),
                output_hash: fnv1a(&canonical_bytes(&count.to_wire())),
            };
            let v1_baseline = RunReceipt {
                input_hash: V1_INPUT,
                trace_hash: v1_trace_hash,
                output_hash: V1_OUTPUT,
            };
            assert_eq!(v1, v1_baseline, "version 1 receipt moved, n={n}");
        }
    }

    #[test]
    fn split_bands_is_zero_copy() {
        let img = random_blobs(64, 48, 8, 1);
        for b in split_bands(&img, 4) {
            assert!(b.pixels.shares_buffer_with(&img));
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
