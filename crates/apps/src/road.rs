//! Road following by white-line detection with the `scm` skeleton.
//!
//! Ginhac's road-following application (PhD thesis, cited as \[6\]): the
//! frame is divided into horizontal bands; each band scans its rows for the
//! lane-marking run centres; the merge step fits one line through all the
//! samples and reads the lane offset at the bottom of the image.

use skipper::{Backend, Executable, FrameSource, Scm};
use skipper_vision::line::{fit_line, scan_line_points, FittedLine, LinePoint};
use skipper_vision::split::{split_rows, RowBand};
use skipper_vision::Image;

/// Marking-pixel threshold.
pub const LINE_THRESHOLD: u8 = 150;

/// Widest acceptable marking run in pixels (wider = glare, rejected).
pub const MAX_RUN_WIDTH: usize = 24;

/// Scans one band, translating sample rows to frame coordinates.
pub fn scan_band(band: RowBand) -> Vec<LinePoint> {
    scan_line_points(&band.pixels, LINE_THRESHOLD)
        .into_iter()
        .filter(|p| p.width <= MAX_RUN_WIDTH)
        .map(|p| LinePoint {
            y: p.y + band.y0,
            x: p.x,
            width: p.width,
        })
        .collect()
}

/// Merges per-band samples into one fitted line.
pub fn merge_scans(parts: Vec<Vec<LinePoint>>) -> Option<FittedLine> {
    let all: Vec<LinePoint> = parts.into_iter().flatten().collect();
    fit_line(&all)
}

/// Sequential reference detection. The single band shares the frame's
/// buffer — `clone()` on an `Image` is a refcount bump.
pub fn detect_line_seq(img: &Image<u8>) -> Option<FittedLine> {
    merge_scans(vec![scan_band(RowBand {
        index: 0,
        y0: 0,
        rows: img.height(),
        halo_top: 0,
        halo_bottom: 0,
        pixels: img.clone(),
    })])
}

/// The `scm` program type built by [`line_program`].
pub type LineProgram = Scm<
    fn(&Image<u8>, usize) -> Vec<RowBand>,
    fn(RowBand) -> Vec<LinePoint>,
    fn(Vec<Vec<LinePoint>>) -> Option<FittedLine>,
>;

fn split_line_bands(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    split_rows(img, n, 0)
}

/// The detection program: one `scm` value shared by every backend. The
/// split hands each worker a zero-copy view of the frame.
pub fn line_program(n: usize) -> LineProgram {
    Scm::new(n, split_line_bands, scan_band, merge_scans)
}

/// Detection on a caller-chosen backend (e.g. `skipper::HostBackend`
/// parsed from a `--backend` flag).
pub fn detect_line_on<B>(backend: &B, img: &Image<u8>, n: usize) -> Option<FittedLine>
where
    B: for<'a> Backend<LineProgram, &'a Image<u8>, Output = Option<FittedLine>>,
{
    backend.run(&line_program(n), img)
}

/// Detects the lane line in every frame of a stream through **one
/// prepared executable** (prepare-once/run-many): the detection program
/// is compiled for the backend once, each frame pays only the run cost —
/// the 25 Hz road-following regime.
pub fn detect_lines_stream_on<'f, B>(
    backend: &B,
    frames: &'f [Image<u8>],
    n: usize,
) -> Vec<Option<FittedLine>>
where
    B: Backend<LineProgram, &'f Image<u8>, Output = Option<FittedLine>>,
{
    let prog = line_program(n);
    let exec = backend.prepare(&prog);
    let mut src = skipper::stream_of(frames);
    let mut lines = Vec::with_capacity(frames.len());
    while let Some(img) = src.next_frame() {
        lines.push(exec.run(img));
    }
    lines
}

/// Detects the lane line in every frame a [`FrameSource`] yields through
/// an **already-prepared executable** — the source-consuming
/// generalisation of [`detect_lines_stream_on`] for live feeds, where
/// frames are owned and produced on demand.
pub fn detect_lines_from_source<E, S>(exec: &E, mut frames: S) -> Vec<Option<FittedLine>>
where
    E: for<'a> Executable<&'a Image<u8>, Output = Option<FittedLine>>,
    S: FrameSource<Image<u8>>,
{
    let mut lines = Vec::new();
    while let Some(img) = frames.next_frame() {
        lines.push(exec.run(&img));
    }
    lines
}

/// Lane offset in pixels from the image centre at the bottom row.
pub fn lane_offset(line: &FittedLine, width: usize, height: usize) -> f64 {
    line.x_at(height.saturating_sub(1) as f64) - width as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper::PoolBackend;
    use skipper_vision::synth::render_road_frame;

    #[test]
    fn source_helper_matches_prepared_slice_helper() {
        use skipper::{VecSource, Workers};
        let frames: Vec<Image<u8>> = (0..4)
            .map(|k| render_road_frame(128, 96, k as f64 * 10.0, 0.05, k).0)
            .collect();
        let backend = PoolBackend::configured(Workers::exact(2));
        let expected = detect_lines_stream_on(&backend, &frames, 3);
        let prog = line_program(3);
        let exec = <PoolBackend as Backend<LineProgram, &Image<u8>>>::prepare(&backend, &prog);
        let got = detect_lines_from_source(&exec, VecSource::new(frames));
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_matches_sequential_fit() {
        let pool = PoolBackend::new();
        let (img, _) = render_road_frame(256, 192, 30.0, 0.1, 7);
        let seq = detect_line_seq(&img).unwrap();
        for n in [2, 4, 8] {
            let par = detect_line_on(&pool, &img, n).unwrap();
            assert_eq!(par.samples, seq.samples, "n={n}");
            assert!((par.a - seq.a).abs() < 1e-9);
            assert!((par.b - seq.b).abs() < 1e-9);
        }
    }

    #[test]
    fn offset_tracks_ground_truth() {
        let pool = PoolBackend::new();
        for (w, h, off, curv, seed, tol) in [
            (256, 192, 0.0, 0.0, 3, 8.0),
            (256, 192, 40.0, 0.0, 3, 8.0),
            (256, 192, -30.0, 0.15, 3, 8.0),
            (256, 192, 20.0, -0.1, 3, 8.0),
            (1920, 1080, 40.0, 0.00004, 9, 24.0),
        ] {
            let (img, true_bottom_x) = render_road_frame(w, h, off, curv, seed);
            let line = detect_line_on(&pool, &img, 4).unwrap();
            let est_bottom_x = line.x_at((h - 1) as f64);
            assert!(
                (est_bottom_x - true_bottom_x).abs() < tol,
                "{w}x{h} off={off} curv={curv}: est {est_bottom_x:.1} vs true {true_bottom_x:.1}"
            );
        }
    }

    #[test]
    fn copying_baseline_matches_the_zero_copy_fit() {
        use skipper::SeqBackend;
        // The fit the copy-per-band pipeline (every band deep-copied out
        // of the frame) produced on this frame, bit for bit, for every
        // band count below.
        let golden = FittedLine {
            a: f64::from_bits(0x3fce_07bc_1ef0_7bc2),
            b: f64::from_bits(0x405c_0bd2_e74b_9d2e),
            samples: 128,
            rms: f64::from_bits(0x3fdb_de35_d375_e4eb),
        };
        let backend = PoolBackend::new();
        let (img, _) = render_road_frame(256, 192, 25.0, 0.08, 5);
        for n in [1, 2, 4] {
            let fast = detect_line_on(&backend, &img, n);
            let seq: Option<FittedLine> = SeqBackend.run(&line_program(n), &img);
            assert_eq!(fast, seq, "n={n}");
            assert_eq!(fast, Some(golden), "n={n}");
        }
    }

    #[test]
    fn dark_frame_gives_no_line() {
        let pool = PoolBackend::new();
        let img = Image::<u8>::new(64, 64);
        assert!(detect_line_on(&pool, &img, 4).is_none());
    }

    #[test]
    fn lane_offset_sign_convention() {
        let pool = PoolBackend::new();
        let (img, _) = render_road_frame(256, 192, 50.0, 0.0, 1);
        let line = detect_line_on(&pool, &img, 4).unwrap();
        assert!(
            lane_offset(&line, 256, 192) > 0.0,
            "marking right of centre"
        );
        let (img2, _) = render_road_frame(256, 192, -50.0, 0.0, 1);
        let line2 = detect_line_on(&pool, &img2, 4).unwrap();
        assert!(lane_offset(&line2, 256, 192) < 0.0);
    }
}
