//! Work-unit cost model of the tracker's sequential functions.
//!
//! Costs are expressed in abstract CPU work units (one unit ≈ one
//! inner-loop operation, 50 ns on the T9000-class model). The constants
//! below are calibrated so that the simulated application reproduces the
//! *shape* of the paper's §4 measurements on a ring of 8 processors at
//! 512×512 — ≈30 ms latency in tracking mode and ≈110 ms in
//! reinitialisation mode (`tracker_sim`'s tests check that shape).

use skipper_vision::window::Window;

/// Frame acquisition cost per pixel (video interface copy-in).
pub const READ_UNITS_PER_PX: u64 = 1;

/// Window extraction cost per *frame* pixel (`get_windows` scans the frame
/// once) — dominated by the full-image traversal.
pub const GETWIN_UNITS_PER_PX: u64 = 1;

/// Mark detection cost per *window* pixel (threshold + labelling + region
/// properties ≈ 20 ops/pixel).
pub const DETECT_UNITS_PER_PX: u64 = 20;

/// Cost of folding one window's detections into the accumulator.
pub const ACCUM_UNITS: u64 = 200;

/// Prediction cost (association + 3-D update; ≈2.5 ms at 50 ns/unit).
pub const PREDICT_UNITS: u64 = 50_000;

/// Display/overlay cost (≈0.5 ms).
pub const DISPLAY_UNITS: u64 = 10_000;

/// Modelled wire size of a window message (its pixels).
pub fn window_bytes(w: &Window) -> u64 {
    (w.pixels.len() as u64).max(1)
}

/// Modelled wire size of a mark list (28 bytes per mark).
pub fn marks_bytes(n_marks: usize) -> u64 {
    (28 * n_marks as u64).max(8)
}

/// Modelled wire size of the tracker state.
pub const STATE_BYTES: u64 = 256;

/// Detection cost of one window.
pub fn detect_units(w: &Window) -> u64 {
    DETECT_UNITS_PER_PX * w.pixels.len() as u64 + 500
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_vision::geometry::Rect;
    use skipper_vision::Image;

    #[test]
    fn detect_cost_scales_with_window_area() {
        let frame = Image::<u8>::new(128, 128);
        let small = Window::extract(&frame, Rect::new(0, 0, 16, 16));
        let large = Window::extract(&frame, Rect::new(0, 0, 64, 64));
        assert!(detect_units(&large) > 10 * detect_units(&small));
    }

    #[test]
    fn tracking_vs_reinit_cost_ratio_is_large() {
        // One reinit window (1/8 of a 512² frame) vs one tracking window
        // (~40×40): the per-item cost ratio drives the latency ratio.
        let frame = Image::<u8>::new(512, 512);
        let reinit = Window::extract(&frame, Rect::new(0, 0, 64, 512));
        let tracking = Window::extract(&frame, Rect::new(0, 0, 40, 40));
        let ratio = detect_units(&reinit) as f64 / detect_units(&tracking) as f64;
        assert!(ratio > 15.0, "ratio {ratio}");
    }

    #[test]
    fn byte_helpers() {
        assert_eq!(marks_bytes(0), 8);
        assert_eq!(marks_bytes(3), 84);
        let frame = Image::<u8>::new(32, 32);
        let w = Window::extract(&frame, Rect::new(0, 0, 8, 8));
        assert_eq!(window_bytes(&w), 64);
    }
}
