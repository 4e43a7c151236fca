//! The vehicle detection and tracking application (paper §4).
//!
//! "A video camera, installed in a car, provides a gray level image of
//! several lead vehicles (one to three, in practice). Each lead vehicle is
//! equipped with three visual marks, placed on the top and at the back of
//! it."
//!
//! This module implements the sequential ("C") functions of the paper's
//! specification, over the [`skipper_vision`] substrate:
//!
//! | Paper prototype | Here |
//! |---|---|
//! | `init_state`    | [`init_state`] |
//! | `get_windows`   | [`get_windows`] |
//! | `detect_mark`   | [`detect_marks`] (returns all marks in the window) |
//! | `accum_marks`   | [`accum_marks`] |
//! | `predict`       | [`predict`] |
//!
//! The tracking strategy is the paper's predict-then-verify: englobing
//! frames of marks detected at iteration *i* predict the windows of
//! interest for iteration *i+1*, using a constant-velocity model plus
//! *rigidity criteria* on the three-mark pattern; when fewer than three
//! marks are found for a vehicle "it is assumed that the prediction failed,
//! and windows of interest are obtained by dividing up the whole image into
//! n equally-sized sub-windows".

use skipper_vision::geometry::{Point2, Rect};
use skipper_vision::region::detect_blobs;
use skipper_vision::window::{split_into_windows, Window};
use skipper_vision::Image;

/// Grey-level threshold above which pixels belong to a mark.
pub const MARK_THRESHOLD: u8 = 180;

/// Minimum blob area (pixels) accepted as a mark.
pub const MIN_MARK_AREA: u64 = 2;

/// Physical horizontal spacing of the two top marks, metres (matches the
/// synthetic scene's [`skipper_vision::synth::MARK_OFFSETS`]).
pub const TOP_MARK_SPACING_M: f64 = 1.4;

/// A detected mark: centre of gravity plus englobing frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Mark {
    /// Centre of gravity, frame coordinates.
    pub center: Point2,
    /// Englobing frame.
    pub bbox: Rect,
    /// Blob area in pixels.
    pub area: u64,
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Degree of parallelism (`nproc` in the paper: reinitialisation splits
    /// the frame into this many windows).
    pub nproc: usize,
    /// Number of lead vehicles (1..=3 in the paper).
    pub n_vehicles: usize,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Camera focal length in pixels (for distance estimation).
    pub focal_px: f64,
    /// Association gate: a detection matches a predicted mark when within
    /// this many pixels.
    pub gate_px: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            nproc: 8,
            n_vehicles: 1,
            width: 512,
            height: 512,
            focal_px: 700.0,
            gate_px: 40.0,
        }
    }
}

/// Per-vehicle estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleEst {
    /// `true` once the three-mark pattern is locked.
    pub locked: bool,
    /// Last confirmed mark positions (left-top, right-top, bottom).
    pub marks: [Point2; 3],
    /// Pixel velocity of the pattern (per frame).
    pub velocity: Point2,
    /// Estimated distance, metres.
    pub distance: f64,
    /// Estimated lateral offset, metres.
    pub lateral: f64,
    /// Consecutive frames without a full pattern.
    pub misses: u32,
}

impl VehicleEst {
    fn unlocked() -> Self {
        VehicleEst {
            locked: false,
            marks: [Point2::default(); 3],
            velocity: Point2::default(),
            distance: 0.0,
            lateral: 0.0,
            misses: 0,
        }
    }

    /// Predicted mark positions one frame ahead.
    pub fn predicted_marks(&self) -> [Point2; 3] {
        let mut out = self.marks;
        for m in &mut out {
            m.x += self.velocity.x;
            m.y += self.velocity.y;
        }
        out
    }
}

/// Tracking mode: normal tracking or (re)initialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Whole-image search with `nproc` windows.
    Init,
    /// Predicted windows of interest around each mark.
    Tracking,
}

/// The looped state of the `itermem` skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackState {
    /// Configuration (immutable).
    pub cfg: TrackerConfig,
    /// Current mode.
    pub mode: Mode,
    /// Per-vehicle estimates.
    pub vehicles: Vec<VehicleEst>,
    /// Frame counter.
    pub frame: u64,
}

/// `init_state`: the paper's initial state (reinitialisation mode, no
/// vehicle locked).
pub fn init_state(cfg: TrackerConfig) -> TrackState {
    TrackState {
        vehicles: (0..cfg.n_vehicles)
            .map(|_| VehicleEst::unlocked())
            .collect(),
        mode: Mode::Init,
        frame: 0,
        cfg,
    }
}

/// Horizontal overlap (pixels) added to each reinitialisation window so
/// that marks cut by a band boundary appear whole in one of the bands.
pub const INIT_WINDOW_OVERLAP: i64 = 16;

/// Side length (pixels) of a tracking window for a vehicle at `distance`.
///
/// Kept below the top-pair separation so each window sees one whole mark.
fn window_side(cfg: &TrackerConfig, distance: f64) -> i64 {
    let apparent = if distance > 1.0 {
        cfg.focal_px * 0.35 / distance
    } else {
        24.0
    };
    ((apparent * 2.5) as i64 + 8).clamp(16, 64)
}

/// `get_windows`: the windows of interest for the current frame.
///
/// Tracking mode yields one window per predicted mark (3 per locked
/// vehicle: the paper's "3, 6 or 9 in normal tracking"); `Init` mode
/// divides the whole image into `nproc` equal windows (overlapped by
/// [`INIT_WINDOW_OVERLAP`] so boundary marks are seen whole).
pub fn get_windows(state: &TrackState, frame: &Image<u8>) -> Vec<Window> {
    let cfg = &state.cfg;
    let rects: Vec<Rect> = match state.mode {
        Mode::Init => split_into_windows(cfg.width, cfg.height, cfg.nproc)
            .into_iter()
            .map(|r| {
                Rect::new(
                    r.x - INIT_WINDOW_OVERLAP,
                    r.y,
                    r.w + 2 * INIT_WINDOW_OVERLAP,
                    r.h,
                )
            })
            .collect(),
        Mode::Tracking => state
            .vehicles
            .iter()
            .filter(|v| v.locked)
            .flat_map(|v| {
                let side = window_side(cfg, v.distance);
                v.predicted_marks().into_iter().map(move |m| {
                    Rect::new(m.x as i64 - side / 2, m.y as i64 - side / 2, side, side)
                })
            })
            .collect(),
    };
    rects
        .into_iter()
        .map(|r| Window::extract(frame, r))
        .filter(|w| !w.is_empty())
        .collect()
}

/// `detect_mark`: finds the marks inside one window (thresholding +
/// connected components + centre of gravity + englobing frame), expressed
/// in whole-frame coordinates.
///
/// Blobs touching the window border are discarded: they are fragments of a
/// mark clipped by the window, and the whole mark is visible in a
/// neighbouring (overlapping) window. This keeps the accumulated mark list
/// free of duplicate half-detections.
pub fn detect_marks(window: &Window) -> Vec<Mark> {
    let (w, h) = window.pixels.dimensions();
    detect_blobs(&window.pixels, MARK_THRESHOLD, MIN_MARK_AREA)
        .into_iter()
        .filter(|r| {
            r.bbox.x > 0
                && r.bbox.y > 0
                && r.bbox.x + r.bbox.w < w as i64
                && r.bbox.y + r.bbox.h < h as i64
        })
        .map(|r| {
            let r = r.translate(window.rect.x, window.rect.y);
            Mark {
                center: r.centroid,
                bbox: r.bbox,
                area: r.area,
            }
        })
        .collect()
}

/// `accum_marks`: folds one window's detections into the accumulated list.
///
/// Concatenation is order-sensitive, so [`predict`] canonicalises the list
/// before use — this is what makes the farm's arrival-order accumulation
/// equivalent to the sequential fold, as the paper's `df` equivalence
/// condition requires.
pub fn accum_marks(mut acc: Vec<Mark>, mut marks: Vec<Mark>) -> Vec<Mark> {
    acc.append(&mut marks);
    acc
}

/// Canonical mark order (by x then y), making downstream processing
/// independent of farm scheduling order.
fn canonicalize(marks: &mut Vec<Mark>) {
    marks.sort_by(|a, b| {
        (a.center.x, a.center.y)
            .partial_cmp(&(b.center.x, b.center.y))
            .expect("mark coordinates are finite")
    });
    // Merge near-duplicate detections (overlapping windows in tracking mode
    // can see the same mark twice).
    marks.dedup_by(|a, b| a.center.distance(b.center) < 3.0);
}

/// Searches all 3-subsets of the (largest) detections for three-mark
/// patterns satisfying the rigidity criteria; returns up to `k` disjoint
/// patterns, best-first by rigidity score, re-sorted left-to-right for
/// stable vehicle identities.
fn find_patterns(marks: &[Mark], k: usize) -> Vec<[Point2; 3]> {
    // Cap the combinatorics at the 15 largest marks.
    let mut idx: Vec<usize> = (0..marks.len()).collect();
    idx.sort_by(|&a, &b| marks[b].area.cmp(&marks[a].area));
    idx.truncate(15);
    let mut candidates: Vec<(f64, [usize; 3], [Point2; 3])> = Vec::new();
    for a in 0..idx.len() {
        for b in a + 1..idx.len() {
            for c in b + 1..idx.len() {
                let trio = [
                    marks[idx[a]].clone(),
                    marks[idx[b]].clone(),
                    marks[idx[c]].clone(),
                ];
                let Some(pattern) = fit_pattern(&trio) else {
                    continue;
                };
                let sep = (pattern[1].x - pattern[0].x).max(1.0);
                let level = (pattern[0].y - pattern[1].y).abs() / sep;
                let mid = (pattern[0].x + pattern[1].x) / 2.0;
                let centring = (pattern[2].x - mid).abs() / sep;
                let areas: Vec<f64> = trio.iter().map(|m| m.area as f64).collect();
                let amax = areas.iter().cloned().fold(0.0, f64::max);
                let amin = areas.iter().cloned().fold(f64::INFINITY, f64::min);
                let size_spread = (amax / amin.max(1.0)) - 1.0;
                let score = level + centring + 0.2 * size_spread;
                candidates.push((score, [idx[a], idx[b], idx[c]], pattern));
            }
        }
    }
    candidates.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite scores"));
    let mut used = vec![false; marks.len()];
    let mut out: Vec<[Point2; 3]> = Vec::new();
    for (_, ids, pattern) in candidates {
        if out.len() >= k {
            break;
        }
        if ids.iter().any(|&i| used[i]) {
            continue;
        }
        for &i in &ids {
            used[i] = true;
        }
        out.push(pattern);
    }
    out.sort_by(|p, q| {
        center_of(p)
            .x
            .partial_cmp(&center_of(q).x)
            .expect("finite coordinates")
    });
    out
}

/// Groups marks into vehicle candidates by splitting at the `k-1` largest
/// x-gaps (useful when vehicles are laterally well separated).
pub fn cluster_marks(marks: &[Mark], k: usize) -> Vec<Vec<Mark>> {
    if marks.is_empty() || k == 0 {
        return Vec::new();
    }
    if k == 1 {
        return vec![marks.to_vec()];
    }
    let mut gaps: Vec<(f64, usize)> = marks
        .windows(2)
        .enumerate()
        .map(|(i, pair)| (pair[1].center.x - pair[0].center.x, i + 1))
        .collect();
    gaps.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let mut cuts: Vec<usize> = gaps.iter().take(k - 1).map(|&(_, i)| i).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut start = 0;
    for c in cuts {
        out.push(marks[start..c].to_vec());
        start = c;
    }
    out.push(marks[start..].to_vec());
    out
}

/// Identifies the three-mark pattern inside a candidate cluster, enforcing
/// the rigidity criteria; returns `(left_top, right_top, bottom)`.
fn fit_pattern(cluster: &[Mark]) -> Option<[Point2; 3]> {
    if cluster.len() < 3 {
        return None;
    }
    // Keep the 3 largest marks.
    let mut ms = cluster.to_vec();
    ms.sort_by_key(|m| std::cmp::Reverse(m.area));
    ms.truncate(3);
    // Bottom mark = largest y; the other two are the top pair.
    ms.sort_by(|a, b| a.center.y.partial_cmp(&b.center.y).expect("finite"));
    let (top_a, top_b, bottom) = (&ms[0], &ms[1], &ms[2]);
    let (left, right) = if top_a.center.x <= top_b.center.x {
        (top_a, top_b)
    } else {
        (top_b, top_a)
    };
    let sep = right.center.x - left.center.x;
    if sep < 4.0 {
        return None;
    }
    // Rigidity criteria: top pair roughly level; bottom centred and below.
    if (left.center.y - right.center.y).abs() > 0.5 * sep {
        return None;
    }
    if bottom.center.y <= left.center.y.max(right.center.y) {
        return None;
    }
    let mid = (left.center.x + right.center.x) / 2.0;
    if (bottom.center.x - mid).abs() > 0.8 * sep {
        return None;
    }
    Some([left.center, right.center, bottom.center])
}

/// `predict`: associates detections with vehicles, updates the 3-D state
/// (distance/lateral via the top-pair separation), applies the rigidity
/// criteria, and decides the next mode. Returns `(state', display_marks)`
/// per the Fig. 4 contract (state first).
pub fn predict(state: &TrackState, marks: Vec<Mark>) -> (TrackState, Vec<Mark>) {
    let mut marks = marks;
    canonicalize(&mut marks);
    let cfg = state.cfg;
    let mut next = state.clone();
    next.frame += 1;

    match state.mode {
        Mode::Init => {
            // Search the detections for three-mark rigid patterns.
            let patterns = find_patterns(&marks, cfg.n_vehicles);
            for (v, pattern) in next.vehicles.iter_mut().zip(patterns.iter()) {
                update_vehicle(v, *pattern, &cfg, false);
                v.locked = true;
                v.misses = 0;
            }
            for v in next.vehicles.iter_mut().skip(patterns.len()) {
                v.locked = false;
                v.misses += 1;
            }
        }
        Mode::Tracking => {
            for v in next.vehicles.iter_mut() {
                if !v.locked {
                    continue;
                }
                // Associate each predicted mark with the nearest detection
                // inside the gate.
                let predicted = v.predicted_marks();
                let mut assigned: Vec<Option<Point2>> = vec![None; 3];
                let mut used = vec![false; marks.len()];
                for (k, p) in predicted.iter().enumerate() {
                    let mut best: Option<(f64, usize)> = None;
                    for (i, m) in marks.iter().enumerate() {
                        if used[i] {
                            continue;
                        }
                        let d = p.distance(m.center);
                        if d <= cfg.gate_px && best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, i));
                        }
                    }
                    if let Some((_, i)) = best {
                        used[i] = true;
                        assigned[k] = Some(marks[i].center);
                    }
                }
                if assigned.iter().all(Option::is_some) {
                    let pattern = [
                        assigned[0].expect("checked"),
                        assigned[1].expect("checked"),
                        assigned[2].expect("checked"),
                    ];
                    update_vehicle(v, pattern, &cfg, true);
                    v.misses = 0;
                } else {
                    // "If less than three marks were detected … the
                    // prediction failed."
                    v.locked = false;
                    v.misses += 1;
                }
            }
        }
    }
    next.mode = if !next.vehicles.is_empty() && next.vehicles.iter().all(|v| v.locked) {
        Mode::Tracking
    } else {
        Mode::Init
    };
    (next, marks)
}

/// Updates one vehicle estimate from a confirmed pattern.
fn update_vehicle(v: &mut VehicleEst, pattern: [Point2; 3], cfg: &TrackerConfig, smooth: bool) {
    let sep = (pattern[1].x - pattern[0].x).max(1.0);
    let distance = cfg.focal_px * TOP_MARK_SPACING_M / sep;
    let cx = (pattern[0].x + pattern[1].x) / 2.0;
    let lateral = (cx - cfg.width as f64 / 2.0) * distance / cfg.focal_px;
    if smooth && v.locked {
        let old_c = center_of(&v.marks);
        let new_c = center_of(&pattern);
        let vel = Point2::new(new_c.x - old_c.x, new_c.y - old_c.y);
        // Exponential smoothing of the pixel velocity.
        v.velocity = Point2::new(
            0.5 * v.velocity.x + 0.5 * vel.x,
            0.5 * v.velocity.y + 0.5 * vel.y,
        );
    } else {
        v.velocity = Point2::default();
    }
    v.marks = pattern;
    v.distance = distance;
    v.lateral = lateral;
    v.locked = true;
}

fn center_of(marks: &[Point2; 3]) -> Point2 {
    Point2::new(
        (marks[0].x + marks[1].x + marks[2].x) / 3.0,
        (marks[0].y + marks[1].y + marks[2].y) / 3.0,
    )
}

/// One whole loop iteration (the paper's `loop` function): windows →
/// detection (sequential fold) → prediction. Used by the sequential
/// emulation and as the reference for the parallel paths.
pub fn loop_step_seq(state: &TrackState, frame: &Image<u8>) -> (TrackState, Vec<Mark>) {
    let windows = get_windows(state, frame);
    let marks = skipper::spec::df(
        state.cfg.nproc,
        detect_marks,
        accum_marks,
        Vec::new(),
        &windows,
    );
    predict(state, marks)
}

/// The mark-detection farm program type, shared by every backend.
pub type DetectFarm =
    skipper::Df<fn(&Window) -> Vec<Mark>, fn(Vec<Mark>, Vec<Mark>) -> Vec<Mark>, Vec<Mark>>;

/// The detection farm as a program value (`df nproc detect accum []`).
pub fn detection_farm(nproc: usize) -> DetectFarm {
    skipper::df(nproc, detect_marks as _, accum_marks as _, Vec::new())
}

/// One loop iteration with the detection farm run through a **prepared**
/// executable: the tracking loop prepares [`detection_farm`] once on its
/// backend (`Backend::prepare`) and hands the executable in per frame —
/// the prepare-once/run-many regime the paper compiles offline for.
pub fn loop_step_prepared<E>(
    exec: &E,
    state: &TrackState,
    frame: &Image<u8>,
) -> (TrackState, Vec<Mark>)
where
    E: for<'a> skipper::Executable<&'a [Window], Output = Vec<Mark>>,
{
    let windows = get_windows(state, frame);
    let marks = exec.run(&windows[..]);
    predict(state, marks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_vision::synth::{Occlusion, Scene, SceneConfig};

    fn scene_cfg(w: usize) -> SceneConfig {
        SceneConfig {
            width: w,
            height: w,
            focal_px: 700.0 * w as f64 / 512.0,
            noise_amplitude: 8,
            seed: 5,
            ..SceneConfig::default()
        }
    }

    fn tracker_cfg(w: usize, n: usize) -> TrackerConfig {
        TrackerConfig {
            nproc: 8,
            n_vehicles: n,
            width: w,
            height: w,
            focal_px: 700.0 * w as f64 / 512.0,
            ..TrackerConfig::default()
        }
    }

    /// Runs `frames` iterations at 25 Hz over the scene; returns the states.
    fn run(scene: &Scene, cfg: TrackerConfig, frames: usize) -> Vec<TrackState> {
        let mut state = init_state(cfg);
        let mut states = Vec::new();
        for k in 0..frames {
            let img = scene.render(k as f64 / 25.0);
            let (next, _marks) = loop_step_seq(&state, &img);
            state = next;
            states.push(state.clone());
        }
        states
    }

    #[test]
    fn tracker_locks_after_first_frame() {
        let scene = Scene::with_vehicles(scene_cfg(256), 1);
        let cfg = tracker_cfg(256, 1);
        let states = run(&scene, cfg, 3);
        assert_eq!(states[0].mode, Mode::Tracking, "locked after init frame");
        assert!(states[2].vehicles[0].locked);
    }

    #[test]
    fn tracked_distance_matches_truth() {
        let scene = Scene::with_vehicles(scene_cfg(256), 1);
        let cfg = tracker_cfg(256, 1);
        let states = run(&scene, cfg, 25);
        let truth = scene.truth(24.0 / 25.0)[0].distance;
        let est = states[24].vehicles[0].distance;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.15, "distance {est:.1} vs truth {truth:.1}");
    }

    #[test]
    fn tracking_mode_uses_three_windows_per_vehicle() {
        let scene = Scene::with_vehicles(scene_cfg(256), 1);
        let cfg = tracker_cfg(256, 1);
        let states = run(&scene, cfg, 2);
        let img = scene.render(2.0 / 25.0);
        let windows = get_windows(&states[1], &img);
        assert_eq!(windows.len(), 3, "3 windows per locked vehicle");
        // Tracking windows are much smaller than reinit windows.
        assert!(windows.iter().all(|w| w.area() < (256 * 256 / 8) as i64));
    }

    #[test]
    fn init_mode_splits_image_into_nproc_windows() {
        let cfg = tracker_cfg(256, 1);
        let state = init_state(cfg);
        let img = Image::<u8>::new(256, 256);
        let windows = get_windows(&state, &img);
        assert_eq!(windows.len(), 8);
        // Overlapped bands: combined area exceeds the frame, and every
        // column of the frame is covered.
        let total: i64 = windows.iter().map(Window::area).sum();
        assert!(total >= 256 * 256);
        let mut covered = vec![false; 256];
        for w in &windows {
            for x in w.rect.x..w.rect.x + w.rect.w {
                covered[x as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn occlusion_triggers_reinit_then_recovery() {
        let mut scene = Scene::with_vehicles(scene_cfg(256), 1);
        scene.add_occlusion(Occlusion {
            vehicle: 0,
            t0: 20.0 / 25.0,
            t1: 26.0 / 25.0,
            hidden_marks: 2,
        });
        let cfg = tracker_cfg(256, 1);
        let states = run(&scene, cfg, 40);
        let modes: Vec<Mode> = states.iter().map(|s| s.mode).collect();
        assert!(
            modes[21..27].contains(&Mode::Init),
            "occlusion must force reinitialisation: {modes:?}"
        );
        assert_eq!(
            modes[35],
            Mode::Tracking,
            "tracker must re-lock after the occlusion ends"
        );
    }

    #[test]
    fn two_vehicles_both_tracked() {
        let scene = Scene::with_vehicles(scene_cfg(384), 2);
        let cfg = tracker_cfg(384, 2);
        let states = run(&scene, cfg, 10);
        let locked = states[9].vehicles.iter().filter(|v| v.locked).count();
        assert_eq!(locked, 2, "both vehicles locked");
        // Distances are distinct and ordered like the scene (vehicle 1 is
        // farther by construction).
        let d0 = states[9].vehicles[0].distance;
        let d1 = states[9].vehicles[1].distance;
        assert!((d0 - d1).abs() > 2.0);
    }

    #[test]
    fn prepared_loop_matches_sequential_loop() {
        // The prepare-once/run-many tracking regime: one detection-farm
        // executable, prepared on the persistent pool, drives every
        // frame and must match the sequential emulation bit-for-bit.
        use skipper::Backend;
        let scene = Scene::with_vehicles(scene_cfg(256), 1);
        let cfg = tracker_cfg(256, 2);
        let farm = detection_farm(cfg.nproc);
        let pool = skipper::PoolBackend::new();
        let exec = Backend::<_, &[Window]>::prepare(&pool, &farm);
        let mut s_seq = init_state(cfg);
        let mut s_pre = init_state(cfg);
        for k in 0..10 {
            let img = scene.render(k as f64 / 25.0);
            let (n1, m1) = loop_step_seq(&s_seq, &img);
            let (n2, m2) = loop_step_prepared(&exec, &s_pre, &img);
            assert_eq!(m1, m2, "frame {k}: display marks differ");
            assert_eq!(n1, n2, "frame {k}: states differ");
            s_seq = n1;
            s_pre = n2;
        }
    }

    #[test]
    fn accum_is_list_concat() {
        let m = Mark {
            center: Point2::new(1.0, 2.0),
            bbox: Rect::new(0, 0, 2, 2),
            area: 4,
        };
        let acc = accum_marks(vec![m.clone()], vec![m.clone(), m.clone()]);
        assert_eq!(acc.len(), 3);
        assert_eq!(accum_marks(Vec::new(), Vec::new()).len(), 0);
    }

    #[test]
    fn cluster_marks_splits_on_gaps() {
        let mk = |x: f64| Mark {
            center: Point2::new(x, 10.0),
            bbox: Rect::new(x as i64, 10, 2, 2),
            area: 4,
        };
        let marks = vec![
            mk(10.0),
            mk(14.0),
            mk(12.0),
            mk(100.0),
            mk(104.0),
            mk(102.0),
        ];
        let mut sorted = marks.clone();
        sorted.sort_by(|a, b| a.center.x.partial_cmp(&b.center.x).unwrap());
        let clusters = cluster_marks(&sorted, 2);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 3);
        assert_eq!(clusters[1].len(), 3);
    }

    #[test]
    fn rigidity_rejects_flat_line_of_marks() {
        let mk = |x: f64, y: f64| Mark {
            center: Point2::new(x, y),
            bbox: Rect::new(x as i64, y as i64, 2, 2),
            area: 4,
        };
        // Three collinear horizontal marks: no bottom mark below the pair.
        assert!(fit_pattern(&[mk(10.0, 50.0), mk(30.0, 50.0), mk(50.0, 50.0)]).is_none());
        // Proper triangle accepted.
        assert!(fit_pattern(&[mk(10.0, 50.0), mk(30.0, 50.0), mk(20.0, 70.0)]).is_some());
        // Bottom mark far off-centre rejected.
        assert!(fit_pattern(&[mk(10.0, 50.0), mk(30.0, 50.0), mk(80.0, 70.0)]).is_none());
    }

    #[test]
    fn detect_marks_translates_to_frame_coords() {
        let mut frame = Image::<u8>::new(64, 64);
        frame.fill_rect(40, 40, 4, 4, 255);
        let w = Window::extract(&frame, Rect::new(32, 32, 32, 32));
        let marks = detect_marks(&w);
        assert_eq!(marks.len(), 1);
        assert!((marks[0].center.x - 41.5).abs() < 0.01);
        assert!((marks[0].center.y - 41.5).abs() < 0.01);
        assert_eq!(marks[0].bbox, Rect::new(40, 40, 4, 4));
    }
}
