//! The §4 applications as a DSL kernel registry.
//!
//! `skipperc` compiles a Skipper-ML program against a
//! [`KernelRegistry`] naming the application's sequential ("C")
//! functions. This module registers the paper's three case studies —
//! connected-component labelling, road following and vehicle tracking —
//! so the `.skp` sources under `examples/dsl/` typecheck, compile and
//! run; and it provides **handwritten** loop bodies over the same wire
//! encoding ([`CclBody`], [`RoadBody`], [`TrackBody`]) so the
//! conformance kit can require the compiled programs to match them
//! output-for-output and receipt-for-receipt
//! ([`skipper::conformance::assert_programs_equivalent`]).
//!
//! # Wire encoding
//!
//! DSL values are [`skipper_exec::Value`]s. Each vision type gets a
//! structural encoding (no `Opaque`), so outputs hash stably into run
//! receipts and survive the simulated machine's channels:
//!
//! | DSL type | encoding |
//! |---|---|
//! | `image`  | `(w, h, bytes)` |
//! | `band`   | `(index, y0, rows, halo_top, halo_bottom, image)` |
//! | `lband`  | `(band, (w, h, bytes-of-le-u32), count)` |
//! | `point`  | `(y, x, width)` |
//! | `line`   | `[]` or `[(a, b, samples, rms)]` |
//! | `window` | `((x, y, w, h), image)` |
//! | `mark`   | `((cx, cy), (x, y, w, h), area)` |
//! | `state`  | `(cfg, mode, vehicles, frame)` |
//!
//! Decoders treat a shape mismatch as a kernel-contract violation: the
//! typechecker verified the *program* against the registered
//! signatures, so a mismatch here means a registered signature lies
//! about its Rust kernel — unreachable from DSL text.

use skipper::{itermem, run_with, Dispatch, IterLoop, Skeleton};
use skipper_exec::Value;
use skipper_lang::compile::KernelRegistry;
use skipper_vision::geometry::{Point2, Rect};
use skipper_vision::line::{FittedLine, LinePoint};
use skipper_vision::split::RowBand;
use skipper_vision::synth::{random_blobs, render_road_frame, Scene, SceneConfig};
use skipper_vision::{Image, Window};

use crate::ccl::LabelledBand;
use crate::tracking::{Mark, Mode, TrackState, TrackerConfig, VehicleEst};

// ---------------------------------------------------------------------------
// Decode plumbing
// ---------------------------------------------------------------------------

/// A registered signature lied about its Rust kernel: the value on the
/// wire does not have the shape the codec was promised. The typechecker
/// rules this out for every well-registered kernel, so no DSL program
/// can reach this.
#[cold]
fn codec_violation(want: &str, got: &Value) -> ! {
    panic!(
        "kernel codec expected {want}, got {got:?}: a registered signature lies about its kernel"
    )
}

fn fields<'v>(v: &'v Value, n: usize, want: &str) -> &'v [Value] {
    match v.as_tuple() {
        Some(t) if t.len() == n => t,
        _ => codec_violation(want, v),
    }
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or_else(|| codec_violation("an int", v))
}

fn usz(v: &Value) -> usize {
    usize::try_from(int(v)).unwrap_or_else(|_| codec_violation("a non-negative int", v))
}

fn float(v: &Value) -> f64 {
    v.as_float()
        .unwrap_or_else(|| codec_violation("a float", v))
}

fn boolean(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        _ => codec_violation("a bool", v),
    }
}

fn list(v: &Value) -> &[Value] {
    v.as_list().unwrap_or_else(|| codec_violation("a list", v))
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Encodes a grey-level image as `(w, h, bytes)`. The pixels are copied
/// once, straight into the shared `Arc` byte storage.
pub fn image_value(img: &Image<u8>) -> Value {
    Value::tuple(vec![
        Value::Int(img.width() as i64),
        Value::Int(img.height() as i64),
        Value::bytes_from_slice(img.as_slice()),
    ])
}

/// Decodes `(w, h, bytes)` back into an image.
pub fn image_of(v: &Value) -> Image<u8> {
    let t = fields(v, 3, "an image (w, h, bytes)");
    let bytes = t[2]
        .as_bytes()
        .unwrap_or_else(|| codec_violation("image bytes", &t[2]));
    Image::from_raw(usz(&t[0]), usz(&t[1]), bytes.to_vec())
}

/// Encodes a label map (`u32` pixels) as `(w, h, bytes)` little-endian.
fn labels_value(labels: &Image<u32>) -> Value {
    let mut bytes = Vec::with_capacity(labels.as_slice().len() * 4);
    for px in labels.as_slice() {
        bytes.extend_from_slice(&px.to_le_bytes());
    }
    Value::tuple(vec![
        Value::Int(labels.width() as i64),
        Value::Int(labels.height() as i64),
        Value::bytes(bytes),
    ])
}

fn labels_of(v: &Value) -> Image<u32> {
    let t = fields(v, 3, "a label map (w, h, bytes)");
    let bytes = t[2]
        .as_bytes()
        .unwrap_or_else(|| codec_violation("label bytes", &t[2]));
    let px = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Image::from_raw(usz(&t[0]), usz(&t[1]), px)
}

/// Encodes a [`RowBand`] as `(index, y0, rows, halo_top, halo_bottom, image)`.
pub fn band_value(b: &RowBand) -> Value {
    Value::tuple(vec![
        Value::Int(b.index as i64),
        Value::Int(b.y0 as i64),
        Value::Int(b.rows as i64),
        Value::Int(b.halo_top as i64),
        Value::Int(b.halo_bottom as i64),
        image_value(&b.pixels),
    ])
}

/// Decodes a [`RowBand`].
pub fn band_of(v: &Value) -> RowBand {
    let t = fields(v, 6, "a band (index, y0, rows, halos, image)");
    RowBand {
        index: usz(&t[0]),
        y0: usz(&t[1]),
        rows: usz(&t[2]),
        halo_top: usz(&t[3]),
        halo_bottom: usz(&t[4]),
        pixels: image_of(&t[5]),
    }
}

fn lband_value(l: &LabelledBand) -> Value {
    Value::tuple(vec![
        band_value(&l.band),
        labels_value(&l.labels),
        Value::Int(i64::from(l.count)),
    ])
}

fn lband_of(v: &Value) -> LabelledBand {
    let t = fields(v, 3, "a labelled band");
    LabelledBand {
        band: band_of(&t[0]),
        labels: labels_of(&t[1]),
        count: u32::try_from(int(&t[2])).unwrap_or_else(|_| codec_violation("a label count", v)),
    }
}

fn line_point_value(p: &LinePoint) -> Value {
    Value::tuple(vec![
        Value::Int(p.y as i64),
        Value::Float(p.x),
        Value::Int(p.width as i64),
    ])
}

fn line_point_of(v: &Value) -> LinePoint {
    let t = fields(v, 3, "a line point (y, x, width)");
    LinePoint {
        y: usz(&t[0]),
        x: float(&t[1]),
        width: usz(&t[2]),
    }
}

/// Encodes an optional fitted line as `[]` / `[(a, b, samples, rms)]` —
/// the option-as-list convention the simulated machine's values use.
pub fn line_value(l: &Option<FittedLine>) -> Value {
    match l {
        None => Value::list(Vec::new()),
        Some(f) => Value::list(vec![Value::tuple(vec![
            Value::Float(f.a),
            Value::Float(f.b),
            Value::Int(f.samples as i64),
            Value::Float(f.rms),
        ])]),
    }
}

/// Decodes an optional fitted line.
pub fn line_of(v: &Value) -> Option<FittedLine> {
    match list(v) {
        [] => None,
        [one] => {
            let t = fields(one, 4, "a fitted line (a, b, samples, rms)");
            Some(FittedLine {
                a: float(&t[0]),
                b: float(&t[1]),
                samples: usz(&t[2]),
                rms: float(&t[3]),
            })
        }
        _ => codec_violation("an option-as-list line", v),
    }
}

fn point2_value(p: &Point2) -> Value {
    Value::tuple(vec![Value::Float(p.x), Value::Float(p.y)])
}

fn point2_of(v: &Value) -> Point2 {
    let t = fields(v, 2, "a point (x, y)");
    Point2 {
        x: float(&t[0]),
        y: float(&t[1]),
    }
}

fn rect_value(r: &Rect) -> Value {
    Value::tuple(vec![
        Value::Int(r.x),
        Value::Int(r.y),
        Value::Int(r.w),
        Value::Int(r.h),
    ])
}

fn rect_of(v: &Value) -> Rect {
    let t = fields(v, 4, "a rect (x, y, w, h)");
    Rect {
        x: int(&t[0]),
        y: int(&t[1]),
        w: int(&t[2]),
        h: int(&t[3]),
    }
}

/// Encodes a [`Window`] as `(rect, image)`.
pub fn window_value(w: &Window) -> Value {
    Value::tuple(vec![rect_value(&w.rect), image_value(&w.pixels)])
}

/// Decodes a [`Window`].
pub fn window_of(v: &Value) -> Window {
    let t = fields(v, 2, "a window (rect, image)");
    Window {
        rect: rect_of(&t[0]),
        pixels: image_of(&t[1]),
    }
}

/// Encodes a [`Mark`] as `(center, bbox, area)`.
pub fn mark_value(m: &Mark) -> Value {
    Value::tuple(vec![
        point2_value(&m.center),
        rect_value(&m.bbox),
        Value::Int(m.area as i64),
    ])
}

/// Decodes a [`Mark`].
pub fn mark_of(v: &Value) -> Mark {
    let t = fields(v, 3, "a mark (center, bbox, area)");
    Mark {
        center: point2_of(&t[0]),
        bbox: rect_of(&t[1]),
        area: int(&t[2]) as u64,
    }
}

fn marks_value(ms: &[Mark]) -> Value {
    Value::list(ms.iter().map(mark_value).collect())
}

fn marks_of(v: &Value) -> Vec<Mark> {
    list(v).iter().map(mark_of).collect()
}

fn vehicle_value(v: &VehicleEst) -> Value {
    Value::tuple(vec![
        Value::Bool(v.locked),
        Value::list(v.marks.iter().map(point2_value).collect()),
        point2_value(&v.velocity),
        Value::Float(v.distance),
        Value::Float(v.lateral),
        Value::Int(i64::from(v.misses)),
    ])
}

fn vehicle_of(v: &Value) -> VehicleEst {
    let t = fields(v, 6, "a vehicle estimate");
    let ms = list(&t[1]);
    if ms.len() != 3 {
        codec_violation("three mark points", &t[1]);
    }
    VehicleEst {
        locked: boolean(&t[0]),
        marks: [point2_of(&ms[0]), point2_of(&ms[1]), point2_of(&ms[2])],
        velocity: point2_of(&t[2]),
        distance: float(&t[3]),
        lateral: float(&t[4]),
        misses: u32::try_from(int(&t[5])).unwrap_or_else(|_| codec_violation("a miss count", v)),
    }
}

fn cfg_value(c: &TrackerConfig) -> Value {
    Value::tuple(vec![
        Value::Int(c.nproc as i64),
        Value::Int(c.n_vehicles as i64),
        Value::Int(c.width as i64),
        Value::Int(c.height as i64),
        Value::Float(c.focal_px),
        Value::Float(c.gate_px),
    ])
}

fn cfg_of(v: &Value) -> TrackerConfig {
    let t = fields(v, 6, "a tracker config");
    TrackerConfig {
        nproc: usz(&t[0]),
        n_vehicles: usz(&t[1]),
        width: usz(&t[2]),
        height: usz(&t[3]),
        focal_px: float(&t[4]),
        gate_px: float(&t[5]),
    }
}

/// Encodes a [`TrackState`] as `(cfg, mode, vehicles, frame)`.
pub fn state_value(s: &TrackState) -> Value {
    Value::tuple(vec![
        cfg_value(&s.cfg),
        Value::Int(match s.mode {
            Mode::Init => 0,
            Mode::Tracking => 1,
        }),
        Value::list(s.vehicles.iter().map(vehicle_value).collect()),
        Value::Int(s.frame as i64),
    ])
}

/// Decodes a [`TrackState`].
pub fn state_of(v: &Value) -> TrackState {
    let t = fields(v, 4, "a tracker state (cfg, mode, vehicles, frame)");
    TrackState {
        cfg: cfg_of(&t[0]),
        mode: match int(&t[1]) {
            0 => Mode::Init,
            1 => Mode::Tracking,
            _ => codec_violation("a tracking mode (0|1)", &t[1]),
        },
        vehicles: list(&t[2]).iter().map(vehicle_of).collect(),
        frame: int(&t[3]) as u64,
    }
}

// ---------------------------------------------------------------------------
// Frame sources (deterministic synthetic streams, shared by the DSL
// sources and the handwritten comparators)
// ---------------------------------------------------------------------------

/// Frame `i` of the CCL stream: a small blob image, seeded by index.
pub fn ccl_frame(i: u64) -> Image<u8> {
    random_blobs(48, 48, 6, i)
}

/// Frame `i` of the road stream: the lane drifts across the frame.
pub fn road_frame(i: u64) -> Image<u8> {
    render_road_frame(64, 48, 10.0 - 2.0 * i as f64, 0.15, i).0
}

/// The scene configuration behind [`track_frame`]: small frames so the
/// compiled-vs-handwritten matrix stays fast.
fn track_scene() -> SceneConfig {
    SceneConfig {
        width: 128,
        height: 128,
        focal_px: 200.0,
        noise_amplitude: 4,
        seed: 7,
        ..SceneConfig::default()
    }
}

/// Frame `i` of the tracking stream: one lead vehicle at 25 fps.
pub fn track_frame(i: u64) -> Image<u8> {
    Scene::with_vehicles(track_scene(), 1).render(i as f64 / 25.0)
}

/// The tracker configuration the DSL program's `track_init` constant
/// carries: `nproc` 4 to match the `.skp` source's `df 4`.
pub fn tracker_dsl_config() -> TrackerConfig {
    TrackerConfig {
        nproc: 4,
        n_vehicles: 1,
        width: 128,
        height: 128,
        focal_px: 200.0,
        gate_px: 40.0,
    }
}

/// Encoded frames `0..n` of a stream, as the driver's `itermem` loop
/// sees them.
pub fn value_frames(frame: fn(u64) -> Image<u8>, n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| image_value(&frame(i))).collect()
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The kernel registry of the §4 applications: every sequential function
/// the `.skp` sources under `examples/dsl/` name, with the DSL types the
/// typechecker verifies the programs against.
pub fn app_registry() -> KernelRegistry {
    let mut r = KernelRegistry::new();
    let sig = "builtin kernel signature parses";

    // --- connected-component labelling (scm) ---
    r.register("ccl_split", "int -> image -> band list", |a| {
        let n = usz(&a[0]);
        let img = image_of(&a[1]);
        Value::list(
            crate::ccl::split_bands(&img, n)
                .iter()
                .map(band_value)
                .collect(),
        )
    })
    .expect(sig);
    r.register_costed("ccl_label", "band -> lband", 40_000, |a| {
        lband_value(&crate::ccl::label_band(band_of(&a[0])))
    })
    .expect(sig);
    r.register("ccl_merge", "lband list -> int", |a| {
        let parts = list(&a[0]).iter().map(lband_of).collect();
        Value::Int(i64::from(crate::ccl::merge_bands(parts)))
    })
    .expect(sig);
    r.register_source("ccl_frames", "unit -> image", |_, i| {
        Some(image_value(&ccl_frame(i)))
    })
    .expect(sig);
    r.register("show_count", "int -> unit", |_| Value::Unit)
        .expect(sig);

    // --- road following (scm) ---
    r.register("road_split", "int -> image -> band list", |a| {
        let n = usz(&a[0]);
        let img = image_of(&a[1]);
        Value::list(
            skipper_vision::split::split_rows(&img, n, 0)
                .iter()
                .map(band_value)
                .collect(),
        )
    })
    .expect(sig);
    r.register_costed("road_scan", "band -> point list", 10_000, |a| {
        Value::list(
            crate::road::scan_band(band_of(&a[0]))
                .iter()
                .map(line_point_value)
                .collect(),
        )
    })
    .expect(sig);
    r.register("road_merge", "point list list -> line", |a| {
        let parts = list(&a[0])
            .iter()
            .map(|p| list(p).iter().map(line_point_of).collect())
            .collect();
        line_value(&crate::road::merge_scans(parts))
    })
    .expect(sig);
    r.register_source("road_frames", "unit -> image", |_, i| {
        Some(image_value(&road_frame(i)))
    })
    .expect(sig);
    r.register("show_line", "line -> unit", |_| Value::Unit)
        .expect(sig);

    // --- vehicle tracking (df inside itermem) ---
    r.register("get_windows", "state -> image -> window list", |a| {
        let state = state_of(&a[0]);
        let img = image_of(&a[1]);
        Value::list(
            crate::tracking::get_windows(&state, &img)
                .iter()
                .map(window_value)
                .collect(),
        )
    })
    .expect(sig);
    r.register_costed(
        "detect_marks",
        "window -> mark list",
        crate::costs::DETECT_UNITS_PER_PX * 32 * 32,
        |a| marks_value(&crate::tracking::detect_marks(&window_of(&a[0]))),
    )
    .expect(sig);
    r.register("accum_marks", "mark list -> mark list -> mark list", |a| {
        marks_value(&crate::tracking::accum_marks(
            marks_of(&a[0]),
            marks_of(&a[1]),
        ))
    })
    .expect(sig);
    r.register_costed(
        "predict",
        "state -> mark list -> state * mark list",
        crate::costs::PREDICT_UNITS,
        |a| {
            let (state, marks) = crate::tracking::predict(&state_of(&a[0]), marks_of(&a[1]));
            Value::tuple(vec![state_value(&state), marks_value(&marks)])
        },
    )
    .expect(sig);
    r.register_constant("no_marks", "mark list", Value::list(Vec::new()))
        .expect(sig);
    r.register_constant(
        "track_init",
        "state",
        state_value(&crate::tracking::init_state(tracker_dsl_config())),
    )
    .expect(sig);
    r.register_source("track_frames", "unit -> image", |_, i| {
        Some(image_value(&track_frame(i)))
    })
    .expect(sig);
    r.register("show_marks", "mark list -> unit", |_| Value::Unit)
        .expect(sig);

    r
}

// ---------------------------------------------------------------------------
// Handwritten comparators
// ---------------------------------------------------------------------------

/// Implements [`Skeleton`] for a handwritten body whose `step` takes the
/// dispatcher its inner skeleton runs on (`None`: declaratively) —
/// exactly as [`skipper_lang::compile::CompiledBody`] drives its steps,
/// so dispatch receipts are comparable.
macro_rules! dispatched_body {
    ($ty:ty) => {
        impl<'a> Skeleton<&'a (Value, Value)> for $ty {
            type Output = (Value, Value);

            fn run_declarative(&self, t: &'a (Value, Value)) -> (Value, Value) {
                self.step(t, None)
            }

            fn run_on(&self, d: &dyn Dispatch, t: &'a (Value, Value)) -> (Value, Value) {
                self.step(t, Some(d))
            }
        }
    };
}

/// The handwritten CCL loop body: decode the frame, run the native
/// [`crate::ccl::ccl_program`] `scm`, re-encode the count. The state is
/// threaded through untouched (the DSL program's `z` is a dummy).
#[derive(Debug, Clone, Copy)]
pub struct CclBody {
    /// `scm` decomposition degree (the `.skp` source's literal).
    pub bands: usize,
}

impl CclBody {
    fn step(&self, t: &(Value, Value), dispatch: Option<&dyn Dispatch>) -> (Value, Value) {
        let img = image_of(&t.1);
        let prog = crate::ccl::ccl_program(self.bands);
        let count = run_with(&prog, dispatch, &img);
        (t.0.clone(), Value::Int(i64::from(count)))
    }
}

dispatched_body!(CclBody);

/// The handwritten road-following loop body over the native
/// [`crate::road::line_program`] `scm`.
#[derive(Debug, Clone, Copy)]
pub struct RoadBody {
    /// `scm` decomposition degree (the `.skp` source's literal).
    pub bands: usize,
}

impl RoadBody {
    fn step(&self, t: &(Value, Value), dispatch: Option<&dyn Dispatch>) -> (Value, Value) {
        let img = image_of(&t.1);
        let prog = crate::road::line_program(self.bands);
        let line = run_with(&prog, dispatch, &img);
        (t.0.clone(), line_value(&line))
    }
}

dispatched_body!(RoadBody);

/// The handwritten tracker loop body: native `get_windows`, the
/// [`crate::tracking::detection_farm`] `df`, then native `predict` —
/// the paper's loop, with the wire codec only at the frame boundary.
#[derive(Debug, Clone, Copy)]
pub struct TrackBody {
    /// Farm degree (the `.skp` source's literal; must match the
    /// `track_init` constant's `nproc`).
    pub nproc: usize,
}

impl TrackBody {
    fn step(&self, t: &(Value, Value), dispatch: Option<&dyn Dispatch>) -> (Value, Value) {
        let state = state_of(&t.0);
        let img = image_of(&t.1);
        let windows = crate::tracking::get_windows(&state, &img);
        let farm = crate::tracking::detection_farm(self.nproc);
        let marks = run_with(&farm, dispatch, &windows[..]);
        let (state2, out) = crate::tracking::predict(&state, marks);
        (state_value(&state2), marks_value(&out))
    }
}

dispatched_body!(TrackBody);

/// The handwritten CCL stream program (`itermem` over [`CclBody`]).
pub fn ccl_loop(bands: usize) -> IterLoop<CclBody, Value> {
    itermem(CclBody { bands }, Value::Int(0))
}

/// The handwritten road-following stream program.
pub fn road_loop(bands: usize) -> IterLoop<RoadBody, Value> {
    itermem(RoadBody { bands }, Value::Int(0))
}

/// The handwritten tracking stream program, seeded with the same
/// initial state as the registry's `track_init` constant.
pub fn track_loop(nproc: usize) -> IterLoop<TrackBody, Value> {
    itermem(
        TrackBody { nproc },
        state_value(&crate::tracking::init_state(tracker_dsl_config())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_codec_round_trips() {
        let img = ccl_frame(1);
        assert_eq!(image_of(&image_value(&img)), img);
    }

    #[test]
    fn band_codec_round_trips() {
        for b in crate::ccl::split_bands(&ccl_frame(0), 4) {
            assert_eq!(band_of(&band_value(&b)), b);
        }
    }

    #[test]
    fn lband_codec_round_trips() {
        let b = crate::ccl::label_band(crate::ccl::split_bands(&ccl_frame(2), 3).remove(1));
        assert_eq!(lband_of(&lband_value(&b)), b);
    }

    #[test]
    fn line_codec_round_trips() {
        assert_eq!(line_of(&line_value(&None)), None);
        let line = crate::road::detect_line_seq(&road_frame(0));
        assert!(line.is_some(), "synthetic road frame has a lane line");
        assert_eq!(line_of(&line_value(&line)), line);
    }

    #[test]
    fn state_codec_round_trips() {
        let s0 = crate::tracking::init_state(tracker_dsl_config());
        assert_eq!(state_of(&state_value(&s0)), s0);
        // A state that has actually tracked something.
        let (s1, _) = crate::tracking::loop_step_seq(&s0, &track_frame(0));
        let (s2, _) = crate::tracking::loop_step_seq(&s1, &track_frame(1));
        assert_eq!(state_of(&state_value(&s2)), s2);
    }

    #[test]
    fn mark_codec_round_trips() {
        let s0 = crate::tracking::init_state(tracker_dsl_config());
        let (_, marks) = crate::tracking::loop_step_seq(&s0, &track_frame(0));
        assert!(!marks.is_empty(), "scene frame 0 yields marks");
        for m in &marks {
            assert_eq!(&mark_of(&mark_value(m)), m);
        }
    }

    #[test]
    fn registry_type_env_builds() {
        app_registry().type_env().expect("all signatures parse");
    }

    #[test]
    fn handwritten_ccl_matches_native_sequential() {
        let frames = value_frames(ccl_frame, 3);
        let (_, counts) = ccl_loop(4).run_declarative(frames);
        let expected: Vec<Value> = (0..3)
            .map(|i| {
                Value::Int(i64::from(crate::ccl::count_components_scm_seq(
                    &ccl_frame(i),
                    4,
                )))
            })
            .collect();
        assert_eq!(counts, expected);
    }

    #[test]
    fn handwritten_road_matches_native_sequential() {
        let frames = value_frames(road_frame, 3);
        let (_, lines) = road_loop(4).run_declarative(frames);
        let pool = skipper::PoolBackend::new();
        let expected: Vec<Value> = (0..3)
            .map(|i| line_value(&crate::road::detect_line_on(&pool, &road_frame(i), 4)))
            .collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn handwritten_tracker_matches_native_loop() {
        let frames = value_frames(track_frame, 3);
        let (z, outs) = track_loop(4).run_declarative(frames);
        let mut state = crate::tracking::init_state(tracker_dsl_config());
        let mut expected = Vec::new();
        for i in 0..3 {
            let (s2, marks) = crate::tracking::loop_step_seq(&state, &track_frame(i));
            state = s2;
            expected.push(marks_value(&marks));
        }
        assert_eq!(z, state_value(&state));
        assert_eq!(outs, expected);
    }
}
