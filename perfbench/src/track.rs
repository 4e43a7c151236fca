//! `track_dsl`: the vehicle tracker of `examples/dsl/tracking.skp`,
//! compiled with `skipper_lang::compile_source` against the application
//! kernel registry, its `itermem(df 4 …)` body prepared on the pool and
//! stepped one frame at a time by one client. Frames take tens of µs and
//! are made of tiny `detect_marks` units, so pool fan-out and join, the
//! farm's result path and `Value` boxing dominate.

use std::time::Instant;

use skipper::{Backend, Executable, PoolBackend, SeqBackend, Workers};
use skipper_apps::kernels::{app_registry, image_value, track_loop, tracker_dsl_config, TrackBody};
use skipper_apps::tracking::{
    accum_marks, detect_marks, get_windows, init_state, loop_step_seq, predict, DetectFarm, Mark,
    TrackState,
};
use skipper_exec::Value;
use skipper_lang::{compile_source, CompiledBody};
use skipper_vision::synth::{Scene, SceneConfig};
use skipper_vision::{Image, Window};

use crate::report::{self, closed_loop, interleave, Args, Check, Metrics, Phase};
use crate::{host, stats, trace};

const SOURCE: &str = include_str!("../../examples/dsl/tracking.skp");
/// The farm degree of the `.skp` source.
const NPROC: usize = 4;
/// Frames per lap: each lap is one 4 s clip tracked from the initial
/// state, so the reference of a lap is the same on every lap.
const LAP: usize = 100;
/// Fresh set-ups per run, each measuring its share of the run;
/// `setup_s` is their median.
const SETUPS: usize = 15;

/// A lap of frames (as images and as the `Value`s the compiled program
/// consumes) and the handwritten loop's `(state, marks)` after each.
struct Inputs {
    images: Vec<Image<u8>>,
    values: Vec<Value>,
    reference: Vec<(Value, Value)>,
}

/// 128×128 frames of one lead vehicle (the registry's tracker
/// configuration), starting at a seed-chosen point of its motion, with
/// seeded sensor noise.
fn inputs(seed: u64) -> Inputs {
    let cfg = tracker_dsl_config();
    let scene = Scene::with_vehicles(
        SceneConfig {
            width: cfg.width,
            height: cfg.height,
            focal_px: cfg.focal_px,
            noise_amplitude: 4,
            seed: stats::mix(seed, 0),
            ..SceneConfig::default()
        },
        1,
    );
    let t0 = (stats::mix(seed, 1) % 10_000) as f64 / 500.0;
    let images: Vec<Image<u8>> = (0..LAP)
        .map(|i| scene.render(t0 + i as f64 / 25.0))
        .collect();
    let values: Vec<Value> = images.iter().map(image_value).collect();
    let hand = track_loop(NPROC);
    let exec = Backend::<TrackBody, &(Value, Value)>::prepare(&SeqBackend, hand.body());
    let mut z = hand.init().clone();
    let mut reference = Vec::with_capacity(LAP);
    for v in &values {
        let (z2, y) = exec.run(&(z, v.clone()));
        reference.push((z2.clone(), y));
        z = z2;
    }
    Inputs {
        images,
        values,
        reference,
    }
}

/// A closed-loop step of a `(Value, Value)` loop body: frame `k` of the
/// lap rotation, state reset at each lap start, timed inside its root
/// span, checked against the handwritten reference.
fn value_step<'a>(
    inp: &'a Inputs,
    check: &'a Check,
    init: Value,
    run: impl Fn(&(Value, Value)) -> (Value, Value) + 'a,
) -> impl FnMut(u64) -> u64 + 'a {
    let mut z = init.clone();
    move |k| {
        let i = k as usize % LAP;
        if i == 0 {
            z = init.clone();
        }
        let pair = (
            std::mem::replace(&mut z, Value::Unit),
            inp.values[i].clone(),
        );
        let ((z2, y), ns) = trace::root(|| run(&pair));
        let (want_z, want_y) = &inp.reference[i];
        check.frame(k, &z2 == want_z && &y == want_y, || {
            format!("lap frame {i}: output differs from the handwritten loop")
        });
        z = z2;
        ns
    }
}

pub fn run(args: &Args, check: &Check) -> Result<Metrics, String> {
    let inp = inputs(args.seed);
    let pixels: Vec<&[u8]> = inp.images.iter().map(Image::as_slice).collect();
    check.set_inputs(stats::fingerprint(&pixels));
    if args.trace {
        return traced(args, &inp, check);
    }
    let mut setup = Vec::new();
    let mut windows = report::Windows::default();
    for _ in 0..SETUPS {
        // Set-up: the pool's threads, the kernel registry and the DSL
        // compile, `prepare`, and a cold lap. Each set-up then measures
        // its share of the run, so the run samples what a fresh set-up
        // decides (thread placement, buffer addresses) SETUPS times.
        report::on_fresh_thread(|| {
            let t0 = Instant::now();
            let backend = PoolBackend::configured(Workers::exact(host::pool_workers()));
            let prog = compile_source(&app_registry(), SOURCE)
                .map_err(|d| format!("tracking.skp does not compile: {d:?}"))?;
            let exec = Backend::<CompiledBody, &(Value, Value)>::prepare(&backend, prog.body());
            let mut step = value_step(&inp, check, prog.init().clone(), |p| exec.run(p));
            for k in 0..LAP as u64 {
                step(k);
            }
            setup.push(t0.elapsed().as_secs_f64());
            windows.add(&closed_loop(args.seconds / SETUPS as f64, &mut step));
            Ok::<(), String>(())
        })?;
    }
    let (p50, p95) = windows.latency_ms()?;
    Ok(Metrics::from([
        ("setup_s", stats::median(&setup)),
        ("frame_ms_p50", p50),
        ("frame_ms_p95", p95),
        // One client in a closed loop: throughput is the reciprocal of
        // the median frame time; a mean would let host stalls in.
        ("frames_per_s", 1e3 / p50),
        ("peak_rss_mb", host::peak_rss_mb("self")),
    ]))
}

/// A closed-loop step of the natively composed tracker: frame `k` of the
/// lap rotation, state reset at each lap start, timed inside its root
/// span, checked against `loop_step_seq`.
fn native_step<'a>(
    inp: &'a Inputs,
    native_ref: &'a [(TrackState, Vec<Mark>)],
    check: &'a Check,
    run: impl Fn(&TrackState, &Image<u8>) -> (TrackState, Vec<Mark>) + 'a,
) -> impl FnMut(u64) -> u64 + 'a {
    let mut st = init_state(tracker_dsl_config());
    move |k| {
        let i = k as usize % LAP;
        if i == 0 {
            st = init_state(tracker_dsl_config());
        }
        let (out, ns) = trace::root(|| run(&st, &inp.images[i]));
        check.frame(k, out == native_ref[i], || {
            format!("lap frame {i}: native tracker differs from loop_step_seq")
        });
        st = out.0;
        ns
    }
}

fn t_windows(state: &TrackState, frame: &Image<u8>) -> Vec<Window> {
    trace::span("windows", "run", || get_windows(state, frame))
}

fn t_detect(window: &Window) -> Vec<Mark> {
    trace::span("detect", "farm", || detect_marks(window))
}

fn t_accum(acc: Vec<Mark>, marks: Vec<Mark>) -> Vec<Mark> {
    trace::span("accum", "farm", || accum_marks(acc, marks))
}

fn t_predict(state: &TrackState, marks: Vec<Mark>) -> (TrackState, Vec<Mark>) {
    trace::span("predict", "run", || predict(state, marks))
}

/// The traced run: the kernel floor (`loop_step_seq` on one thread) and
/// the compile time, then alternating blocks of the compiled body, the
/// handwritten body, and the natively composed tracker
/// (`get_windows`, `df(detect_marks, accum_marks)`, `predict`, each
/// wrapped) with recording off and on.
fn traced(args: &Args, inp: &Inputs, check: &Check) -> Result<Metrics, String> {
    let native_ref: Vec<(TrackState, Vec<Mark>)> = {
        let mut st = init_state(tracker_dsl_config());
        inp.images
            .iter()
            .map(|img| {
                let (st2, marks) = loop_step_seq(&st, img);
                st = st2.clone();
                (st2, marks)
            })
            .collect()
    };
    let floor = closed_loop(
        args.seconds * 0.1,
        native_step(inp, &native_ref, check, loop_step_seq),
    );
    let mut compile = Vec::new();
    for _ in 0..20 {
        let registry = app_registry();
        let (prog, ns) = report::timed(|| compile_source(&registry, SOURCE));
        prog.map_err(|d| format!("tracking.skp does not compile: {d:?}"))?;
        compile.push(ns as f64 / 1e6);
    }
    let prog = compile_source(&app_registry(), SOURCE)
        .map_err(|d| format!("tracking.skp does not compile: {d:?}"))?;
    let hand = track_loop(NPROC);
    let farm: DetectFarm = skipper::df(NPROC, t_detect, t_accum, Vec::new());
    let backend = PoolBackend::configured(Workers::exact(host::pool_workers()));
    let exec_dsl = Backend::<CompiledBody, &(Value, Value)>::prepare(&backend, prog.body());
    let exec_hand = Backend::<TrackBody, &(Value, Value)>::prepare(&backend, hand.body());
    let exec_farm = Backend::<DetectFarm, &[Window]>::prepare(&backend, &farm);
    let native = |st: &TrackState, img: &Image<u8>| {
        let windows = t_windows(st, img);
        let marks = trace::span("farm", "run", || exec_farm.run(&windows[..]));
        t_predict(st, marks)
    };
    let mut phases = [
        Phase::new(
            false,
            value_step(inp, check, prog.init().clone(), |p| exec_dsl.run(p)),
        ),
        Phase::new(
            false,
            value_step(inp, check, hand.init().clone(), |p| exec_hand.run(p)),
        ),
        Phase::new(false, native_step(inp, &native_ref, check, &native)),
        Phase::new(true, native_step(inp, &native_ref, check, &native)),
    ];
    // A cold lap of every variant before anything is measured.
    for p in &mut phases {
        p.warm(LAP as u64);
    }
    interleave(&mut phases, args.seconds * 0.9, 0.1, false);
    let spans = trace::take();
    trace::write_out(&format!("track_dsl-{}", args.seed), &spans, 2000);
    let fan = trace::fan_stats(
        &trace::by_frame(&spans),
        trace::FanShape {
            root: "run",
            pre: "windows",
            dispatch: Some("farm"),
            compute: "detect",
            chain: &["accum"],
            post: "predict",
        },
        host::pool_workers() + 1,
    );
    let [dsl, hand_p, off, on] = &phases;
    let floor_ms = stats::median(&stats::ns_to_ms(&floor));
    let units = fan.units.iter().sum::<f64>() / fan.units.len().max(1) as f64;
    Ok(Metrics::from([
        ("kernel_floor_ms", floor_ms),
        ("arena.allocs_per_frame", dsl.allocs_per_frame()),
        ("skeleton.overhead_us", stats::median(&fan.overhead_us)),
        ("floor_ratio", dsl.p50_ms() / floor_ms),
        ("pool.fanout_us", stats::median(&fan.fanout_us)),
        ("pool.join_us", stats::median(&fan.join_us)),
        ("pool.busy_share", stats::median(&fan.busy_share)),
        ("df.units_per_frame", units),
        (
            "df.detect_us",
            stats::median(&trace::durations_us(&spans, "detect")),
        ),
        (
            "df.accum_us",
            stats::median(&trace::durations_us(&spans, "accum")),
        ),
        ("lang.compile_ms", stats::median(&compile)),
        (
            "lang.body_overhead_us",
            (dsl.p50_ms() - hand_p.p50_ms()) * 1e3,
        ),
        ("host.cpu_ms_per_frame", dsl.cpu_ms_per_frame()),
        (
            "trace.overhead_pct",
            report::overhead_pct(on.p50_ms(), off.p50_ms()),
        ),
    ]))
}
