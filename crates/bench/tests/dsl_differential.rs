//! The compiled-vs-handwritten differential axis over the §4 `.skp`
//! sources: each DSL program, compiled by `skipperc`'s pipeline against
//! the application kernel registry, must match its handwritten
//! [`skipper`] counterpart **output-for-output and receipt-for-receipt**
//! on every host strategy (declarative / threads / pool / shards) across
//! the standard worker-count sweep — and must reproduce the declarative
//! golden on the simulated SynDEx machine. Kernels hand each other
//! native Rust values inside a frame; no native may leave a body.

use skipper::conformance::assert_programs_equivalent;
use skipper::{Backend, PoolBackend, SeqBackend, ShardBackend, Skeleton};
use skipper_apps::kernels::{
    app_registry, ccl_frame, ccl_loop, road_frame, road_loop, track_frame, track_loop, value_frames,
};
use skipper_exec::{SimBackend, Value};
use skipper_lang::{compile_source, CompiledBody, CompiledProgram};

const CCL_SRC: &str = include_str!("../../../examples/dsl/ccl.skp");
const ROAD_SRC: &str = include_str!("../../../examples/dsl/road.skp");
const TRACKING_SRC: &str = include_str!("../../../examples/dsl/tracking.skp");

fn compiled(src: &str) -> CompiledProgram {
    compile_source(&app_registry(), src).expect("example source compiles")
}

/// The stream matrix: the empty stream (no frame must still thread the
/// state through) and a short real stream.
fn streams(frame: fn(u64) -> skipper_vision::Image<u8>) -> Vec<Vec<Value>> {
    vec![Vec::new(), value_frames(frame, 3)]
}

fn assert_sim_matches_golden(
    label: &str,
    prog: &skipper::IterLoop<CompiledBody, Value>,
    frames: Vec<Value>,
) {
    let golden = prog.run_declarative(frames.clone());
    let simmed = SimBackend::ring(3)
        .run(prog, frames)
        .unwrap_or_else(|e| panic!("{label} must lower and run on the simulated ring: {e:?}"));
    assert_eq!(
        simmed, golden,
        "{label}: simulated run diverged from the declarative golden"
    );
}

#[test]
fn ccl_compiled_matches_handwritten_on_all_hosts() {
    let prog = compiled(CCL_SRC);
    assert_programs_equivalent(
        "ccl.skp vs handwritten scm",
        &prog.loop_program(),
        &ccl_loop(4),
        &streams(ccl_frame),
    );
}

#[test]
fn road_compiled_matches_handwritten_on_all_hosts() {
    let prog = compiled(ROAD_SRC);
    assert_programs_equivalent(
        "road.skp vs handwritten scm",
        &prog.loop_program(),
        &road_loop(4),
        &streams(road_frame),
    );
}

#[test]
fn tracking_compiled_matches_handwritten_on_all_hosts() {
    let prog = compiled(TRACKING_SRC);
    assert_programs_equivalent(
        "tracking.skp vs handwritten df loop",
        &prog.loop_program(),
        &track_loop(4),
        &streams(track_frame),
    );
}

#[test]
fn ccl_compiled_runs_on_the_simulated_machine() {
    let prog = compiled(CCL_SRC);
    assert_sim_matches_golden("ccl.skp", &prog.loop_program(), prog.frames(3));
}

#[test]
fn road_compiled_runs_on_the_simulated_machine() {
    let prog = compiled(ROAD_SRC);
    assert_sim_matches_golden("road.skp", &prog.loop_program(), prog.frames(3));
}

#[test]
fn tracking_compiled_runs_on_the_simulated_machine() {
    let prog = compiled(TRACKING_SRC);
    assert_sim_matches_golden("tracking.skp", &prog.loop_program(), prog.frames(3));
}

/// The driver's frame stream equals the registry sources frame by frame
/// (the handwritten comparators replay the same synthetic streams).
#[test]
fn driver_frames_replay_the_synthetic_streams() {
    assert_eq!(compiled(CCL_SRC).frames(3), value_frames(ccl_frame, 3));
    assert_eq!(compiled(ROAD_SRC).frames(3), value_frames(road_frame, 3));
    assert_eq!(
        compiled(TRACKING_SRC).frames(3),
        value_frames(track_frame, 3)
    );
}

/// Natives stay inside a frame: on the sequential, pool, 2-shard and
/// simulated backends, the carried state and the output of every frame
/// are plain structural values. Each frame's state is observed as the
/// final state of the stream prefix ending at it. The pool and shards
/// are sized by `SKIPPER_WORKERS`, so CI runs this at 1 and 4 workers.
#[test]
fn no_native_escapes_a_compiled_body() {
    let pool = PoolBackend::new();
    let shards = ShardBackend::new(2);
    let sim = SimBackend::ring(3);
    for (label, src) in [
        ("ccl.skp", CCL_SRC),
        ("road.skp", ROAD_SRC),
        ("tracking.skp", TRACKING_SRC),
    ] {
        let prog = compiled(src);
        let lp = prog.loop_program();
        let frames = prog.frames(3);
        for k in 1..=frames.len() {
            let prefix = frames[..k].to_vec();
            let sim_run = sim
                .run(&lp, prefix.clone())
                .unwrap_or_else(|e| panic!("{label} must run on the simulated ring: {e:?}"));
            let runs = [
                ("seq", SeqBackend.run(&lp, prefix.clone())),
                ("pool", pool.run(&lp, prefix.clone())),
                ("2 shards", shards.run(&lp, prefix)),
                ("sim", sim_run),
            ];
            for (backend, (z, ys)) in &runs {
                assert_eq!(ys.len(), k, "{label} on {backend}: one output per frame");
                assert!(
                    z.is_structural(),
                    "{label} on {backend}: the state after frame {k} holds a native"
                );
                assert!(
                    ys.iter().all(Value::is_structural),
                    "{label} on {backend}: an output of frames 1..={k} holds a native"
                );
            }
        }
    }
}
