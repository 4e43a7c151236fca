//! Steady-state allocation probe: prepare once, run many frames, and
//! prove that **zero pixel-buffer allocations** happen per frame on the
//! native ccl and road pipelines, and that the compiled `tracking.skp`
//! body makes exactly as many as the handwritten `TrackBody`.
//!
//! The probe is `skipper_vision::pixel_alloc_count()` — a process-global
//! counter bumped by every pixel-buffer heap allocation (owned image
//! construction, copy-on-write materialisation, arena misses and slot
//! growth) and by nothing else. Because the counter is global, every
//! test in this binary holds [`PROBE`] from its first statement to its
//! last: concurrent tests would bleed deltas into each other.
//!
//! Steady state is reached by a deterministic prewarm, not by hopeful
//! warm-up laps. Work stealing means any pool worker — and the helping
//! caller — may end up computing any band of any frame, so every thread
//! that can possibly touch a kernel must already hold enough arena
//! capacity. [`prewarm`] forces exactly that: it spawns one job per
//! participant (each pool worker plus the stealing caller) that blocks
//! on a barrier until all participants hold a job — pigeonholing one
//! job onto each thread — and then leases, and releases, a full
//! complement of frame-sized buffers on its thread-local arena.
//!
//! The sharded path needs one more guarantee: shard coordinators run on
//! ephemeral threads, so they must never steal compute jobs (their
//! arenas would die with the run). `WorkerPool::scope_park` pins that.
//!
//! The conformance CI job runs this probe at `SKIPPER_WORKERS=1` and
//! `SKIPPER_WORKERS=4`; the prewarm sizes itself off `pool.threads()`,
//! so both shapes reach steady state the same way.

use skipper::{Backend, Executable, PoolBackend, Scm, ShardBackend, WorkerPool};
use skipper_apps::ccl::ccl_program;
use skipper_apps::kernels::{app_registry, track_frame, track_loop, value_frames, TrackBody};
use skipper_apps::road::line_program;
use skipper_exec::Value;
use skipper_lang::{compile_source, CompiledBody};
use skipper_vision::ops;
use skipper_vision::split::{merge_rows, split_rows, RowBand};
use skipper_vision::synth::{random_blobs, render_road_frame};
use skipper_vision::{pixel_alloc_count, Image};
use std::sync::{Barrier, Mutex, MutexGuard};

const W: usize = 160;
const H: usize = 120;
const BANDS: usize = 4;

/// Serialises the tests of this binary around the global counter.
static PROBE: Mutex<()> = Mutex::new(());

fn probe() -> MutexGuard<'static, ()> {
    PROBE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministically warms the thread-local frame arenas of every
/// thread that can run this pool's jobs: the `pool.threads()` workers
/// and the caller (which helps by stealing while it waits). One job per
/// participant, all gated on a barrier — since a thread blocked in the
/// barrier cannot take a second job, the pigeonhole principle lands
/// exactly one job on every participant. Each job then leases (and
/// frees) enough frame-sized `u8` and `u32` buffers to cover the worst
/// case of one thread computing every band of a frame.
fn prewarm(pool: &WorkerPool) {
    let participants = pool.threads() + 1;
    let barrier = Barrier::new(participants);
    pool.scope(|scope| {
        for _ in 0..participants {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let bytes: Vec<Image<u8>> = (0..BANDS + 2)
                    .map(|_| Image::leased(W, H, |_| {}))
                    .collect();
                let labels: Vec<Image<u32>> = (0..BANDS + 2)
                    .map(|_| Image::leased(W, H, |_| {}))
                    .collect();
                drop((bytes, labels));
            });
        }
    });
}

#[test]
fn steady_state_frames_make_zero_pixel_buffer_allocations() {
    let _probe = probe();
    // Everything that legitimately allocates happens before the
    // snapshot: frame synthesis, backend construction, prewarm, and one
    // golden lap that also records expected outputs.
    let blob_frames: Vec<Image<u8>> = (0..5).map(|s| random_blobs(W, H, 12, s)).collect();
    let road_frames: Vec<Image<u8>> = (0..5)
        .map(|s| render_road_frame(W, H, 10.0 - 1.5 * s as f64, 0.15, s as u64).0)
        .collect();

    let ccl = ccl_program(BANDS);
    let line = line_program(BANDS);
    // An image-producing scm exercises the caller-side merge lease
    // (`merge_rows` assembles the output in the caller's arena).
    let thresh = Scm::new(
        BANDS,
        |img: &Image<u8>, n: usize| split_rows(img, n, 0),
        |band: RowBand| {
            let out = ops::threshold(&band.pixels, 100);
            (band, out)
        },
        |parts: Vec<(RowBand, Image<u8>)>| merge_rows(&parts),
    );

    let pool = PoolBackend::new();
    let shard = ShardBackend::new(2);
    prewarm(pool.pool());
    for p in shard.shards() {
        prewarm(p);
    }

    let ccl_pool = pool.prepare(&ccl);
    let line_pool = pool.prepare(&line);
    let thresh_pool = pool.prepare(&thresh);
    let ccl_shard = shard.prepare(&ccl);
    let line_shard = shard.prepare(&line);

    // Golden lap (still before the snapshot): records expected outputs
    // and absorbs any one-time cost the prewarm did not model.
    let golden_counts: Vec<u32> = blob_frames.iter().map(|f| ccl_pool.run(f)).collect();
    let golden_fits: Vec<_> = road_frames.iter().map(|f| line_pool.run(f)).collect();
    // The masks are deep-copied out of the caller's arena: holding the
    // leases themselves across the measured loop would pin arena slots.
    let golden_masks: Vec<Image<u8>> = blob_frames
        .iter()
        .map(|f| thresh_pool.run(f).deep_clone())
        .collect();

    let before = pixel_alloc_count();
    for _ in 0..3 {
        for (i, f) in blob_frames.iter().enumerate() {
            assert_eq!(ccl_pool.run(f), golden_counts[i], "pool ccl frame {i}");
            assert_eq!(ccl_shard.run(f), golden_counts[i], "shard ccl frame {i}");
            let mask = thresh_pool.run(f);
            assert_eq!(mask, golden_masks[i], "pool threshold frame {i}");
        }
        for (i, f) in road_frames.iter().enumerate() {
            assert_eq!(line_pool.run(f), golden_fits[i], "pool road frame {i}");
            assert_eq!(line_shard.run(f), golden_fits[i], "shard road frame {i}");
        }
    }
    let after = pixel_alloc_count();
    assert_eq!(
        after - before,
        0,
        "steady-state frames must not allocate pixel buffers \
         (splits are views, kernels lease from warmed arenas, merges \
         lease from the caller's arena)"
    );
}

/// Steady-state pixel-buffer allocations of `laps` passes over `frames`
/// through a prepared `(state, frame)` loop body, each lap restarting
/// from `init`; every frame's `(state, output)` is checked against
/// `golden`.
fn loop_allocs(
    run: impl Fn(&(Value, Value)) -> (Value, Value),
    init: &Value,
    frames: &[Value],
    golden: &[(Value, Value)],
    laps: usize,
) -> u64 {
    let before = pixel_alloc_count();
    for _ in 0..laps {
        let mut z = init.clone();
        for (i, f) in frames.iter().enumerate() {
            let out = run(&(z, f.clone()));
            assert_eq!(out, golden[i], "frame {i}");
            z = out.0;
        }
    }
    pixel_alloc_count() - before
}

/// The compiled tracker hands its kernels native windows and marks, so
/// on the pool its body allocates exactly what the handwritten body
/// does: one pixel buffer per frame, for the decoded frame.
#[test]
fn compiled_tracker_allocates_as_the_handwritten_body() {
    let _probe = probe();
    const FRAMES: usize = 8;
    const LAPS: usize = 3;
    let src = include_str!("../../../examples/dsl/tracking.skp");
    let prog = compile_source(&app_registry(), src).expect("tracking.skp compiles");
    let hand = track_loop(4);
    let frames = value_frames(track_frame, FRAMES);

    let pool = PoolBackend::new();
    prewarm(pool.pool());
    let dsl = Backend::<CompiledBody, &(Value, Value)>::prepare(&pool, prog.body());
    let hw = Backend::<TrackBody, &(Value, Value)>::prepare(&pool, hand.body());

    // Golden lap of the handwritten body, then a warm lap of each.
    let mut golden = Vec::new();
    let mut z = hand.init().clone();
    for f in &frames {
        let out = hw.run(&(z, f.clone()));
        z = out.0.clone();
        golden.push(out);
    }
    loop_allocs(|t| dsl.run(t), prog.init(), &frames, &golden, 1);

    let hand_allocs = loop_allocs(|t| hw.run(t), hand.init(), &frames, &golden, LAPS);
    let dsl_allocs = loop_allocs(|t| dsl.run(t), prog.init(), &frames, &golden, LAPS);
    let frames_run = (FRAMES * LAPS) as u64;
    assert_eq!(
        hand_allocs, frames_run,
        "the handwritten body allocates one pixel buffer per frame (the decoded frame)"
    );
    assert_eq!(
        dsl_allocs, hand_allocs,
        "the compiled body allocates as many pixel buffers as the handwritten one"
    );
}
