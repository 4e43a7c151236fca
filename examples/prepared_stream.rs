//! Prepare once, run many: a frame loop over prepared executables.
//!
//! SKiPPER compiles a skeleton program *offline* and executes it *online*
//! once per frame at video rate. `Backend::prepare` is that split as an
//! API: the program is compiled into an `Executable` once (worker counts
//! and pool handles on the host; the whole lowering → SynDEx scheduling →
//! macro-code pipeline on the simulator), and the frame loop then pays
//! only the run cost.
//!
//! ```sh
//! cargo run --example prepared_stream
//! ```

use skipper::{df, Backend, Executable, PoolBackend, SeqBackend};
use skipper_exec::SimBackend;
use std::time::Instant;

fn main() {
    // A per-frame detection farm: each frame carries a handful of
    // "windows" whose checksums are folded into one result.
    // The argument-dependent cost model feeds the SynDEx scheduler
    // (model(1) as the static WCET hint) and the simulator's virtual
    // clock (evaluated on each actual window's size).
    let farm = df(
        4,
        |&u: &u64| u.wrapping_mul(2654435761) ^ (u >> 3),
        |z: u64, y: u64| z.wrapping_add(y),
        0u64,
    )
    .with_cost_model(|size| size as u64 * 25_000);
    let frames: Vec<Vec<u64>> = (0..100)
        .map(|k| {
            (0..12)
                .map(|i| ((k * 13 + i * 7) % 89 + 1) as u64)
                .collect()
        })
        .collect();

    // Prepare once per backend. The input type is spelled out because a
    // farm also runs as an `itermem` loop body, so `prepare` alone cannot
    // infer which program shape is meant.
    let pool = PoolBackend::new();
    let pool_exec = Backend::<_, &[u64]>::prepare(&pool, &farm);
    let sim = SimBackend::ring(4);
    let t0 = Instant::now();
    let sim_exec = Backend::<_, &[u64]>::prepare(&sim, &farm);
    println!(
        "sim prepare (lower + schedule + codegen, once): {:.1} us",
        t0.elapsed().as_secs_f64() * 1e6
    );
    println!(
        "sim schedule: predicted makespan {:.1} us/frame",
        sim_exec.statics().expect("prepared").schedule().makespan_ns as f64 / 1e3
    );

    // The frame loop: every frame is one `Executable::run` — no thread
    // spawning, no re-lowering, no re-scheduling.
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for frame in &frames {
        let on_pool = pool_exec.run(&frame[..]);
        let on_sim = sim_exec.run(&frame[..]).expect("prepared farm simulates");
        let golden = SeqBackend.run(&farm, &frame[..]);
        assert_eq!(on_pool, golden, "pool executable must match emulation");
        assert_eq!(on_sim, golden, "sim executable must match emulation");
        checksum = checksum.wrapping_add(golden);
    }
    let per_frame = t0.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
    println!(
        "{} frames through both prepared executables: {:.1} us/frame (checksum {:x})",
        frames.len(),
        per_frame,
        checksum
    );
    println!(
        "pool workers: {} (prepared handle, shared across frames)",
        pool.threads()
    );
}
