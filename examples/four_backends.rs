//! One program, four machines: the paper's retargetability claim as a
//! short demo.
//!
//! A single `df` farm value is executed by
//!
//! 1. [`SeqBackend`] — the declarative specification (workstation
//!    emulation),
//! 2. [`PoolBackend`] — the operational semantics on a persistent
//!    work-stealing pool (threads created once, reused every run),
//! 3. [`ShardBackend`] — the same operational semantics routed over two
//!    independent pools by a deterministic item hash (the single-machine
//!    rehearsal of distribution),
//! 4. [`SimBackend`] — the full environment pipeline: process-network
//!    expansion, SynDEx scheduling, macro-code generation and execution
//!    on the simulated Transputer ring,
//!
//! and all four produce the same result.
//!
//! ```text
//! cargo run --example four_backends
//! ```

use skipper::{df, itermem, scm, Backend, PoolBackend, SeqBackend, ShardBackend};
use skipper_exec::SimBackend;

fn main() {
    // The program: sum of squares over an irregular item list.
    let farm = df(4, |x: &i64| x * x, |z: i64, y| z + y, 0i64);
    let xs: Vec<i64> = (1..=64).collect();

    let pool = PoolBackend::new();
    let shards = ShardBackend::new(2);
    let emulated = SeqBackend.run(&farm, &xs[..]);
    let pooled = pool.run(&farm, &xs[..]);
    let sharded = shards.run(&farm, &xs[..]);
    let simulated = SimBackend::ring(5)
        .run(&farm, &xs[..])
        .expect("farm lowers, schedules and simulates");

    println!("SeqBackend     (declarative spec) : {emulated}");
    println!("PoolBackend    (persistent pool)  : {pooled}");
    println!("ShardBackend   (two pools)        : {sharded}");
    println!("SimBackend     (ring of 5 T9000s) : {simulated}");
    assert_eq!(emulated, pooled);
    assert_eq!(emulated, sharded);
    assert_eq!(emulated, simulated);

    // The same retargetability holds for composed programs: the paper's
    // tracking-loop shape, itermem(scm(...), z0). This is where the pool
    // earns its keep — one skeleton run per frame, zero spawns.
    let body = scm(
        3,
        |t: &(i64, i64), n| (0..n as i64).map(|k| (t.0, t.1 + k)).collect::<Vec<_>>(),
        |(state, frame): (i64, i64)| state + frame,
        |parts: Vec<i64>| {
            let s: i64 = parts.iter().sum();
            (s, s)
        },
    );
    let tracker = itermem(body, 0i64);
    let frames = vec![10i64, 20, 30];
    let seq = SeqBackend.run(&tracker, frames.clone());
    let pld = pool.run(&tracker, frames.clone());
    let shd = shards.run(&tracker, frames.clone());
    let sim = SimBackend::ring(4)
        .run(&tracker, frames)
        .expect("loop lowers, schedules and simulates");
    println!("itermem(scm)   seq/pool/shard/sim : {seq:?} / {pld:?} / {shd:?} / {sim:?}");
    assert_eq!(seq, pld);
    assert_eq!(seq, shd);
    assert_eq!(seq, sim);
    println!("all backends agree — one program, four machines");
}
