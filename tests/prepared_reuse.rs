//! Prepared-executable reuse property suite.
//!
//! The prepare-once/run-many contract: for every backend, `prepare` once
//! followed by `N` [`Executable::run`] calls must produce exactly the
//! results of `N` fresh [`Backend::run`] calls — on generated inputs, in
//! generated run orders, on all three backends (the declarative
//! [`SeqBackend`], the persistent [`PoolBackend`] and the simulator
//! [`SimBackend`]), including an
//! `itermem` frame-stream program. Divergence here means a prepared
//! executable leaks state between runs or resolves its execution
//! structure differently from the one-shot path.

use proptest::prelude::*;
use skipper::{df, itermem, scm, Backend, Executable, PoolBackend, SeqBackend};
use skipper_exec::SimBackend;

/// The satellite worker-count matrix: 1, 2 and the host default.
fn worker_count(index: usize) -> usize {
    let counts = [1, 2, skipper::default_workers().get()];
    counts[index % counts.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// df: prepare once + N runs == N fresh runs on all three backends.
    #[test]
    fn df_prepared_reuse_equals_fresh_runs(
        runs in prop::collection::vec(prop::collection::vec(0i64..500, 0..40), 1..5),
        widx in 0usize..3,
        nprocs in 1usize..5,
    ) {
        let farm = df(worker_count(widx), |x: &i64| x * x + 2, |z: i64, y| z + y, 1i64);
        let pool = PoolBackend::new();
        let sim = SimBackend::ring(nprocs);
        let seq_exec = Backend::<_, &[i64]>::prepare(&SeqBackend, &farm);
        let pool_exec = Backend::<_, &[i64]>::prepare(&pool, &farm);
        let sim_exec = Backend::<_, &[i64]>::prepare(&sim, &farm);
        for xs in &runs {
            let fresh = SeqBackend.run(&farm, &xs[..]);
            prop_assert_eq!(seq_exec.run(&xs[..]), fresh);
            prop_assert_eq!(pool_exec.run(&xs[..]), pool.run(&farm, &xs[..]));
            prop_assert_eq!(pool_exec.run(&xs[..]), fresh);
            prop_assert_eq!(
                sim_exec.run(&xs[..]).expect("prepared df simulates"),
                sim.run(&farm, &xs[..]).expect("fresh df simulates")
            );
            prop_assert_eq!(sim_exec.run(&xs[..]).expect("prepared df simulates"), fresh);
        }
    }

    /// scm: prepared reuse on all three backends.
    #[test]
    fn scm_prepared_reuse_equals_fresh_runs(
        runs in prop::collection::vec(prop::collection::vec(-300i64..300, 0..40), 1..5),
        widx in 0usize..3,
        nprocs in 1usize..4,
    ) {
        let prog = scm(
            worker_count(widx),
            |v: &Vec<i64>, n| {
                let mut out = vec![Vec::new(); n];
                for (i, &x) in v.iter().enumerate() {
                    out[i % n].push(x);
                }
                out
            },
            |chunk: Vec<i64>| chunk.iter().map(|x| x * 5 - 2).sum::<i64>(),
            |parts: Vec<i64>| parts.iter().sum::<i64>(),
        );
        let pool = PoolBackend::new();
        let sim = SimBackend::ring(nprocs);
        let seq_exec = SeqBackend.prepare(&prog);
        let pool_exec = pool.prepare(&prog);
        let sim_exec = sim.prepare(&prog);
        for xs in &runs {
            let fresh = SeqBackend.run(&prog, xs);
            prop_assert_eq!(seq_exec.run(xs), fresh);
            prop_assert_eq!(pool_exec.run(xs), fresh);
            prop_assert_eq!(sim_exec.run(xs).expect("prepared scm simulates"), fresh);
        }
    }

    /// itermem frame streams: one prepared loop executable re-run over
    /// several generated streams equals fresh runs, state fully reset
    /// between streams.
    #[test]
    fn itermem_prepared_reuse_equals_fresh_runs(
        streams in prop::collection::vec(prop::collection::vec(-40i64..40, 0..7), 1..4),
        widx in 0usize..3,
        nprocs in 1usize..4,
    ) {
        let body = scm(
            worker_count(widx),
            |t: &(i64, i64), n| {
                (0..n as i64).map(|k| (t.0 + k, t.1)).collect::<Vec<(i64, i64)>>()
            },
            |(z, b): (i64, i64)| z * 3 + b,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s + 2)
            },
        );
        let prog = itermem(body, 6i64);
        let pool = PoolBackend::new();
        let sim = SimBackend::ring(nprocs);
        let seq_exec = Backend::<_, Vec<i64>>::prepare(&SeqBackend, &prog);
        let pool_exec = Backend::<_, Vec<i64>>::prepare(&pool, &prog);
        let sim_exec = Backend::<_, Vec<i64>>::prepare(&sim, &prog);
        for frames in &streams {
            let fresh = SeqBackend.run(&prog, frames.clone());
            prop_assert_eq!(seq_exec.run(frames.clone()), fresh.clone());
            prop_assert_eq!(pool_exec.run(frames.clone()), fresh.clone());
            prop_assert_eq!(
                sim_exec.run(frames.clone()).expect("prepared loop simulates"),
                fresh
            );
        }
    }
}

/// Deterministic: a prepared `itermem(df)` executable over the worker
/// matrix, interleaving repeated streams (state must not leak), plus the
/// empty stream on every backend.
#[test]
fn prepared_loop_interleaving_and_empty_streams_are_clean() {
    for workers in [1, 2, skipper::default_workers().get()] {
        let prog = itermem(df(workers, |x: &i64| x * 7, |z: i64, y| z + y, 0i64), 3i64);
        let pool = PoolBackend::new();
        let sim = SimBackend::ring(3);
        let seq_exec = Backend::<_, Vec<Vec<i64>>>::prepare(&SeqBackend, &prog);
        let pool_exec = Backend::<_, Vec<Vec<i64>>>::prepare(&pool, &prog);
        let sim_exec = Backend::<_, Vec<Vec<i64>>>::prepare(&sim, &prog);
        let streams: [Vec<Vec<i64>>; 4] = [
            vec![vec![1, 2], Vec::new(), vec![3]],
            Vec::new(),
            vec![vec![5]],
            vec![vec![1, 2], Vec::new(), vec![3]], // repeat of the first
        ];
        for frames in &streams {
            let fresh = SeqBackend.run(&prog, frames.clone());
            assert_eq!(seq_exec.run(frames.clone()), fresh, "workers={workers}");
            assert_eq!(pool_exec.run(frames.clone()), fresh, "workers={workers}");
            assert_eq!(
                sim_exec
                    .run(frames.clone())
                    .expect("prepared loop simulates"),
                fresh,
                "workers={workers}"
            );
        }
    }
}
