//! Backend-equivalence property suite.
//!
//! The redesign's contract: one [`skipper::Skeleton`] program value must
//! produce identical results on every backend — the declarative
//! specification ([`SeqBackend`]), the operational semantics on the
//! persistent work-stealing pool ([`PoolBackend`]) and the full paper pipeline on the simulated
//! machine ([`SimBackend`]) — for all four skeletons on generated inputs,
//! including a nested `itermem(scm(...))` composition. Accumulation
//! functions are commutative-associative, the paper's stated side
//! condition for farm equivalence.
//!
//! Worker counts are drawn from the satellite matrix `{1, 2,
//! available_parallelism}` (degenerate single-worker scheduling, the
//! smallest truly parallel degree, and the host default), and every input
//! generator includes the empty and single-element cases.

use proptest::prelude::*;
use skipper::{df, itermem, pure, scm, tf, Backend, Compose, PoolBackend, SeqBackend};
use skipper_exec::SimBackend;

/// The satellite worker-count matrix: 1, 2 and the host default.
fn worker_count(index: usize) -> usize {
    let counts = [1, 2, skipper::default_workers().get()];
    counts[index % counts.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// df: all three backends agree on a commutative-associative fold.
    #[test]
    fn df_equivalent_on_all_backends(
        xs in prop::collection::vec(0i64..1000, 0..60),
        widx in 0usize..3,
        nprocs in 1usize..6,
    ) {
        let farm = df(worker_count(widx), |x: &i64| x * x + 1, |z: i64, y| z + y, 0i64);
        let seq = SeqBackend.run(&farm, &xs[..]);
        prop_assert_eq!(PoolBackend::new().run(&farm, &xs[..]), seq);
        let sim = SimBackend::ring(nprocs).run(&farm, &xs[..]).expect("df simulates");
        prop_assert_eq!(sim, seq);
    }

    /// scm: all three backends agree (the merge sees fragment order, so no
    /// commutativity side condition is needed).
    #[test]
    fn scm_equivalent_on_all_backends(
        xs in prop::collection::vec(-500i64..500, 0..60),
        widx in 0usize..3,
        nprocs in 1usize..5,
    ) {
        // Round-robin split: always exactly `workers` fragments, as the
        // statically-expanded process network requires.
        let prog = scm(
            worker_count(widx),
            |v: &Vec<i64>, n| {
                let mut out = vec![Vec::new(); n];
                for (i, &x) in v.iter().enumerate() {
                    out[i % n].push(x);
                }
                out
            },
            |chunk: Vec<i64>| chunk.iter().map(|x| x * 3 - 1).collect::<Vec<i64>>(),
            |parts: Vec<Vec<i64>>| {
                let mut flat: Vec<i64> = parts.concat();
                flat.sort_unstable();
                flat
            },
        );
        let seq = SeqBackend.run(&prog, &xs);
        prop_assert_eq!(PoolBackend::new().run(&prog, &xs), seq.clone());
        let sim = SimBackend::ring(nprocs).run(&prog, &xs).expect("scm simulates");
        prop_assert_eq!(sim, seq);
    }

    /// tf: all three backends agree on generated task trees (the empty
    /// root list included).
    #[test]
    fn tf_equivalent_on_all_backends(
        roots in prop::collection::vec(1u64..200, 0..6),
        widx in 0usize..3,
        nprocs in 1usize..5,
    ) {
        let prog = tf(
            worker_count(widx),
            |t: u64| {
                if t >= 8 {
                    (vec![t / 2, t / 3], Some(t))
                } else {
                    (vec![], Some(t))
                }
            },
            |z: u64, o: u64| z.wrapping_add(o.wrapping_mul(31)),
            0u64,
        );
        let seq = SeqBackend.run(&prog, roots.clone());
        prop_assert_eq!(PoolBackend::new().run(&prog, roots.clone()), seq);
        let sim = SimBackend::ring(nprocs).run(&prog, roots).expect("tf simulates");
        prop_assert_eq!(sim, seq);
    }

    /// itermem(scm(...)): the nested tracking-loop composition threads its
    /// state identically on all three backends.
    #[test]
    fn itermem_scm_equivalent_on_all_backends(
        frames in prop::collection::vec(-50i64..50, 0..8),
        widx in 0usize..3,
        nprocs in 1usize..4,
    ) {
        let body = scm(
            worker_count(widx),
            |t: &(i64, i64), n| {
                (0..n as i64).map(|k| (t.0 + k, t.1)).collect::<Vec<(i64, i64)>>()
            },
            |(z, b): (i64, i64)| z * 2 + b,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s - 1)
            },
        );
        let prog = itermem(body, 3i64);
        let seq = SeqBackend.run(&prog, frames.clone());
        prop_assert_eq!(PoolBackend::new().run(&prog, frames.clone()), seq.clone());
        let sim = SimBackend::ring(nprocs).run(&prog, frames).expect("loop simulates");
        prop_assert_eq!(sim, seq);
    }

    /// then-pipelines: a farm piped into a lifted function agrees across
    /// backends.
    #[test]
    fn then_pipeline_equivalent_on_all_backends(
        xs in prop::collection::vec(0i64..100, 0..40),
        widx in 0usize..3,
        nprocs in 1usize..5,
    ) {
        let prog = df(worker_count(widx), |x: &i64| x + 7, |z: i64, y| z + y, 0i64)
            .then(pure(|total: i64| (total, total % 10)));
        let seq = SeqBackend.run(&prog, &xs[..]);
        prop_assert_eq!(PoolBackend::new().run(&prog, &xs[..]), seq);
        let sim = SimBackend::ring(nprocs).run(&prog, &xs[..]).expect("pipeline simulates");
        prop_assert_eq!(sim, seq);
    }
}

/// Deterministic coverage of the degenerate inputs the generators only
/// sometimes produce: empty and single-element item lists, across the
/// full worker-count matrix, on every backend.
#[test]
fn degenerate_inputs_agree_on_every_backend_and_worker_count() {
    for workers in [1, 2, skipper::default_workers().get()] {
        let farm = df(workers, |x: &i64| x * 5 - 2, |z: i64, y| z + y, 3i64);
        let prog = scm(
            workers,
            |v: &Vec<i64>, n| {
                let mut out = vec![Vec::new(); n];
                for (i, &x) in v.iter().enumerate() {
                    out[i % n].push(x);
                }
                out
            },
            |chunk: Vec<i64>| chunk.iter().sum::<i64>(),
            |parts: Vec<i64>| parts.iter().sum::<i64>(),
        );
        let tree = tf(
            workers,
            |t: u64| {
                if t >= 4 {
                    (vec![t / 2], Some(t))
                } else {
                    (vec![], Some(t))
                }
            },
            |z: u64, o: u64| z + o,
            0u64,
        );
        let pool = PoolBackend::new();
        for xs in [Vec::new(), vec![17i64]] {
            let seq = SeqBackend.run(&farm, &xs[..]);
            assert_eq!(pool.run(&farm, &xs[..]), seq);
            assert_eq!(
                SimBackend::ring(3)
                    .run(&farm, &xs[..])
                    .expect("df simulates"),
                seq,
                "df workers={workers} len={}",
                xs.len()
            );
            let seq = SeqBackend.run(&prog, &xs);
            assert_eq!(pool.run(&prog, &xs), seq);
            assert_eq!(
                SimBackend::ring(3).run(&prog, &xs).expect("scm simulates"),
                seq,
                "scm workers={workers} len={}",
                xs.len()
            );
        }
        for roots in [Vec::new(), vec![9u64]] {
            let seq = SeqBackend.run(&tree, roots.clone());
            assert_eq!(pool.run(&tree, roots.clone()), seq);
            assert_eq!(
                SimBackend::ring(3)
                    .run(&tree, roots.clone())
                    .expect("tf simulates"),
                seq,
                "tf workers={workers} roots={}",
                roots.len()
            );
        }
    }
}
