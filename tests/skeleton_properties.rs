//! Property-based tests of the core invariants.
//!
//! - the parallel skeletons agree with their declarative specifications
//!   under the paper's side conditions (commutative-associative folds);
//! - random skeleton compositions (bounded depth) lower through the full
//!   SynDEx/transvision pipeline and agree with sequential emulation;
//! - the union-find substrate is a proper equivalence relation;
//! - routing paths over every topology are contiguous and shortest-ish;
//! - AAA schedules respect dataflow precedence on random DAGs.

use proptest::prelude::*;
use skipper::{df, itermem, pure, scm, tf, Compose};
use skipper::{
    Backend, Df, PoolBackend, Scm, SeqBackend, ShardBackend, Tf, ThreadBackend, Workers,
};
use skipper_exec::SimBackend;
use skipper_net::dtype::DataType;
use skipper_net::graph::{NodeKind, ProcessNetwork};
use skipper_net::FarmShape;
use skipper_syndex::schedule::{schedule_with, Strategy};
use skipper_syndex::Architecture;
use skipper_vision::label::DisjointSets;
use std::collections::HashMap;
use transvision::topology::{ProcId, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// df: parallel == sequential for a commutative-associative fold.
    #[test]
    fn df_par_equals_seq(xs in prop::collection::vec(0u64..1000, 0..200), workers in 1usize..8) {
        let farm = Df::new(workers, |x: &u64| x.wrapping_mul(31) ^ 7, |z: u64, y| z.wrapping_add(y), 0u64);
        prop_assert_eq!(
            ThreadBackend::new().run(&farm, &xs[..]),
            SeqBackend.run(&farm, &xs[..])
        );
    }

    /// df: parallel == sequential even for non-commutative folds, because
    /// every host backend folds the farm's results in item order.
    #[test]
    fn df_ordered_equals_seq_non_commutative(
        xs in prop::collection::vec(0u32..100, 0..64),
        workers in 1usize..6,
    ) {
        let farm = Df::new(
            workers,
            |x: &u32| x.to_string(),
            |z: String, y: String| z + &y + ",",
            String::new(),
        );
        let golden = SeqBackend.run(&farm, &xs[..]);
        prop_assert_eq!(ThreadBackend::new().run(&farm, &xs[..]), golden.clone());
        let pool = PoolBackend::configured(Workers::exact(2));
        prop_assert_eq!(pool.run(&farm, &xs[..]), golden.clone());
        let shards = ShardBackend::configured(2, Workers::exact(1));
        prop_assert_eq!(shards.run(&farm, &xs[..]), golden);
    }

    /// scm: parallel == sequential always (merge sees fragment order).
    #[test]
    fn scm_par_equals_seq(xs in prop::collection::vec(0i64..1000, 1..200), workers in 1usize..8) {
        let scm = Scm::new(
            workers,
            |v: &Vec<i64>, n| v.chunks(v.len().div_ceil(n)).map(<[i64]>::to_vec).collect(),
            |c: Vec<i64>| c.into_iter().map(|x| x - 3).collect::<Vec<i64>>(),
            |ps: Vec<Vec<i64>>| ps.concat(),
        );
        prop_assert_eq!(
            ThreadBackend::new().run(&scm, &xs),
            SeqBackend.run(&scm, &xs)
        );
    }

    /// tf: parallel == sequential for commutative folds over generated work.
    #[test]
    fn tf_par_equals_seq(roots in prop::collection::vec(1u64..64, 1..8), workers in 1usize..6) {
        let worker = |t: u64| {
            if t >= 4 {
                (vec![t / 2, t / 3], Some(t))
            } else {
                (vec![], Some(t))
            }
        };
        let tf = Tf::new(workers, worker, |z: u64, o| z.wrapping_add(o), 0u64);
        prop_assert_eq!(
            ThreadBackend::new().run(&tf, roots.clone()),
            SeqBackend.run(&tf, roots)
        );
    }

    /// Random skeleton compositions, differential-tested on the simulated
    /// machine: every generated program (bounded depth: a skeleton, an
    /// optional `then` stage, an optional `itermem` wrapper, and one
    /// doubly-nested loop shape) must lower through PNT expansion →
    /// SynDEx → macro-code → transvision and reproduce the `SeqBackend`
    /// golden result, on both farm PNT shapes.
    #[test]
    fn random_compositions_on_sim_match_seq(
        shape in 0usize..7,
        workers in 1usize..4,
        nprocs in 1usize..5,
        ring_pick in 0usize..2,
        xs in prop::collection::vec(-30i64..30, 0..10),
        mul in 1i64..4,
    ) {
        let backend = if ring_pick == 1 {
            SimBackend::ring(nprocs).with_farm_shape(FarmShape::Ring)
        } else {
            SimBackend::ring(nprocs)
        };
        // Frames for the loop shapes: chunk xs into small bursts
        // (including an empty one so empty frames stay covered).
        let mut frames: Vec<Vec<i64>> = xs.chunks(3).map(<[i64]>::to_vec).collect();
        frames.push(Vec::new());
        match shape {
            0 => {
                let prog = df(workers, move |x: &i64| x * mul + 1, |z: i64, y| z + y, 7i64);
                prop_assert_eq!(
                    backend.run(&prog, &xs[..]).expect("df lowers"),
                    SeqBackend.run(&prog, &xs[..])
                );
            }
            1 => {
                // Round-robin split: always exactly `workers` fragments.
                let prog = scm(
                    workers,
                    |v: &Vec<i64>, n| {
                        let mut out = vec![Vec::new(); n];
                        for (i, &x) in v.iter().enumerate() {
                            out[i % n].push(x);
                        }
                        out
                    },
                    move |chunk: Vec<i64>| chunk.iter().map(|x| x * mul).sum::<i64>(),
                    |parts: Vec<i64>| parts.iter().sum::<i64>(),
                );
                prop_assert_eq!(
                    backend.run(&prog, &xs).expect("scm lowers"),
                    SeqBackend.run(&prog, &xs)
                );
            }
            2 => {
                let prog = tf(
                    workers,
                    |t: i64| {
                        let t = t.abs();
                        if t > 8 { (vec![t / 2, t / 3], Some(t)) } else { (vec![], Some(t)) }
                    },
                    |z: i64, o| z.wrapping_add(o),
                    0i64,
                );
                prop_assert_eq!(
                    backend.run(&prog, xs.clone()).expect("tf lowers"),
                    SeqBackend.run(&prog, xs.clone())
                );
            }
            3 => {
                let prog = df(workers, |x: &i64| x - 2, |z: i64, y| z + y, 0i64)
                    .then(pure(move |total: i64| (total, total * mul)));
                prop_assert_eq!(
                    backend.run(&prog, &xs[..]).expect("then lowers"),
                    SeqBackend.run(&prog, &xs[..])
                );
            }
            4 => {
                let prog = itermem(
                    df(workers, move |x: &i64| x * mul, |z: i64, y| z + y, 0i64),
                    11i64,
                );
                prop_assert_eq!(
                    backend.run(&prog, frames.clone()).expect("itermem(df) lowers"),
                    SeqBackend.run(&prog, frames.clone())
                );
            }
            5 => {
                let prog = itermem(
                    tf(
                        workers,
                        |t: i64| {
                            let t = t.abs();
                            if t > 8 { (vec![t / 2], Some(t)) } else { (vec![], Some(t)) }
                        },
                        |z: i64, o| z.wrapping_add(o),
                        0i64,
                    ),
                    3i64,
                );
                prop_assert_eq!(
                    backend.run(&prog, frames.clone()).expect("itermem(tf) lowers"),
                    SeqBackend.run(&prog, frames.clone())
                );
            }
            _ => {
                // Depth 2: a loop nested inside a loop, over bursts.
                let body = scm(
                    workers,
                    |t: &(i64, i64), n| {
                        (0..n as i64).map(|k| (t.0 + k, t.1)).collect::<Vec<_>>()
                    },
                    move |(a, b): (i64, i64)| a * mul + b,
                    |parts: Vec<i64>| {
                        let s: i64 = parts.iter().sum();
                        (s, s + 1)
                    },
                );
                let prog = itermem(itermem(body, 0i64), 2i64);
                let bursts: Vec<Vec<i64>> = frames.clone();
                prop_assert_eq!(
                    backend.run(&prog, bursts.clone()).expect("nested loop lowers"),
                    SeqBackend.run(&prog, bursts)
                );
            }
        }
    }

    /// Union-find maintains an equivalence relation under arbitrary unions.
    #[test]
    fn disjoint_sets_equivalence(
        n in 2usize..40,
        unions in prop::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        let mut ds = DisjointSets::new(n);
        let mut naive: Vec<usize> = (0..n).collect(); // naive set ids
        for &(a, b) in &unions {
            let (a, b) = (a % n, b % n);
            ds.union(a, b);
            let (ra, rb) = (naive[a], naive[b]);
            if ra != rb {
                for x in naive.iter_mut() {
                    if *x == rb { *x = ra; }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(ds.same(i, j), naive[i] == naive[j], "{} {}", i, j);
            }
        }
    }

    /// Shortest-path routes are contiguous and within the diameter, on all
    /// topology families.
    #[test]
    fn topology_paths_are_contiguous(kind in 0usize..5, size in 2usize..9, a in 0usize..9, b in 0usize..9) {
        let topo = match kind {
            0 => Topology::ring(size),
            1 => Topology::chain(size),
            2 => Topology::star(size),
            3 => Topology::full(size),
            _ => Topology::mesh(size.clamp(1, 4), 2),
        };
        let n = topo.len();
        let (src, dst) = (ProcId(a % n), ProcId(b % n));
        let path = topo.path(src, dst).unwrap();
        let mut cur = src;
        for l in &path {
            let (from, to) = topo.dlink(*l);
            prop_assert_eq!(from, cur);
            cur = to;
        }
        prop_assert_eq!(cur, dst);
        prop_assert!(path.len() <= topo.diameter());
    }

    /// AAA schedules respect precedence on random layered DAGs, under all
    /// strategies.
    #[test]
    fn schedules_respect_precedence(
        seed in 0u64..500,
        nprocs in 2usize..6,
        strategy_pick in 0usize..3,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ProcessNetwork::new("prop");
        let mut prev: Vec<skipper_net::graph::NodeId> = Vec::new();
        for l in 0..rng.gen_range(2..5) {
            let mut cur = Vec::new();
            for w in 0..rng.gen_range(1..4) {
                let id = net.add_node(NodeKind::UserFn(format!("f{l}_{w}")), format!("f{l}_{w}"));
                net.set_cost_hint(id, rng.gen_range(1..1_000_000));
                for &p in &prev {
                    if rng.gen_bool(0.5) {
                        net.add_data_edge(p, 0, id, 0, DataType::Int).unwrap();
                    }
                }
                cur.push(id);
            }
            prev = cur;
        }
        let strategy = [Strategy::MinFinish, Strategy::RoundRobin, Strategy::SingleProc][strategy_pick];
        let arch = Architecture::ring_t9000(nprocs);
        let s = schedule_with(&net, &arch, &HashMap::new(), strategy).unwrap();
        for e in net.edges() {
            prop_assert!(
                s.start_ns[e.to.0] >= s.finish_ns[e.from.0],
                "consumer before producer under {:?}", strategy
            );
        }
        prop_assert_eq!(s.mapping.len(), net.nodes().len());
    }
}
