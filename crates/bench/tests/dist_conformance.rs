//! Process-level conformance for the distributed backend: a real
//! `skipper-worker` fleet (separate OS processes, stdin/stdout pipes,
//! the canonical wire protocol) must pass the same conformance matrix
//! as every in-process backend, and must produce **identical run
//! receipts** — input hash, canonical-trace hash, output hash — to the
//! pool and shard backends on every case, input and worker count.
//!
//! This lives in the bench crate because cargo only exposes
//! `CARGO_BIN_EXE_skipper-worker` to the tests of the crate that builds
//! the binary.

use skipper::conformance::{assert_backend_conforms, assert_receipts_match};
use skipper::{DistBackend, PoolBackend, ShardBackend};
use std::process::Command;

fn fleet(n: usize) -> DistBackend {
    DistBackend::spawn(n, || Command::new(env!("CARGO_BIN_EXE_skipper-worker")))
        .expect("spawn the skipper-worker fleet")
}

#[test]
fn dist_backend_passes_the_full_conformance_matrix() {
    let dist = fleet(2);
    assert_backend_conforms(&dist);
    dist.shutdown().expect("orderly fleet shutdown");
}

#[test]
fn dist_receipts_equal_pool_receipts() {
    let dist = fleet(2);
    assert_receipts_match(&PoolBackend::new(), &dist);
    dist.shutdown().expect("orderly fleet shutdown");
}

#[test]
fn dist_receipts_equal_shard_receipts() {
    // Deliberately mismatched fleet/shard sizes: receipts are a
    // property of the run, not of the worker topology.
    let dist = fleet(3);
    assert_receipts_match(&ShardBackend::new(2), &dist);
    dist.shutdown().expect("orderly fleet shutdown");
}

#[test]
fn a_single_worker_fleet_still_conforms() {
    let dist = fleet(1);
    assert_backend_conforms(&dist);
    dist.shutdown().expect("orderly fleet shutdown");
}

#[test]
fn sharded_df_receipts_equal_pool_receipts_at_edge_sizes() {
    use skipper::conformance::df_case;
    use skipper::{receipted, Backend};
    // One fleet caches one round plan: every change of item count must
    // replan, and every return to a count must route and trace as a
    // fresh fleet would.
    let dist = fleet(2);
    let pool = PoolBackend::new();
    let sizes = [4096usize, 1, 0, 4096, 17, 4096, 3, 4097];
    for (frame, n) in sizes.into_iter().enumerate() {
        let xs: Vec<i64> = (0..n as i64)
            .map(|i| (i + frame as i64) * 7919 % 1000 - 500)
            .collect();
        let prog = df_case(4);
        let want = receipted(&xs[..], || pool.run(&prog, &xs[..]));
        let got = dist
            .run_df_sharded(4, &xs)
            .expect("the fleet runs the farm");
        assert_eq!(got, want, "frame {frame}: {n} item(s)");
    }
    dist.shutdown().expect("orderly fleet shutdown");
}

#[test]
fn a_shut_down_fleet_returns_errors_and_stays_usable() {
    use skipper::wire::ToWire;
    let dist = fleet(2);
    dist.shutdown().expect("orderly fleet shutdown");
    let xs: Vec<i64> = (0..64).collect();
    let shut = "dist protocol violation: fleet is shut down";
    for _ in 0..2 {
        let err = dist.run_case("df", 4, &xs.to_wire()).unwrap_err();
        assert_eq!(err.to_string(), shut);
        for items in [&xs[..], &[]] {
            let err = dist.run_df_sharded(4, items).unwrap_err();
            assert_eq!(err.to_string(), shut);
        }
    }
    // The master lock is not poisoned: the fleet still answers.
    assert_eq!(dist.n_workers(), 0);
    dist.shutdown()
        .expect("shutting down an empty fleet is a no-op");
    drop(dist);
}
