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
    let dist = fleet(2);
    let pool = PoolBackend::new();
    for n in [0usize, 1, 3, 4097] {
        let xs: Vec<i64> = (0..n as i64).map(|i| i * 7919 % 1000 - 500).collect();
        let prog = df_case(4);
        let want = receipted(&xs[..], || pool.run(&prog, &xs[..]));
        let got = dist
            .run_df_sharded(4, &xs)
            .expect("the fleet runs the farm");
        assert_eq!(got, want, "{n} item(s)");
    }
    dist.shutdown().expect("orderly fleet shutdown");
}
