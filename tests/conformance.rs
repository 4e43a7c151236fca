//! The backend conformance suite, instantiated for every backend.
//!
//! One contract (`skipper::conformance`), four execution strategies: the
//! declarative specification, the persistent work-stealing pool, shards
//! over several pools and the simulated Transputer machine. `SimBackend`
//! runs the **full** case matrix — all skeletons plus `then`,
//! `itermem(scm)`, `itermem(df)`, `itermem(tf)`, nested loops and
//! then-inside-loop, over empty/singleton/regular/skewed inputs — with no
//! carve-outs, in both farm PNT shapes (point-to-point star and Fig. 1's
//! explicit-router ring). CI runs this file with `SKIPPER_WORKERS=1` and
//! `=4` so degenerate single-worker scheduling and a fixed multi-worker
//! configuration are both exercised on every push (`Workers::FromEnv`
//! feeds the kit's worker-count sweep and sizes `PoolBackend::new`).

use skipper::conformance::{
    assert_backend_conforms, assert_receipts_match, assert_serving_conforms, worker_counts,
};
use skipper::{HostBackend, PoolBackend, SeqBackend, ShardBackend, Workers};
use skipper_exec::SimBackend;
use skipper_net::FarmShape;

#[test]
fn seq_backend_conforms() {
    assert_backend_conforms(&SeqBackend);
}

#[test]
fn pool_backend_conforms() {
    assert_backend_conforms(&PoolBackend::new());
}

#[test]
fn pool_backend_single_thread_conforms() {
    assert_backend_conforms(&PoolBackend::configured(Workers::exact(1)));
}

#[test]
fn pool_backend_clone_shares_the_pool_and_conforms() {
    let backend = PoolBackend::new();
    let clone = backend.clone();
    assert_backend_conforms(&backend);
    assert_backend_conforms(&clone);
}

#[test]
fn pool_backend_serving_conforms() {
    // The serving axis: concurrent multiplexed streams over the shared
    // pool must match sequential prepared goldens, stream for stream.
    assert_serving_conforms(&PoolBackend::new());
}

#[test]
fn pool_backend_single_thread_serving_conforms() {
    assert_serving_conforms(&PoolBackend::configured(Workers::exact(1)));
}

#[test]
fn shard_backend_serving_conforms() {
    // Batches are routed over the two shards like any farm unit.
    assert_serving_conforms(&ShardBackend::configured(2, Workers::FromEnv));
}

#[test]
fn sim_backend_conforms() {
    assert_backend_conforms(&SimBackend::ring(4));
}

#[test]
fn sim_backend_single_processor_conforms() {
    assert_backend_conforms(&SimBackend::ring(1));
}

#[test]
fn sim_backend_ring_farms_conform() {
    // Fig. 1's explicit-router farm PNT, relayed at application level,
    // must satisfy the very same contract as the star expansion —
    // including the degenerate single-worker-processor chain (ring(2)).
    for nprocs in [2usize, 4] {
        assert_backend_conforms(&SimBackend::ring(nprocs).with_farm_shape(FarmShape::Ring));
    }
}

#[test]
fn shard_backend_conforms() {
    assert_backend_conforms(&ShardBackend::new(2));
}

#[test]
fn shard_backend_odd_shard_count_conforms() {
    // Three shards never divide the case inputs evenly: the remainder
    // routing is part of the contract.
    assert_backend_conforms(&ShardBackend::new(3));
}

#[test]
fn shard_backend_single_thread_pools_conform() {
    assert_backend_conforms(&ShardBackend::configured(2, Workers::exact(1)));
}

#[test]
fn host_backend_selector_conforms_for_every_choice() {
    for name in ["seq", "pool", "shard"] {
        let backend: HostBackend = name.parse().expect("known host backend");
        assert_backend_conforms(&backend);
    }
}

// The receipt axis: equivalent runs on different engines must produce
// *equal* `RunReceipt`s — same canonical input hash, same canonical
// trace hash, same output hash — across the full case/input/worker
// matrix. This is the run contract the distributed backends are held
// to (the worker-process half lives in `crates/bench/tests/`, where
// cargo exposes the worker binary).

#[test]
fn pool_and_seq_receipts_match() {
    assert_receipts_match(&SeqBackend, &PoolBackend::new());
}

#[test]
fn pool_and_shard_receipts_match() {
    assert_receipts_match(&PoolBackend::new(), &ShardBackend::new(2));
}

#[test]
fn shard_counts_do_not_change_receipts() {
    assert_receipts_match(&ShardBackend::new(2), &ShardBackend::new(5));
}

#[test]
fn worker_counts_include_the_environment_override() {
    // Whatever SKIPPER_WORKERS resolves to (the env var in CI, the host
    // default locally), the sweep must include it alongside 1.
    let counts = worker_counts();
    assert!(counts.contains(&1));
    assert!(counts.contains(&Workers::FromEnv.resolve_or_default().get()));
}
