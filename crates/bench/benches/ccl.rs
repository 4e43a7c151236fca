//! E9 micro-benchmark: connected-component labelling via scm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skipper::{Backend, Executable, PoolBackend};
use skipper_apps::ccl::{ccl_program, count_components_on, count_components_seq};
use skipper_vision::synth::random_blobs;

fn bench_ccl(c: &mut Criterion) {
    let img = random_blobs(256, 256, 40, 42);
    let pool = PoolBackend::new();
    let mut g = c.benchmark_group("ccl");
    g.sample_size(10);
    g.bench_function("sequential", |b| b.iter(|| count_components_seq(&img)));
    for n in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("scm", n), &n, |b, &n| {
            b.iter(|| count_components_on(&pool, &img, n))
        });
        // The same labelling through a prepared executable: the frame
        // loop pays no per-run program/backend derivation.
        let prog = ccl_program(n);
        let exec = pool.prepare(&prog);
        g.bench_with_input(BenchmarkId::new("scm_prepared", n), &n, |b, _| {
            b.iter(|| exec.run(&img))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ccl);
criterion_main!(benches);
