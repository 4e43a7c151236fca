//! Skeleton-overhead micro-benchmarks: the same program values timed on
//! the sequential and pool backends.

use criterion::{criterion_group, criterion_main, Criterion};
use skipper::{df, itermem, pure, scm, tf, Backend, Executable, IterMem, PoolBackend, SeqBackend};

fn bench_skeletons(c: &mut Criterion) {
    let xs: Vec<u64> = (0..512).collect();
    let seq = SeqBackend;
    let pool = PoolBackend::new();
    let mut g = c.benchmark_group("skeletons");
    // Repeated runs of one program are the prepared regime: each bench
    // prepares its executable once, outside the timed closure.
    let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
    g.bench_function("df_seq_512", |b| {
        let exec = Backend::<_, &[u64]>::prepare(&seq, &farm);
        b.iter(|| exec.run(&xs[..]))
    });
    g.bench_function("df_pool_512", |b| {
        let exec = Backend::<_, &[u64]>::prepare(&pool, &farm);
        b.iter(|| exec.run(&xs[..]))
    });
    g.bench_function("scm_par_512", |b| {
        let prog = scm(
            4,
            |v: &Vec<u64>, n| v.chunks(v.len().div_ceil(n)).map(<[u64]>::to_vec).collect(),
            |c: Vec<u64>| c.iter().map(|x| x * x).sum::<u64>(),
            |ps: Vec<u64>| ps.into_iter().sum::<u64>(),
        );
        let exec = pool.prepare(&prog);
        b.iter(|| exec.run(&xs))
    });
    g.bench_function("tf_par_tree", |b| {
        let prog = tf(
            4,
            |d: u32| {
                if d > 0 {
                    (vec![d - 1, d - 1], Some(1u64))
                } else {
                    (vec![], Some(1u64))
                }
            },
            |z: u64, o| z + o,
            0u64,
        );
        b.iter(|| pool.run(&prog, vec![8]))
    });
    g.bench_function("itermem_prog_1000_steps", |b| {
        // Zero-sized frames: the per-iteration `frames.clone()` copies no
        // element data, so the measurement is the IterLoop machinery
        // itself, not input construction.
        let loop_prog = itermem(pure(|t: &(u64, ())| (t.0 + 1, ())), 0u64);
        let frames: Vec<()> = vec![(); 1000];
        b.iter(|| seq.run(&loop_prog, frames.clone()))
    });
    g.bench_function("itermem_stream_1000_steps", |b| {
        b.iter(|| {
            let mut im = IterMem::new(
                skipper::itermem::stream_of(0..1000u64),
                |z: u64, x: u64| (z + x, ()),
                |_| {},
                0u64,
            );
            im.run();
            im.into_state()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_skeletons);
criterion_main!(benches);
