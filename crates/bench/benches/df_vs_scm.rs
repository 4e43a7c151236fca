//! E6 micro-benchmark: dynamic farming vs static splitting under skew,
//! both on one persistent pool backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skipper_apps::workloads::{skewed_units, time_df, time_scm};

fn bench_balance(c: &mut Criterion) {
    let mut g = c.benchmark_group("df_vs_scm");
    g.sample_size(10);
    let pool = skipper::PoolBackend::new();
    for cv in [0.0f64, 2.0] {
        let items = skewed_units(48, 20_000.0, cv, 11);
        g.bench_with_input(
            BenchmarkId::new("df", format!("cv{cv}")),
            &items,
            |b, it| b.iter(|| time_df(&pool, it, 4)),
        );
        g.bench_with_input(
            BenchmarkId::new("scm", format!("cv{cv}")),
            &items,
            |b, it| b.iter(|| time_scm(&pool, it, 4)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_balance);
criterion_main!(benches);
