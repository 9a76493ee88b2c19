//! Microbench: the O(n) maintained-Gram rotation update (the paper's key
//! optimization) at several column dimensions, plus the one-off Gram build
//! (the preprocessor) at those dimensions and at the shapes the benchmark
//! of record solves: the 16384×64 tall input and the service's 64×32
//! single and 32×16 bulk jobs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hj_core::rotation::textbook_params;
use hj_core::GramState;
use hj_matrix::gen;

fn bench_gram(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram");
    for &n in &[64usize, 256, 1024] {
        let a = gen::uniform(128, n, 42);
        g.bench_with_input(BenchmarkId::new("build", n), &a, |b, a| {
            b.iter(|| black_box(GramState::from_matrix(black_box(a))))
        });
        let base = GramState::from_matrix(&a);
        g.bench_with_input(BenchmarkId::new("rotate_update", n), &base, |b, base| {
            b.iter_batched(
                || base.clone(),
                |mut gram| {
                    let rot = textbook_params(
                        gram.norm_sq(0),
                        gram.norm_sq(n - 1),
                        gram.covariance(0, n - 1),
                    );
                    gram.rotate(0, n - 1, &rot);
                    black_box(gram)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    for (m, n) in [(16384usize, 64usize), (64, 32), (32, 16)] {
        let a = gen::uniform(m, n, 42);
        g.bench_with_input(BenchmarkId::new("build", format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| black_box(GramState::from_matrix(black_box(a))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gram);
criterion_main!(benches);
