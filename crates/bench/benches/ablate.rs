//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * memoized tick-lattice `F_λ` vs naive recursion (`ablate_fib`);
//! * exact rational arithmetic vs `f64` (`ablate_clock`) — the price
//!   paid for the paper's equalities being checkable exactly;
//! * cascade computation cost (`ablate_cascade`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use postal_algos::{cascade, FibTable, Orientation};
use postal_model::{ratio::ratio, GenFib, Latency, Ratio};
use std::hint::black_box;

/// Naive exponential-time recursion straight off the paper's definition,
/// on the same tick lattice (p, q) as `GenFib`.
fn naive_fib(k: i128, p: i128, q: i128) -> u128 {
    if k < p {
        1
    } else {
        naive_fib(k - q, p, q).saturating_add(naive_fib(k - p, p, q))
    }
}

fn bench_fib_memo_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_fib");
    // λ = 5/2 → p = 5, q = 2; keep t small enough for the naive version.
    for t_ticks in [20i128, 30, 40] {
        group.bench_with_input(BenchmarkId::new("naive", t_ticks), &t_ticks, |b, &k| {
            b.iter(|| black_box(naive_fib(black_box(k), 5, 2)));
        });
        group.bench_with_input(BenchmarkId::new("memoized", t_ticks), &t_ticks, |b, &k| {
            b.iter(|| {
                let fib = GenFib::new(Latency::from_ratio(5, 2));
                black_box(fib.value_at_ticks(black_box(k)))
            });
        });
    }
    group.finish();
}

fn bench_clock_arithmetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_clock");
    // A representative schedule computation: accumulate 10^4 alternating
    // +1 and +λ steps, as an engine run does.
    group.bench_function("rational", |b| {
        let lam = ratio(5, 2);
        b.iter(|| {
            let mut t = Ratio::ZERO;
            for i in 0..10_000 {
                t += if i % 2 == 0 { Ratio::ONE } else { lam };
            }
            black_box(t)
        });
    });
    group.bench_function("f64", |b| {
        b.iter(|| {
            let mut t = 0.0f64;
            for i in 0..10_000 {
                t += if i % 2 == 0 { 1.0 } else { 2.5 };
            }
            black_box(t)
        });
    });
    group.finish();
}

fn bench_cascade(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_cascade");
    let table = FibTable::new(Latency::from_ratio(5, 2), 1 << 20);
    for n in [14u64, 1024, 1 << 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(cascade(&table, black_box(n), Orientation::Standard).count()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fib_memo_vs_naive,
    bench_clock_arithmetic,
    bench_cascade
);
criterion_main!(benches);
