//! E6 — one-bit schemes on cycles and grids: benchmarks the delay-relay
//! pipeline through the session API and regenerates the per-class tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::experiments::onebit;
use rn_experiments::SweepSpec;
use rn_graph::generators;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_onebit");
    group.sample_size(20);
    for n in [64usize, 256] {
        let g = Arc::new(generators::cycle(n));
        group.bench_with_input(BenchmarkId::new("cycle", n), &g, |b, g| {
            b.iter(|| {
                std::hint::black_box(
                    Session::builder(Scheme::OneBitCycle, Arc::clone(g))
                        .message(7)
                        .build()
                        .unwrap()
                        .run(),
                )
            });
        });
    }
    for (rows, cols) in [(8usize, 8usize), (16, 16)] {
        let g = Arc::new(generators::grid(rows, cols));
        group.bench_with_input(BenchmarkId::new("grid", rows * cols), &g, |b, g| {
            b.iter(|| {
                std::hint::black_box(
                    Session::builder(Scheme::OneBitGrid { rows, cols }, Arc::clone(g))
                        .message(7)
                        .build()
                        .unwrap()
                        .run(),
                )
            });
        });
    }
    group.finish();

    let cfg = SweepSpec::new("bench").sizes(&[16, 36, 64]).seeds(&[1]);
    for t in onebit::run(&cfg) {
        println!("\n{t}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
