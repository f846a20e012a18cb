//! E8 — labeling-scheme construction cost: benchmarks the λ / λ_ack / λ_arb
//! constructions as the network grows and regenerates the cost table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::scheme_cost;
use rn_experiments::SweepSpec;
use rn_graph::generators::TopologyFamily;
use rn_labeling::{lambda, lambda_ack, lambda_arb};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_scheme_construction");
    group.sample_size(15);
    for n in [64usize, 256, 1024] {
        let g = TopologyFamily::GnpAvgDegree { avg_degree: 10.0 }
            .generate(n, 1)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("lambda", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda::construct(g, 0).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("lambda_ack", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda_ack::construct(g, 0).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("lambda_arb", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda_arb::construct(g).unwrap()));
        });
    }
    group.finish();

    let cfg = SweepSpec::new("bench").sizes(&[64, 256]).seeds(&[1]);
    println!("\n{}", scheme_cost::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
