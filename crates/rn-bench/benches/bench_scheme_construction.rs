//! E8 — labeling-scheme construction cost: benchmarks the λ / λ_ack / λ_arb
//! constructions as the network grows and regenerates the cost table.
//!
//! The sizes reach well past n = 1024 on purpose: a path from an endpoint
//! has ℓ = n stages, so any per-stage Θ(n) cost in the §2.1 construction
//! shows up as quadratic growth between the 4096 and 65 536 rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::scheme_cost;
use rn_experiments::SweepSpec;
use rn_graph::generators::TopologyFamily;
use rn_graph::Graph;
use rn_labeling::{lambda, lambda_ack, lambda_arb};

/// Benchmarks the three paper schemes on `g`, ids suffixed with `id`.
fn bench_schemes(group: &mut criterion::BenchmarkGroup<'_>, id: &str, g: &Graph) {
    group.bench_with_input(BenchmarkId::new("lambda", id), g, |b, g| {
        b.iter(|| std::hint::black_box(lambda::construct(g, 0).unwrap()));
    });
    group.bench_with_input(BenchmarkId::new("lambda_ack", id), g, |b, g| {
        b.iter(|| std::hint::black_box(lambda_ack::construct(g, 0).unwrap()));
    });
    group.bench_with_input(BenchmarkId::new("lambda_arb", id), g, |b, g| {
        b.iter(|| std::hint::black_box(lambda_arb::construct(g).unwrap()));
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_scheme_construction");
    group.sample_size(15);
    let gnp = TopologyFamily::GnpAvgDegree { avg_degree: 10.0 };
    for n in [64usize, 256, 1024, 16_384] {
        let g = gnp.generate(n, 1).unwrap();
        bench_schemes(&mut group, &n.to_string(), &g);
    }
    for n in [4096usize, 65_536] {
        let g = TopologyFamily::Path.generate(n, 1).unwrap();
        bench_schemes(&mut group, &format!("path_{n}"), &g);
    }
    group.finish();

    let cfg = SweepSpec::new("bench").sizes(&[64, 256]).seeds(&[1]);
    println!("\n{}", scheme_cost::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
