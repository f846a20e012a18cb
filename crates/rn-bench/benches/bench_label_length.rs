//! E4 — label length / message size comparison: benchmarks assigning each
//! scheme and regenerates the comparison table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::label_length;
use rn_experiments::SweepSpec;
use rn_graph::generators::TopologyFamily;
use rn_labeling::scheme::{LabelingScheme, SchemeKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_label_length");
    group.sample_size(20);
    let g = TopologyFamily::GnpAvgDegree { avg_degree: 10.0 }
        .generate(256, 1)
        .unwrap();
    for scheme in SchemeKind::ALL {
        let id = BenchmarkId::new(scheme.name(), g.node_count());
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| std::hint::black_box(scheme.assign(g, 0).unwrap()));
        });
    }
    group.finish();

    let cfg = SweepSpec::new("bench").sizes(&[16, 64, 256]).seeds(&[1]);
    println!("\n{}", label_length::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
