//! E3 — Theorem 3.9: benchmarks algorithm B_ack through the session API and
//! regenerates the acknowledgement-window table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::experiments::{ack_time, family_label};
use rn_experiments::SweepSpec;
use rn_graph::generators::TopologyFamily;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_ack_time");
    group.sample_size(15);
    for family in [
        TopologyFamily::Path,
        TopologyFamily::RandomTree,
        TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
    ] {
        for n in [64usize, 256] {
            let g = Arc::new(family.generate(n, 1).unwrap());
            let id = BenchmarkId::new(family_label(family), g.node_count());
            group.bench_with_input(id, &g, |b, g| {
                b.iter(|| {
                    std::hint::black_box(
                        Session::builder(Scheme::LambdaAck, Arc::clone(g))
                            .message(7)
                            .build()
                            .unwrap()
                            .run(),
                    )
                });
            });
        }
    }
    group.finish();

    let cfg = SweepSpec::new("bench").sizes(&[16, 64, 256]).seeds(&[1]);
    println!("\n{}", ack_time::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
