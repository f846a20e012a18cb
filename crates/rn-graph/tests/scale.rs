//! Scale gate for the random generators: the two sparse registry presets
//! at n = 10⁵, pinned to the CSR digests of their sequential all-pairs
//! versions.
//!
//! At this size the reference loops take seconds even in release mode, so
//! the digests were recorded from them once; the tier-1 differential tests
//! (`tests/generator_oracles.rs` in the facade) compare against the loops
//! themselves at sizes up to just past the two-block split. The test is
//! `#[ignore]`d because it needs a release build to finish quickly; run it
//! with `cargo test --release -p rn-graph -- --ignored`, under any
//! `RN_THREADS`.

use rn_graph::generators::TopologyFamily;
use rn_graph::Graph;
use std::time::Instant;

/// FNV-1a over the node count, the edge count and every CSR row (its
/// degree, then its sorted neighbours).
fn csr_digest(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.node_count() as u64);
    eat(g.edge_count() as u64);
    for v in g.nodes() {
        eat(g.degree(v) as u64);
        for &w in g.neighbors(v) {
            eat(w as u64);
        }
    }
    h
}

fn assert_digest(family: &str, edges: usize, digest: u64) {
    const N: usize = 100_000;
    let start = Instant::now();
    let g = TopologyFamily::parse(family)
        .expect("registered family")
        .generate(N, 1)
        .expect("generates");
    eprintln!(
        "{family} n={N} seed=1: m={}, {:.2} s",
        g.edge_count(),
        start.elapsed().as_secs_f64()
    );
    assert_eq!(g.edge_count(), edges, "{family}: edge count");
    assert_eq!(csr_digest(&g), digest, "{family}: CSR digest");
}

#[test]
#[ignore = "release-mode scale gate: cargo test --release -p rn-graph -- --ignored"]
fn gnp_avg_degree_8_at_n_1e5_matches_the_sequential_sampler() {
    assert_digest("gnp_avg_degree:8", 401_820, 0x98bd_522a_357f_55b3);
}

#[test]
#[ignore = "release-mode scale gate: cargo test --release -p rn-graph -- --ignored"]
fn unit_disk_8_at_n_1e5_matches_the_all_pairs_test() {
    assert_digest("unit_disk:8", 1_557_278, 0xe891_8082_1c0f_cbd9);
}
