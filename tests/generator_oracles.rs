//! Differential tests of the random generators against their reference
//! loops, and of `StdRng::jump` against stepping.
//!
//! `gnp_connected`, `clustered_gnp` and `random_bipartite_connected` sample
//! their pair streams in blocks of at least 2²³ draws, in parallel, each
//! block from a clone of the seeded generator jumped ahead to its first
//! draw; `unit_disk` tests only the pairs in the same or adjacent cells.
//! The references below are the sequential loops they replaced — one
//! `gen_bool` per pair, every pair of points tested — and every generated
//! graph must equal theirs: at small sizes, and on both sides of the size
//! where the stream first splits into two blocks, at whatever thread count
//! `RN_THREADS` selects (CI runs this file at 1 and 4).

use radio_labeling::graph::algorithms::connectivity::{connected_components, connecting_edges};
use radio_labeling::graph::algorithms::{is_bipartite, is_connected};
use radio_labeling::graph::generators::{
    clustered_gnp, gnp_connected, random_bipartite_connected, unit_disk, TopologyFamily,
};
use radio_labeling::graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

mod reference {
    use super::*;

    /// The sample, then the minimum repair, exactly as the generators do.
    fn repaired(g: Graph) -> Graph {
        if is_connected(&g) {
            g
        } else {
            let extra = connecting_edges(&g);
            g.with_extra_edges(&extra).unwrap()
        }
    }

    pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        repaired(b.try_build().unwrap())
    }

    pub fn clustered(n: usize, clusters: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
        let base = n / clusters;
        let extra = n % clusters;
        let cluster_of = |v: usize| {
            let boundary = extra * (base + 1);
            if v < boundary {
                v / (base + 1)
            } else {
                extra + (v - boundary) / base.max(1)
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let p = if cluster_of(i) == cluster_of(j) {
                    p_in
                } else {
                    p_out
                };
                if rng.gen_bool(p) {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        repaired(b.try_build().unwrap())
    }

    /// The bipartite sample before its connectivity repair.
    pub fn bipartite_sample(a: usize, b: usize, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new(a + b);
        for i in 0..a {
            for j in 0..b {
                if rng.gen_bool(p) {
                    builder.add_edge(i, a + j).unwrap();
                }
            }
        }
        builder.try_build().unwrap()
    }

    /// The unit-disk graph, positions and repair count, testing every pair.
    pub fn unit_disk(n: usize, radius: f64, seed: u64) -> (Graph, Vec<(f64, f64)>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut b = GraphBuilder::new(n);
        let r2 = radius * radius;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = positions[i].0 - positions[j].0;
                let dy = positions[i].1 - positions[j].1;
                if dx * dx + dy * dy <= r2 {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        let g = b.try_build().unwrap();
        let repairs = connecting_edges(&g).len();
        (repaired(g), positions, repairs)
    }
}

const PROBABILITIES: [f64; 5] = [0.0, 1e-3, 0.05, 0.5, 1.0];
const SMALL: [usize; 10] = [1, 2, 3, 4, 5, 8, 13, 31, 64, 150];

/// `n(n−1)/2 ≥ 2·2²³` first holds at n = 5794: the smallest G(n, p) whose
/// stream splits into two blocks.
const FIRST_SPLIT_N: usize = 5794;

#[test]
fn gnp_matches_the_reference_at_small_sizes() {
    for n in SMALL {
        for p in PROBABILITIES {
            for seed in 0..4 {
                assert_eq!(
                    gnp_connected(n, p, seed).unwrap(),
                    reference::gnp(n, p, seed),
                    "n={n} p={p} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn gnp_matches_the_reference_on_both_sides_of_the_split() {
    assert_eq!(FIRST_SPLIT_N * (FIRST_SPLIT_N - 1) / 2 / (1 << 23), 2);
    assert_eq!((FIRST_SPLIT_N - 1) * (FIRST_SPLIT_N - 2) / 2 / (1 << 23), 1);
    for n in [FIRST_SPLIT_N - 1, FIRST_SPLIT_N] {
        let p = 8.0 / n as f64;
        assert_eq!(
            gnp_connected(n, p, 11).unwrap(),
            reference::gnp(n, p, 11),
            "n={n}"
        );
    }
}

#[test]
fn clustered_gnp_matches_the_reference() {
    for n in SMALL {
        for clusters in [1, 2, 3, 7] {
            if clusters > n {
                continue;
            }
            for (p_in, p_out) in [(0.6, 0.01), (1.0, 0.0), (0.0, 1.0), (0.05, 0.5)] {
                let seed = n as u64 * 31 + clusters as u64;
                assert_eq!(
                    clustered_gnp(n, clusters, p_in, p_out, seed).unwrap(),
                    reference::clustered(n, clusters, p_in, p_out, seed),
                    "n={n} clusters={clusters} p_in={p_in} p_out={p_out}"
                );
            }
        }
    }
    // Above the split, with clusters that straddle block boundaries.
    let n = FIRST_SPLIT_N + 6;
    assert_eq!(
        clustered_gnp(n, 6, 0.005, 0.0005, 4).unwrap(),
        reference::clustered(n, 6, 0.005, 0.0005, 4)
    );
}

fn assert_bipartite_matches(a: usize, b: usize, p: f64, seed: u64) {
    let what = format!("a={a} b={b} p={p} seed={seed}");
    let g = random_bipartite_connected(a, b, p, seed).unwrap();
    let sample = reference::bipartite_sample(a, b, p, seed);
    // The sample's edges, plus one cross edge per extra component.
    let repairs = connected_components(&sample).len() - 1;
    assert_eq!(g.edge_count(), sample.edge_count() + repairs, "{what}");
    assert!(sample.edges().all(|(u, v)| g.has_edge(u, v)), "{what}");
    assert!(is_connected(&g) && is_bipartite(&g), "{what}");
}

#[test]
fn random_bipartite_matches_the_reference() {
    for (a, b) in [(1, 1), (1, 9), (4, 3), (8, 11), (30, 45)] {
        for p in PROBABILITIES {
            for seed in 0..3 {
                assert_bipartite_matches(a, b, p, seed);
            }
        }
    }
    // 4097 × 4097 cross pairs: just past two blocks. Average degree 10
    // keeps the sample nearly connected: the repair loop recomputes the
    // components once per extra component.
    assert_bipartite_matches(4097, 4097, 10.0 / 4097.0, 5);
}

#[test]
fn unit_disk_matches_the_all_pairs_reference() {
    let radii = [
        1e-6,
        0.01,
        0.05,
        0.1,
        0.125,
        1.0 / 3.0,
        0.5,
        1.0,
        std::f64::consts::SQRT_2,
    ];
    for n in [1, 2, 5, 40, 300, 1000] {
        // Dense radii at the largest size only cost debug-build time.
        for radius in radii.into_iter().filter(|&r| n < 1000 || r <= 0.1) {
            let seed = n as u64 + 3;
            let inst = unit_disk(n, radius, seed).unwrap();
            let (graph, positions, repairs) = reference::unit_disk(n, radius, seed);
            let what = format!("n={n} radius={radius}");
            assert_eq!(inst.graph, graph, "{what}");
            assert_eq!(inst.positions, positions, "{what}");
            assert_eq!(inst.repair_edges, repairs, "{what}");
        }
    }
}

#[test]
fn registry_families_match_the_references() {
    // The presets as the sweeps and the benchmark draw them.
    let n = 2000;
    let g = TopologyFamily::UnitDisk { avg_degree: 8.0 }
        .generate(n, 1)
        .unwrap();
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    assert_eq!(g, reference::unit_disk(n, radius, 1).0);
    let g = TopologyFamily::GnpAvgDegree { avg_degree: 8.0 }
        .generate(n, 2)
        .unwrap();
    assert_eq!(g, reference::gnp(n, 8.0 / n as f64, 2));
}

/// Steps `k` draws one at a time.
fn stepped(seed: u64, k: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..k {
        rng.next_u64();
    }
    rng
}

#[test]
fn jump_equals_stepping() {
    let mut pick = StdRng::seed_from_u64(2024);
    let random: Vec<u64> = (0..3).map(|_| pick.gen_range(257..1u64 << 20)).collect();
    for k in [0, 1, 255, 256, 1_000_000].into_iter().chain(random) {
        let mut jumped = StdRng::seed_from_u64(k ^ 0x5eed);
        jumped.jump(k);
        let mut reference = stepped(k ^ 0x5eed, k);
        for _ in 0..4 {
            assert_eq!(jumped.next_u64(), reference.next_u64(), "k={k}");
        }
    }
}

/// The characteristic polynomial behind `StdRng::jump` must reproduce
/// xoshiro256's published `JUMP` constant, which is `x^(2^128) mod P`.
/// Together with `jump_equals_stepping` (jumps past 256 draws reduce
/// modulo `P`) this pins both the constant and its use.
#[test]
fn characteristic_polynomial_reproduces_the_published_jump() {
    const P_LOW: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];
    const JUMP: [u64; 4] = [
        0x180e_c6d3_3cfd_0aba,
        0xd5a6_1266_f0c9_392c,
        0xa958_2618_e03f_c9aa,
        0x39ab_dc45_29b1_661c,
    ];
    // Coefficient lists over GF(2), reduced with x^256 = P_LOW.
    let bit = |a: &[u64; 4], i: usize| (a[i / 64] >> (i % 64)) & 1 == 1;
    let square_mod = |a: [u64; 4]| {
        let mut wide = [false; 511];
        for i in (0..256).filter(|&i| bit(&a, i)) {
            wide[2 * i] = true;
        }
        for d in (256..511).rev() {
            if wide[d] {
                wide[d] = false;
                for i in (0..256).filter(|&i| bit(&P_LOW, i)) {
                    wide[d - 256 + i] ^= true;
                }
            }
        }
        let mut out = [0u64; 4];
        for i in (0..256).filter(|&i| wide[i]) {
            out[i / 64] |= 1 << (i % 64);
        }
        out
    };
    let mut x = [2u64, 0, 0, 0];
    for _ in 0..128 {
        x = square_mod(x);
    }
    assert_eq!(x, JUMP);
}
