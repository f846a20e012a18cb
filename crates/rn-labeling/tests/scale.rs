//! Scale gate for the §2.1 construction: λ on a million-node path.
//!
//! On a path from an endpoint the construction has ℓ = n stages, so any
//! per-stage `Θ(n)` work or storage turns into `Θ(n²)` — hours of CPU and
//! terabytes at this size. The test is `#[ignore]`d because it needs a
//! release build to mean anything; run it with
//! `cargo test --release -p rn-labeling -- --ignored`.

use rn_graph::generators;
use rn_labeling::lambda;
use std::time::Instant;

/// The process's peak resident set size in MB (`VmHWM` in
/// `/proc/self/status`), or `None` where procfs is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "release-mode scale gate: cargo test --release -p rn-labeling -- --ignored"]
fn lambda_on_a_million_node_path_stays_within_two_seconds_and_200_mb() {
    const N: usize = 1_000_000;
    let g = generators::path(N);

    let start = Instant::now();
    let scheme = lambda::construct(&g, 0).unwrap();
    let secs = start.elapsed().as_secs_f64();

    let peak = peak_rss_mb();
    eprintln!("λ on path({N}): {secs:.2} s, peak RSS {peak:?} MB");
    assert_eq!(scheme.construction().ell(), N);
    assert_eq!(scheme.labeling().node_count(), N);
    assert!(secs <= 2.0, "λ on path({N}) took {secs:.2} s (limit 2 s)");
    if let Some(mb) = peak {
        assert!(mb <= 200.0, "peak RSS {mb:.0} MB (limit 200 MB)");
    }
}
