//! Geometric (unit-disk) radio networks.
//!
//! The paper's motivating scenario is a set of deployed transmitting devices
//! whose positions and ranges only a central monitor knows. The standard
//! abstraction for that setting is the **unit-disk graph**: nodes are points
//! in the unit square and two nodes are joined iff they are within the
//! transmission radius of each other. This generator provides that workload
//! (with a connectivity repair identical in spirit to the one used for
//! G(n, p)), so the experiment suite can run on "deployment-shaped" networks
//! and not just combinatorial families.

use crate::algorithms::connectivity::{connecting_edges, is_connected};
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use rand::Rng;
use rand::SeedableRng;

/// A generated unit-disk instance: the graph plus the node positions that
/// induced it (useful for plotting and for range-based experiments).
#[derive(Debug, Clone)]
pub struct UnitDiskInstance {
    /// The connected unit-disk graph.
    pub graph: Graph,
    /// Node positions in the unit square, indexed by node id.
    pub positions: Vec<(f64, f64)>,
    /// The transmission radius used.
    pub radius: f64,
    /// Number of repair edges added to make the graph connected (0 when the
    /// random instance was already connected).
    pub repair_edges: usize,
}

/// Generates a connected unit-disk graph on `n` nodes: positions are sampled
/// uniformly in the unit square, nodes within distance `radius` are joined,
/// and if the result is disconnected the components are linked by one repair
/// edge each (count reported in the instance).
///
/// Candidate pairs come from a grid of cells of side at least `radius`:
/// each point is tested only against the later points of its own and the
/// eight adjacent cells, `O(n + m)` expected work for uniform points. The
/// distance test is the all-pairs one, so the graph is identical.
///
/// Returns an error if `n == 0` or `radius` is not in `(0, √2]`.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Result<UnitDiskInstance, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "unit_disk requires n >= 1".into(),
        });
    }
    if !(radius > 0.0 && radius <= std::f64::consts::SQRT_2) || radius.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!("unit_disk requires radius in (0, sqrt(2)], got {radius}"),
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    // Bucket the points into a k × k grid of cells no narrower than the
    // radius, so every pair within reach lies in the same or adjacent
    // cells. The 1e-9 margin keeps a cell wider than the radius by far
    // more than the rounding of `x * k` or of the distance test; k is
    // capped near √n, past which cells would be mostly empty.
    let k = ((1.0 - 1e-9) / radius)
        .floor()
        .clamp(1.0, (n as f64).sqrt().ceil() + 1.0) as usize;
    let cell_of = |x: f64| ((x * k as f64) as usize).min(k - 1);
    let cell = |(x, y): (f64, f64)| cell_of(y) * k + cell_of(x);
    // Counting sort by cell: `members[start[c]..start[c + 1]]` are the
    // points of cell c, in increasing id order.
    let mut start = vec![0usize; k * k + 1];
    for &p in &positions {
        start[cell(p) + 1] += 1;
    }
    for c in 0..k * k {
        start[c + 1] += start[c];
    }
    let mut members = vec![0usize; n];
    let mut fill = start.clone();
    for (i, &p) in positions.iter().enumerate() {
        members[fill[cell(p)]] = i;
        fill[cell(p)] += 1;
    }

    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for i in 0..n {
        let (cx, cy) = (cell_of(positions[i].0), cell_of(positions[i].1));
        for y in cy.saturating_sub(1)..=(cy + 1).min(k - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(k - 1) {
                let c = y * k + x;
                for &j in members[start[c]..start[c + 1]].iter().filter(|&&j| j > i) {
                    let dx = positions[i].0 - positions[j].0;
                    let dy = positions[i].1 - positions[j].1;
                    if dx * dx + dy * dy <= r2 {
                        b.add_edge(i, j).expect("fresh pair");
                    }
                }
            }
        }
    }
    // Rows are sorted on build, so the graph is the one the all-pairs test
    // (every i < j in order) gives.
    let g = b.try_build()?;
    let (graph, repair_edges) = if is_connected(&g) {
        (g, 0)
    } else {
        let extra = connecting_edges(&g);
        let count = extra.len();
        (g.with_extra_edges(&extra)?, count)
    };
    Ok(UnitDiskInstance {
        graph,
        positions,
        radius,
        repair_edges,
    })
}

/// Convenience wrapper returning only the graph, with a radius chosen so the
/// expected degree is around `target_degree` (`r ≈ sqrt(target/(π n))`,
/// clamped to a sensible range).
pub fn unit_disk_with_degree(n: usize, target_degree: f64, seed: u64) -> Result<Graph, GraphError> {
    if target_degree <= 0.0 || target_degree.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "unit_disk_with_degree requires a positive target degree, got {target_degree}"
            ),
        });
    }
    let radius = (target_degree / (std::f64::consts::PI * n.max(1) as f64))
        .sqrt()
        .clamp(0.01, std::f64::consts::SQRT_2);
    Ok(unit_disk(n, radius, seed)?.graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;

    #[test]
    fn instances_are_connected_simple_graphs() {
        for seed in 0..6 {
            for &radius in &[0.15, 0.3, 0.6] {
                let inst = unit_disk(40, radius, seed).unwrap();
                assert_eq!(inst.graph.node_count(), 40);
                assert_eq!(inst.positions.len(), 40);
                assert!(algorithms::is_connected(&inst.graph));
            }
        }
    }

    #[test]
    fn larger_radius_gives_denser_graphs() {
        let sparse = unit_disk(60, 0.15, 3).unwrap();
        let dense = unit_disk(60, 0.5, 3).unwrap();
        assert!(dense.graph.edge_count() > sparse.graph.edge_count());
    }

    #[test]
    fn full_radius_is_complete() {
        let inst = unit_disk(12, std::f64::consts::SQRT_2, 1).unwrap();
        assert_eq!(inst.graph.edge_count(), 12 * 11 / 2);
        assert_eq!(inst.repair_edges, 0);
    }

    #[test]
    fn tiny_radius_relies_on_repair_edges() {
        let inst = unit_disk(30, 0.01, 5).unwrap();
        assert!(algorithms::is_connected(&inst.graph));
        assert!(inst.repair_edges > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = unit_disk(25, 0.3, 9).unwrap();
        let b = unit_disk(25, 0.3, 9).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(unit_disk(0, 0.3, 0).is_err());
        assert!(unit_disk(10, 0.0, 0).is_err());
        assert!(unit_disk(10, 2.0, 0).is_err());
        assert!(unit_disk(10, f64::NAN, 0).is_err());
        assert!(unit_disk_with_degree(10, 0.0, 0).is_err());
    }

    #[test]
    fn degree_targeting_is_roughly_right() {
        let g = unit_disk_with_degree(200, 8.0, 4).unwrap();
        let avg = g.average_degree();
        assert!(avg > 3.0 && avg < 16.0, "average degree {avg}");
    }

    #[test]
    fn edges_respect_the_radius() {
        let inst = unit_disk(50, 0.25, 7).unwrap();
        let repaired = inst.repair_edges;
        let mut too_long = 0usize;
        for (u, v) in inst.graph.edges() {
            let dx = inst.positions[u].0 - inst.positions[v].0;
            let dy = inst.positions[u].1 - inst.positions[v].1;
            if (dx * dx + dy * dy).sqrt() > inst.radius + 1e-12 {
                too_long += 1;
            }
        }
        // Only repair edges may exceed the radius.
        assert!(too_long <= repaired);
    }
}
