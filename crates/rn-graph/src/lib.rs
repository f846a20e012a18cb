//! # rn-graph
//!
//! Undirected simple graph substrate for the radio-broadcast labeling
//! reproduction.
//!
//! The paper "Constant-Length Labeling Schemes for Deterministic Radio
//! Broadcast" (Ellen, Gorain, Miller, Pelc; SPAA 2019) models radio networks
//! as simple undirected connected graphs. This crate provides:
//!
//! * a compact adjacency-list [`Graph`] type with a builder and validation,
//! * a large family of graph [`generators`] used as workloads by the
//!   experiment harness (paths, cycles, grids, hypercubes, random trees,
//!   connected G(n,p), series-parallel graphs, ...),
//! * the graph [`algorithms`] the labeling schemes need: BFS layerings,
//!   eccentricities, dominating-set minimisation, greedy colourings of the
//!   square of a graph, connectivity and structure recognition,
//! * the workspace's one [`parallel`] executor and thread policy, shared
//!   by the random generators, the simulator's batches and the sweeps.
//!
//! All algorithms are deterministic (random generators take explicit seeds)
//! so every experiment in the repository is exactly reproducible.
//!
//! ## Quick example
//!
//! ```
//! use rn_graph::{generators, algorithms};
//!
//! let g = generators::cycle(6);
//! assert_eq!(g.node_count(), 6);
//! assert_eq!(g.edge_count(), 6);
//! assert!(algorithms::is_connected(&g));
//! let dist = algorithms::bfs_distances(&g, 0);
//! assert_eq!(dist[3], Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod dot;
pub mod enumerate;
pub mod error;
pub mod generators;
pub mod graph;
pub mod parallel;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};
