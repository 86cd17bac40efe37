//! Graph substrate for the reproduction of Kuhn & Schneider,
//! *Computing Shortest Paths and Diameter in the Hybrid Network Model* (PODC 2020).
//!
//! This crate contains everything the distributed algorithms of the paper need to
//! stand on, but nothing about the communication model itself:
//!
//! * [`Graph`] — a weighted, undirected, connected-checkable graph in CSR form,
//!   built through [`GraphBuilder`].
//! * [`generators`] — workload graph families (paths, cycles, grids, trees,
//!   Erdős–Rényi, random geometric, caterpillars, barbells, …).
//! * Reference (sequential) algorithms used as ground truth by the test- and
//!   benchmark-suites: [`dijkstra`], [`bfs`], [`limited`] (the paper's `h`-limited
//!   distances `d_h`), [`apsp`].
//! * [`skeleton`] — skeleton graphs à la Appendix C of the paper (and originally
//!   Ullman & Yannakakis), with the sampling lemmas' invariants exposed for testing.
//! * [`minplus`] — the shared blocked min-plus kernel (cache-tiled, branch-free,
//!   thread-parallel row driver) behind the skeleton merges, the CLIQUE semiring
//!   squaring, and eccentricity assembly.
//! * [`lower_bounds`] — the two worst-case constructions of the paper:
//!   the k-SSP path construction (Figure 1) and the set-disjointness diameter
//!   construction `Γ^{a,b}_{k,ℓ,W}` (Figure 2).
//! * [`workers`] — the one thread budget of the workspace's parallel drivers.
//!
//! # Example
//!
//! ```
//! use hybrid_graph::{GraphBuilder, NodeId};
//! use hybrid_graph::dijkstra::dijkstra;
//!
//! # fn main() -> Result<(), hybrid_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId::new(0), NodeId::new(1), 2)?;
//! b.add_edge(NodeId::new(1), NodeId::new(2), 3)?;
//! b.add_edge(NodeId::new(0), NodeId::new(3), 1)?;
//! b.add_edge(NodeId::new(3), NodeId::new(2), 1)?;
//! let g = b.build()?;
//! let d = dijkstra(&g, NodeId::new(0));
//! assert_eq!(d.dist(NodeId::new(2)), 2); // 0 -3-> 2 with weight 1+1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod apsp;
pub mod bfs;
pub mod delta;
pub mod dijkstra;
pub mod dist;
pub mod export;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod limited;
pub mod lower_bounds;
pub mod minplus;
pub mod skeleton;

pub use delta::{DeltaBatch, DeltaError, GraphDelta};
pub use dist::{dist_add, Distance, INFINITY};
pub use graph::{Graph, GraphBuilder, GraphError};
pub use ids::NodeId;

/// Worker threads for `jobs` independent jobs: the host's available
/// parallelism, capped by `jobs`, and at least 1. It sizes every parallel
/// driver in the workspace — the Dijkstra rows, the min-plus kernel, session
/// batches and the scenario runner — and no variable overrides it; results
/// never depend on it.
///
/// The host's parallelism is read once per process: each
/// `available_parallelism` call reads the affinity mask and cgroup quota
/// files (12–17 µs on a 2-vCPU VM), which would otherwise be paid per
/// kernel call. A process that restricts its CPU affinity must do so before
/// the first call.
///
/// ```
/// use hybrid_graph::workers;
///
/// assert_eq!(workers(0), 1); // an empty batch still runs on its caller
/// assert_eq!(workers(1), 1);
/// assert!((1..=4).contains(&workers(4)));
/// ```
pub fn workers(jobs: usize) -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let host = *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    host.min(jobs).max(1)
}
