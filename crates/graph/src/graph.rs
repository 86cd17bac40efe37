//! The local communication graph `G = (V, E)`.
//!
//! Graphs are undirected and weighted (`w : E → [W]`, §1.3 of the paper). The
//! representation is a compact CSR adjacency structure, built once through
//! [`GraphBuilder`] and immutable afterwards — the HYBRID model's topology does not
//! change during an execution, and the simulator shares one [`Graph`] across all
//! per-node state.

use std::fmt;

use crate::dist::Distance;
use crate::ids::NodeId;

/// Errors raised while constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The graph size.
        n: usize,
    },
    /// Self loops are not allowed in the model.
    SelfLoop {
        /// The node with the attempted self loop.
        node: usize,
    },
    /// Edge weights must lie in `[1, W]` for some `W ≥ 1`; zero encodes nothing.
    ZeroWeight {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// The same undirected edge was added twice (possibly with different weights).
    DuplicateEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A graph on zero nodes cannot be built.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for graph on {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::ZeroWeight { u, v } => write!(f, "edge ({u},{v}) has zero weight"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u},{v})"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected edge of the local graph, as stored in [`Graph::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Weight in `[1, W]`.
    pub w: Distance,
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use hybrid_graph::{GraphBuilder, NodeId};
/// # fn main() -> Result<(), hybrid_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1), 1)?;
/// b.add_edge(NodeId::new(1), NodeId::new(2), 4)?;
/// let g = b.build()?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes with IDs `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new(), seen: std::collections::HashSet::new() }
    }

    /// Number of nodes the graph will have.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the builder targets a zero-node graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `u == v`, `w == 0`, or the
    /// edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Distance) -> Result<(), GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u.index(), n: self.n });
        }
        if v.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v.index(), n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.index() });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u: u.index(), v: v.index() });
        }
        let key = if u.raw() <= v.raw() { (u.raw(), v.raw()) } else { (v.raw(), u.raw()) };
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { u: u.index(), v: v.index() });
        }
        let (a, b) = if u.raw() <= v.raw() { (u, v) } else { (v, u) };
        self.edges.push(Edge { u: a, v: b, w });
        Ok(())
    }

    /// Adds `{u, v}` only if it is not present yet; returns whether it was added.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`] except that duplicates are reported as
    /// `Ok(false)` instead of an error.
    pub fn add_edge_if_absent(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: Distance,
    ) -> Result<bool, GraphError> {
        match self.add_edge(u, v, w) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Returns whether the undirected edge `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u.raw() <= v.raw() { (u.raw(), v.raw()) } else { (v.raw(), u.raw()) };
        self.seen.contains(&key)
    }

    /// Finalizes the CSR structure.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for `n == 0`.
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        Ok(Graph::from_valid_edges(self.n, self.edges))
    }
}

/// An immutable, undirected, weighted graph in CSR form.
///
/// This is the local communication topology `G` of the HYBRID model. All reference
/// algorithms and the simulator operate on shared references to it.
///
/// Equality is *structural and order-sensitive*: two graphs compare equal only
/// if their edge lists (and hence CSR layouts) match entry for entry — the
/// bit-identity notion the delta canonicalization guarantee is stated in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Distance>,
    edges: Vec<Edge>,
    max_weight: Distance,
}

impl Graph {
    /// The CSR construction behind [`GraphBuilder::build`], for an edge list
    /// that already holds what [`GraphBuilder::add_edge`] checks: `n ≥ 1`,
    /// endpoints in range with the smaller one first, no self-loops or zero
    /// weights, and each undirected edge once.
    pub(crate) fn from_valid_edges(n: usize, edges: Vec<Edge>) -> Graph {
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.u.index()] += 1;
            degree[e.v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for d in &degree {
            let last = *offsets.last().expect("offsets non-empty");
            offsets.push(last + d);
        }
        let m2 = offsets[n];
        let mut targets = vec![NodeId::new(0); m2];
        let mut weights = vec![0u64; m2];
        let mut cursor = offsets.clone();
        for e in &edges {
            let cu = cursor[e.u.index()];
            targets[cu] = e.v;
            weights[cu] = e.w;
            cursor[e.u.index()] += 1;
            let cv = cursor[e.v.index()];
            targets[cv] = e.u;
            weights[cv] = e.w;
            cursor[e.v.index()] += 1;
        }
        let max_weight = edges.iter().map(|e| e.w).max().unwrap_or(1);
        Graph { n, offsets, targets, weights, edges, max_weight }
    }

    /// Number of nodes `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has zero nodes (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Largest edge weight `W` (1 for an edgeless graph).
    pub fn max_weight(&self) -> Distance {
        self.max_weight
    }

    /// Whether the graph is unweighted in the paper's sense (`W = 1`).
    pub fn is_unweighted(&self) -> bool {
        self.max_weight == 1
    }

    /// The undirected edge list (each edge once, `u < v`).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Approximate heap footprint of the CSR structure in bytes (lengths, not
    /// capacities) — the sizing input for byte-budgeted caches.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<usize>()
            + self.targets.len() * size_of::<NodeId>()
            + self.weights.len() * size_of::<Distance>()
            + self.edges.len() * size_of::<Edge>()
    }

    /// Iterates over `(neighbor, weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let lo = self.offsets[v.index()];
        let hi = self.offsets[v.index() + 1];
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Degree of `v` in `G`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|i| self.offsets[i + 1] - self.offsets[i]).max().unwrap_or(0)
    }

    /// All node IDs `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        crate::ids::node_ids(self.n)
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).any(|(x, _)| x == v)
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        self.neighbors(u).find(|&(x, _)| x == v).map(|(_, w)| w)
    }

    /// Whether `G` is connected (the paper assumes a connected local graph).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// `⌈log2 n⌉`, the paper's ubiquitous `⌈log n⌉` (at least 1).
    pub fn log2_ceil(&self) -> usize {
        log2_ceil(self.n)
    }
}

/// `⌈log2 x⌉` for `x ≥ 1`, clamped to at least 1 (the paper's message-count budget
/// `O(log n)` never degenerates to zero).
pub fn log2_ceil(x: usize) -> usize {
    if x <= 2 {
        1
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 2).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(0), 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_csr() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.max_weight(), 3);
        assert!(!g.is_unweighted());
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for e in g.edges() {
            assert_eq!(g.edge_weight(e.u, e.v), Some(e.w));
            assert_eq!(g.edge_weight(e.v, e.u), Some(e.w));
        }
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId::new(1), NodeId::new(1), 1),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId::new(0), NodeId::new(1), 0),
            Err(GraphError::ZeroWeight { u: 0, v: 1 })
        );
    }

    #[test]
    fn rejects_duplicate_in_either_direction() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        assert_eq!(
            b.add_edge(NodeId::new(1), NodeId::new(0), 5),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        assert!(!b.add_edge_if_absent(NodeId::new(0), NodeId::new(1), 1).unwrap());
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId::new(0), NodeId::new(2), 1),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        assert!(!b.build().unwrap().is_connected());
    }

    #[test]
    fn isolated_node_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_weight(), 1);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn error_display() {
        let e = GraphError::DuplicateEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("duplicate"));
    }
}
