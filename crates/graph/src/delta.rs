//! Topology deltas: validated, canonicalizing edge mutations.
//!
//! The HYBRID model of the paper assumes a frozen topology for the duration of
//! one execution, but a long-lived serving stack must survive topology *churn*
//! between executions. This module makes churn a first-class, validated event:
//! a [`DeltaBatch`] of [`GraphDelta`] operations is applied atomically through
//! [`Graph::apply_delta`], which either returns a new canonical [`Graph`] or a
//! structured [`DeltaError`] — never a panic and never a partially applied
//! batch.
//!
//! # Canonical form
//!
//! [`Graph::apply_delta`] rebuilds the post-delta graph from its edge set in
//! ascending `(u, v)` order. This makes the result a pure function of the
//! final edge *set*: any delta sequence reaching the same edges — in any
//! order, through any intermediate states, in one batch or many — produces a
//! bit-identical CSR, equal to a from-scratch
//! [`GraphBuilder`](crate::graph::GraphBuilder) construction of the sorted
//! final edge list (the canonicalization guarantee, pinned by a property
//! test). Downstream layers lean on this: epoch fingerprints hash
//! the ordered edge list, and incremental re-preparation must be bit-identical
//! to a cold re-prepare on the post-delta graph.

use std::fmt;

use crate::dist::{Distance, INFINITY};
use crate::graph::{Edge, Graph};
use crate::ids::NodeId;

/// One edge mutation of a [`DeltaBatch`]. Endpoints are unordered (the graph
/// is undirected); every operation validates against the graph state left by
/// the operations before it in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphDelta {
    /// Insert the (absent) undirected edge `{u, v}` with weight `w`.
    AddEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Weight in `[1, INFINITY)`.
        w: Distance,
    },
    /// Remove the (present) undirected edge `{u, v}`.
    RemoveEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Change the weight of the (present) undirected edge `{u, v}` to `w`.
    Reweight {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// New weight in `[1, INFINITY)`.
        w: Distance,
    },
}

impl GraphDelta {
    /// The two endpoints the operation touches.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            GraphDelta::AddEdge { u, v, .. }
            | GraphDelta::RemoveEdge { u, v }
            | GraphDelta::Reweight { u, v, .. } => (u, v),
        }
    }
}

impl fmt::Display for GraphDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphDelta::AddEdge { u, v, w } => write!(f, "+{}-{}:{}", u.index(), v.index(), w),
            GraphDelta::RemoveEdge { u, v } => write!(f, "-{}-{}", u.index(), v.index()),
            GraphDelta::Reweight { u, v, w } => write!(f, "~{}-{}:{}", u.index(), v.index(), w),
        }
    }
}

/// An ordered sequence of [`GraphDelta`] operations applied atomically:
/// either every operation validates (against the running intermediate state)
/// and the batch commits, or the first invalid operation's [`DeltaError`] is
/// returned and the graph is untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    ops: Vec<GraphDelta>,
}

impl DeltaBatch {
    /// An empty batch (applying it still canonicalizes the edge order).
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Appends an [`GraphDelta::AddEdge`] operation.
    pub fn add_edge(mut self, u: NodeId, v: NodeId, w: Distance) -> Self {
        self.ops.push(GraphDelta::AddEdge { u, v, w });
        self
    }

    /// Appends a [`GraphDelta::RemoveEdge`] operation.
    pub fn remove_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.ops.push(GraphDelta::RemoveEdge { u, v });
        self
    }

    /// Appends a [`GraphDelta::Reweight`] operation.
    pub fn reweight(mut self, u: NodeId, v: NodeId, w: Distance) -> Self {
        self.ops.push(GraphDelta::Reweight { u, v, w });
        self
    }

    /// Appends an arbitrary operation.
    pub fn push(&mut self, op: GraphDelta) {
        self.ops.push(op);
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[GraphDelta] {
        &self.ops
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Every endpoint touched by any operation, deduplicated and sorted —
    /// the seed set of downstream damage analysis.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .ops
            .iter()
            .flat_map(|op| {
                let (u, v) = op.endpoints();
                [u, v]
            })
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

impl FromIterator<GraphDelta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = GraphDelta>>(iter: I) -> Self {
        DeltaBatch { ops: iter.into_iter().collect() }
    }
}

/// Structured validation failure of a [`DeltaBatch`] (the batch's position in
/// application order is reported so callers can surface the offending op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint was `>= n` (dangling endpoint).
    NodeOutOfRange {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// The dangling node index.
        node: usize,
        /// The graph size.
        n: usize,
    },
    /// Both endpoints name the same node.
    SelfLoop {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// The node with the attempted self loop.
        node: usize,
    },
    /// An insert or reweight carried weight zero (weights live in `[1, W]`).
    ZeroWeight {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// An insert or reweight carried the [`INFINITY`] sentinel as a weight —
    /// distance arithmetic would silently absorb it.
    WeightOverflow {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// An [`GraphDelta::AddEdge`] targeted an edge that already exists (at
    /// the point in the batch where the op applies).
    DuplicateInsert {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A remove or reweight targeted an edge that does not exist (at the
    /// point in the batch where the op applies).
    MissingEdge {
        /// Zero-based index of the offending operation in the batch.
        op: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NodeOutOfRange { op, node, n } => {
                write!(f, "delta op {op}: node {node} out of range for graph on {n} nodes")
            }
            DeltaError::SelfLoop { op, node } => {
                write!(f, "delta op {op}: self loop at node {node}")
            }
            DeltaError::ZeroWeight { op, u, v } => {
                write!(f, "delta op {op}: edge ({u},{v}) given zero weight")
            }
            DeltaError::WeightOverflow { op, u, v } => {
                write!(f, "delta op {op}: edge ({u},{v}) given the infinity sentinel as weight")
            }
            DeltaError::DuplicateInsert { op, u, v } => {
                write!(f, "delta op {op}: edge ({u},{v}) already present")
            }
            DeltaError::MissingEdge { op, u, v } => {
                write!(f, "delta op {op}: edge ({u},{v}) not present")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Normalizes an endpoint pair to `(min, max)` raw order after validating
/// range, self-loops, and (for weighted ops) the weight domain.
fn check_op(
    op: usize,
    u: NodeId,
    v: NodeId,
    w: Option<Distance>,
    n: usize,
) -> Result<(u32, u32), DeltaError> {
    for node in [u, v] {
        if node.index() >= n {
            return Err(DeltaError::NodeOutOfRange { op, node: node.index(), n });
        }
    }
    if u == v {
        return Err(DeltaError::SelfLoop { op, node: u.index() });
    }
    if let Some(w) = w {
        if w == 0 {
            return Err(DeltaError::ZeroWeight { op, u: u.index(), v: v.index() });
        }
        if w == INFINITY {
            return Err(DeltaError::WeightOverflow { op, u: u.index(), v: v.index() });
        }
    }
    Ok(if u.raw() <= v.raw() { (u.raw(), v.raw()) } else { (v.raw(), u.raw()) })
}

impl Graph {
    /// Applies `batch` atomically and returns the post-delta graph in
    /// canonical form (edge list ascending by `(u, v)`, CSR rebuilt from that
    /// order).
    ///
    /// The result is a pure function of the final edge set: any delta
    /// sequence reaching the same edges yields a bit-identical graph, equal
    /// to a from-scratch [`GraphBuilder`](crate::graph::GraphBuilder)
    /// construction of the sorted final edge list.
    ///
    /// # Errors
    ///
    /// Returns the first failing operation's [`DeltaError`] (dangling
    /// endpoint, self loop, zero/overflow weight, duplicate insert, missing
    /// edge); the receiver is untouched on error.
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<Graph, DeltaError> {
        let n = self.len();
        // A flat sorted vector beats a tree map here: the edge set is read
        // once, mutated a handful of times (batches are small), and drained
        // in order — and graphs in canonical form skip the sort entirely,
        // which keeps the serving layer's UPDATE path and the repair
        // benchmark's delta application cheap.
        let mut edges: Vec<((u32, u32), Distance)> =
            self.edges().iter().map(|e| ((e.u.raw(), e.v.raw()), e.w)).collect();
        if !edges.windows(2).all(|w| w[0].0 < w[1].0) {
            edges.sort_unstable_by_key(|&(k, _)| k);
        }
        for (i, op) in batch.ops().iter().enumerate() {
            match *op {
                GraphDelta::AddEdge { u, v, w } => {
                    let key = check_op(i, u, v, Some(w), n)?;
                    match edges.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(_) => {
                            return Err(DeltaError::DuplicateInsert {
                                op: i,
                                u: u.index(),
                                v: v.index(),
                            });
                        }
                        Err(pos) => edges.insert(pos, (key, w)),
                    }
                }
                GraphDelta::RemoveEdge { u, v } => {
                    let key = check_op(i, u, v, None, n)?;
                    match edges.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(pos) => {
                            edges.remove(pos);
                        }
                        Err(_) => {
                            return Err(DeltaError::MissingEdge {
                                op: i,
                                u: u.index(),
                                v: v.index(),
                            });
                        }
                    }
                }
                GraphDelta::Reweight { u, v, w } => {
                    let key = check_op(i, u, v, Some(w), n)?;
                    match edges.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(pos) => edges[pos].1 = w,
                        Err(_) => {
                            return Err(DeltaError::MissingEdge {
                                op: i,
                                u: u.index(),
                                v: v.index(),
                            })
                        }
                    }
                }
            }
        }
        let final_edges: Vec<Edge> = edges
            .into_iter()
            .map(|((u, v), w)| Edge { u: NodeId::new(u as usize), v: NodeId::new(v as usize), w })
            .collect();
        // The sorted edge list is the canonical form `apply_delta` commits
        // to; every op was checked above and the keys stay strictly
        // increasing, so it needs no second validation pass.
        Ok(Graph::from_valid_edges(n, final_edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A 4-node graph inserted in deliberately non-canonical order.
    fn scrambled() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(node(2), node(3), 7).unwrap();
        b.add_edge(node(0), node(1), 1).unwrap();
        b.add_edge(node(1), node(3), 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn add_remove_reweight_roundtrip() {
        let g = scrambled();
        let batch = DeltaBatch::new()
            .add_edge(node(0), node(2), 3)
            .reweight(node(1), node(0), 9)
            .remove_edge(node(3), node(2));
        let g2 = g.apply_delta(&batch).unwrap();
        assert_eq!(g2.len(), 4);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.edge_weight(node(0), node(1)), Some(9));
        assert_eq!(g2.edge_weight(node(0), node(2)), Some(3));
        assert_eq!(g2.edge_weight(node(1), node(3)), Some(4));
        assert_eq!(g2.edge_weight(node(2), node(3)), None);
        // Untouched receiver.
        assert_eq!(g.edge_weight(node(2), node(3)), Some(7));
    }

    #[test]
    fn canonical_order_is_sorted() {
        let g = scrambled().apply_delta(&DeltaBatch::new()).unwrap();
        let pairs: Vec<(usize, usize)> =
            g.edges().iter().map(|e| (e.u.index(), e.v.index())).collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn batch_is_atomic_on_error() {
        let g = scrambled();
        let batch = DeltaBatch::new().add_edge(node(0), node(2), 3).add_edge(node(0), node(1), 5); // duplicate insert -> whole batch rejected
        assert_eq!(g.apply_delta(&batch), Err(DeltaError::DuplicateInsert { op: 1, u: 0, v: 1 }));
        assert_eq!(g.edge_weight(node(0), node(2)), None, "no partial application");
    }

    #[test]
    fn validates_structurally() {
        let g = scrambled();
        let cases: Vec<(DeltaBatch, DeltaError)> = vec![
            (
                DeltaBatch::new().add_edge(node(0), node(4), 1),
                DeltaError::NodeOutOfRange { op: 0, node: 4, n: 4 },
            ),
            (
                DeltaBatch::new().remove_edge(node(9), node(0)),
                DeltaError::NodeOutOfRange { op: 0, node: 9, n: 4 },
            ),
            (
                DeltaBatch::new().add_edge(node(2), node(2), 1),
                DeltaError::SelfLoop { op: 0, node: 2 },
            ),
            (
                DeltaBatch::new().add_edge(node(0), node(2), 0),
                DeltaError::ZeroWeight { op: 0, u: 0, v: 2 },
            ),
            (
                DeltaBatch::new().reweight(node(0), node(1), 0),
                DeltaError::ZeroWeight { op: 0, u: 0, v: 1 },
            ),
            (
                DeltaBatch::new().add_edge(node(0), node(2), INFINITY),
                DeltaError::WeightOverflow { op: 0, u: 0, v: 2 },
            ),
            (
                DeltaBatch::new().reweight(node(0), node(2), 5),
                DeltaError::MissingEdge { op: 0, u: 0, v: 2 },
            ),
            (
                DeltaBatch::new().remove_edge(node(0), node(2)),
                DeltaError::MissingEdge { op: 0, u: 0, v: 2 },
            ),
        ];
        for (batch, want) in cases {
            assert_eq!(g.apply_delta(&batch), Err(want));
        }
    }

    #[test]
    fn intra_batch_state_is_visible() {
        // Remove then re-add the same edge in one batch: legal, and the
        // re-added weight wins.
        let g = scrambled();
        let batch = DeltaBatch::new()
            .remove_edge(node(0), node(1))
            .add_edge(node(0), node(1), 42)
            .reweight(node(0), node(1), 43);
        let g2 = g.apply_delta(&batch).unwrap();
        assert_eq!(g2.edge_weight(node(0), node(1)), Some(43));
    }

    #[test]
    fn endpoint_order_is_irrelevant() {
        let g = scrambled();
        let a = g.apply_delta(&DeltaBatch::new().add_edge(node(0), node(3), 2)).unwrap();
        let b = g.apply_delta(&DeltaBatch::new().add_edge(node(3), node(0), 2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_equals_from_scratch_construction() {
        let g = scrambled();
        let b1 = DeltaBatch::new().add_edge(node(0), node(2), 3).remove_edge(node(1), node(3));
        let b2 = DeltaBatch::new().reweight(node(2), node(3), 1).add_edge(node(1), node(3), 8);
        let stepped = g.apply_delta(&b1).unwrap().apply_delta(&b2).unwrap();
        // From-scratch: the final edge set, built sorted.
        let mut fresh = GraphBuilder::new(4);
        fresh.add_edge(node(0), node(1), 1).unwrap();
        fresh.add_edge(node(0), node(2), 3).unwrap();
        fresh.add_edge(node(1), node(3), 8).unwrap();
        fresh.add_edge(node(2), node(3), 1).unwrap();
        assert_eq!(stepped, fresh.build().unwrap());
    }

    #[test]
    fn touched_nodes_dedup_sorted() {
        let batch = DeltaBatch::new()
            .add_edge(node(3), node(1), 2)
            .remove_edge(node(1), node(0))
            .reweight(node(3), node(2), 4);
        let touched: Vec<usize> = batch.touched_nodes().iter().map(|v| v.index()).collect();
        assert_eq!(touched, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(GraphDelta::AddEdge { u: node(1), v: node(2), w: 5 }.to_string(), "+1-2:5");
        assert_eq!(GraphDelta::RemoveEdge { u: node(3), v: node(4) }.to_string(), "-3-4");
        assert_eq!(GraphDelta::Reweight { u: node(0), v: node(9), w: 7 }.to_string(), "~0-9:7");
        let e = DeltaError::WeightOverflow { op: 2, u: 1, v: 3 };
        assert!(e.to_string().contains("infinity sentinel"));
    }
}
