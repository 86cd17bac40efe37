//! Skeleton graphs (Appendix C of the paper, originally Ullman & Yannakakis).
//!
//! A skeleton `S = (V_S, E_S)` is built on a random node sample `V_S ⊆ V`
//! (each node sampled with probability `1/x`); two skeleton nodes are adjacent iff
//! their hop distance is at most `h := ξ x ln n`, and the edge weight is the
//! `h`-limited distance `d_h(u, v)`.
//!
//! Key properties (Lemmas C.1 / C.2), exposed here as checkable predicates:
//! * on every shortest path, some sampled node appears at least every `h` hops
//!   (w.h.p.), so
//! * `S` is connected and **distance preserving**: `d_S(u,v) = d_G(u,v)` for all
//!   skeleton pairs (w.h.p.).

use rand::Rng;

use crate::apsp::{apsp, DistanceMatrix};
use crate::dijkstra::dijkstra_lex;
use crate::dist::{Distance, INFINITY};
use crate::graph::{Edge, Graph, GraphError};
use crate::ids::NodeId;
use crate::limited::hop_limited_distances;

/// Parameters of skeleton construction.
///
/// The paper sets `h = ξ x ln n` with `ξ ≥ 8c` for the w.h.p. guarantee
/// (Lemma C.1). The constant is configurable because at simulable `n` the
/// paper-faithful `ξ` makes `h` exceed the graph diameter; experiments document the
/// value they use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonParams {
    /// Sampling is with probability `1/x`.
    pub x: f64,
    /// The `ξ` constant in `h = ξ x ln n`.
    pub xi: f64,
}

impl SkeletonParams {
    /// Paper-faithful defaults (`ξ = 8`, i.e. `c = 1` in Lemma C.1).
    pub fn paper(x: f64) -> Self {
        SkeletonParams { x, xi: 8.0 }
    }

    /// Test-scale parameters with a small `ξ`.
    pub fn scaled(x: f64, xi: f64) -> Self {
        SkeletonParams { x, xi }
    }

    /// The maximum hop length `h` of a skeleton edge for a graph on `n` nodes.
    pub fn h(&self, n: usize) -> usize {
        let h = (self.xi * self.x * (n.max(2) as f64).ln()).ceil() as usize;
        h.max(1)
    }

    /// The node sampling probability `1/x`, clamped into `(0, 1]`.
    pub fn sampling_probability(&self) -> f64 {
        (1.0 / self.x).clamp(0.0, 1.0)
    }
}

/// Sentinel of the flat global→local index: the node was not sampled.
const NOT_SAMPLED: u32 = u32::MAX;

/// A constructed skeleton graph, with the bookkeeping the paper's algorithms need.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// The sampled nodes (sorted by ID). Index into this vector = skeleton-local ID.
    nodes: Vec<NodeId>,
    /// Maps a global node to its skeleton-local index — a flat array over the
    /// dense ID space (`NOT_SAMPLED` for unsampled nodes), 4 bytes per node
    /// instead of a hash map entry.
    index: Vec<u32>,
    /// Hop budget `h` of skeleton edges.
    h: usize,
    /// The skeleton graph over local indices `0..|V_S|`.
    graph: Graph,
    /// `d_h(s, v)` for every skeleton node `s` (one row of `gn` entries per
    /// skeleton-local index, row-major) and every `v ∈ V`. This is the
    /// local-exploration knowledge of the paper's algorithms: node `v` knows
    /// `d_h(v, s)` for every skeleton node within `h` hops, which by symmetry
    /// is exactly these rows. Stored flat so it can feed the min-plus kernel
    /// ([`crate::minplus`]) without copying.
    dh: Vec<Distance>,
    /// Row stride of `dh` (= number of nodes of the underlying graph).
    gn: usize,
}

impl Skeleton {
    /// Samples `V_S` with probability `params.sampling_probability()` and builds the
    /// skeleton. `forced` nodes (e.g. the single source of Theorem 1.3 / Lemma 4.5)
    /// are always included. At least one node is always sampled.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from skeleton-graph construction (cannot happen for
    /// valid inputs).
    pub fn build<R: Rng + ?Sized>(
        g: &Graph,
        params: SkeletonParams,
        forced: &[NodeId],
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        let p = params.sampling_probability();
        let mut picked: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(p)).collect();
        picked.extend_from_slice(forced);
        if picked.is_empty() {
            picked.push(NodeId::new(rng.gen_range(0..g.len())));
        }
        picked.sort_unstable();
        picked.dedup();
        Self::from_nodes(g, picked, params.h(g.len()))
    }

    /// Builds the skeleton over an explicit node set with hop budget `h`.
    ///
    /// # Errors
    ///
    /// None: the skeleton graph is valid by construction.
    pub fn from_nodes(g: &Graph, nodes: Vec<NodeId>, h: usize) -> Result<Self, GraphError> {
        assert!(!nodes.is_empty(), "skeleton needs at least one node");
        let mut index = vec![NOT_SAMPLED; g.len()];
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(index[v.index()], NOT_SAMPLED, "skeleton nodes must be distinct");
            index[v.index()] = i as u32;
        }
        let gn = g.len();
        let mut dh = Vec::with_capacity(nodes.len() * gn);
        for &s in &nodes {
            dh.extend_from_slice(&hop_limited_distances(g, s, h));
        }
        let graph = skeleton_graph(&nodes, &dh, gn);
        Ok(Skeleton { nodes, index, h, graph, dh, gn })
    }

    /// The sampled global node IDs, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of skeleton nodes `|V_S|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the skeleton is empty (never true for a built skeleton).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Hop budget `h` of skeleton edges.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Approximate heap footprint in bytes: the sampled node list, the dense
    /// global→local index, the `d_h` table, and the skeleton graph itself.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<NodeId>()
            + self.index.len() * size_of::<u32>()
            + self.dh.len() * size_of::<Distance>()
            + self.graph.approx_heap_bytes()
    }

    /// The skeleton graph (over local indices).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Skeleton-local index of a global node, if sampled.
    pub fn local_index(&self, v: NodeId) -> Option<usize> {
        match self.index[v.index()] {
            NOT_SAMPLED => None,
            i => Some(i as usize),
        }
    }

    /// Global node of a skeleton-local index.
    pub fn global(&self, local: usize) -> NodeId {
        self.nodes[local]
    }

    /// Whether `v` was sampled into the skeleton.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index[v.index()] != NOT_SAMPLED
    }

    /// `d_h(s, v)` for skeleton node with local index `s_local` and any `v ∈ V`.
    pub fn dh(&self, s_local: usize, v: NodeId) -> Distance {
        self.dh[s_local * self.gn + v.index()]
    }

    /// Full `d_h(s, ·)` row of a skeleton node.
    pub fn dh_row(&self, s_local: usize) -> &[Distance] {
        &self.dh[s_local * self.gn..(s_local + 1) * self.gn]
    }

    /// The whole `d_h` table as a flat row-major `|V_S| × n` matrix — the
    /// right operand of the skeleton-label min-plus products.
    pub fn dh_flat(&self) -> &[Distance] {
        &self.dh
    }

    /// For a global node `v`: all skeleton nodes within `h` hops, as
    /// `(local_index, d_h(v, s))` pairs (symmetry of undirected `d_h`).
    pub fn skeletons_near(&self, v: NodeId) -> Vec<(usize, Distance)> {
        (0..self.nodes.len())
            .filter_map(|i| {
                let d = self.dh[i * self.gn + v.index()];
                (d != INFINITY).then_some((i, d))
            })
            .collect()
    }

    /// Exact APSP on the skeleton graph (the ground truth for CLIQUE-algorithm
    /// plugins; `d_S = d_G` w.h.p. by Lemma C.2).
    pub fn apsp(&self) -> DistanceMatrix {
        apsp(&self.graph)
    }

    /// Rebuilds this skeleton against a post-delta graph `g` (same node
    /// count, same sampled set, same hop budget), recomputing only the `d_h`
    /// rows of skeleton nodes flagged `dirty` — the incremental-repair
    /// primitive of the churn stack. Returns the repaired skeleton and the
    /// number of rows recomputed.
    ///
    /// Soundness is the caller's damage analysis: a `d_h(s, ·)` row depends
    /// only on `s`'s `h`-hop ball, so the result is bit-identical to
    /// [`Skeleton::from_nodes`]`(g, nodes, h)` provided `dirty` covers every
    /// skeleton node within `h` hops of an edited edge endpoint (in the old
    /// *or* new graph).
    ///
    /// # Errors
    ///
    /// None: the skeleton graph is valid by construction.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different node count than the graph this skeleton
    /// was built on, or if `dirty` is not `n` entries long.
    pub fn repair(&self, g: &Graph, dirty: &[bool]) -> Result<(Skeleton, usize), GraphError> {
        assert_eq!(g.len(), self.gn, "repair requires an unchanged node set");
        assert_eq!(dirty.len(), self.gn, "dirty mask must cover every node");
        let mut dh = self.dh.clone();
        let mut patched = 0usize;
        for (i, &s) in self.nodes.iter().enumerate() {
            if dirty[s.index()] {
                let row = hop_limited_distances(g, s, self.h);
                dh[i * self.gn..(i + 1) * self.gn].copy_from_slice(&row);
                patched += 1;
            }
        }
        // Rebuild the skeleton graph from the patched table — the identical
        // construction `from_nodes` runs, so equal `d_h` ⇒ equal skeleton.
        let graph = skeleton_graph(&self.nodes, &dh, self.gn);
        let repaired = Skeleton {
            nodes: self.nodes.clone(),
            index: self.index.clone(),
            h: self.h,
            graph,
            dh,
            gn: self.gn,
        };
        Ok((repaired, patched))
    }
}

/// The skeleton graph `G_S` over `nodes` from their `d_h` rows: an edge
/// `{i, j}` of weight `d_h(s_i, s_j)` for every pair within `h` hops. Each
/// pair is visited once with `i < j`, and `d_h` between distinct nodes is at
/// least the smallest (positive) edge weight, so the edge list is valid by
/// construction.
fn skeleton_graph(nodes: &[NodeId], dh: &[Distance], gn: usize) -> Graph {
    let mut edges = Vec::new();
    for (i, row) in dh.chunks_exact(gn).enumerate() {
        for (j, &t) in nodes.iter().enumerate().skip(i + 1) {
            let d = row[t.index()];
            if d != INFINITY {
                edges.push(Edge { u: NodeId::new(i), v: NodeId::new(j), w: d });
            }
        }
    }
    Graph::from_valid_edges(nodes.len(), edges)
}

/// Lemma C.1 checker: for each sampled pair `(u, v)`, takes a minimum-weight
/// minimum-hop path and verifies every window of `h` consecutive nodes contains a
/// skeleton node (pairs closer than `h` hops trivially pass). Returns the number of
/// violating pairs.
pub fn count_coverage_violations(
    g: &Graph,
    skeleton_nodes: &[NodeId],
    h: usize,
    pairs: &[(NodeId, NodeId)],
) -> usize {
    let in_skel: std::collections::HashSet<NodeId> = skeleton_nodes.iter().copied().collect();
    let mut violations = 0;
    for &(u, v) in pairs {
        // Reconstruct one lexicographic shortest path u -> v.
        let (dist, hops) = dijkstra_lex(g, u);
        if dist[v.index()] == INFINITY {
            continue;
        }
        // Greedy backwalk: from v, repeatedly step to a neighbor on a lex-shortest
        // path.
        let mut path = vec![v];
        let mut cur = v;
        while cur != u {
            let (dc, hc) = (dist[cur.index()], hops[cur.index()]);
            let mut stepped = false;
            for (w, wt) in g.neighbors(cur) {
                if dist[w.index()] != INFINITY
                    && dist[w.index()] + wt == dc
                    && hops[w.index()] + 1 == hc
                {
                    path.push(w);
                    cur = w;
                    stepped = true;
                    break;
                }
            }
            assert!(stepped, "backwalk must make progress on a shortest path");
        }
        path.reverse();
        if path.len() <= h {
            continue;
        }
        for window in path.windows(h) {
            if !window.iter().any(|w| in_skel.contains(w)) {
                violations += 1;
                break;
            }
        }
    }
    violations
}

/// Lemma C.2 checker: number of skeleton pairs where `d_S(u,v) != d_G(u,v)`.
pub fn count_distance_violations(g: &Graph, skeleton: &Skeleton) -> usize {
    let ds = skeleton.apsp();
    let mut violations = 0;
    for i in 0..skeleton.len() {
        let sp = crate::dijkstra::dijkstra(g, skeleton.global(i));
        for j in 0..skeleton.len() {
            let dg = sp.dist(skeleton.global(j));
            if ds.get(NodeId::new(i), NodeId::new(j)) != dg {
                violations += 1;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_connected, path};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_h_grows_with_x() {
        let p1 = SkeletonParams::scaled(2.0, 1.0);
        let p2 = SkeletonParams::scaled(8.0, 1.0);
        assert!(p2.h(1000) > p1.h(1000));
        assert!(SkeletonParams::paper(4.0).h(1000) >= 8);
    }

    #[test]
    fn explicit_skeleton_on_path() {
        let g = path(10, 1).unwrap();
        // Skeleton nodes every 2 hops, h = 3 ⇒ consecutive ones are adjacent.
        let nodes: Vec<NodeId> = (0..10).step_by(2).map(NodeId::new).collect();
        let s = Skeleton::from_nodes(&g, nodes, 3).unwrap();
        assert_eq!(s.len(), 5);
        assert!(s.graph().is_connected());
        // d_S must equal d_G on the skeleton (distance preservation).
        assert_eq!(count_distance_violations(&g, &s), 0);
    }

    #[test]
    fn skeleton_edges_use_dh_weights() {
        let g = path(6, 2).unwrap();
        let s = Skeleton::from_nodes(&g, vec![NodeId::new(0), NodeId::new(3)], 3).unwrap();
        assert_eq!(s.graph().edge_weight(NodeId::new(0), NodeId::new(1)), Some(6));
    }

    #[test]
    fn no_edge_beyond_h() {
        let g = path(10, 1).unwrap();
        let s = Skeleton::from_nodes(&g, vec![NodeId::new(0), NodeId::new(9)], 4).unwrap();
        assert_eq!(s.graph().num_edges(), 0);
        assert!(!s.graph().is_connected());
    }

    #[test]
    fn sampled_skeleton_preserves_distances() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = erdos_renyi_connected(80, 0.08, 6, &mut rng).unwrap();
        // Dense-enough sampling so the lemma's conclusion holds at this small n.
        let s = Skeleton::build(&g, SkeletonParams::scaled(3.0, 3.0), &[], &mut rng).unwrap();
        assert!(s.len() > 1);
        assert_eq!(count_distance_violations(&g, &s), 0);
    }

    #[test]
    fn forced_nodes_are_included() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = path(20, 1).unwrap();
        let forced = NodeId::new(13);
        let s = Skeleton::build(&g, SkeletonParams::scaled(5.0, 1.0), &[forced], &mut rng).unwrap();
        assert!(s.contains(forced));
        assert_eq!(s.global(s.local_index(forced).unwrap()), forced);
    }

    #[test]
    fn skeletons_near_respects_h() {
        let g = path(10, 1).unwrap();
        let s = Skeleton::from_nodes(&g, vec![NodeId::new(0), NodeId::new(9)], 4).unwrap();
        let near = s.skeletons_near(NodeId::new(2));
        assert_eq!(near, vec![(0, 2)]); // node 9 is 7 hops away > h = 4
    }

    #[test]
    fn repair_with_sound_dirty_mask_is_bit_identical_to_from_nodes() {
        use crate::delta::DeltaBatch;
        use crate::limited::mark_within_hops;
        // A bounded-growth graph, so h-hop balls are genuinely local (on an
        // expander a 4-hop ball covers nearly everything and repair degrades
        // to a full rebuild).
        let g = path(70, 6).unwrap();
        let nodes: Vec<NodeId> = (0..70).step_by(7).map(NodeId::new).collect();
        let h = 8;
        let old = Skeleton::from_nodes(&g, nodes.clone(), h).unwrap();
        // Edit one edge (reweight the first), touching its two endpoints.
        let e = g.edges()[0];
        let batch = DeltaBatch::new().reweight(e.u, e.v, e.w + 3);
        let g2 = g.apply_delta(&batch).unwrap();
        // Sound dirty mask: h-hop balls of the endpoints in old ∪ new graph.
        let seeds = [e.u, e.v];
        let mut dirty = mark_within_hops(&g, &seeds, h);
        for (slot, m) in dirty.iter_mut().zip(mark_within_hops(&g2, &seeds, h)) {
            *slot = *slot || m;
        }
        let (patched, rows) = old.repair(&g2, &dirty).unwrap();
        let cold = Skeleton::from_nodes(&g2, nodes, h).unwrap();
        assert!(rows > 0, "the edit touches at least one skeleton ball");
        assert!(rows < old.len(), "a single edit must not dirty every row");
        assert_eq!(patched.nodes(), cold.nodes());
        assert_eq!(patched.h(), cold.h());
        assert_eq!(patched.dh_flat(), cold.dh_flat());
        assert_eq!(patched.graph(), cold.graph());
    }

    #[test]
    fn coverage_checker_flags_bad_skeleton() {
        let g = path(30, 1).unwrap();
        // No skeleton nodes in the middle ⇒ windows of length 5 in the middle violate.
        let nodes = vec![NodeId::new(0), NodeId::new(29)];
        let pairs = vec![(NodeId::new(0), NodeId::new(29))];
        assert_eq!(count_coverage_violations(&g, &nodes, 5, &pairs), 1);
        // Dense skeleton passes.
        let dense: Vec<NodeId> = (0..30).step_by(3).map(NodeId::new).collect();
        assert_eq!(count_coverage_violations(&g, &dense, 5, &pairs), 0);
    }
}
