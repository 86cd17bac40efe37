//! `h`-limited distances — the paper's
//! `d_h(u,v) := min { w(P) : u–v path P, |P| ≤ h }` (§1.3), with `d_h(u,v) = ∞`
//! when no such path exists.
//!
//! `d_h` is *not* a metric restriction of `d`: a hop-limited shortest path may be
//! heavier than the true shortest path. It is computed by `h` rounds of
//! Bellman–Ford relaxation, which is exactly what `h` rounds of local flooding
//! compute in the LOCAL part of the HYBRID model — so this module is also the
//! knowledge-semantics backend of the simulator's local phases.

use crate::dist::{dist_add, Distance, INFINITY};
use crate::graph::Graph;
use crate::ids::NodeId;

/// Two-array Bellman–Ford DP with a frontier worklist. The two-phase structure
/// (collect all relaxations from the current frontier, then apply them) is what
/// guarantees a value advances exactly one hop per iteration — an in-place update
/// loop would let improvements travel multiple hops per iteration and undercount
/// `d_h`. Runs in `O(h · m)` worst case but only touches the `h`-hop ball. The
/// relaxation and frontier buffers are reused across iterations.
fn limited_distances_two_array(g: &Graph, source: NodeId, h: usize) -> Vec<Distance> {
    let mut cur = vec![INFINITY; g.len()];
    cur[source.index()] = 0;
    let mut frontier = vec![source];
    let mut next: Vec<NodeId> = Vec::new();
    let mut updates: Vec<(NodeId, Distance)> = Vec::new();
    for _ in 0..h {
        if frontier.is_empty() {
            break;
        }
        updates.clear();
        for &v in &frontier {
            let dv = cur[v.index()];
            for (u, w) in g.neighbors(v) {
                let nd = dist_add(dv, w);
                if nd < cur[u.index()] {
                    updates.push((u, nd));
                }
            }
        }
        next.clear();
        for &(u, nd) in &updates {
            if nd < cur[u.index()] {
                cur[u.index()] = nd;
                next.push(u);
            }
        }
        next.sort_unstable();
        next.dedup();
        std::mem::swap(&mut frontier, &mut next);
    }
    cur
}

/// `d_h(source, ·)` for all nodes (two-array Bellman–Ford DP; exact hop budget).
pub fn hop_limited_distances(g: &Graph, source: NodeId, h: usize) -> Vec<Distance> {
    limited_distances_two_array(g, source, h)
}

/// `d_h(s, ·)` for every `s` in `sources`; rows are in the order of `sources`.
pub fn hop_limited_from_set(g: &Graph, sources: &[NodeId], h: usize) -> Vec<Vec<Distance>> {
    sources.iter().map(|&s| hop_limited_distances(g, s, h)).collect()
}

/// Marks every node within `h` hops (unweighted) of any seed: multi-source
/// BFS truncated at depth `h`. Seeds themselves are marked (depth 0). This is
/// the ball primitive of churn damage analysis — a `d_h` row of `s` can only
/// change if `s` lies within `h` hops of an edited edge endpoint.
pub fn mark_within_hops(g: &Graph, seeds: &[NodeId], h: usize) -> Vec<bool> {
    let mut mark = vec![false; g.len()];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !mark[s.index()] {
            mark[s.index()] = true;
            frontier.push(s);
        }
    }
    let mut next: Vec<NodeId> = Vec::new();
    for _ in 0..h {
        if frontier.is_empty() {
            break;
        }
        next.clear();
        for &v in &frontier {
            for (u, _) in g.neighbors(v) {
                if !mark[u.index()] {
                    mark[u.index()] = true;
                    next.push(u);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    mark
}

/// Sparse view of `d_h(source, ·)`: only the reached `(node, distance)` pairs,
/// sorted by node. Useful when `h`-hop balls are much smaller than `n`.
pub fn hop_limited_sparse(g: &Graph, source: NodeId, h: usize) -> Vec<(NodeId, Distance)> {
    hop_limited_distances(g, source, h)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d != INFINITY)
        .map(|(i, d)| (NodeId::new(i), d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators::{erdos_renyi_connected, path};
    use crate::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The in-place worklist version can propagate multiple hops per iteration; the
    /// exported `hop_limited_distances` must not. This graph exposes the difference:
    /// light long path vs heavy short path.
    fn hop_tradeoff_graph() -> Graph {
        // 0 -1- 1 -1- 2 -1- 3 (3 hops, weight 3)  vs  0 -5- 3 (1 hop, weight 5)
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3), 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn respects_hop_budget() {
        let g = hop_tradeoff_graph();
        let d1 = hop_limited_distances(&g, NodeId::new(0), 1);
        assert_eq!(d1[3], 5); // only the direct heavy edge fits in 1 hop
        let d2 = hop_limited_distances(&g, NodeId::new(0), 2);
        assert_eq!(d2[3], 5); // 2 hops still cannot use the light path
        let d3 = hop_limited_distances(&g, NodeId::new(0), 3);
        assert_eq!(d3[3], 3); // 3 hops unlock the light path
    }

    #[test]
    fn zero_hops_reaches_only_source() {
        let g = path(4, 1).unwrap();
        let d = hop_limited_distances(&g, NodeId::new(1), 0);
        assert_eq!(d[1], 0);
        assert_eq!(d[0], INFINITY);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn unreached_nodes_are_infinite() {
        let g = path(6, 1).unwrap();
        let d = hop_limited_distances(&g, NodeId::new(0), 2);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn large_h_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_connected(60, 0.08, 10, &mut rng).unwrap();
        let sp = dijkstra(&g, NodeId::new(0));
        let dh = hop_limited_distances(&g, NodeId::new(0), g.len());
        assert_eq!(sp.as_slice(), dh.as_slice());
    }

    #[test]
    fn monotone_in_h() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = erdos_renyi_connected(40, 0.1, 5, &mut rng).unwrap();
        let mut prev = hop_limited_distances(&g, NodeId::new(3), 0);
        for h in 1..10 {
            let cur = hop_limited_distances(&g, NodeId::new(3), h);
            for i in 0..g.len() {
                assert!(cur[i] <= prev[i], "d_h must be non-increasing in h");
            }
            prev = cur;
        }
    }

    #[test]
    fn sparse_matches_dense() {
        let g = path(8, 2).unwrap();
        let dense = hop_limited_distances(&g, NodeId::new(0), 3);
        let sparse = hop_limited_sparse(&g, NodeId::new(0), 3);
        assert_eq!(sparse.len(), 4);
        for (v, d) in sparse {
            assert_eq!(dense[v.index()], d);
        }
    }

    #[test]
    fn mark_within_hops_is_the_bfs_ball() {
        let g = path(10, 7).unwrap(); // weights are irrelevant: hops only
        let mark = mark_within_hops(&g, &[NodeId::new(3), NodeId::new(8)], 2);
        let expected: Vec<bool> =
            (0..10).map(|v| (1..=5).contains(&v) || (6..=9).contains(&v)).collect();
        assert_eq!(mark, expected);
        let zero = mark_within_hops(&g, &[NodeId::new(4)], 0);
        assert_eq!(zero.iter().filter(|&&m| m).count(), 1);
        assert!(zero[4]);
    }

    #[test]
    fn from_set_rows_align() {
        let g = path(5, 1).unwrap();
        let rows = hop_limited_from_set(&g, &[NodeId::new(0), NodeId::new(4)], 2);
        assert_eq!(rows[0][2], 2);
        assert_eq!(rows[1][2], 2);
        assert_eq!(rows[0][4], INFINITY);
    }
}
