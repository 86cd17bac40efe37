//! Exact all-pairs shortest paths in the HYBRID model.
//!
//! * [`exact_apsp`] — the paper's Theorem 1.1: `Õ(√n)` rounds. Pipeline:
//!   skeleton on a `1/√n` sample (local, `Õ(√n)` rounds) → skeleton edges made
//!   public by token dissemination (`Õ(√n)`) → every node derives its distance
//!   and *connector* (first skeleton node on a shortest path) to every skeleton
//!   node → **token routing** ships each node's connector info to each skeleton
//!   node (`Õ(n·|V_S|/n + √n) = Õ(√n)`, the step that replaced the broadcast
//!   bottleneck of \[3\]) → skeleton nodes answer distances into their `h`-hop
//!   neighborhoods locally → everyone assembles exact distances.
//! * [`exact_apsp_soda20`] — the `Õ(n^{2/3})` baseline of Augustine et al.
//!   \[3\]: same pipeline, but the last step *broadcasts* all
//!   `|V_S| · n` distance labels with token dissemination, which forces the
//!   skeleton-size trade-off to `x = n^{2/3}`.

use hybrid_graph::apsp::DistanceMatrix;
use hybrid_graph::dijkstra::par_lex_rows_with;
use hybrid_graph::minplus::par_min_plus_into;
use hybrid_graph::skeleton::Skeleton;
use hybrid_graph::{dist_add, Distance, NodeId, INFINITY};
use hybrid_sim::{derive_seed, HybridNet};

use crate::dissemination::disseminate;
use crate::error::HybridError;
use crate::prepare::{near_phase, skeleton_apsp, skeleton_phase, NearData, NearTie, Prep};
use crate::token_routing::{route_tokens, RoutingRates, Token};

/// Result of a distributed APSP run.
#[derive(Debug, Clone)]
pub struct ApspOutcome {
    /// The computed distance matrix (to be compared against the exact one).
    pub dist: DistanceMatrix,
    /// Total HYBRID rounds.
    pub rounds: u64,
    /// Skeleton size `|V_S|`.
    pub skeleton_size: usize,
    /// Skeleton edge hop budget `h`.
    pub h: usize,
    /// Nodes that needed the adaptive exploration fallback (no skeleton within
    /// `h` hops — the Lemma C.1 failure event).
    pub coverage_fallbacks: usize,
}

/// Final assembly shared by both APSP variants: each node `u` combines its
/// `h`-hop-local exact distances with the skeleton route
/// `min_{s near u} d_h(u,s) + labels[s][v]`.
fn assemble(
    net: &HybridNet<'_>,
    skeleton: &Skeleton,
    near: &NearData,
    labels: &[Distance],
) -> DistanceMatrix {
    let g = net.graph();
    let n = g.len();
    let ns = skeleton.len();
    let h = skeleton.h() as u64;
    let mut out = DistanceMatrix::new(n);
    let sources: Vec<NodeId> = g.nodes().collect();
    // Pass 1 — one parallel lex-Dijkstra per node; each worker writes its
    // h-hop-gated local row straight into the flat matrix.
    par_lex_rows_with(g, &sources, out.as_flat_mut(), |_, _, dist, hops, row| {
        for v in 0..n {
            row[v] = if hops[v] <= h { dist[v] } else { INFINITY };
        }
    });
    // Pass 2 — the skeleton merge is one blocked min-plus product
    // `near (n × |V_S|) ⊗ labels (|V_S| × n)` accumulated into the gated
    // local rows (the kernel's seeded-output mode).
    let mut nearm = vec![INFINITY; n * ns];
    for v in 0..n {
        for (s, d) in near.node(v) {
            nearm[v * ns + s] = d;
        }
    }
    par_min_plus_into(&nearm, labels, out.as_flat_mut(), n, n);
    out
}

/// Publishes the skeleton edges `E_S` by token dissemination (one token per
/// edge, owned by its smaller global endpoint).
fn publish_skeleton_edges(
    net: &mut HybridNet<'_>,
    skeleton: &Skeleton,
    seed: u64,
    phase: &str,
) -> Result<(), HybridError> {
    let owners: Vec<NodeId> =
        skeleton.graph().edges().iter().map(|e| skeleton.global(e.u.index())).collect();
    disseminate(net, &owners, seed, phase)?;
    Ok(())
}

/// Exact APSP in `Õ(√n)` rounds (Theorem 1.1), with skeleton radius constant
/// `xi` and the shared preamble served by `prep`.
///
/// # Errors
///
/// Propagates simulator/routing errors; see [`ApspOutcome::coverage_fallbacks`]
/// for the (counted, remediated) Lemma C.1 failure events.
pub(crate) fn exact_apsp(
    net: &mut HybridNet<'_>,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<ApspOutcome, HybridError> {
    let start = net.rounds();
    let n = net.n();
    // Sampling probability 1/√n (the x = √n trade-off point of Theorem 1.1).
    let art = skeleton_phase(net, 0.5, xi, &[], seed, "apsp:skeleton", prep)?;
    let skeleton = &art.skeleton;
    publish_skeleton_edges(net, skeleton, derive_seed(seed, 1), "apsp:edges")?;
    let d_s = skeleton_apsp(&art);
    let ns = skeleton.len();

    // Every node v derives d(v, s) and its connector for every skeleton node
    // s. Connector indices are skeleton-local and fit u32 — half the table
    // footprint.
    let near = near_phase(net, &art, NearTie::HopThenIndex, "apsp:fallback");
    const NO_CONN: u32 = u32::MAX;
    let mut conn = vec![NO_CONN; n * ns];
    let mut dvs = vec![INFINITY; n * ns];
    for (v, (crow, drow)) in conn.chunks_mut(ns).zip(dvs.chunks_mut(ns)).enumerate() {
        for (u, dvu) in near.node(v) {
            for s in 0..ns {
                let cand = dist_add(dvu, d_s.get(NodeId::new(u), NodeId::new(s)));
                if cand < drow[s] {
                    drow[s] = cand;
                    crow[s] = u as u32;
                }
            }
        }
    }

    // Token routing: v sends ⟨d_h(v, s'), ID(v), ID(s')⟩ to each skeleton node s.
    let members = skeleton.nodes();
    let all: Vec<NodeId> = net.graph().nodes().collect();
    let mut tokens = Vec::with_capacity(n * ns);
    for v in 0..n {
        for s in 0..ns {
            let u = conn[v * ns + s];
            if u == NO_CONN {
                continue;
            }
            let dvu = near.dist_to(v, u as usize).expect("connector is near");
            tokens.push(Token::new(
                NodeId::new(v),
                members[s],
                s as u32,
                (dvu, skeleton.global(u as usize)),
            ));
        }
    }
    let rates = RoutingRates { p_s: 1.0, p_r: (ns as f64 / n as f64).min(1.0) };
    let routed =
        route_tokens(net, tokens, &all, members, rates, derive_seed(seed, 2), "apsp:routing")?;

    // Each skeleton node s computes d(s, v) = d_S(s, s') + d_h(s', v) from the
    // received connector tokens, then answers into its h-hop neighborhood
    // (local flooding, Õ(√n) rounds). Node IDs are dense, so the
    // global→local map is a flat u32 array.
    let mut global_to_local = vec![u32::MAX; n];
    for (i, &m) in members.iter().enumerate() {
        global_to_local[m.index()] = i as u32;
    }
    let mut labels = vec![INFINITY; ns * n];
    for (s_local, row) in labels.chunks_mut(n).enumerate() {
        let s_global = members[s_local];
        row[s_global.index()] = 0;
        for t in routed.for_receiver(s_global) {
            let (dvu, u_global) = t.payload;
            let u_local = global_to_local[u_global.index()];
            debug_assert_ne!(u_local, u32::MAX, "connector must be a skeleton member");
            let v = t.label.s;
            let d = dist_add(d_s.get(NodeId::new(s_local), NodeId::new(u_local as usize)), dvu);
            if d < row[v.index()] {
                row[v.index()] = d;
            }
        }
    }
    net.charge_local(skeleton.h() as u64, "apsp:labels-local");

    let dist = assemble(net, skeleton, &near, &labels);
    Ok(ApspOutcome {
        dist,
        rounds: net.rounds() - start,
        skeleton_size: ns,
        h: skeleton.h(),
        coverage_fallbacks: near.fallbacks,
    })
}

/// Exact APSP in `Õ(n^{2/3})` rounds — the baseline of Augustine et al. \[3\]
/// that Theorem 1.1 improves on. Identical pipeline except the last step: all
/// `|V_S| · n` distance labels `d_h(s, v)` are *broadcast* with token
/// dissemination instead of routed point-to-point, which forces the skeleton
/// trade-off to `x = n^{2/3}` (sampling probability `1/n^{2/3}`).
///
/// # Errors
///
/// Propagates simulator/routing errors.
pub(crate) fn exact_apsp_soda20(
    net: &mut HybridNet<'_>,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<ApspOutcome, HybridError> {
    let start = net.rounds();
    let n = net.n();
    // Sampling probability 1/n^{2/3} ⇒ |V_S| ≈ n^{1/3}.
    let art = skeleton_phase(net, 1.0 / 3.0, xi, &[], seed, "apsp3:skeleton", prep)?;
    let skeleton = &art.skeleton;
    publish_skeleton_edges(net, skeleton, derive_seed(seed, 1), "apsp3:edges")?;
    let d_s = skeleton_apsp(&art);
    let ns = skeleton.len();

    // Broadcast every finite label d_h(s, v) (owner: the node v that knows it).
    let mut owners = Vec::new();
    for s in 0..ns {
        let row = skeleton.dh_row(s);
        for (v, &d) in row.iter().enumerate() {
            if d != INFINITY {
                owners.push(NodeId::new(v));
            }
        }
    }
    disseminate(net, &owners, derive_seed(seed, 2), "apsp3:labels")?;

    // All labels are now public: every node can compute
    // d(s, v) = min_{s₂} d_S(s, s₂) + d_h(s₂, v) for every (s, v) — a pure
    // min-plus product `d_S (|V_S| × |V_S|) ⊗ d_h (|V_S| × n)`, handed to the
    // shared blocked kernel.
    let mut labels = vec![INFINITY; ns * n];
    par_min_plus_into(d_s.as_flat(), skeleton.dh_flat(), &mut labels, ns, n);

    let near = near_phase(net, &art, NearTie::HopThenIndex, "apsp3:fallback");
    let dist = assemble(net, skeleton, &near, &labels);
    Ok(ApspOutcome {
        dist,
        rounds: net.rounds() - start,
        skeleton_size: ns,
        h: skeleton.h(),
        coverage_fallbacks: near.fallbacks,
    })
}

/// Baseline: APSP using only the LOCAL mode — `D` rounds of full-graph
/// flooding teach every node the entire topology, after which everything is
/// computed locally. Exact, and the `Θ(D)` yardstick the introduction
/// measures both HYBRID algorithms against.
pub(crate) fn apsp_local_only(net: &mut HybridNet<'_>) -> ApspOutcome {
    let g = net.graph();
    let n = g.len();
    // Rounds: the unweighted eccentricity bound — after D rounds of flooding
    // every node holds every edge.
    let mut d = 0u64;
    for v in g.nodes() {
        d = d.max(hybrid_graph::bfs::bfs(g, v).eccentricity());
    }
    net.charge_local(d, "apsp-local:flood");
    let dist = hybrid_graph::apsp::apsp(g);
    ApspOutcome { dist, rounds: d, skeleton_size: n, h: d as usize, coverage_fallbacks: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::apsp::apsp;
    use hybrid_graph::generators::{erdos_renyi_connected, grid, random_geometric_connected};
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_exact(g: &hybrid_graph::Graph, xi: f64, seed: u64) -> ApspOutcome {
        let exact = apsp(g);
        let mut net = HybridNet::new(g, HybridConfig::default());
        let out = exact_apsp(&mut net, xi, seed, Prep::Cold).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(out.dist.get(u, v), exact.get(u, v), "pair ({u}, {v})");
            }
        }
        out
    }

    #[test]
    fn exact_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(90, 0.06, 5, &mut rng).unwrap();
        let out = check_exact(&g, 1.5, 11);
        assert!(out.skeleton_size > 1);
        assert!(out.rounds > 0);
    }

    #[test]
    fn exact_on_grid() {
        let g = grid(9, 9, 3).unwrap();
        check_exact(&g, 1.5, 3);
    }

    #[test]
    fn exact_on_geometric() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_geometric_connected(80, 0.2, 6, &mut rng).unwrap();
        check_exact(&g, 1.5, 7);
    }

    #[test]
    fn baseline_is_exact_too() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_connected(80, 0.07, 4, &mut rng).unwrap();
        let exact = apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = exact_apsp_soda20(&mut net, 1.5, 13, Prep::Cold).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(out.dist.get(u, v), exact.get(u, v), "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn new_algorithm_beats_baseline_rounds() {
        // The headline claim (E2): Õ(√n) vs Õ(n^{2/3}). At moderate n with the
        // same ξ the token-routing variant must already be cheaper (the gap
        // widens with n; see bench_apsp).
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_connected(500, 12.0 / 500.0, 4, &mut rng).unwrap();
        let mut net_a = HybridNet::new(&g, HybridConfig::default());
        let a = exact_apsp(&mut net_a, 1.5, 5, Prep::Cold).unwrap();
        let mut net_b = HybridNet::new(&g, HybridConfig::default());
        let b = exact_apsp_soda20(&mut net_b, 1.5, 5, Prep::Cold).unwrap();
        assert!(
            a.rounds < b.rounds,
            "Thm 1.1 ({}) should beat SODA'20 baseline ({})",
            a.rounds,
            b.rounds
        );
    }

    #[test]
    fn local_only_baseline_is_exact_and_charges_diameter() {
        let g = grid(6, 12, 2).unwrap();
        let exact = apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let out = apsp_local_only(&mut net);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(out.dist.get(u, v), exact.get(u, v));
            }
        }
        // Rounds = unweighted diameter of the 6x12 grid = 5 + 11.
        assert_eq!(out.rounds, 16);
        assert_eq!(net.metrics().global_messages, 0, "LOCAL-only baseline");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid(7, 7, 2).unwrap();
        let mut n1 = HybridNet::new(&g, HybridConfig::default());
        let mut n2 = HybridNet::new(&g, HybridConfig::default());
        let a = exact_apsp(&mut n1, 1.5, 21, Prep::Cold).unwrap();
        let b = exact_apsp(&mut n2, 1.5, 21, Prep::Cold).unwrap();
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.skeleton_size, b.skeleton_size);
    }
}
