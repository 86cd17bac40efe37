//! Single-source shortest paths (Theorem 1.3 / Corollary 4.9) and baselines.
//!
//! * [`exact_sssp`] — the paper's `Õ(n^{2/5})` exact SSSP: the k-SSP framework
//!   (Theorem 4.1) instantiated with the exact `Õ(n^{1/6})`-round CLIQUE SSSP
//!   of \[7\] (Theorem 5.2); `δ = 1/6` gives `x = 3/5` and runtime
//!   `Õ(n^{2/5})`. The single source is forced into the skeleton (Lemma 4.5),
//!   so no representative detour and no approximation loss.
//! * [`sssp_local_bellman_ford`] — the LOCAL-mode baseline: distributed
//!   Bellman–Ford over the graph edges, exact in `SPD(G) + 1` rounds. On
//!   low-`SPD` graphs this wins; on the high-`SPD` workloads of experiment E4
//!   (`SPD ∈ Θ(n)`) Theorem 1.3's `Õ(n^{2/5})` is the clear winner — and also
//!   beats the `Õ(√SPD)` algorithm of \[3\] (≈ `√n` there).

use clique_sim::declared::DeclaredKssp;
use hybrid_graph::{Distance, NodeId, INFINITY};
use hybrid_sim::HybridNet;

use crate::error::HybridError;
use crate::ksssp::{kssp_framework, KsspOutcome};
use crate::prepare::Prep;

/// Result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspOutcome {
    /// The source.
    pub source: NodeId,
    /// Distance per node.
    pub dist: Vec<Distance>,
    /// Total HYBRID rounds.
    pub rounds: u64,
    /// Skeleton size (0 for the local baseline).
    pub skeleton_size: usize,
    /// Skeleton hop budget `h` (0 for the local baseline).
    pub h: usize,
    /// The approximation factor the run guarantees (1.0 for the exact
    /// algorithms; `α + β/T_B` per Lemma 4.5 for the approximate baseline).
    pub guaranteed_factor: f64,
}

/// Exact SSSP in `Õ(n^{2/5})` rounds (Theorem 1.3), with skeleton radius
/// constant `xi` (see [`crate::solver::Query::Sssp`]).
///
/// # Errors
///
/// Propagates framework errors.
pub(crate) fn exact_sssp(
    net: &mut HybridNet<'_>,
    source: NodeId,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<SsspOutcome, HybridError> {
    let alg = DeclaredKssp::exact_sssp();
    let out: KsspOutcome = kssp_framework(net, &alg, &[source], xi, seed, prep)?;
    Ok(SsspOutcome {
        source,
        dist: out.est.into_iter().next().expect("one source row"),
        rounds: out.rounds,
        skeleton_size: out.skeleton_size,
        h: out.h,
        // The source is forced into the skeleton (Lemma 4.5) and the plugged
        // CLIQUE SSSP is exact (α = 1, β = 0): no approximation loss.
        guaranteed_factor: 1.0,
    })
}

/// The `(1+ε)`-approximate SSSP of Augustine et al. \[3\] in `Õ(n^{1/3})`
/// rounds, obtained there by simulating the broadcast congested clique (BCC)
/// SSSP of Becker et al. on a skeleton. In framework terms this is the `γ = 0,
/// δ = 0, η = 1/ε, α = 1+ε` point (`x = 2/3`), which is how we instantiate it
/// (DESIGN.md §3 substitution 1 applies to the BCC algorithm).
///
/// # Errors
///
/// Propagates framework errors.
pub(crate) fn approx_sssp_soda20(
    net: &mut HybridNet<'_>,
    source: NodeId,
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<SsspOutcome, HybridError> {
    assert!(eps > 0.0);
    let alg = clique_sim::declared::DeclaredKssp::custom(
        "AHKSS20-BCC-SSSP",
        clique_sim::SourceCapacity::SingleSource,
        0.0,
        (1.0 / eps).max(1.0),
        1.0 + eps,
        clique_sim::Beta::Zero,
        Some(hybrid_sim::derive_seed(seed, 0xBCC)),
    );
    let out: KsspOutcome = kssp_framework(net, &alg, &[source], xi, seed, prep)?;
    let factor = out.guaranteed_factor(false);
    Ok(SsspOutcome {
        source,
        dist: out.est.into_iter().next().expect("one source row"),
        rounds: out.rounds,
        skeleton_size: out.skeleton_size,
        h: out.h,
        guaranteed_factor: factor,
    })
}

/// Baseline: exact SSSP by distributed Bellman–Ford over the *local* network
/// only. One relaxation per round; terminates after `SPD_source + 1` rounds
/// (all charged).
pub(crate) fn sssp_local_bellman_ford(net: &mut HybridNet<'_>, source: NodeId) -> SsspOutcome {
    let g = net.graph();
    let n = g.len();
    let mut dist = vec![INFINITY; n];
    dist[source.index()] = 0;
    let mut frontier = vec![source];
    let mut rounds = 0u64;
    while !frontier.is_empty() {
        rounds += 1;
        let mut updates: Vec<(NodeId, Distance)> = Vec::new();
        for &v in &frontier {
            let dv = dist[v.index()];
            for (u, w) in g.neighbors(v) {
                let cand = hybrid_graph::dist_add(dv, w);
                if cand < dist[u.index()] {
                    updates.push((u, cand));
                }
            }
        }
        let mut next = Vec::new();
        for (u, d) in updates {
            if d < dist[u.index()] {
                dist[u.index()] = d;
                next.push(u);
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    net.charge_local(rounds, "sssp:local-bf");
    SsspOutcome { source, dist, rounds, skeleton_size: 0, h: 0, guaranteed_factor: 1.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::dijkstra::dijkstra;
    use hybrid_graph::generators::{erdos_renyi_connected, path_with_heavy_hub};
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn framework_sssp_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [60, 110] {
            let g = erdos_renyi_connected(n, 0.07, 6, &mut rng).unwrap();
            let source = NodeId::new(n / 2);
            let exact = dijkstra(&g, source);
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let out = exact_sssp(&mut net, source, 1.5, 5, Prep::Cold).unwrap();
            assert_eq!(out.dist.as_slice(), exact.as_slice());
            assert!(out.skeleton_size >= 1);
        }
    }

    #[test]
    fn local_bf_is_exact_and_charges_spd() {
        let g = path_with_heavy_hub(40, 100).unwrap();
        let source = NodeId::new(0);
        let exact = dijkstra(&g, source);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = sssp_local_bellman_ford(&mut net, source);
        assert_eq!(out.dist.as_slice(), exact.as_slice());
        // SPD from node 0 on the 38-edge path: 38 relaxation rounds + final.
        assert!(out.rounds >= 38, "rounds = {}", out.rounds);
        assert_eq!(net.rounds(), out.rounds);
    }

    #[test]
    fn xi_scales_the_skeleton_radius_as_documented() {
        // ξ's meaning for SSSP, pinned so the `Query::Sssp::xi` docs cannot
        // drift: at δ = 1/6 the framework samples with exponent x = 3/5, so
        // h = ⌈ξ · n^{1-x} · ln n⌉ (no Lemma C.1 remediation on this dense
        // instance). Larger ξ ⇒ strictly larger h.
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_connected(120, 0.08, 4, &mut rng).unwrap();
        let n = g.len() as f64;
        let x = 2.0 / (3.0 + 2.0 * (1.0 / 6.0));
        let mut prev_h = 0usize;
        for xi in [0.5, 1.0, 2.0] {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let out = exact_sssp(&mut net, NodeId::new(7), xi, 11, Prep::Cold).unwrap();
            let predicted = ((xi * n.powf(1.0 - x) * n.ln()).ceil() as usize).max(1);
            assert_eq!(out.h, predicted, "xi = {xi}");
            assert!(out.h > prev_h, "h must grow with ξ");
            prev_h = out.h;
            assert_eq!(out.guaranteed_factor, 1.0, "Thm 1.3 is exact at every ξ");
        }
    }

    #[test]
    fn soda20_approx_respects_factor() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_connected(90, 0.07, 5, &mut rng).unwrap();
        let source = NodeId::new(4);
        let exact = dijkstra(&g, source);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = approx_sssp_soda20(&mut net, source, 0.25, 1.5, 9, Prep::Cold).unwrap();
        for v in g.nodes() {
            let (e, a) = (exact.dist(v), out.dist[v.index()]);
            assert!(a >= e, "never underestimates");
            // γ = 0 ⇒ Lemma 4.5: (α + β/T_B) = (1.25 + 0) plus the framework's
            // exploration slack; allow the declared α exactly.
            assert!(a as f64 <= 1.25 * e as f64 + 1.0, "pair {v}: {a} vs {e}");
        }
    }

    #[test]
    fn framework_beats_local_bf_on_high_spd() {
        // E4's headline shape: on the heavy-hub path (SPD = n-2, D = 2) the
        // framework's Õ(n^{2/5}) must undercut the local Θ(SPD) baseline.
        let g = path_with_heavy_hub(500, 1000).unwrap();
        let source = NodeId::new(0);
        let mut net_a = HybridNet::new(&g, HybridConfig::default());
        let a = exact_sssp(&mut net_a, source, 0.8, 3, Prep::Cold).unwrap();
        let mut net_b = HybridNet::new(&g, HybridConfig::default());
        let b = sssp_local_bellman_ford(&mut net_b, source);
        assert_eq!(a.dist, b.dist);
        assert!(a.rounds < b.rounds, "framework {} should beat local BF {}", a.rounds, b.rounds);
    }
}
