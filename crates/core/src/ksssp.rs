//! The k-source shortest-paths framework (§4, Theorem 4.1, Algorithm 5) and its
//! instantiations (Corollaries 4.6–4.8 = Theorem 1.2).
//!
//! Given a CLIQUE algorithm `A` — an `(α, β)`-approximation for `n^γ` sources in
//! `T_A = Õ(η n^δ)` rounds — the framework produces a HYBRID algorithm with
//! runtime `Õ(η n^{1-x})` for `x = 2/(3+2δ)`:
//!
//! 1. Build a skeleton with `|V_S| ≈ n^x` (Algorithm 6), forcing the source in
//!    for the single-source case (Lemma 4.5).
//! 2. Replace each source by its closest skeleton node (*representative*,
//!    Algorithm 7) and publish the `⟨d_h(s, r_s), s, r_s⟩` pairs (`Õ(√k)`).
//! 3. Simulate `A` on the skeleton (Corollary 4.1 / Algorithm 8).
//! 4. Flood the skeleton estimates `ηh` hops; every node combines them with its
//!    local exact distances via Equation (1):
//!    `d̃(v,s) = min(d_{ηh}(v,s), min_u d_h(v,u) + d̃(u,r_s) + d_h(r_s,s))`.
//!
//! Approximation guarantees (Theorem 4.1): `(2α + 1 + β/T_B)` weighted,
//! `(α + 2/η + β/T_B)` unweighted, `(α + β/T_B)` single-source.

use clique_sim::declared::DeclaredKssp;
use clique_sim::{CliqueKsspAlgorithm, SourceCapacity};
use hybrid_graph::dijkstra::par_map_rows;
use hybrid_graph::{dist_add, Distance, NodeId, INFINITY};
use hybrid_sim::{derive_seed, HybridNet};

use crate::clique_on_skeleton::simulate_kssp_on_skeleton;
use crate::error::HybridError;
use crate::prepare::{near_phase, skeleton_phase, NearTie, Prep};
use crate::skeleton_ops::{compute_representatives, Representative};

/// Result of a k-SSP framework run.
#[derive(Debug, Clone)]
pub struct KsspOutcome {
    /// The sources, in input order.
    pub sources: Vec<NodeId>,
    /// `est[s_idx][v]`: the distance estimate `d̃(v, s)`.
    pub est: Vec<Vec<Distance>>,
    /// Total HYBRID rounds `T_B`.
    pub rounds: u64,
    /// Skeleton size `|V_S|`.
    pub skeleton_size: usize,
    /// Skeleton hop budget `h`.
    pub h: usize,
    /// Lemma C.1 fallback count (see [`crate::apsp::ApspOutcome`]).
    pub coverage_fallbacks: usize,
    /// The local exploration radius `⌈ηh⌉` actually used (the paper explores
    /// for the full runtime `T_B`; we charge and use exactly this radius, so
    /// the guarantee's additive-to-multiplicative conversion divides by it).
    pub explore: u64,
    /// Parameters of the plugged CLIQUE algorithm, for guarantee computation:
    /// `(α, β bound on the skeleton, η)`.
    pub alpha: f64,
    /// Additive bound `β` evaluated on the skeleton's max edge weight.
    pub beta_bound: f64,
    /// Runtime multiplier `η` of the CLIQUE algorithm.
    pub eta: f64,
    /// Whether the single-source specialization (Lemma 4.5) was used.
    pub single_source: bool,
}

impl KsspOutcome {
    /// The estimate `d̃(v, s)` for the `s_idx`-th source.
    pub fn get(&self, s_idx: usize, v: NodeId) -> Distance {
        self.est[s_idx][v.index()]
    }

    /// The approximation factor Theorem 4.1 guarantees for this run
    /// (`unweighted` per the paper's case split). The additive term is
    /// converted at the actual exploration radius: `β / ⌈ηh⌉`.
    pub fn guaranteed_factor(&self, unweighted: bool) -> f64 {
        let beta_term = if self.explore > 0 { self.beta_bound / self.explore as f64 } else { 0.0 };
        if self.single_source {
            self.alpha + beta_term
        } else if unweighted {
            self.alpha + 2.0 / self.eta + beta_term
        } else {
            2.0 * self.alpha + 1.0 + beta_term
        }
    }
}

/// Runs the framework (Algorithm 5) with CLIQUE plugin `alg` and skeleton
/// radius constant `xi` (see [`crate::solver::Query::Kssp`]).
///
/// # Errors
///
/// * [`clique_sim::CliqueError::TooManySources`] (wrapped) if `sources` exceeds
///   the plugin's `n^{xγ}` capacity on the skeleton.
/// * Simulator/routing errors.
///
/// # Panics
///
/// Panics if `sources` is empty.
pub(crate) fn kssp_framework<A: CliqueKsspAlgorithm + ?Sized>(
    net: &mut HybridNet<'_>,
    alg: &A,
    sources: &[NodeId],
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<KsspOutcome, HybridError> {
    assert!(!sources.is_empty(), "at least one source required");
    if matches!(alg.capacity(), SourceCapacity::SingleSource) && sources.len() > 1 {
        return Err(HybridError::Clique(clique_sim::CliqueError::TooManySources {
            got: sources.len(),
            max: 1,
        }));
    }
    let start = net.rounds();
    let n = net.n();
    let delta = alg.delta();
    let x = 2.0 / (3.0 + 2.0 * delta);
    let single_source = sources.len() == 1;

    // Step 1: skeleton (force the source in for the single-source case).
    let forced: &[NodeId] = if single_source { &sources[..1] } else { &[] };
    let art = skeleton_phase(net, x, xi, forced, seed, "kssp:skeleton", prep)?;
    let skeleton = &art.skeleton;
    let h = skeleton.h();
    let ns = skeleton.len();

    // Step 2: representatives (free for a single in-skeleton source).
    let reps: Vec<Representative> = if single_source {
        let local = skeleton.local_index(sources[0]).expect("forced source is in the skeleton");
        vec![Representative { source: sources[0], rep_local: local, dist: 0 }]
    } else {
        let (reps, _fallbacks) =
            compute_representatives(net, skeleton, sources, derive_seed(seed, 1), "kssp:reps")?;
        reps
    };

    // Step 3: simulate A on the skeleton with the (dedup'd) representatives as
    // clique sources.
    let mut rep_locals: Vec<usize> = reps.iter().map(|r| r.rep_local).collect();
    rep_locals.sort_unstable();
    rep_locals.dedup();
    let clique_sources: Vec<NodeId> = rep_locals.iter().map(|&i| NodeId::new(i)).collect();
    let (est_s, _) = simulate_kssp_on_skeleton(
        net,
        skeleton,
        alg,
        &clique_sources,
        derive_seed(seed, 2),
        "kssp:clique",
    )?;
    let rep_row: std::collections::HashMap<usize, usize> =
        rep_locals.iter().enumerate().map(|(row, &local)| (local, row)).collect();

    // Step 4: flood estimates ηh hops and assemble Equation (1).
    let eta = alg.eta().max(1.0);
    let explore = ((eta * h as f64).ceil() as u64).max(h as u64);
    net.charge_local(explore, "kssp:local-exploration");

    let g = net.graph();
    // Per-node nearby-skeleton lists — this framework's fallback keeps its
    // own `(distance, index)` tie-break, so it is cached as its own flavor.
    let near = near_phase(net, &art, NearTie::IndexOnly, "kssp:near");

    // Equation (1) per source — one parallel lexicographic Dijkstra per
    // representative (pooled workspaces across worker threads) instead of a
    // fresh allocating run per source. `compute_representatives` yields
    // exactly one representative per source, so the assembled rows are the
    // estimate table.
    debug_assert_eq!(reps.len(), sources.len(), "one representative per source");
    let rep_sources: Vec<NodeId> = reps.iter().map(|r| r.source).collect();
    let est = par_map_rows(g, &rep_sources, |s_idx, _, dist, hops| {
        let rep = &reps[s_idx];
        let row = rep_row[&rep.rep_local];
        let mut out = vec![INFINITY; n];
        for v in 0..n {
            // Local exact part: d_{ηh}(v, s) for nodes whose lex-shortest
            // path from s fits in the exploration radius.
            let mut best = if hops[v] <= explore { dist[v] } else { INFINITY };
            // Skeleton part: min over nearby skeletons u of
            // d_h(v,u) + d̃(u, r_s) + d_h(r_s, s).
            for (u, dvu) in near.node(v) {
                let via = dist_add(dist_add(dvu, est_s.get(row, NodeId::new(u))), rep.dist);
                best = best.min(via);
            }
            out[v] = best;
        }
        out
    });

    Ok(KsspOutcome {
        sources: sources.to_vec(),
        est,
        rounds: net.rounds() - start,
        skeleton_size: ns,
        h,
        explore,
        coverage_fallbacks: near.fallbacks,
        alpha: alg.alpha(),
        beta_bound: alg.beta().bound(skeleton.graph().max_weight()),
        eta,
        single_source,
    })
}

/// Corollary 4.6: `n^{1/3}`-source shortest paths, `(1+ε)` unweighted / `(3+ε)`
/// weighted, `Õ(n^{1/3}/ε)` rounds. Plugin: \[7\] Theorem 1.2 with `γ = 1/2`.
pub(crate) fn kssp_cor46(
    net: &mut HybridNet<'_>,
    sources: &[NodeId],
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<KsspOutcome, HybridError> {
    let alg = DeclaredKssp::censor_hillel_sqrt_sources(eps, derive_seed(seed, 46));
    kssp_framework(net, &alg, sources, xi, seed, prep)
}

/// Corollary 4.7: any `k` sources, `(2+ε)` unweighted / `(7+ε)` weighted,
/// `Õ(n^{1/3}/ε + √k)` rounds. Plugin: \[7\] Theorem 1.1 (APSP).
pub(crate) fn kssp_cor47(
    net: &mut HybridNet<'_>,
    sources: &[NodeId],
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<KsspOutcome, HybridError> {
    let alg = DeclaredKssp::censor_hillel_apsp(eps, derive_seed(seed, 47));
    kssp_framework(net, &alg, sources, xi, seed, prep)
}

/// Corollary 4.8: any `k` sources, `(1+ε)` unweighted / `(3+o(1))` weighted,
/// `Õ(n^{0.397} + √k)` rounds. Plugin: the algebraic APSP of \[8\].
pub(crate) fn kssp_cor48(
    net: &mut HybridNet<'_>,
    sources: &[NodeId],
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<KsspOutcome, HybridError> {
    let alg = DeclaredKssp::algebraic_apsp(eps, derive_seed(seed, 48));
    kssp_framework(net, &alg, sources, xi, seed, prep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::max_ratio;
    use clique_sim::bellman_ford::BellmanFordKSsp;
    use hybrid_graph::apsp::apsp;
    use hybrid_graph::generators::{erdos_renyi_connected, grid};
    use hybrid_graph::Graph;
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_rows(g: &Graph, sources: &[NodeId]) -> Vec<Vec<Distance>> {
        let m = apsp(g);
        sources.iter().map(|&s| m.row(s).to_vec()).collect()
    }

    fn random_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s: Vec<NodeId> = (0..k).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    #[test]
    fn estimates_never_underestimate_and_meet_guarantee() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(100, 0.06, 4, &mut rng).unwrap();
        let sources = random_sources(100, 6, 2);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = kssp_cor47(&mut net, &sources, 0.5, 1.5, 3, Prep::Cold).unwrap();
        let exact = exact_rows(&g, &sources);
        for (s_idx, row) in exact.iter().enumerate() {
            for v in 0..100 {
                assert!(out.est[s_idx][v] >= row[v], "underestimate at ({s_idx}, {v})");
            }
        }
        let ratio = max_ratio(&out.est, &exact);
        let bound = out.guaranteed_factor(false);
        assert!(ratio <= bound + 1e-9, "ratio {ratio} > guarantee {bound}");
    }

    #[test]
    fn unweighted_cor46_is_tight() {
        let g = grid(10, 10, 1).unwrap();
        // n^{xγ} = 100^{1/3} ≈ 4.6, capacity tolerance ×4 ⇒ a handful of sources.
        let sources = random_sources(100, 4, 5);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = kssp_cor46(&mut net, &sources, 0.5, 1.5, 7, Prep::Cold).unwrap();
        let exact = exact_rows(&g, &sources);
        let ratio = max_ratio(&out.est, &exact);
        assert!(ratio <= out.guaranteed_factor(true) + 1e-9, "ratio {ratio}");
    }

    #[test]
    fn genuine_clique_plugin_gives_exact_kssp() {
        // Bellman–Ford is exact (α = 1, β = 0) and the framework's only loss is
        // the representative detour — so estimates equal the guarantee math with
        // α = 1. With single source forced into the skeleton it must be exact.
        let mut rng = StdRng::seed_from_u64(4);
        let g = erdos_renyi_connected(70, 0.08, 3, &mut rng).unwrap();
        let source = NodeId::new(12);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = kssp_framework(&mut net, &BellmanFordKSsp::new(), &[source], 1.5, 9, Prep::Cold)
            .unwrap();
        let exact = exact_rows(&g, &[source]);
        assert_eq!(out.est[0], exact[0], "single-source with exact plugin must be exact");
        assert!(out.single_source);
    }

    #[test]
    fn too_many_sources_rejected() {
        // A single-source plugin must reject multi-source instances outright
        // rather than silently dropping sources.
        let g = grid(8, 8, 1).unwrap();
        let alg = clique_sim::declared::DeclaredKssp::exact_sssp();
        let sources: Vec<NodeId> = vec![NodeId::new(0), NodeId::new(9)];
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let err = kssp_framework(&mut net, &alg, &sources, 1.5, 1, Prep::Cold).unwrap_err();
        assert!(
            matches!(
                err,
                HybridError::Clique(clique_sim::CliqueError::TooManySources { got: 2, max: 1 })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn cor48_runs_and_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = erdos_renyi_connected(90, 0.07, 1, &mut rng).unwrap();
        let sources = random_sources(90, 8, 3);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = kssp_cor48(&mut net, &sources, 0.25, 1.5, 2, Prep::Cold).unwrap();
        let exact = exact_rows(&g, &sources);
        assert!(max_ratio(&out.est, &exact) <= out.guaranteed_factor(true) + 1e-9);
        // The plugin's δ = 0.15715 sets the skeleton exponent x = 2/(3+2δ),
        // and with it h = ⌈ξ · n^{1-x} · ln n⌉.
        let (n, x) = (90f64, 2.0 / (3.0 + 2.0 * 0.15715));
        assert_eq!(out.h, (1.5 * n.powf(1.0 - x) * n.ln()).ceil() as usize);
    }
}
