//! Diameter computation in the HYBRID model (§5, Theorem 5.1, Algorithm 9) and
//! its instantiations (Corollaries 5.2, 5.3 = Theorem 1.4).
//!
//! Framework: build a skeleton (`|V_S| ≈ n^x`, `x = 2/(3+2δ)`), run an `(α, β)`
//! CLIQUE diameter algorithm on it, flood the estimate `ηh + 1` hops while every
//! node measures the largest hop distance `h_v` in its `(ηh+1)`-ball, aggregate
//! `ĥ = max_v h_v` globally (Lemma B.2), and output
//!
//! ```text
//! D̃ = ĥ              if ĥ ≤ ηh    (the diameter was small enough to see locally)
//! D̃ = D̃(S) + 2h      otherwise    (skeleton diameter ≥ D - 2h, Lemma C.1/C.2)
//! ```
//!
//! yielding an `(α + 2/η + β/T_B)`-approximation of the *hop* diameter `D(G)`
//! of an unweighted graph.

use clique_sim::declared::DeclaredKssp;
use clique_sim::diameter::{DeclaredDiameter32, DeclaredDiameterAlgebraic};
use clique_sim::CliqueDiameterAlgorithm;
use hybrid_graph::bfs::local_max_hop;
use hybrid_graph::{Distance, NodeId, INFINITY};
use hybrid_sim::{derive_seed, HybridNet};

use crate::aggregate::aggregate_all;
use crate::clique_on_skeleton::simulate_diameter_on_skeleton;
use crate::error::HybridError;
use crate::prepare::{skeleton_phase, Prep};

/// Result of a diameter framework run.
#[derive(Debug, Clone)]
pub struct DiameterOutcome {
    /// The estimate `D̃`.
    pub estimate: Distance,
    /// Total HYBRID rounds `T_B`.
    pub rounds: u64,
    /// Skeleton size.
    pub skeleton_size: usize,
    /// Skeleton hop budget `h`.
    pub h: usize,
    /// Whether the small-diameter exact path (`D̃ = ĥ`) was taken.
    pub exact_local: bool,
    /// The exploration threshold `⌈ηh⌉` (the else-branch implies `D` exceeds
    /// it, which converts the additive error at this rate).
    pub explore: u64,
    /// `(α, η, β bound)` of the plugged algorithm, for guarantee computation.
    pub alpha: f64,
    /// Runtime multiplier `η`.
    pub eta: f64,
    /// Additive `β` bound evaluated on the skeleton's max edge weight.
    pub beta_bound: f64,
}

impl DiameterOutcome {
    /// The approximation factor Theorem 5.1 guarantees for this run:
    /// `α + 2/η + β/⌈ηh⌉` (exact when the local path was taken).
    pub fn guaranteed_factor(&self) -> f64 {
        if self.exact_local {
            1.0
        } else {
            let beta_term =
                if self.explore > 0 { self.beta_bound / self.explore as f64 } else { 0.0 };
            self.alpha + 2.0 / self.eta + beta_term
        }
    }
}

/// Runs the diameter framework (Algorithm 9) with CLIQUE plugin `alg` and
/// skeleton radius constant `xi` (see [`crate::solver::Query::Diameter`]) on
/// an unweighted graph.
///
/// # Errors
///
/// Propagates simulator/CLIQUE errors.
pub(crate) fn diameter_framework<A: CliqueDiameterAlgorithm + ?Sized>(
    net: &mut HybridNet<'_>,
    alg: &A,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<DiameterOutcome, HybridError> {
    let start = net.rounds();
    let delta = alg.delta();
    let x = 2.0 / (3.0 + 2.0 * delta);

    // Step 1: skeleton.
    let art = skeleton_phase(net, x, xi, &[], seed, "diam:skeleton", prep)?;
    let skeleton = &art.skeleton;
    let h = skeleton.h();

    // Step 2: CLIQUE diameter algorithm on the skeleton.
    let (d_tilde_s, _) =
        simulate_diameter_on_skeleton(net, skeleton, alg, derive_seed(seed, 1), "diam:clique")?;

    // Step 3: local exploration for ηh + 1 rounds — spreads D̃(S) and lets every
    // node measure h_v, its largest visible hop distance.
    let eta = alg.eta().max(1.0);
    let explore = ((eta * h as f64).ceil() as u64).max(1) + 1;
    net.charge_local(explore, "diam:local-exploration");
    let g = net.graph();
    // Every node measures h_v in its own ball.
    let h_values: Vec<Option<u64>> =
        g.nodes().map(|v| Some(local_max_hop(g, v, explore as usize))).collect();

    // Step 4: global max-aggregation of ĥ (Lemma B.2, O(log n) rounds).
    let h_hat =
        aggregate_all(net, &h_values, "diam:aggregate", |a, b| a.max(b))?.expect("n ≥ 1 values");

    // Step 5: Equation (3).
    let threshold = explore - 1; // ηh
    let (estimate, exact_local) = if h_hat <= threshold {
        (h_hat, true)
    } else {
        (d_tilde_s.saturating_add(2 * h as u64), false)
    };
    Ok(DiameterOutcome {
        estimate,
        rounds: net.rounds() - start,
        skeleton_size: skeleton.len(),
        h,
        exact_local,
        explore: threshold,
        alpha: alg.alpha(),
        eta,
        beta_bound: alg.beta().bound(skeleton.graph().max_weight()),
    })
}

/// Corollary 5.2: `(3/2 + ε)`-approximate diameter in `Õ(n^{1/3}/ε)` rounds.
///
/// # Errors
///
/// Propagates framework errors.
pub(crate) fn diameter_cor52(
    net: &mut HybridNet<'_>,
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<DiameterOutcome, HybridError> {
    let alg = DeclaredDiameter32::new(eps, derive_seed(seed, 52));
    diameter_framework(net, &alg, xi, seed, prep)
}

/// Corollary 5.3: `(1 + ε)`-approximate diameter in `Õ(n^{0.397}/ε)` rounds.
///
/// # Errors
///
/// Propagates framework errors.
pub(crate) fn diameter_cor53(
    net: &mut HybridNet<'_>,
    eps: f64,
    xi: f64,
    seed: u64,
    prep: Prep<'_>,
) -> Result<DiameterOutcome, HybridError> {
    let alg = DeclaredDiameterAlgebraic::new(eps, derive_seed(seed, 53));
    diameter_framework(net, &alg, xi, seed, prep)
}

/// Upper bound noted after Theorem 1.6: a `(2+o(1))`-approximation of the
/// *weighted* diameter in `Õ(n^{1/3})` rounds via the `(1+o(1))`-approximate
/// SSSP eccentricity trick (`D/2 ≤ e(v) ≤ D`, footnote 6): run the SSSP scheme
/// from one node and output `2·ẽ(v)`.
///
/// # Errors
///
/// Propagates framework errors.
pub(crate) fn weighted_diameter_2approx(
    net: &mut HybridNet<'_>,
    eps: f64,
    xi: f64,
    seed: u64,
) -> Result<DiameterOutcome, HybridError> {
    // (1+ε)-approximate SSSP from node 0 via the framework with the algebraic
    // APSP plugin restricted to one source.
    let alg = DeclaredKssp::algebraic_apsp(eps, derive_seed(seed, 66));
    let out = crate::ksssp::kssp_framework(net, &alg, &[NodeId::new(0)], xi, seed, Prep::Cold)?;
    let ecc = out.est[0].iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0);
    Ok(DiameterOutcome {
        estimate: ecc.saturating_mul(2),
        rounds: out.rounds,
        skeleton_size: out.skeleton_size,
        h: out.h,
        exact_local: false,
        explore: out.explore,
        alpha: 2.0 * (1.0 + eps),
        eta: 1.0,
        beta_bound: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::apsp::weighted_diameter;
    use hybrid_graph::bfs::unweighted_diameter;
    use hybrid_graph::generators::{cycle, erdos_renyi_connected, grid};
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_diameter_graphs_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(80, 0.1, 1, &mut rng).unwrap();
        let d = unweighted_diameter(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = diameter_cor52(&mut net, 0.5, 1.5, 3, Prep::Cold).unwrap();
        // ER diameter ≈ 3 ≪ ηh: the local path applies and is exact.
        assert!(out.exact_local);
        assert_eq!(out.estimate, d);
    }

    #[test]
    fn estimates_respect_guarantee_on_large_diameter() {
        // A long cycle with ξ chosen so the skeleton covers the cycle (max
        // sampling gap below h — the Lemma C.1 regime) while ηh < D still
        // forces the skeleton path.
        let g = cycle(300, 1).unwrap();
        let d = unweighted_diameter(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = diameter_cor52(&mut net, 0.5, 1.2, 5, Prep::Cold).unwrap();
        assert!(!out.exact_local, "ηh = {} vs D = {d}", out.h);
        assert!(out.estimate >= d, "never underestimates: {} < {d}", out.estimate);
        let ratio = out.estimate as f64 / d as f64;
        assert!(
            ratio <= out.guaranteed_factor() + 1e-9,
            "ratio {ratio} > guarantee {}",
            out.guaranteed_factor()
        );
    }

    #[test]
    fn cor53_tighter_than_cor52_factor() {
        let g = grid(14, 14, 1).unwrap();
        let mut n1 = HybridNet::new(&g, HybridConfig::default());
        let a = diameter_cor52(&mut n1, 0.2, 0.05, 7, Prep::Cold).unwrap();
        let mut n2 = HybridNet::new(&g, HybridConfig::default());
        let b = diameter_cor53(&mut n2, 0.2, 0.05, 7, Prep::Cold).unwrap();
        assert!(b.guaranteed_factor() < a.guaranteed_factor());
        let d = unweighted_diameter(&g);
        assert!(a.estimate >= d && b.estimate >= d);
    }

    #[test]
    fn weighted_2approx() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = erdos_renyi_connected(70, 0.08, 9, &mut rng).unwrap();
        let d = weighted_diameter(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = weighted_diameter_2approx(&mut net, 0.1, 1.5, 2).unwrap();
        assert!(out.estimate >= d, "eccentricity × 2 upper-bounds D");
        assert!(out.estimate as f64 <= 2.2 * d as f64 + 1.0);
    }
}
