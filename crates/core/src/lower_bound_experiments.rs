//! Empirical companions to the paper's lower bounds (§6: Theorem 1.5, §7:
//! Theorem 1.6).
//!
//! Lower bounds cannot be "run", but their *mechanisms* can be measured:
//!
//! * **k-SSP (Figure 1)**: the `Ω(k)`-bit random source assignment must reach
//!   node `b` through the `L`-hop path prefix whose global receive capacity is
//!   `O(L log² n)` bits per round. We build the construction, register the
//!   prefix as a cut in the simulator, run a real k-SSP algorithm, check `b`
//!   learns the right distances, and compare the measured cut traffic and round
//!   count against the predicted `Ω̃(√k)` bound.
//! * **Diameter (Figure 2)**: the diameter of `Γ^{a,b}_{k,ℓ,W}` distinguishes
//!   disjoint from intersecting set-disjointness instances (Lemmas 7.1 / 7.2),
//!   and any algorithm that resolves it must push `Ω(k²)` bits across the
//!   column cut whose capacity is `Õ(n)` bits per round — hence
//!   `Ω̃(n^{1/3})` rounds. We verify the diameter gap, measure what our actual
//!   approximation algorithms see, and tabulate the implied bound.

use hybrid_graph::apsp::weighted_diameter;
use hybrid_graph::bfs::unweighted_diameter;
use hybrid_graph::graph::log2_ceil;
use hybrid_graph::lower_bounds::{GammaGraph, KsspLowerBound, SetDisjointness};
use hybrid_graph::{Distance, INFINITY};
use hybrid_sim::{HybridConfig, HybridNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::diameter::{diameter_cor52, weighted_diameter_2approx};
use crate::error::HybridError;
use crate::ksssp::kssp_cor47;
use crate::prepare::Prep;

/// Measurement report for the k-SSP lower bound (Theorem 1.5 / Figure 1).
#[derive(Debug, Clone)]
pub struct KsspLbReport {
    /// Number of sources `k`.
    pub k: usize,
    /// Prefix length `L` (the paper sets `L ∈ Θ̃(√k)`).
    pub l: usize,
    /// Network size of the construction.
    pub n: usize,
    /// Entropy of the source assignment in bits (`≈ k`).
    pub entropy_bits: f64,
    /// Global-receive capacity of the prefix in bits per round
    /// (`L · recv_cap · ⌈log₂ n⌉`).
    pub cut_capacity_bits_per_round: f64,
    /// The implied round lower bound `entropy / capacity`.
    pub predicted_round_lb: f64,
    /// Rounds the real algorithm took.
    pub measured_rounds: u64,
    /// Global messages that crossed the prefix cut.
    pub measured_cut_messages: u64,
    /// Whether node `b` learned every source distance exactly enough to decode
    /// the assignment (approximation factor below the paper's `α'`).
    pub b_decodes_assignment: bool,
}

/// Builds the Figure-1 construction and measures a real k-SSP run against the
/// information-theoretic bound.
///
/// # Errors
///
/// Propagates algorithm errors.
pub fn run_kssp_lower_bound(
    path_len: usize,
    l: usize,
    k: usize,
    eps: f64,
    seed: u64,
) -> Result<KsspLbReport, HybridError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lb = KsspLowerBound::random(path_len, l, k, &mut rng)?;
    let g = &lb.graph;
    let n = g.len();
    let mut net = HybridNet::new(g, HybridConfig::default());
    // The cut: the L-hop prefix of the path (Alice's side is everything else).
    let side: Vec<bool> = g.nodes().map(|v| lb.on_b_side(v, l)).collect();
    net.set_cut(side);

    let out = kssp_cor47(&mut net, &lb.sources, eps, 0.3, seed, Prep::Cold)?;

    // b decodes the assignment iff its estimate for every source distinguishes
    // "near v1" (distance l+1) from "near v2" (distance path_len): the
    // approximation must stay below α' ∈ Θ(n/√k) — here simply: the estimate
    // for a near source must be smaller than the true far distance.
    let far = lb.path_nodes.len() as Distance;
    let b_decodes = lb.sources.iter().enumerate().all(|(i, _)| {
        let est = out.get(i, lb.b);
        if lb.assignment[i] {
            est < far // near sources must not be confused with far ones
        } else {
            est >= far
        }
    });

    let log = log2_ceil(n);
    let capacity = (l as f64) * net.recv_cap() as f64 * log as f64;
    let entropy = lb.assignment_entropy_bits();
    Ok(KsspLbReport {
        k,
        l,
        n,
        entropy_bits: entropy,
        cut_capacity_bits_per_round: capacity,
        predicted_round_lb: entropy / capacity,
        measured_rounds: out.rounds,
        measured_cut_messages: net.metrics().cut_messages,
        b_decodes_assignment: b_decodes,
    })
}

/// Measurement report for the diameter lower bound (Theorem 1.6 / Figure 2).
#[derive(Debug, Clone)]
pub struct DiameterLbReport {
    /// Clique size `k` (universe `k²`).
    pub k: usize,
    /// Path parameter `ℓ`.
    pub ell: usize,
    /// Heavy weight `W`.
    pub w: Distance,
    /// Network size `n = 4k + 2 + (2k+1)(ℓ-1)`.
    pub n: usize,
    /// Whether the encoded instance is disjoint.
    pub disjoint: bool,
    /// The reference diameter of the construction (weighted for `W > 1`).
    pub true_diameter: Distance,
    /// The diameter value Lemma 7.1/7.2 predicts for this instance class.
    pub lemma_diameter: Distance,
    /// Entropy that must cross the cut to resolve disjointness (`k²` bits).
    pub entropy_bits: f64,
    /// Global capacity of the whole network in bits per round (`n·recv_cap·log n`).
    pub capacity_bits_per_round: f64,
    /// The implied exact-diameter round bound `Ω(k² / (n log² n))`.
    pub implied_round_lb: f64,
    /// Rounds our (approximate!) diameter algorithm took — approximation is how
    /// upper bounds duck under the exact-computation lower bound.
    pub approx_rounds: u64,
    /// The approximate algorithm's estimate.
    pub approx_estimate: Distance,
    /// Messages crossing the middle column cut during the approximate run.
    pub cut_messages: u64,
}

/// Builds `Γ^{a,b}` for a random (dis)joint instance, verifies the Lemma 7.1 /
/// 7.2 diameter gap, and measures an approximate-diameter run across the cut.
///
/// # Errors
///
/// Propagates algorithm errors.
pub fn run_diameter_lower_bound(
    k: usize,
    ell: usize,
    w: Distance,
    disjoint: bool,
    eps: f64,
    seed: u64,
) -> Result<DiameterLbReport, HybridError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = if disjoint {
        SetDisjointness::random_disjoint(k, &mut rng)
    } else {
        SetDisjointness::random_intersecting(k, &mut rng)
    };
    let gamma = GammaGraph::build(inst, ell, w)?;
    let g = &gamma.graph;
    let n = g.len();

    // Reference diameter and the lemma's prediction.
    let true_diameter = if w == 1 { unweighted_diameter(g) } else { weighted_diameter(g) };
    let lemma_diameter =
        if disjoint { gamma.disjoint_diameter() } else { gamma.intersecting_diameter() };
    if true_diameter == INFINITY {
        return Err(HybridError::InvariantViolation("Γ graph must be connected".into()));
    }

    // Run an approximation with the middle column cut registered. For the
    // unweighted case (W = 1) the (3/2+ε) hop-diameter algorithm applies; for
    // the weighted case we use the paper's (2+o(1)) weighted upper bound (the
    // eccentricity trick after Theorem 1.6) — precisely the factor the (2-ε)
    // lower bound shows to be optimal.
    let mut net = HybridNet::new(g, HybridConfig::default());
    let side: Vec<bool> = g.nodes().map(|v| gamma.on_alice_side(v, ell / 2)).collect();
    net.set_cut(side);
    let out = if w == 1 {
        diameter_cor52(&mut net, eps, 0.3, seed, Prep::Cold)?
    } else {
        weighted_diameter_2approx(&mut net, eps, 0.3, seed)?
    };

    let log = log2_ceil(n) as f64;
    let entropy = (k * k) as f64;
    let capacity = n as f64 * net.recv_cap() as f64 * log;
    Ok(DiameterLbReport {
        k,
        ell,
        w,
        n,
        disjoint,
        true_diameter,
        lemma_diameter,
        entropy_bits: entropy,
        capacity_bits_per_round: capacity,
        implied_round_lb: entropy / capacity,
        approx_rounds: out.rounds,
        approx_estimate: out.estimate,
        cut_messages: net.metrics().cut_messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kssp_lb_reports_consistent_numbers() {
        let rep = run_kssp_lower_bound(24, 6, 12, 0.5, 3).unwrap();
        assert_eq!(rep.k, 12);
        assert_eq!(rep.n, 24 + 12);
        assert!(rep.entropy_bits > 6.0);
        assert!(rep.predicted_round_lb > 0.0);
        assert!(rep.measured_rounds > 0);
        assert!(rep.measured_cut_messages > 0, "the algorithm must talk across the cut");
        assert!(rep.b_decodes_assignment, "the upper bound must actually solve the instance");
    }

    #[test]
    fn diameter_lb_gap_detected_weighted() {
        let dis = run_diameter_lower_bound(3, 3, 12, true, 0.4, 1).unwrap();
        assert!(dis.true_diameter <= dis.lemma_diameter);
        let int = run_diameter_lower_bound(3, 3, 12, false, 0.4, 1).unwrap();
        assert_eq!(int.true_diameter, int.lemma_diameter);
        assert!(
            int.true_diameter > dis.true_diameter,
            "intersecting instances have strictly larger diameter"
        );
    }

    #[test]
    fn diameter_lb_gap_detected_unweighted() {
        let dis = run_diameter_lower_bound(3, 4, 1, true, 0.4, 2).unwrap();
        let int = run_diameter_lower_bound(3, 4, 1, false, 0.4, 2).unwrap();
        assert_eq!(int.true_diameter, (int.ell + 2) as u64);
        assert!(dis.true_diameter <= (dis.ell + 1) as u64);
    }

    #[test]
    fn implied_bound_grows_with_k() {
        let small = run_diameter_lower_bound(2, 3, 8, true, 0.4, 3).unwrap();
        let large = run_diameter_lower_bound(6, 3, 8, true, 0.4, 3).unwrap();
        assert!(large.implied_round_lb > small.implied_round_lb);
    }
}
