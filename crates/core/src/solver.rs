//! The unified solver API: typed [`Query`] → [`solve`] → [`Report`].
//!
//! The paper presents one coherent family of HYBRID-model distance algorithms
//! (Theorem 1.1 APSP, Theorem 1.3 SSSP, the Theorem 4.1 k-SSP framework, the
//! Theorem 5.1 diameter framework). This module is the single typed entry
//! point over all of them:
//!
//! * [`Query`] — *what* to compute, as data. Corollary numbers are real enums
//!   ([`KsspCorollary`], [`DiameterCorollary`]), so invalid combinations are
//!   unrepresentable; parameters are validated at construction by the
//!   builders ([`Query::apsp`], [`Query::sssp`], [`Query::kssp`],
//!   [`Query::diameter`]) instead of deep inside a protocol phase.
//! * [`solve`] — runs the query on a [`HybridNet`] with a root seed.
//! * [`Report`] — the uniform outcome: a typed [`Answer`], the round/message
//!   accounting, and the [`Guarantee`] the paper proves for that run (exact,
//!   or the Theorem 4.1 / Theorem 5.1 approximation factor evaluated at the
//!   run's actual exploration radius) — so verification layers read the
//!   contract off the report instead of recomputing it per algorithm.
//!
//! `solve` and [`crate::session::Session`] are the only ways into the
//! algorithms: the per-algorithm protocol functions are private to this
//! crate. `solve` runs them with cold preprocessing; a session serves their
//! shared preamble from its prepared artifact and answers bit-identically.
//!
//! # Example
//!
//! ```
//! use hybrid_core::solver::{solve, Answer, Query};
//! use hybrid_graph::generators::grid;
//! use hybrid_sim::{HybridConfig, HybridNet};
//!
//! let g = grid(6, 6, 1).unwrap();
//! let mut net = HybridNet::new(&g, HybridConfig::default());
//! let query = Query::apsp().xi(1.5).build().unwrap();
//! let report = solve(&mut net, &query, 7).unwrap();
//! assert!(report.guarantee.is_exact());
//! assert!(matches!(report.answer, Answer::Distances(_)));
//! assert!(report.rounds > 0);
//! ```

use hybrid_graph::apsp::DistanceMatrix;
use hybrid_graph::{Distance, NodeId, INFINITY};
use hybrid_sim::{HybridNet, PhaseStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

use crate::apsp::{apsp_local_only, exact_apsp, exact_apsp_soda20};
use crate::diameter::{diameter_cor52, diameter_cor53};
use crate::error::HybridError;
use crate::ksssp::{kssp_cor46, kssp_cor47, kssp_cor48};
use crate::prepare::Prep;
use crate::sssp::{approx_sssp_soda20, exact_sssp, sssp_local_bellman_ford};

/// A structurally valid query with invalid *parameters* — rejected by the
/// builders at construction and by [`solve`] as a backstop for hand-built
/// [`Query`] values.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The skeleton radius constant must be positive and finite.
    NonPositiveXi {
        /// The offending value.
        xi: f64,
    },
    /// The approximation parameter must lie in `(0, 1)`.
    EpsOutOfRange {
        /// The offending value.
        eps: f64,
    },
    /// A k-SSP query needs at least one source (`k ≥ 1`).
    NoSources,
    /// Not a k-SSP corollary number (the paper defines 46, 47, 48).
    UnknownKsspCorollary {
        /// The rejected number.
        cor: u8,
    },
    /// Not a diameter corollary number (the paper defines 52, 53).
    UnknownDiameterCorollary {
        /// The rejected number.
        cor: u8,
    },
    /// A [`crate::session::Session`] was handed a query whose `ξ` differs
    /// from the prepared artifact's — served structurally instead of silently
    /// re-preprocessing under the wrong constant.
    SessionXiMismatch {
        /// The session's pinned ξ.
        expected: f64,
        /// The query's ξ.
        got: f64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NonPositiveXi { xi } => {
                write!(f, "skeleton constant ξ must be positive and finite, got {xi}")
            }
            QueryError::EpsOutOfRange { eps } => {
                write!(f, "approximation parameter ε must be in (0, 1), got {eps}")
            }
            QueryError::NoSources => write!(f, "k-SSP queries need at least one source (k ≥ 1)"),
            QueryError::UnknownKsspCorollary { cor } => {
                write!(f, "unknown k-SSP corollary {cor} (the paper defines 46, 47, 48)")
            }
            QueryError::UnknownDiameterCorollary { cor } => {
                write!(f, "unknown diameter corollary {cor} (the paper defines 52, 53)")
            }
            QueryError::SessionXiMismatch { expected, got } => {
                write!(
                    f,
                    "query ξ = {got} does not match the session's prepared ξ = {expected} \
                     (open a session with the matching constant instead of re-preprocessing)"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Which exact-APSP pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApspVariant {
    /// Theorem 1.1: `Õ(√n)` rounds via token routing.
    Thm11,
    /// The `Õ(n^{2/3})` broadcast baseline of Augustine et al. (SODA'20).
    Soda20,
    /// The LOCAL-only yardstick: `Θ(D)` rounds of full-graph flooding.
    LocalFlood,
}

/// Which SSSP algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SsspVariant {
    /// Theorem 1.3: exact SSSP in `Õ(n^{2/5})` rounds.
    Thm13,
    /// Exact distributed Bellman–Ford over the local edges (`Θ(SPD)` rounds).
    LocalBellmanFord,
    /// The `(1+ε)`-approximate `Õ(n^{1/3})` SSSP of Augustine et al.
    ApproxSoda20 {
        /// Approximation parameter `ε ∈ (0, 1)`.
        eps: f64,
    },
}

/// The k-SSP corollaries of Theorem 1.2 (§4), as a closed enum — an invalid
/// corollary number is unrepresentable (use [`KsspCorollary::try_from`] at
/// deserialization boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsspCorollary {
    /// Corollary 4.6: `n^{1/3}` sources, `(1+ε)` unweighted / `(3+ε)`
    /// weighted, `Õ(n^{1/3}/ε)` rounds.
    Cor46,
    /// Corollary 4.7: any `k` sources, `(2+ε)` unweighted / `(7+ε)` weighted,
    /// `Õ(n^{1/3}/ε + √k)` rounds.
    Cor47,
    /// Corollary 4.8: any `k` sources, `(1+ε)` unweighted / `(3+o(1))`
    /// weighted, `Õ(n^{0.397} + √k)` rounds.
    Cor48,
}

impl KsspCorollary {
    /// The paper's corollary number.
    pub fn number(self) -> u8 {
        match self {
            KsspCorollary::Cor46 => 46,
            KsspCorollary::Cor47 => 47,
            KsspCorollary::Cor48 => 48,
        }
    }
}

impl TryFrom<u8> for KsspCorollary {
    type Error = QueryError;

    fn try_from(cor: u8) -> Result<Self, QueryError> {
        match cor {
            46 => Ok(KsspCorollary::Cor46),
            47 => Ok(KsspCorollary::Cor47),
            48 => Ok(KsspCorollary::Cor48),
            _ => Err(QueryError::UnknownKsspCorollary { cor }),
        }
    }
}

/// The diameter corollaries of Theorem 1.4 (§5), as a closed enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiameterCorollary {
    /// Corollary 5.2: `(3/2 + ε)`-approximation in `Õ(n^{1/3}/ε)` rounds.
    Cor52,
    /// Corollary 5.3: `(1 + ε)`-approximation in `Õ(n^{0.397}/ε)` rounds.
    Cor53,
}

impl DiameterCorollary {
    /// The paper's corollary number.
    pub fn number(self) -> u8 {
        match self {
            DiameterCorollary::Cor52 => 52,
            DiameterCorollary::Cor53 => 53,
        }
    }
}

impl TryFrom<u8> for DiameterCorollary {
    type Error = QueryError;

    fn try_from(cor: u8) -> Result<Self, QueryError> {
        match cor {
            52 => Ok(DiameterCorollary::Cor52),
            53 => Ok(DiameterCorollary::Cor53),
            _ => Err(QueryError::UnknownDiameterCorollary { cor }),
        }
    }
}

/// The sources of a k-SSP query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSet {
    /// `k` distinct pseudo-random nodes, derived deterministically from the
    /// run seed with [`random_sources`] — the registry's standard picker.
    Random {
        /// Source count `k ≥ 1` (clamped to `n` at solve time).
        k: usize,
    },
    /// An explicit source list.
    Nodes(Vec<NodeId>),
}

impl SourceSet {
    /// Resolves the set to concrete nodes on a graph of `n` nodes.
    fn resolve(&self, n: usize, seed: u64) -> Vec<NodeId> {
        match self {
            SourceSet::Random { k } => random_sources(n, *k, seed),
            SourceSet::Nodes(nodes) => nodes.clone(),
        }
    }
}

/// `k` distinct nodes of `0..n`, uniformly without replacement, sorted,
/// deterministic in `seed` — the standard source/landmark picker shared by
/// [`SourceSet::Random`] and the scenario engine.
pub fn random_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    all.shuffle(&mut rng);
    let mut out = all[..k.min(n)].to_vec();
    out.sort_unstable();
    out
}

/// A validated distance/diameter computation request — *what* to compute, as
/// plain data. Construct through the builders ([`Query::apsp`],
/// [`Query::sssp`], [`Query::kssp`], [`Query::diameter`]), which validate
/// parameters up front; [`solve`] re-validates as a backstop for hand-built
/// values.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Exact all-pairs shortest paths.
    Apsp {
        /// Which APSP pipeline.
        variant: ApspVariant,
        /// Skeleton radius constant `ξ`. The skeleton samples each node with
        /// probability `n^{x-1}` and joins its members by paths of up to
        /// `h = ⌈ξ · n^{1-x} · ln n⌉` hops: `x = 1/2` for
        /// [`ApspVariant::Thm11`] (`h = ξ·√n·ln n`), `x = 1/3` for
        /// [`ApspVariant::Soda20`]. Lemma C.1 wants `ξ ≥ 8` for its w.h.p.
        /// guarantee; at simulable `n` that exceeds most graph diameters, so
        /// experiments document the value they use. Ignored by
        /// [`ApspVariant::LocalFlood`].
        xi: f64,
    },
    /// Single-source shortest paths.
    Sssp {
        /// Which SSSP algorithm.
        variant: SsspVariant,
        /// The source node.
        source: NodeId,
        /// Skeleton radius constant `ξ`. [`SsspVariant::Thm13`] instantiates
        /// the Theorem 4.1 framework at `δ = 1/6`, i.e. skeleton exponent
        /// `x = 2/(3+2δ) = 3/5`: nodes are sampled into the skeleton with
        /// probability `n^{-2/5}` (so `|V_S| ≈ n^{3/5}`) and connected by
        /// paths of up to `h = ⌈ξ · n^{2/5} · ln n⌉` hops (pinned by the
        /// `xi_scales_the_skeleton_radius_as_documented` test);
        /// [`SsspVariant::ApproxSoda20`] samples at `x = 2/3`. Larger `ξ`
        /// means a larger `h`: more local exploration rounds, but a lower
        /// Lemma C.1 failure probability (see [`Query::Apsp::xi`]). Ignored by
        /// [`SsspVariant::LocalBellmanFord`].
        xi: f64,
    },
    /// k-source shortest paths (Theorem 4.1 framework).
    Kssp {
        /// Which corollary instantiation.
        cor: KsspCorollary,
        /// The sources.
        sources: SourceSet,
        /// Approximation parameter `ε ∈ (0, 1)`.
        eps: f64,
        /// Skeleton radius constant `ξ`: the framework samples its skeleton
        /// with exponent `x = 2/(3+2δ)` (δ declared by the corollary's CLIQUE
        /// plugin) and joins it by paths of up to `h = ⌈ξ · n^{1-x} · ln n⌉`
        /// hops (see [`Query::Apsp::xi`]).
        xi: f64,
    },
    /// Diameter approximation (Theorem 5.1 framework) on an unweighted graph.
    Diameter {
        /// Which corollary instantiation.
        cor: DiameterCorollary,
        /// Approximation parameter `ε ∈ (0, 1)`.
        eps: f64,
        /// Skeleton radius constant `ξ`: the framework samples its skeleton
        /// with exponent `x = 2/(3+2δ)` (δ declared by the corollary's CLIQUE
        /// plugin) and joins it by paths of up to `h = ⌈ξ · n^{1-x} · ln n⌉`
        /// hops, the same role as for [`Query::Kssp`].
        xi: f64,
    },
}

fn check_xi(xi: f64) -> Result<(), QueryError> {
    if xi > 0.0 && xi.is_finite() {
        Ok(())
    } else {
        Err(QueryError::NonPositiveXi { xi })
    }
}

fn check_eps(eps: f64) -> Result<(), QueryError> {
    if eps > 0.0 && eps < 1.0 {
        Ok(())
    } else {
        Err(QueryError::EpsOutOfRange { eps })
    }
}

impl Query {
    /// Builder for an exact-APSP query (default: [`ApspVariant::Thm11`],
    /// `ξ = 1.5`).
    pub fn apsp() -> ApspQueryBuilder {
        ApspQueryBuilder { variant: ApspVariant::Thm11, xi: 1.5 }
    }

    /// Builder for an SSSP query from `source` (default:
    /// [`SsspVariant::Thm13`], `ξ = 1.5`).
    pub fn sssp(source: NodeId) -> SsspQueryBuilder {
        SsspQueryBuilder { variant: SsspVariant::Thm13, source, xi: 1.5 }
    }

    /// Builder for a k-SSP query under corollary `cor` (default: `ε = 0.5`,
    /// `ξ = 1.5`; the sources must be set).
    pub fn kssp(cor: KsspCorollary) -> KsspQueryBuilder {
        KsspQueryBuilder { cor, sources: None, eps: 0.5, xi: 1.5 }
    }

    /// Builder for a diameter query under corollary `cor` (default: `ε = 0.5`,
    /// `ξ = 1.5`).
    pub fn diameter(cor: DiameterCorollary) -> DiameterQueryBuilder {
        DiameterQueryBuilder { cor, eps: 0.5, xi: 1.5 }
    }

    /// The canonical label of this query — stable across releases; used by
    /// scenario reports, benchmark records, and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Query::Apsp { variant: ApspVariant::Thm11, .. } => "apsp-thm11",
            Query::Apsp { variant: ApspVariant::Soda20, .. } => "apsp-soda20",
            Query::Apsp { variant: ApspVariant::LocalFlood, .. } => "apsp-local-flood",
            Query::Sssp { variant: SsspVariant::Thm13, .. } => "sssp-thm13",
            Query::Sssp { variant: SsspVariant::LocalBellmanFord, .. } => "sssp-local-bf",
            Query::Sssp { variant: SsspVariant::ApproxSoda20 { .. }, .. } => "sssp-soda20",
            Query::Kssp { cor: KsspCorollary::Cor46, .. } => "kssp-cor46",
            Query::Kssp { cor: KsspCorollary::Cor47, .. } => "kssp-cor47",
            Query::Kssp { cor: KsspCorollary::Cor48, .. } => "kssp-cor48",
            Query::Diameter { cor: DiameterCorollary::Cor52, .. } => "diameter-cor52",
            Query::Diameter { cor: DiameterCorollary::Cor53, .. } => "diameter-cor53",
        }
    }

    /// Validates the query's parameters (`ξ > 0`, `k ≥ 1`, `ε ∈ (0, 1)`).
    /// The builders run this at construction; [`solve`] runs it as a backstop.
    pub fn validate(&self) -> Result<(), QueryError> {
        match self {
            Query::Apsp { variant, xi } => {
                if *variant != ApspVariant::LocalFlood {
                    check_xi(*xi)?;
                }
            }
            Query::Sssp { variant, xi, .. } => {
                if *variant != SsspVariant::LocalBellmanFord {
                    check_xi(*xi)?;
                }
                if let SsspVariant::ApproxSoda20 { eps } = variant {
                    check_eps(*eps)?;
                }
            }
            Query::Kssp { sources, eps, xi, .. } => {
                check_xi(*xi)?;
                check_eps(*eps)?;
                let empty = match sources {
                    SourceSet::Random { k } => *k == 0,
                    SourceSet::Nodes(nodes) => nodes.is_empty(),
                };
                if empty {
                    return Err(QueryError::NoSources);
                }
            }
            Query::Diameter { eps, xi, .. } => {
                check_xi(*xi)?;
                check_eps(*eps)?;
            }
        }
        Ok(())
    }
}

/// Builder for [`Query::Apsp`].
#[derive(Debug, Clone)]
pub struct ApspQueryBuilder {
    variant: ApspVariant,
    xi: f64,
}

impl ApspQueryBuilder {
    /// Selects the APSP pipeline (default [`ApspVariant::Thm11`]).
    pub fn variant(mut self, variant: ApspVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the skeleton radius constant `ξ` (must be positive and finite).
    pub fn xi(mut self, xi: f64) -> Self {
        self.xi = xi;
        self
    }

    /// Validates and builds the query.
    pub fn build(self) -> Result<Query, QueryError> {
        let q = Query::Apsp { variant: self.variant, xi: self.xi };
        q.validate()?;
        Ok(q)
    }
}

/// Builder for [`Query::Sssp`].
#[derive(Debug, Clone)]
pub struct SsspQueryBuilder {
    variant: SsspVariant,
    source: NodeId,
    xi: f64,
}

impl SsspQueryBuilder {
    /// Selects the SSSP algorithm (default [`SsspVariant::Thm13`]).
    pub fn variant(mut self, variant: SsspVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the skeleton radius constant `ξ` (must be positive and finite).
    pub fn xi(mut self, xi: f64) -> Self {
        self.xi = xi;
        self
    }

    /// Validates and builds the query.
    pub fn build(self) -> Result<Query, QueryError> {
        let q = Query::Sssp { variant: self.variant, source: self.source, xi: self.xi };
        q.validate()?;
        Ok(q)
    }
}

/// Builder for [`Query::Kssp`].
#[derive(Debug, Clone)]
pub struct KsspQueryBuilder {
    cor: KsspCorollary,
    sources: Option<SourceSet>,
    eps: f64,
    xi: f64,
}

impl KsspQueryBuilder {
    /// Sets explicit sources.
    pub fn sources(mut self, sources: Vec<NodeId>) -> Self {
        self.sources = Some(SourceSet::Nodes(sources));
        self
    }

    /// Uses `k` seed-derived pseudo-random sources (see
    /// [`SourceSet::Random`]).
    pub fn random_sources(mut self, k: usize) -> Self {
        self.sources = Some(SourceSet::Random { k });
        self
    }

    /// Sets the approximation parameter `ε ∈ (0, 1)`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the skeleton radius constant `ξ` (must be positive and finite).
    pub fn xi(mut self, xi: f64) -> Self {
        self.xi = xi;
        self
    }

    /// Validates and builds the query.
    pub fn build(self) -> Result<Query, QueryError> {
        let sources = self.sources.ok_or(QueryError::NoSources)?;
        let q = Query::Kssp { cor: self.cor, sources, eps: self.eps, xi: self.xi };
        q.validate()?;
        Ok(q)
    }
}

/// Builder for [`Query::Diameter`].
#[derive(Debug, Clone)]
pub struct DiameterQueryBuilder {
    cor: DiameterCorollary,
    eps: f64,
    xi: f64,
}

impl DiameterQueryBuilder {
    /// Sets the approximation parameter `ε ∈ (0, 1)`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the skeleton radius constant `ξ` (must be positive and finite).
    pub fn xi(mut self, xi: f64) -> Self {
        self.xi = xi;
        self
    }

    /// Validates and builds the query.
    pub fn build(self) -> Result<Query, QueryError> {
        let q = Query::Diameter { cor: self.cor, eps: self.eps, xi: self.xi };
        q.validate()?;
        Ok(q)
    }
}

/// The typed payload of a [`Report`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// A full distance matrix (APSP queries).
    Distances(DistanceMatrix),
    /// One distance vector (SSSP queries).
    DistanceRow {
        /// The source.
        source: NodeId,
        /// `dist[v]`: the (estimated) distance from the source to `v`.
        dist: Vec<Distance>,
    },
    /// Per-source estimate rows (k-SSP queries).
    DistanceRows {
        /// The resolved sources, in row order.
        sources: Vec<NodeId>,
        /// `est[s_idx][v]`: the estimate `d̃(v, sources[s_idx])`.
        est: Vec<Vec<Distance>>,
    },
    /// A diameter estimate.
    Diameter {
        /// The estimate `D̃ ≥ D`.
        estimate: Distance,
        /// Whether the small-diameter exact path (`D̃ = ĥ`) was taken.
        exact_local: bool,
    },
}

/// Why a run's guarantee was downgraded (see [`Guarantee::Degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// The reliable layer detected crashed nodes (global messages were
    /// suppressed), so the requested protocol's answer could silently miss
    /// their contributions.
    CrashDetected,
    /// The requested protocol aborted with a structured error while a fault
    /// plan was installed.
    ProtocolFault,
}

impl DegradeCause {
    /// Stable machine-readable label (no spaces) used on the wire
    /// (`guarantee=degraded=<from>:<to>:<this>`).
    pub fn label(&self) -> &'static str {
        match self {
            DegradeCause::CrashDetected => "crash-detected",
            DegradeCause::ProtocolFault => "protocol-fault",
        }
    }
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeCause::CrashDetected => write!(f, "crash detected"),
            DegradeCause::ProtocolFault => write!(f, "protocol fault"),
        }
    }
}

/// The paper-level contract a [`Report`]'s answer carries — what a
/// verification layer may assume without re-deriving per-algorithm math.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// Distances are exact (Theorems 1.1, 1.3; the LOCAL baselines).
    Exact,
    /// Distance estimates never underestimate and the worst ratio against
    /// truth is at most `factor` (Theorem 4.1, evaluated at this run's actual
    /// exploration radius and edge-weight regime).
    Stretch {
        /// The guaranteed approximation factor.
        factor: f64,
    },
    /// The diameter estimate lies in `[D, factor · D]` (Theorem 5.1;
    /// `factor = 1` when the local horizon covered the diameter exactly).
    DiameterFactor {
        /// The guaranteed approximation factor.
        factor: f64,
    },
    /// The requested algorithm could not be trusted under the installed fault
    /// plan (a crash was detected, or the protocol aborted), so the solver
    /// fell back to a LOCAL-mode algorithm — which needs no global channel
    /// and therefore answers *exactly* on the full local graph. The downgrade
    /// is recorded here explicitly; an answer is never changed silently.
    Degraded {
        /// Canonical label of the requested algorithm.
        from: &'static str,
        /// Canonical label of the fallback that produced the answer.
        to: &'static str,
        /// Why the downgrade happened.
        cause: DegradeCause,
    },
}

impl Guarantee {
    /// `true` for [`Guarantee::Exact`] (and factor-1 approximations).
    /// [`Guarantee::Degraded`] answers are exact too, but report `false`
    /// here: they carry a distinct contract the caller must acknowledge.
    pub fn is_exact(&self) -> bool {
        match self {
            Guarantee::Exact => true,
            Guarantee::Stretch { factor } | Guarantee::DiameterFactor { factor } => *factor <= 1.0,
            Guarantee::Degraded { .. } => false,
        }
    }

    /// The guaranteed worst-case ratio against ground truth (1 for exact;
    /// also 1 for [`Guarantee::Degraded`] — the LOCAL fallbacks are exact).
    pub fn factor(&self) -> f64 {
        match self {
            Guarantee::Exact => 1.0,
            Guarantee::Stretch { factor } | Guarantee::DiameterFactor { factor } => *factor,
            Guarantee::Degraded { .. } => 1.0,
        }
    }
}

/// The uniform outcome of [`solve`]: the typed answer, the contract it
/// carries, and the run's round/message accounting.
#[derive(Debug, Clone)]
pub struct Report {
    /// The query that produced this report.
    pub query: Query,
    /// The typed result payload.
    pub answer: Answer,
    /// The paper-level contract of the answer.
    pub guarantee: Guarantee,
    /// Total HYBRID rounds consumed by this solve (round-clock delta).
    pub rounds: u64,
    /// Global (NCC) messages delivered during this solve.
    pub global_messages: u64,
    /// Global messages removed by fault injection during this solve.
    pub dropped_messages: u64,
    /// Skeleton size `|V_S|` (0 when the algorithm builds no skeleton).
    pub skeleton_size: usize,
    /// Skeleton hop budget `h` (0 when the algorithm builds no skeleton).
    pub h: usize,
    /// Lemma C.1 fallback count (nodes that found no skeleton within `h`
    /// hops; 0 when not applicable).
    pub coverage_fallbacks: usize,
    /// Per-phase rounds/messages attributable to *this* solve (the delta of
    /// the net's phase metrics across the solve, phases in lexicographic
    /// order, zero-activity phases omitted) — callers attribute rounds
    /// without reaching into the sim. The phase rounds sum to
    /// [`Report::rounds`].
    pub phases: Vec<(String, PhaseStats)>,
}

impl Report {
    /// The canonical query label (see [`Query::label`]).
    pub fn label(&self) -> &'static str {
        self.query.label()
    }

    /// The distance matrix, for APSP reports.
    pub fn distances(&self) -> Option<&DistanceMatrix> {
        match &self.answer {
            Answer::Distances(m) => Some(m),
            _ => None,
        }
    }

    /// The `(source, distances)` row, for SSSP reports.
    pub fn distance_row(&self) -> Option<(NodeId, &[Distance])> {
        match &self.answer {
            Answer::DistanceRow { source, dist } => Some((*source, dist.as_slice())),
            _ => None,
        }
    }

    /// The `(sources, estimate rows)`, for k-SSP reports.
    pub fn distance_rows(&self) -> Option<(&[NodeId], &[Vec<Distance>])> {
        match &self.answer {
            Answer::DistanceRows { sources, est } => Some((sources.as_slice(), est.as_slice())),
            _ => None,
        }
    }

    /// The diameter estimate, for diameter reports.
    pub fn diameter_estimate(&self) -> Option<Distance> {
        match &self.answer {
            Answer::Diameter { estimate, .. } => Some(*estimate),
            _ => None,
        }
    }

    /// Measured worst-case ratio of the answer's estimate rows against exact
    /// rows (`exact[s_idx][v]`), ignoring unreachable and zero pairs. Only
    /// meaningful for [`Answer::DistanceRow`] / [`Answer::DistanceRows`].
    pub fn max_ratio_vs(&self, exact: &[Vec<Distance>]) -> f64 {
        match &self.answer {
            Answer::DistanceRow { dist, .. } => max_ratio(std::slice::from_ref(dist), exact),
            Answer::DistanceRows { est, .. } => max_ratio(est, exact),
            _ => 1.0,
        }
    }
}

/// Worst ratio `rows[s][v] / exact[s][v]`, ignoring unreachable and zero
/// pairs (1 when no pair counts).
pub(crate) fn max_ratio(rows: &[Vec<Distance>], exact: &[Vec<Distance>]) -> f64 {
    let mut worst: f64 = 1.0;
    for (row, erow) in rows.iter().zip(exact) {
        for (&a, &e) in row.iter().zip(erow) {
            if e == 0 || e == INFINITY || a == INFINITY {
                continue;
            }
            worst = worst.max(a as f64 / e as f64);
        }
    }
    worst
}

/// Runs `query` on `net`, deterministically in `seed`, and returns the
/// uniform [`Report`].
///
/// This is the front door over every paper algorithm; the other is a
/// [`crate::session::Session`], which answers many queries on one graph
/// bit-identically while preparing their shared preamble once. Round bills
/// and trace events of every registry scenario are pinned by
/// `tests/round_pins.rs`.
///
/// # Errors
///
/// * [`HybridError::Query`] if the query's parameters are invalid.
/// * Any simulator/protocol error of the underlying algorithm.
pub fn solve(net: &mut HybridNet<'_>, query: &Query, seed: u64) -> Result<Report, HybridError> {
    solve_inner(net, query, seed, Prep::Cold)
}

/// The dispatcher behind both [`solve`] (cold preprocessing) and
/// [`crate::session::Session::solve`] (preprocessing served from the
/// session's [`crate::session::Prepared`] artifact).
pub(crate) fn solve_inner(
    net: &mut HybridNet<'_>,
    query: &Query,
    seed: u64,
    prep: Prep<'_>,
) -> Result<Report, HybridError> {
    query.validate().map_err(HybridError::Query)?;
    let faulty = net.has_faults();
    if faulty {
        // A non-trivial fault plan routes every protocol phase through the
        // reliable ack/retransmission layer: lost messages are recovered
        // (paying extra rounds), crashed nodes are detected and declared
        // dead instead of silently starving the protocol.
        net.set_reliable(true);
    }
    let rounds_before = net.metrics().rounds;
    let messages_before = net.metrics().global_messages;
    let dropped_before = net.metrics().dropped_messages;
    let suppressed_before = net.metrics().suppressed_by_crash;
    let phases_before = net.metrics().phases.clone();
    if net.tracing() {
        net.trace_span_begin(&format!("solve:{}", query.label()));
    }
    let primary = run_query(net, query, seed, prep);
    // Crash impact: the reliable layer suppressed messages to/from crashed
    // nodes during this solve, so the primary answer may silently miss their
    // contributions — even if the protocol "completed".
    let crash_hit = faulty && net.metrics().suppressed_by_crash > suppressed_before;
    let mut report = match primary {
        Ok(report) if !crash_hit => report,
        Ok(_) => degraded_report(net, query, seed, DegradeCause::CrashDetected, rounds_before),
        Err(err) if !faulty => {
            if net.tracing() {
                net.trace_span_end(&format!("solve:{}", query.label()));
            }
            return Err(err);
        }
        Err(_) => {
            let cause =
                if crash_hit { DegradeCause::CrashDetected } else { DegradeCause::ProtocolFault };
            degraded_report(net, query, seed, cause, rounds_before)
        }
    };
    report.global_messages = net.metrics().global_messages - messages_before;
    report.dropped_messages = net.metrics().dropped_messages - dropped_before;
    report.phases = phase_delta(&phases_before, &net.metrics().phases);
    if net.tracing() {
        net.trace_span_end(&format!("solve:{}", query.label()));
    }
    Ok(report)
}

/// The per-phase rounds/messages attributable to one solve: the entry-wise
/// difference of the net's phase table across the solve, dropping phases
/// with no activity. `BTreeMap` iteration keeps the order deterministic.
fn phase_delta(
    before: &std::collections::BTreeMap<String, PhaseStats>,
    after: &std::collections::BTreeMap<String, PhaseStats>,
) -> Vec<(String, PhaseStats)> {
    let mut out = Vec::new();
    for (phase, stats) in after {
        let prior = before.get(phase).copied().unwrap_or_default();
        let delta = PhaseStats {
            rounds: stats.rounds - prior.rounds,
            messages: stats.messages - prior.messages,
        };
        if delta.rounds > 0 || delta.messages > 0 {
            out.push((phase.clone(), delta));
        }
    }
    out
}

/// The single dispatch from a [`Query`] to the underlying paper algorithm.
/// Message/drop accounting is filled in by [`solve_inner`] afterwards.
fn run_query(
    net: &mut HybridNet<'_>,
    query: &Query,
    seed: u64,
    prep: Prep<'_>,
) -> Result<Report, HybridError> {
    let report = match query {
        Query::Apsp { variant, xi } => {
            let out = match variant {
                ApspVariant::Thm11 => exact_apsp(net, *xi, seed, prep)?,
                ApspVariant::Soda20 => exact_apsp_soda20(net, *xi, seed, prep)?,
                ApspVariant::LocalFlood => apsp_local_only(net),
            };
            Report {
                query: query.clone(),
                answer: Answer::Distances(out.dist),
                guarantee: Guarantee::Exact,
                rounds: out.rounds,
                global_messages: 0,
                dropped_messages: 0,
                skeleton_size: out.skeleton_size,
                h: out.h,
                coverage_fallbacks: out.coverage_fallbacks,
                phases: Vec::new(),
            }
        }
        Query::Sssp { variant, source, xi } => {
            let out = match variant {
                SsspVariant::Thm13 => exact_sssp(net, *source, *xi, seed, prep)?,
                SsspVariant::LocalBellmanFord => sssp_local_bellman_ford(net, *source),
                SsspVariant::ApproxSoda20 { eps } => {
                    approx_sssp_soda20(net, *source, *eps, *xi, seed, prep)?
                }
            };
            let guarantee = if out.guaranteed_factor > 1.0 {
                Guarantee::Stretch { factor: out.guaranteed_factor }
            } else {
                Guarantee::Exact
            };
            Report {
                query: query.clone(),
                answer: Answer::DistanceRow { source: out.source, dist: out.dist },
                guarantee,
                rounds: out.rounds,
                global_messages: 0,
                dropped_messages: 0,
                skeleton_size: out.skeleton_size,
                h: out.h,
                coverage_fallbacks: 0,
                phases: Vec::new(),
            }
        }
        Query::Kssp { cor, sources, eps, xi } => {
            let resolved = sources.resolve(net.n(), seed);
            let out = match cor {
                KsspCorollary::Cor46 => kssp_cor46(net, &resolved, *eps, *xi, seed, prep)?,
                KsspCorollary::Cor47 => kssp_cor47(net, &resolved, *eps, *xi, seed, prep)?,
                KsspCorollary::Cor48 => kssp_cor48(net, &resolved, *eps, *xi, seed, prep)?,
            };
            let unweighted = net.graph().max_weight() == 1;
            let factor = out.guaranteed_factor(unweighted);
            Report {
                query: query.clone(),
                answer: Answer::DistanceRows { sources: out.sources, est: out.est },
                guarantee: Guarantee::Stretch { factor },
                rounds: out.rounds,
                global_messages: 0,
                dropped_messages: 0,
                skeleton_size: out.skeleton_size,
                h: out.h,
                coverage_fallbacks: out.coverage_fallbacks,
                phases: Vec::new(),
            }
        }
        Query::Diameter { cor, eps, xi } => {
            let out = match cor {
                DiameterCorollary::Cor52 => diameter_cor52(net, *eps, *xi, seed, prep)?,
                DiameterCorollary::Cor53 => diameter_cor53(net, *eps, *xi, seed, prep)?,
            };
            let factor = out.guaranteed_factor();
            Report {
                query: query.clone(),
                answer: Answer::Diameter { estimate: out.estimate, exact_local: out.exact_local },
                guarantee: Guarantee::DiameterFactor { factor },
                rounds: out.rounds,
                global_messages: 0,
                dropped_messages: 0,
                skeleton_size: out.skeleton_size,
                h: out.h,
                coverage_fallbacks: 0,
                phases: Vec::new(),
            }
        }
    };
    Ok(report)
}

/// Runs the LOCAL-mode fallback for `query` on the (still faulty) net and
/// wraps the answer in a [`Guarantee::Degraded`] report.
///
/// LOCAL-mode algorithms use only the local edge channel, which the fault
/// plan never touches, so the fallback cannot fail and its distances are
/// exact on the full graph. `rounds` is the round-clock delta since the
/// solve started — the failed primary attempt (including every
/// retransmission wave) stays on the bill; recovery is charged, never
/// discounted.
fn degraded_report(
    net: &mut HybridNet<'_>,
    query: &Query,
    seed: u64,
    cause: DegradeCause,
    rounds_before: u64,
) -> Report {
    let from = query.label();
    let (answer, to, skeleton_size, h, coverage_fallbacks) = match query {
        Query::Apsp { .. } => {
            let out = apsp_local_only(net);
            (
                Answer::Distances(out.dist),
                "apsp-local-flood",
                out.skeleton_size,
                out.h,
                out.coverage_fallbacks,
            )
        }
        Query::Sssp { source, .. } => {
            let out = sssp_local_bellman_ford(net, *source);
            (
                Answer::DistanceRow { source: out.source, dist: out.dist },
                "sssp-local-bf",
                out.skeleton_size,
                out.h,
                0,
            )
        }
        Query::Kssp { sources, .. } => {
            let resolved = sources.resolve(net.n(), seed);
            let out = apsp_local_only(net);
            let est: Vec<Vec<Distance>> = resolved
                .iter()
                .map(|&s| net.graph().nodes().map(|v| out.dist.get(s, v)).collect())
                .collect();
            (
                Answer::DistanceRows { sources: resolved, est },
                "apsp-local-flood",
                out.skeleton_size,
                out.h,
                out.coverage_fallbacks,
            )
        }
        Query::Diameter { .. } => {
            let out = apsp_local_only(net);
            let mut estimate: Distance = 0;
            for u in net.graph().nodes() {
                for v in net.graph().nodes() {
                    let d = out.dist.get(u, v);
                    if d != INFINITY {
                        estimate = estimate.max(d);
                    }
                }
            }
            (
                Answer::Diameter { estimate, exact_local: true },
                "apsp-local-flood",
                out.skeleton_size,
                out.h,
                out.coverage_fallbacks,
            )
        }
    };
    Report {
        query: query.clone(),
        answer,
        guarantee: Guarantee::Degraded { from, to, cause },
        rounds: net.metrics().rounds - rounds_before,
        global_messages: 0,
        dropped_messages: 0,
        skeleton_size,
        h,
        coverage_fallbacks,
        phases: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::{erdos_renyi_connected, grid};
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builders_validate_parameters() {
        assert!(Query::apsp().xi(1.5).build().is_ok());
        assert!(matches!(Query::apsp().xi(0.0).build(), Err(QueryError::NonPositiveXi { .. })));
        assert!(matches!(
            Query::apsp().xi(f64::NAN).build(),
            Err(QueryError::NonPositiveXi { .. })
        ));
        assert!(matches!(
            Query::sssp(NodeId::new(0)).xi(-1.0).build(),
            Err(QueryError::NonPositiveXi { .. })
        ));
        assert!(matches!(
            Query::kssp(KsspCorollary::Cor47).random_sources(4).eps(1.0).build(),
            Err(QueryError::EpsOutOfRange { .. })
        ));
        assert!(matches!(
            Query::kssp(KsspCorollary::Cor47).eps(0.5).build(),
            Err(QueryError::NoSources)
        ));
        assert!(matches!(
            Query::kssp(KsspCorollary::Cor46).random_sources(0).build(),
            Err(QueryError::NoSources)
        ));
        assert!(matches!(
            Query::diameter(DiameterCorollary::Cor52).eps(0.0).build(),
            Err(QueryError::EpsOutOfRange { .. })
        ));
        // The LOCAL baselines ignore ξ, so any value passes.
        assert!(Query::apsp().variant(ApspVariant::LocalFlood).xi(-3.0).build().is_ok());
        assert!(Query::sssp(NodeId::new(1))
            .variant(SsspVariant::LocalBellmanFord)
            .xi(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn corollary_numbers_round_trip_and_reject_unknowns() {
        for n in [46u8, 47, 48] {
            assert_eq!(KsspCorollary::try_from(n).unwrap().number(), n);
        }
        for n in [52u8, 53] {
            assert_eq!(DiameterCorollary::try_from(n).unwrap().number(), n);
        }
        assert_eq!(KsspCorollary::try_from(49), Err(QueryError::UnknownKsspCorollary { cor: 49 }));
        assert_eq!(
            DiameterCorollary::try_from(54),
            Err(QueryError::UnknownDiameterCorollary { cor: 54 })
        );
    }

    #[test]
    fn labels_are_canonical() {
        assert_eq!(Query::apsp().build().unwrap().label(), "apsp-thm11");
        assert_eq!(
            Query::apsp().variant(ApspVariant::Soda20).build().unwrap().label(),
            "apsp-soda20"
        );
        assert_eq!(Query::sssp(NodeId::new(0)).build().unwrap().label(), "sssp-thm13");
        assert_eq!(
            Query::kssp(KsspCorollary::Cor48).random_sources(2).build().unwrap().label(),
            "kssp-cor48"
        );
        assert_eq!(
            Query::diameter(DiameterCorollary::Cor53).build().unwrap().label(),
            "diameter-cor53"
        );
    }

    #[test]
    fn solve_rejects_hand_built_invalid_queries_with_structured_error() {
        let g = grid(4, 4, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let bad = Query::Apsp { variant: ApspVariant::Thm11, xi: -1.0 };
        let err = solve(&mut net, &bad, 1).unwrap_err();
        assert!(matches!(err, HybridError::Query(QueryError::NonPositiveXi { .. })), "{err:?}");
        assert_eq!(net.rounds(), 0, "validation must reject before any protocol phase");
    }

    #[test]
    fn solve_apsp_is_exact_and_accounts_messages() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(60, 0.1, 4, &mut rng).unwrap();
        let exact = hybrid_graph::apsp::apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 11).unwrap();
        assert_eq!(report.guarantee, Guarantee::Exact);
        let m = report.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(m.get(u, v), exact.get(u, v));
            }
        }
        assert_eq!(report.global_messages, net.metrics().global_messages);
        assert_eq!(report.dropped_messages, 0);
        assert!(report.skeleton_size > 0 && report.h > 0);
    }

    #[test]
    fn solve_recovers_from_drops_with_an_exact_answer() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_connected(40, 0.15, 4, &mut rng).unwrap();
        let exact = hybrid_graph::apsp::apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&hybrid_sim::FaultPlan::drops(0.25, 99)).unwrap();
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 11).unwrap();
        // Reliable delivery recovers every lost message: the answer is the
        // healthy answer and the guarantee is undowngraded …
        assert_eq!(report.guarantee, Guarantee::Exact);
        let m = report.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(m.get(u, v), exact.get(u, v));
            }
        }
        // … but the recovery work is visible and charged.
        assert!(report.dropped_messages > 0, "the lossy plan fired");
        assert!(net.metrics().retransmissions > 0, "losses were retransmitted");
        assert!(net.metrics().recovered_messages > 0);
        assert_eq!(net.metrics().declared_dead, 0, "nobody crashed");
    }

    #[test]
    fn solve_degrades_explicitly_on_detected_crashes() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = erdos_renyi_connected(40, 0.15, 4, &mut rng).unwrap();
        let exact = hybrid_graph::apsp::apsp(&g);
        let plan = hybrid_sim::FaultPlan::node_crashes(vec![hybrid_sim::Crash {
            node: NodeId::new(7),
            at_round: 0,
        }]);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&plan).unwrap();
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 11).unwrap();
        match report.guarantee {
            Guarantee::Degraded { from, to, cause } => {
                assert_eq!(from, "apsp-thm11");
                assert_eq!(to, "apsp-local-flood");
                assert_eq!(cause, DegradeCause::CrashDetected);
            }
            other => panic!("expected an explicit downgrade, got {other:?}"),
        }
        assert!(!report.guarantee.is_exact(), "Degraded is a distinct contract");
        assert_eq!(report.guarantee.factor(), 1.0, "the LOCAL fallback is exact");
        // The fallback runs on the untouched local channel: exact distances.
        let m = report.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(m.get(u, v), exact.get(u, v));
            }
        }
        assert!(report.dropped_messages > 0, "crash suppressions are accounted");
        assert!(report.rounds > 0, "the failed attempt plus fallback stay on the bill");
    }

    #[test]
    fn degraded_diameter_and_kssp_fall_back_to_local_matrices() {
        let g = grid(6, 6, 2).unwrap();
        let exact = hybrid_graph::apsp::apsp(&g);
        let truth = (0..g.len())
            .flat_map(|u| (0..g.len()).map(move |v| (u, v)))
            .map(|(u, v)| exact.get(NodeId::new(u), NodeId::new(v)))
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap();
        let plan = hybrid_sim::FaultPlan::node_crashes(vec![hybrid_sim::Crash {
            node: NodeId::new(5),
            at_round: 0,
        }]);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&plan).unwrap();
        let q = Query::diameter(DiameterCorollary::Cor52).build().unwrap();
        let report = solve(&mut net, &q, 9).unwrap();
        assert!(matches!(report.guarantee, Guarantee::Degraded { .. }), "{:?}", report.guarantee);
        assert_eq!(report.diameter_estimate(), Some(truth));

        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&plan).unwrap();
        let q = Query::kssp(KsspCorollary::Cor46)
            .sources(vec![NodeId::new(0), NodeId::new(8)])
            .build()
            .unwrap();
        let report = solve(&mut net, &q, 9).unwrap();
        assert!(matches!(report.guarantee, Guarantee::Degraded { .. }), "{:?}", report.guarantee);
        let (sources, est) = report.distance_rows().expect("rows answer");
        assert_eq!(sources, &[NodeId::new(0), NodeId::new(8)]);
        for (s, row) in sources.iter().zip(est) {
            for (v, &d) in row.iter().enumerate() {
                assert_eq!(d, exact.get(*s, NodeId::new(v)));
            }
        }
    }

    #[test]
    fn errors_without_faults_still_propagate() {
        // A hand-built invalid query fails validation even on a faulty net —
        // degradation only applies to *protocol* failures under faults.
        let g = grid(4, 4, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&hybrid_sim::FaultPlan::drops(0.1, 3)).unwrap();
        let bad = Query::Apsp { variant: ApspVariant::Thm11, xi: -1.0 };
        assert!(solve(&mut net, &bad, 1).is_err());
    }

    #[test]
    fn solve_sssp_variants_agree_with_ground_truth() {
        let g = grid(7, 7, 2).unwrap();
        let source = NodeId::new(3);
        let truth = hybrid_graph::dijkstra::dijkstra(&g, source);
        for variant in [SsspVariant::Thm13, SsspVariant::LocalBellmanFord] {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let q = Query::sssp(source).variant(variant).build().unwrap();
            let report = solve(&mut net, &q, 5).unwrap();
            let (s, dist) = report.distance_row().expect("row answer");
            assert_eq!(s, source);
            assert_eq!(dist, truth.as_slice());
            assert_eq!(report.guarantee, Guarantee::Exact);
        }
    }

    #[test]
    fn solve_kssp_random_sources_resolve_deterministically() {
        let g = grid(8, 8, 1).unwrap();
        let q = Query::kssp(KsspCorollary::Cor47).random_sources(5).eps(0.5).build().unwrap();
        let mut n1 = HybridNet::new(&g, HybridConfig::default());
        let a = solve(&mut n1, &q, 9).unwrap();
        let mut n2 = HybridNet::new(&g, HybridConfig::default());
        let b = solve(&mut n2, &q, 9).unwrap();
        let (sa, ea) = a.distance_rows().unwrap();
        let (sb, eb) = b.distance_rows().unwrap();
        assert_eq!(sa, sb);
        assert_eq!(ea, eb);
        assert_eq!(sa, random_sources(64, 5, 9).as_slice());
        assert!(matches!(a.guarantee, Guarantee::Stretch { factor } if factor >= 1.0));
    }

    #[test]
    fn solve_diameter_carries_thm51_guarantee() {
        let g = hybrid_graph::generators::cycle(120, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let q = Query::diameter(DiameterCorollary::Cor52).xi(1.2).build().unwrap();
        let report = solve(&mut net, &q, 5).unwrap();
        let d = hybrid_graph::bfs::unweighted_diameter(&g);
        let est = report.diameter_estimate().expect("diameter answer");
        assert!(est >= d);
        assert!(est as f64 <= report.guarantee.factor() * d as f64 + 1e-9);
    }

    #[test]
    fn report_phases_sum_to_rounds_and_exclude_prior_runs() {
        let g = grid(6, 6, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let q = Query::apsp().build().unwrap();
        let report = solve(&mut net, &q, 7).unwrap();
        assert!(!report.phases.is_empty());
        let sum: u64 = report.phases.iter().map(|(_, s)| s.rounds).sum();
        assert_eq!(sum, report.rounds, "phase rounds attribute the full bill");
        // A second solve on the same net must only see its own delta.
        let report2 = solve(&mut net, &q, 7).unwrap();
        let sum2: u64 = report2.phases.iter().map(|(_, s)| s.rounds).sum();
        assert_eq!(sum2, report2.rounds);
        assert!(report2.phases.windows(2).all(|w| w[0].0 < w[1].0), "lexicographic order");
    }

    #[test]
    fn traced_solve_reconciles_and_wraps_a_span() {
        let g = grid(6, 6, 1).unwrap();
        let q = Query::apsp().build().unwrap();
        let mut plain = HybridNet::new(&g, HybridConfig::default());
        let baseline = solve(&mut plain, &q, 7).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.set_trace(hybrid_sim::Recorder::new());
        let report = solve(&mut net, &q, 7).unwrap();
        // Tracing never changes the answer or the bill.
        assert_eq!(report.rounds, baseline.rounds);
        assert_eq!(report.global_messages, baseline.global_messages);
        let rec = net.take_trace().unwrap();
        rec.reconcile(net.metrics()).expect("trace totals match metrics");
        let events = rec.events();
        assert!(matches!(
            &events[0],
            hybrid_sim::TraceEvent::SpanBegin { name, .. } if name == "solve:apsp-thm11"
        ));
        assert!(matches!(
            events.last().unwrap(),
            hybrid_sim::TraceEvent::SpanEnd { name, .. } if name == "solve:apsp-thm11"
        ));
    }

    #[test]
    fn random_sources_are_distinct_sorted_deterministic() {
        let a = random_sources(50, 10, 3);
        assert_eq!(a, random_sources(50, 10, 3));
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(random_sources(5, 99, 1).len(), 5, "k clamps to n");
    }
}
