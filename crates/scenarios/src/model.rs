//! The declarative scenario model:
//! `Scenario = GraphFamily × WeightModel × FaultPlan × AlgorithmSuite × Seed`.
//!
//! Every field is plain const-constructible data, so the whole registry lives
//! in a `static` table and a scenario is fully described by `(name, seed)` —
//! the reproducibility contract the runner and the golden verification layer
//! build on.

use hybrid_core::solver::{
    ApspVariant, DiameterCorollary, KsspCorollary, Query, QueryError, SourceSet, SsspVariant,
};
use hybrid_graph::generators as gen;
use hybrid_graph::{Distance, Graph, NodeId};
use hybrid_sim::{derive_seed, Crash, HybridConfig, HybridNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The topology family a scenario draws its local graph from. Families are
/// parametrized by shape, not size: the node count `n` is chosen at run time
/// (tiny for smoke verification, large for benchmarks) and every family
/// scales its internal knobs (radius, cluster count, …) with `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Erdős–Rényi `G(n, avg_deg / n)`, patched to connectivity.
    ErdosRenyi {
        /// Expected average degree.
        avg_deg: f64,
    },
    /// `⌈√n⌉ × ⌈√n⌉` square grid (`n` is rounded up to a square).
    SquareGrid,
    /// `rows × (n / rows)` thin grid — the large-hop-diameter fabric.
    ThinGrid {
        /// Number of (short) rows.
        rows: usize,
    },
    /// Cycle on `n` nodes (`D = n / 2`, the diameter worst case).
    Cycle,
    /// Random geometric graph in the unit square; the radius is chosen so the
    /// expected degree is `avg_deg` (`πr²n = avg_deg`).
    RandomGeometric {
        /// Expected average degree.
        avg_deg: f64,
    },
    /// Barabási–Albert preferential attachment (power-law hubs).
    BarabasiAlbert {
        /// Edges each arriving node attaches with.
        attach: usize,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Ring-lattice degree (even).
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// Unit path plus a heavy hub: hop diameter 2, `SPD = n - 2`
    /// (the Theorem 1.3 separation family).
    HeavyHubPath,
    /// Clustered "enterprise WAN": dense local clusters plus a sparse heavy
    /// backbone.
    Clustered {
        /// Number of clusters (`n / clusters` nodes each).
        clusters: usize,
        /// Intra-cluster Erdős–Rényi edge probability.
        intra_p: f64,
        /// Backbone link weight.
        link_w: Distance,
        /// Extra random cross-cluster links.
        extra_links: usize,
    },
}

impl GraphFamily {
    /// Short label for tables and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            GraphFamily::ErdosRenyi { .. } => "erdos-renyi",
            GraphFamily::SquareGrid => "square-grid",
            GraphFamily::ThinGrid { .. } => "thin-grid",
            GraphFamily::Cycle => "cycle",
            GraphFamily::RandomGeometric { .. } => "geometric",
            GraphFamily::BarabasiAlbert { .. } => "barabasi-albert",
            GraphFamily::WattsStrogatz { .. } => "watts-strogatz",
            GraphFamily::HeavyHubPath => "heavy-hub-path",
            GraphFamily::Clustered { .. } => "clustered-wan",
        }
    }

    /// Builds the graph at size ≈ `n` (grid-like families round up) with the
    /// given weight model, deterministically from `seed`.
    ///
    /// The Erdős–Rényi family seeds its RNG with `seed` directly (it goes
    /// through [`crate::workloads::er`], matching the instances the perf
    /// trajectory in `BENCH_apsp.json` has recorded since PR 1); the other
    /// random families use a salted sub-seed.
    pub fn build(&self, n: usize, weights: WeightModel, seed: u64) -> Graph {
        let max_w = weights.max_weight();
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x0067_7261_7068)); // "graph"
        match *self {
            GraphFamily::ErdosRenyi { avg_deg } => {
                return crate::workloads::er(n, avg_deg, max_w, seed)
            }
            GraphFamily::SquareGrid => {
                let side = (n as f64).sqrt().ceil() as usize;
                gen::grid(side, side, weights.uniform_or(1))
            }
            GraphFamily::ThinGrid { rows } => {
                gen::grid(rows, (n / rows).max(2), weights.uniform_or(1))
            }
            GraphFamily::Cycle => gen::cycle(n, weights.uniform_or(1)),
            GraphFamily::RandomGeometric { avg_deg } => {
                let radius = (avg_deg / (std::f64::consts::PI * n as f64)).sqrt().min(1.0);
                gen::random_geometric_connected(n, radius, max_w, &mut rng)
            }
            GraphFamily::BarabasiAlbert { attach } => {
                gen::barabasi_albert(n, attach.min(n - 1), max_w, &mut rng)
            }
            GraphFamily::WattsStrogatz { k, beta } => {
                gen::watts_strogatz(n, k.min((n - 1) & !1), beta, max_w, &mut rng)
            }
            GraphFamily::HeavyHubPath => gen::path_with_heavy_hub(n.max(3), 2 * n as Distance),
            GraphFamily::Clustered { clusters, intra_p, link_w, extra_links } => {
                let size = (n / clusters).max(2);
                gen::clustered_network(
                    clusters,
                    size,
                    intra_p,
                    max_w,
                    link_w,
                    extra_links,
                    &mut rng,
                )
            }
        }
        .expect("scenario graph families generate valid graphs")
    }
}

/// Edge-weight model. Families with intrinsic weights (heavy hub, the WAN
/// backbone) combine it with their own structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightModel {
    /// All edges weight 1 (unweighted shortest paths).
    Unit,
    /// Weights uniform in `[1, max]`.
    Uniform {
        /// Largest edge weight.
        max: Distance,
    },
}

impl WeightModel {
    /// The largest weight this model can produce.
    pub fn max_weight(&self) -> Distance {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::Uniform { max } => max,
        }
    }

    /// For families with one global weight: `max` for uniform models, `unit`
    /// otherwise.
    fn uniform_or(&self, unit: Distance) -> Distance {
        match *self {
            WeightModel::Unit => unit,
            WeightModel::Uniform { max } => max,
        }
    }

    /// Short label for tables and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            WeightModel::Unit => "unit",
            WeightModel::Uniform { .. } => "uniform",
        }
    }
}

/// The fault regime a scenario runs under. `Degraded` reshapes the
/// [`HybridConfig`] caps (slower but lossless); `DropGlobal` / `CrashNodes`
/// install a [`hybrid_sim::FaultPlan`] in the simulator's exchange hooks
/// (lossy — verified under the no-silent-corruption contract, see
/// [`crate::verify`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// Healthy network.
    None,
    /// Starved global bandwidth under `OverflowPolicy::Stretch`: every message
    /// arrives, the round clock pays.
    Degraded {
        /// Send-cap multiplier (fraction of the NCC budget).
        send_factor: f64,
        /// Receive-cap multiplier.
        recv_factor: f64,
    },
    /// Each global message is lost independently with probability `prob`
    /// (deterministic stream per scenario seed).
    DropGlobal {
        /// Per-message loss probability in `[0, 1)`.
        prob: f64,
    },
    /// `count` pseudo-random nodes (never node 0, which the suites use as
    /// source) crash once `at_round` rounds have elapsed.
    CrashNodes {
        /// How many nodes crash.
        count: usize,
        /// Round-clock value at which they fall silent.
        at_round: u64,
    },
    /// Combined chaos: per-message loss *and* a mid-run crash storm in one
    /// plan (the `chaos-*` family's hardest regime).
    DropAndCrash {
        /// Per-message loss probability in `[0, 1)`.
        prob: f64,
        /// How many nodes crash (never node 0).
        count: usize,
        /// Round-clock value at which they fall silent.
        at_round: u64,
    },
}

impl FaultPlan {
    /// Short label for tables and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::Degraded { .. } => "degraded-caps",
            FaultPlan::DropGlobal { .. } => "drop-global",
            FaultPlan::CrashNodes { .. } => "crash-nodes",
            FaultPlan::DropAndCrash { .. } => "drop+crash",
        }
    }

    /// `true` if the plan can lose messages (and verification must use the
    /// lossy contract instead of exactness).
    pub fn is_lossy(&self) -> bool {
        matches!(
            self,
            FaultPlan::DropGlobal { .. }
                | FaultPlan::CrashNodes { .. }
                | FaultPlan::DropAndCrash { .. }
        )
    }

    /// The simulator configuration this plan implies.
    pub fn config(&self) -> HybridConfig {
        match *self {
            FaultPlan::Degraded { send_factor, recv_factor } => {
                HybridConfig::degraded(send_factor, recv_factor)
            }
            _ => HybridConfig::default(),
        }
    }

    /// The simulator-level [`hybrid_sim::FaultPlan`] this plan implies for a
    /// network of `n` nodes (`None` for lossless regimes) — shared by
    /// [`FaultPlan::install`] and the session path of the runner.
    pub fn sim_plan(&self, n: usize, seed: u64) -> Option<hybrid_sim::FaultPlan> {
        match *self {
            FaultPlan::None | FaultPlan::Degraded { .. } => None,
            FaultPlan::DropGlobal { prob } => {
                Some(hybrid_sim::FaultPlan::drops(prob, derive_seed(seed, 0xFA17)))
            }
            FaultPlan::CrashNodes { count, at_round } => {
                Some(hybrid_sim::FaultPlan::node_crashes(pick_crashes(n, count, at_round, seed)))
            }
            FaultPlan::DropAndCrash { prob, count, at_round } => Some(hybrid_sim::FaultPlan {
                drop_prob: prob,
                corrupt_prob: 0.0,
                crashes: pick_crashes(n, count, at_round, seed),
                seed: derive_seed(seed, 0xFA17),
            }),
        }
    }

    /// Installs the simulator-level part of the plan on `net`.
    pub fn install(&self, net: &mut HybridNet<'_>, seed: u64) {
        if let Some(plan) = self.sim_plan(net.n(), seed) {
            net.inject_faults(&plan).expect("registry fault plans are valid");
        }
    }
}

/// Picks `count` distinct pseudo-random crash victims for an `n`-node network
/// — never node 0: the suites use it as the source, and a dead source makes
/// the instance vacuous. (A live node 0 also guarantees the survivor set is
/// non-empty, so the schedule always passes
/// [`hybrid_sim::FaultPlan::validate_for`].)
fn pick_crashes(n: usize, count: usize, at_round: u64, seed: u64) -> Vec<Crash> {
    let mut crashes = Vec::with_capacity(count);
    let mut salt = 0u64;
    while crashes.len() < count.min(n.saturating_sub(1)) {
        let v = 1 + (derive_seed(seed, 0xC0A5 + salt) as usize) % (n - 1);
        salt += 1;
        if !crashes.iter().any(|c: &Crash| c.node == NodeId::new(v)) {
            crashes.push(Crash { node: NodeId::new(v), at_round });
        }
    }
    crashes
}

/// Which distributed algorithm(s) the scenario exercises, with the golden
/// contract each one is verified against.
///
/// This is a thin, const-constructible wrapper over the solver's typed
/// [`Query`]: corollaries are the real [`KsspCorollary`] /
/// [`DiameterCorollary`] enums (an invalid number is unrepresentable — use
/// [`AlgorithmSuite::kssp`] / [`AlgorithmSuite::diameter`] at numeric
/// deserialization boundaries), and [`AlgorithmSuite::query`] is the bridge
/// the runner feeds to [`hybrid_core::solver::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSuite {
    /// Exact APSP, Theorem 1.1 (`Õ(√n)` rounds) — verified pairwise-exact.
    Apsp {
        /// Skeleton scaling constant ξ (Lemma C.1).
        xi: f64,
    },
    /// Exact APSP, SODA'20 baseline (`Õ(n^{2/3})`) — verified pairwise-exact.
    ApspSoda20 {
        /// Skeleton scaling constant ξ.
        xi: f64,
    },
    /// Exact SSSP from node 0, Theorem 1.3 (`Õ(n^{2/5})`) — verified exact.
    Sssp {
        /// Skeleton scaling constant ξ.
        xi: f64,
    },
    /// k-SSP (Theorem 1.2 / Corollaries 4.6–4.8) — verified within the run's
    /// own guaranteed approximation factor, never underestimating.
    Kssp {
        /// Which corollary.
        cor: KsspCorollary,
        /// Source count (`k` seed-derived pseudo-random nodes).
        k: usize,
        /// Approximation parameter ε.
        eps: f64,
        /// Skeleton scaling constant ξ.
        xi: f64,
    },
    /// Diameter approximation (Corollaries 5.2 / 5.3) — verified inside
    /// `[D, factor · D]`.
    Diameter {
        /// Which corollary.
        cor: DiameterCorollary,
        /// Approximation parameter ε.
        eps: f64,
        /// Skeleton scaling constant ξ.
        xi: f64,
    },
}

impl AlgorithmSuite {
    /// Builds a k-SSP suite from a *numeric* corollary (deserialization
    /// boundary): an unknown number is a structured [`QueryError`], never a
    /// silent fallback onto some default corollary.
    pub fn kssp(cor: u8, k: usize, eps: f64, xi: f64) -> Result<Self, QueryError> {
        Ok(AlgorithmSuite::Kssp { cor: KsspCorollary::try_from(cor)?, k, eps, xi })
    }

    /// Builds a diameter suite from a *numeric* corollary (deserialization
    /// boundary); unknown numbers are structured errors.
    pub fn diameter(cor: u8, eps: f64, xi: f64) -> Result<Self, QueryError> {
        Ok(AlgorithmSuite::Diameter { cor: DiameterCorollary::try_from(cor)?, eps, xi })
    }

    /// The typed solver [`Query`] this suite describes. SSSP suites query from
    /// node 0; k-SSP suites use `k` seed-derived random sources — both exactly
    /// as the runner has always executed them. Parameter validation happens in
    /// [`hybrid_core::solver::solve`].
    pub fn query(&self) -> Query {
        match *self {
            AlgorithmSuite::Apsp { xi } => Query::Apsp { variant: ApspVariant::Thm11, xi },
            AlgorithmSuite::ApspSoda20 { xi } => Query::Apsp { variant: ApspVariant::Soda20, xi },
            AlgorithmSuite::Sssp { xi } => {
                Query::Sssp { variant: SsspVariant::Thm13, source: NodeId::new(0), xi }
            }
            AlgorithmSuite::Kssp { cor, k, eps, xi } => {
                Query::Kssp { cor, sources: SourceSet::Random { k }, eps, xi }
            }
            AlgorithmSuite::Diameter { cor, eps, xi } => Query::Diameter { cor, eps, xi },
        }
    }

    /// Short label for tables and JSON records — the canonical query label.
    pub fn label(&self) -> &'static str {
        self.query().label()
    }

    /// The skeleton constant ξ this suite runs under — what a serving
    /// [`hybrid_core::session::Session`] over the scenario's graph must be
    /// pinned to.
    pub fn xi(&self) -> f64 {
        match *self {
            AlgorithmSuite::Apsp { xi }
            | AlgorithmSuite::ApspSoda20 { xi }
            | AlgorithmSuite::Sssp { xi }
            | AlgorithmSuite::Kssp { xi, .. }
            | AlgorithmSuite::Diameter { xi, .. } => xi,
        }
    }
}

/// A deterministic churn regime for `churn-*` scenarios: the runner replays
/// `steps` rounds of *query → verify → delta*, with every delta drawn from
/// SplitMix64 streams of the scenario seed (see [`crate::churn`]) and every
/// query verified bit-identical to a cold solve on the graph version live at
/// that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Update/query interleaving steps after the initial epoch-0 query.
    pub steps: usize,
    /// Delta operations attempted per update batch.
    pub ops_per_step: usize,
}

/// One named, reproducible workload: everything the runner needs, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Unique registry name (e.g. `"e2-er"`).
    pub name: &'static str,
    /// Lookup tags (e.g. `"apsp"`, `"faulty"`, `"sparse"`).
    pub tags: &'static [&'static str],
    /// Topology family.
    pub family: GraphFamily,
    /// Edge-weight model.
    pub weights: WeightModel,
    /// Fault regime.
    pub faults: FaultPlan,
    /// Algorithm(s) under test and their verification contract.
    pub suite: AlgorithmSuite,
    /// Root seed; every random choice (graph, algorithm, faults) derives from
    /// it, so `(scenario, seed)` fully determines a run.
    pub seed: u64,
    /// Node count used by full-scale (non-smoke) runs.
    pub default_n: usize,
    /// Churn regime: `Some` makes the runner replay the update/query
    /// interleaving of [`ChurnPlan`] through epoch-versioned sessions instead
    /// of a single static solve.
    pub churn: Option<ChurnPlan>,
}

impl Scenario {
    /// Builds the scenario's local graph at size ≈ `n`.
    pub fn graph(&self, n: usize) -> Graph {
        self.family.build(n, self.weights, self.seed)
    }

    /// Creates the simulated network for `g`: the fault plan's configuration,
    /// with its simulator-level hooks installed.
    pub fn net<'g>(&self, g: &'g Graph) -> HybridNet<'g> {
        let mut net = HybridNet::new(g, self.faults.config());
        self.faults.install(&mut net, self.seed);
        net
    }

    /// `true` if the scenario carries `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(&tag)
    }

    /// The verification contract this scenario is held to: `chaos-*`
    /// workloads must recover (aborting is a failure), other lossy plans get
    /// the tolerance contract, healthy plans are strict.
    pub fn contract(&self) -> crate::verify::Contract {
        if self.has_tag("chaos") {
            crate::verify::Contract::MustRecover
        } else if self.faults.is_lossy() {
            crate::verify::Contract::Lossy
        } else {
            crate::verify::Contract::Strict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_connected_graphs_at_smoke_size() {
        let families = [
            GraphFamily::ErdosRenyi { avg_deg: 8.0 },
            GraphFamily::SquareGrid,
            GraphFamily::ThinGrid { rows: 4 },
            GraphFamily::Cycle,
            GraphFamily::RandomGeometric { avg_deg: 9.0 },
            GraphFamily::BarabasiAlbert { attach: 3 },
            GraphFamily::WattsStrogatz { k: 4, beta: 0.2 },
            GraphFamily::HeavyHubPath,
            GraphFamily::Clustered { clusters: 4, intra_p: 0.4, link_w: 16, extra_links: 2 },
        ];
        for f in families {
            for weights in [WeightModel::Unit, WeightModel::Uniform { max: 5 }] {
                let g = f.build(48, weights, 7);
                assert!(g.is_connected(), "{} must be connected", f.label());
                assert!(g.len() >= 40, "{} shrank too far: {}", f.label(), g.len());
            }
        }
    }

    #[test]
    fn er_family_preserves_the_recorded_bench_instance() {
        // The perf trajectory (BENCH_apsp.json) has recorded `er(n, 12, 4, 3)`
        // instances since PR 1; the registry's `e2-er` must keep producing
        // bit-identical graphs or wall-clock numbers stop being comparable.
        // n = 200 and 400 are the recorded sizes.
        let f = GraphFamily::ErdosRenyi { avg_deg: 12.0 };
        for n in [100, 200, 400] {
            let a = f.build(n, WeightModel::Uniform { max: 4 }, 3);
            let b = crate::workloads::er(n, 12.0, 4, 3);
            assert_eq!(a.edges(), b.edges(), "n = {n}");
        }
    }

    #[test]
    fn graph_builds_are_deterministic() {
        let f = GraphFamily::ErdosRenyi { avg_deg: 10.0 };
        let a = f.build(64, WeightModel::Uniform { max: 4 }, 3);
        let b = f.build(64, WeightModel::Uniform { max: 4 }, 3);
        assert_eq!(a.edges(), b.edges());
        let c = f.build(64, WeightModel::Uniform { max: 4 }, 4);
        assert_ne!(a.edges(), c.edges(), "different seed, different graph");
    }

    #[test]
    fn numeric_corollaries_deserialize_or_error_structurally() {
        // The old failure mode: `cor: 49` silently ran Corollary 4.8. Now a
        // bad number is a structured error at the deserialization boundary,
        // and a good one round-trips into the typed suite.
        let ok = AlgorithmSuite::kssp(47, 8, 0.5, 1.5).unwrap();
        assert_eq!(ok.label(), "kssp-cor47");
        assert_eq!(
            AlgorithmSuite::kssp(49, 8, 0.5, 1.5),
            Err(QueryError::UnknownKsspCorollary { cor: 49 })
        );
        assert_eq!(AlgorithmSuite::diameter(53, 0.5, 1.2).unwrap().label(), "diameter-cor53");
        assert_eq!(
            AlgorithmSuite::diameter(54, 0.5, 1.2),
            Err(QueryError::UnknownDiameterCorollary { cor: 54 })
        );
    }

    #[test]
    fn suites_bridge_to_canonical_queries() {
        let suite = AlgorithmSuite::Kssp { cor: KsspCorollary::Cor46, k: 3, eps: 0.5, xi: 1.5 };
        match suite.query() {
            Query::Kssp {
                cor: KsspCorollary::Cor46, sources: SourceSet::Random { k: 3 }, ..
            } => {}
            other => panic!("unexpected query {other:?}"),
        }
        assert_eq!(AlgorithmSuite::Sssp { xi: 2.0 }.label(), "sssp-thm13");
        match (AlgorithmSuite::Sssp { xi: 2.0 }).query() {
            Query::Sssp { source, .. } => assert_eq!(source, NodeId::new(0)),
            other => panic!("unexpected query {other:?}"),
        }
    }

    #[test]
    fn fault_plan_configs() {
        assert_eq!(FaultPlan::None.config(), HybridConfig::default());
        let cfg = FaultPlan::Degraded { send_factor: 0.25, recv_factor: 1.0 }.config();
        assert_eq!(cfg.send_cap_factor, 0.25);
        assert!(!FaultPlan::Degraded { send_factor: 0.25, recv_factor: 1.0 }.is_lossy());
        assert!(FaultPlan::DropGlobal { prob: 0.05 }.is_lossy());
        assert!(FaultPlan::CrashNodes { count: 2, at_round: 10 }.is_lossy());
    }

    #[test]
    fn drop_and_crash_combines_both_fault_kinds() {
        let plan = FaultPlan::DropAndCrash { prob: 0.3, count: 3, at_round: 20 };
        assert!(plan.is_lossy());
        assert_eq!(plan.label(), "drop+crash");
        assert_eq!(plan.config(), HybridConfig::default());
        let sim = plan.sim_plan(48, 9).unwrap();
        assert_eq!(sim.drop_prob, 0.3);
        assert_eq!(sim.crashes.len(), 3);
        assert!(sim.crashes.iter().all(|c| c.node.index() != 0), "node 0 never crashes");
        assert!(sim.validate_for(48).is_ok());
        // The drop stream matches a pure-drop plan of the same seed, and the
        // crash picks match a pure-crash plan: the combined plan changes
        // nothing about either stream's derivation.
        let drops = FaultPlan::DropGlobal { prob: 0.3 }.sim_plan(48, 9).unwrap();
        assert_eq!(sim.seed, drops.seed);
        let crashes = FaultPlan::CrashNodes { count: 3, at_round: 20 }.sim_plan(48, 9).unwrap();
        assert_eq!(sim.crashes, crashes.crashes);
    }

    #[test]
    fn contracts_derive_from_tags_and_plans() {
        use crate::verify::Contract;
        let mut sc = Scenario {
            name: "t",
            tags: &[],
            family: GraphFamily::Cycle,
            weights: WeightModel::Unit,
            faults: FaultPlan::None,
            suite: AlgorithmSuite::Apsp { xi: 1.5 },
            seed: 1,
            default_n: 32,
            churn: None,
        };
        assert_eq!(sc.contract(), Contract::Strict);
        sc.faults = FaultPlan::DropGlobal { prob: 0.1 };
        assert_eq!(sc.contract(), Contract::Lossy);
        sc.tags = &["chaos", "faulty"];
        assert_eq!(sc.contract(), Contract::MustRecover);
    }

    #[test]
    fn crash_plan_never_kills_the_source() {
        let f = GraphFamily::Cycle;
        let g = f.build(32, WeightModel::Unit, 1);
        let sc = Scenario {
            name: "t",
            tags: &[],
            family: f,
            weights: WeightModel::Unit,
            faults: FaultPlan::CrashNodes { count: 31, at_round: 0 },
            suite: AlgorithmSuite::Sssp { xi: 1.5 },
            seed: 5,
            default_n: 32,
            churn: None,
        };
        let mut net = sc.net(&g);
        // Node 0 still talks: everything it sends to itself survives.
        let inboxes = net
            .exchange("t", vec![hybrid_sim::Envelope::new(NodeId::new(0), NodeId::new(0), 1u8)])
            .unwrap();
        assert_eq!(inboxes[0].len(), 1);
    }
}
