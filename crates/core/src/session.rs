//! The serving layer: shared preprocessing sessions over one graph.
//!
//! Every `solve()` call rebuilds the paper's shared preamble — skeleton
//! sampling, skeleton distances, nearby-skeleton knowledge — from zero, even
//! when a thousand queries hit the same graph. A [`Session`] runs that
//! preamble once per skeleton key `(x, ξ, forced nodes, seed)` into an
//! immutable [`Prepared`] artifact and serves any number of queries from it:
//!
//! * **Bit-identical answers.** `session.solve(&q)` returns exactly the
//!   [`Report`] a fresh `solve(&mut net, &q, seed)` would — same distances,
//!   rounds, guarantees, message counts, and structured errors (pinned by
//!   `tests/session_equivalence.rs`). The simulated round bill is never
//!   discounted; only the wall-clock recomputation is.
//! * **Cross-query sharing.** Queries whose frameworks sample with the same
//!   exponent share one skeleton: Corollaries 4.6/4.7 and 5.2 all
//!   instantiate at `x = 2/3`, Corollaries 4.8 and 5.3 at `x ≈ 0.604`, so a
//!   mixed batch prepares far fewer skeletons than it runs queries.
//! * **Repeat serving.** A query already answered under this session's seed
//!   is served from the report memo without re-running the protocol at all —
//!   the steady state of a serving workload where hot queries repeat.
//! * **Batching.** [`Session::solve_batch`] dedups repeated queries and
//!   shares the distinct ones among [`hybrid_graph::workers`] scoped threads
//!   (the scenario runner's pool pattern); answers are deterministic and
//!   order-preserving.
//!   Batch answers are shared: a memo hit and every repeat within a batch
//!   hand out the memo's own `Arc<Report>`, so a repeat costs a reference
//!   count, not a copy of its distance matrix.
//! * **Observed solves.** [`Session::solve_with_metrics`] and
//!   [`Session::solve_traced`] always run the protocol, so the metrics and
//!   the trace they return describe a real run, and they memoise the very
//!   `Arc<Report>` they return: a later memo hit hands out that allocation.
//!
//! All four solve methods share one private body, which checks the query,
//! consults or fills the memo, and runs the protocol.
//!
//! # Faults
//!
//! A session configured with a lossy [`FaultPlan`] runs **every query cold**:
//! the drop stream is stateful per run, so sharing preprocessing would change
//! *which* messages are lost and break bit-identity. Faulty sessions are
//! still convenient (one place to configure graph + faults + seed) but never
//! amortize — exactly what a fresh solve per query costs.
//!
//! # Example
//!
//! ```
//! use hybrid_core::session::{Session, SessionConfig};
//! use hybrid_core::solver::{DiameterCorollary, KsspCorollary, Query};
//! use hybrid_graph::generators::grid;
//!
//! let g = grid(6, 6, 1).unwrap();
//! let session = Session::new(&g, SessionConfig::new(7)).unwrap();
//! let apsp = session.solve(&Query::apsp().build().unwrap()).unwrap();
//! let diam = session.solve(&Query::diameter(DiameterCorollary::Cor52).build().unwrap()).unwrap();
//! assert!(apsp.guarantee.is_exact());
//! assert!(diam.diameter_estimate().is_some());
//! // Repeats are served from the report memo.
//! let again = session.solve(&Query::apsp().build().unwrap()).unwrap();
//! assert_eq!(apsp.rounds, again.rounds);
//! assert_eq!(session.stats().report_hits, 1);
//! // Batches share reports: every repeat is the memo's own allocation.
//! let batch = session.solve_batch(&vec![Query::apsp().build().unwrap(); 4]);
//! let first = batch[0].as_ref().unwrap();
//! assert!(batch.iter().all(|r| std::sync::Arc::ptr_eq(r.as_ref().unwrap(), first)));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hybrid_graph::{DeltaBatch, Graph};
use hybrid_sim::{FaultPlan, HybridConfig, HybridNet, Metrics, Recorder};

use crate::error::HybridError;
use crate::prepare::Prep;
pub use crate::prepare::Prepared;
use crate::repair::{repair_prepared, RepairReport};
use crate::solver::{solve_inner, Query, QueryError, Report, SourceSet, SsspVariant};

/// Configuration of a [`Session`]: the pinned root seed and skeleton
/// constant the preprocessing is derived from, plus the simulated network's
/// parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Root seed of every query served by this session. All preprocessing
    /// (skeleton sampling, source resolution, routing hashes) derives from
    /// it, so another seed means another session.
    pub seed: u64,
    /// The skeleton radius constant `ξ` the prepared artifacts are built
    /// with. Queries carrying a different `ξ` are rejected with
    /// [`QueryError::SessionXiMismatch`] instead of silently re-preprocessing
    /// (the LOCAL baselines ignore `ξ` and are exempt).
    pub xi: f64,
    /// Simulated network configuration used for every query's net.
    pub net: HybridConfig,
    /// Optional fault plan installed on every query's net. Non-trivial plans
    /// disable all caching (see the module docs).
    pub faults: Option<FaultPlan>,
    /// Damage threshold of [`Session::apply_delta`]: the dirtied-node
    /// fraction above which incremental repair falls back to a full
    /// re-prepare. Interpreted as a fraction of `n`; values below `0.0`
    /// force the full path, values at or above `1.0` disable the threshold
    /// fallback (the soundness fallbacks still apply). Either path is
    /// bit-identical — the threshold only trades repair cost.
    pub damage_threshold: f64,
}

impl SessionConfig {
    /// A default-configured session pinned to `seed` (`ξ = 1.5`, default
    /// network, no faults, damage threshold `0.25`).
    pub fn new(seed: u64) -> Self {
        SessionConfig {
            seed,
            xi: 1.5,
            net: HybridConfig::default(),
            faults: None,
            damage_threshold: 0.25,
        }
    }
}

/// Cumulative serving statistics of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Queries served (including errors and cache hits; batch inputs all
    /// count, deduplicated repeats included).
    pub queries: u64,
    /// Queries answered without running the protocol: report-memo hits and
    /// batch-deduplicated repeats.
    pub report_hits: u64,
    /// Distinct skeleton preambles prepared so far.
    pub skeletons_prepared: usize,
    /// Approximate heap bytes of the prepared artifacts ([`Prepared::bytes`])
    /// — what a byte-budgeted session cache charges this session at. Zero
    /// until the first query prepares a skeleton; grows as derived tables
    /// fill in.
    pub prepared_bytes: usize,
}

/// Stable hash key of a `(Query, seed)` pair — the report-memo index. Two
/// queries with equal keys are structurally identical (floats compared by
/// bits), so a memo hit serves a bit-identical report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum QueryKey {
    Apsp { variant: u8, xi: u64 },
    Sssp { variant: u8, source: u32, xi: u64, eps: u64 },
    Kssp { cor: u8, sources: SourceKey, eps: u64, xi: u64 },
    Diameter { cor: u8, eps: u64, xi: u64 },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SourceKey {
    Random(usize),
    Nodes(Vec<u32>),
}

fn query_key(q: &Query) -> QueryKey {
    match q {
        Query::Apsp { variant, xi } => QueryKey::Apsp { variant: *variant as u8, xi: xi.to_bits() },
        Query::Sssp { variant, source, xi } => {
            let (v, eps) = match variant {
                SsspVariant::Thm13 => (0u8, 0u64),
                SsspVariant::LocalBellmanFord => (1, 0),
                SsspVariant::ApproxSoda20 { eps } => (2, eps.to_bits()),
            };
            QueryKey::Sssp { variant: v, source: source.raw(), xi: xi.to_bits(), eps }
        }
        Query::Kssp { cor, sources, eps, xi } => QueryKey::Kssp {
            cor: cor.number(),
            sources: match sources {
                SourceSet::Random { k } => SourceKey::Random(*k),
                SourceSet::Nodes(nodes) => {
                    SourceKey::Nodes(nodes.iter().map(|v| v.raw()).collect())
                }
            },
            eps: eps.to_bits(),
            xi: xi.to_bits(),
        },
        Query::Diameter { cor, eps, xi } => {
            QueryKey::Diameter { cor: cor.number(), eps: eps.to_bits(), xi: xi.to_bits() }
        }
    }
}

/// A shared-preprocessing serving session over one graph (see the module
/// docs). Create with [`Session::new`], serve with [`Session::solve`] /
/// [`Session::solve_batch`], evolve the graph with [`Session::apply_delta`].
#[derive(Debug)]
pub struct Session {
    graph: Arc<Graph>,
    cfg: SessionConfig,
    epoch: u64,
    prepared: Prepared,
    reports: Mutex<HashMap<(u64, QueryKey), Arc<Report>>>,
    queries: AtomicU64,
    report_hits: AtomicU64,
}

impl Session {
    /// Opens a session over `graph` with the pinned `(seed, ξ, network)`
    /// configuration (the graph is cloned into shared ownership; use
    /// [`Session::shared`] to reuse an existing [`Arc`]).
    ///
    /// # Errors
    ///
    /// * [`HybridError::Sim`] for a degenerate [`HybridConfig`] or an invalid
    ///   fault plan.
    /// * [`HybridError::Query`] for a non-positive / non-finite `ξ`.
    pub fn new(graph: &Graph, cfg: SessionConfig) -> Result<Self, HybridError> {
        Session::shared(Arc::new(graph.clone()), cfg)
    }

    /// Opens a session over an already-shared graph without cloning it — the
    /// zero-copy path for serving layers that keep graphs in a catalog.
    ///
    /// # Errors
    ///
    /// As [`Session::new`].
    pub fn shared(graph: Arc<Graph>, cfg: SessionConfig) -> Result<Self, HybridError> {
        cfg.net.validate().map_err(HybridError::Sim)?;
        if let Some(plan) = &cfg.faults {
            plan.validate_for(graph.len()).map_err(HybridError::Sim)?;
        }
        if !(cfg.xi > 0.0 && cfg.xi.is_finite()) {
            return Err(HybridError::Query(QueryError::NonPositiveXi { xi: cfg.xi }));
        }
        Ok(Session {
            graph,
            cfg,
            epoch: 0,
            prepared: Prepared::default(),
            reports: Mutex::new(HashMap::new()),
            queries: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
        })
    }

    /// The session's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the session's graph (the post-delta graph after
    /// [`Session::apply_delta`]).
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The session's graph epoch: `0` at construction, incremented by every
    /// [`Session::apply_delta`]. The report memo is keyed by it, so a report
    /// computed on an earlier graph version can never serve a later one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned root seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Evolves the session across a topology delta: validates and applies
    /// `batch` to the graph, migrates the prepared artifact by damage
    /// analysis (or the full re-prepare fallback — see [`crate::repair`]),
    /// and returns the successor session at `epoch + 1` together with a
    /// [`RepairReport`] recording which path each preamble took and what the
    /// repair cost on the simulated round clock.
    ///
    /// The successor serves every query exactly as a cold
    /// `Session::new(post-delta graph, same config)` would — bit-identical
    /// answers, guarantees, and round bills. Its report memo starts empty
    /// (and is epoch-keyed besides), so stale hits are impossible. `self` is
    /// untouched: in-flight queries on the old epoch keep their graph alive
    /// through shared ownership.
    ///
    /// # Errors
    ///
    /// [`HybridError::Delta`] when `batch` fails validation against the
    /// current graph; the session is unchanged.
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<(Session, RepairReport), HybridError> {
        let new_graph = Arc::new(self.graph.apply_delta(batch)?);
        let (prepared, mut report) =
            repair_prepared(&self.graph, &new_graph, batch, &self.prepared, &self.cfg)?;
        let epoch = self.epoch + 1;
        report.epoch = epoch;
        Ok((
            Session {
                graph: new_graph,
                cfg: self.cfg.clone(),
                epoch,
                prepared,
                reports: Mutex::new(HashMap::new()),
                queries: AtomicU64::new(0),
                report_hits: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// The pinned skeleton constant ξ.
    pub fn xi(&self) -> f64 {
        self.cfg.xi
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries.load(Ordering::Relaxed),
            report_hits: self.report_hits.load(Ordering::Relaxed),
            skeletons_prepared: self.prepared.skeletons(),
            prepared_bytes: self.prepared.bytes(),
        }
    }

    /// Whether preprocessing may be shared: lossy fault plans are stateful
    /// per run and force every query cold.
    fn cacheable(&self) -> bool {
        self.cfg.faults.as_ref().is_none_or(FaultPlan::is_trivial)
    }

    /// Rejects queries whose `ξ` differs from the prepared artifact's (the
    /// LOCAL baselines ignore `ξ` and pass unconditionally).
    fn check_xi(&self, query: &Query) -> Result<(), HybridError> {
        use crate::solver::ApspVariant;
        let query_xi = match query {
            Query::Apsp { variant: ApspVariant::LocalFlood, .. } => return Ok(()),
            Query::Sssp { variant: SsspVariant::LocalBellmanFord, .. } => return Ok(()),
            Query::Apsp { xi, .. }
            | Query::Sssp { xi, .. }
            | Query::Kssp { xi, .. }
            | Query::Diameter { xi, .. } => *xi,
        };
        if query_xi.to_bits() != self.cfg.xi.to_bits() {
            return Err(HybridError::Query(QueryError::SessionXiMismatch {
                expected: self.cfg.xi,
                got: query_xi,
            }));
        }
        Ok(())
    }

    /// A fresh simulated net for one query, configured exactly as a cold
    /// caller would: the session's [`HybridConfig`] and fault plan.
    fn fresh_net(&self) -> HybridNet<'_> {
        let mut net = HybridNet::new(&self.graph, self.cfg.net);
        if let Some(plan) = &self.cfg.faults {
            net.inject_faults(plan).expect("fault plan validated at session construction");
        }
        net
    }

    /// Serves `query` under the session seed (see the module docs for the
    /// equivalence and amortization contract).
    ///
    /// # Errors
    ///
    /// * [`HybridError::Query`] for invalid parameters or a
    ///   [`QueryError::SessionXiMismatch`].
    /// * Any simulator/protocol error a fresh `solve` would produce.
    pub fn solve(&self, query: &Query) -> Result<Report, HybridError> {
        self.serve(query, None).map(Arc::unwrap_or_clone)
    }

    /// Serves `query` and returns the executing net's full [`Metrics`]
    /// alongside. It always runs the protocol (the report memo is not
    /// consulted, so the metrics describe a real run), still sharing
    /// preprocessing, and memoises the report it returns. A rejected query
    /// comes back with empty metrics. The scenario runner uses this to
    /// report partial rounds and message counts for structured-error runs.
    pub fn solve_with_metrics(&self, query: &Query) -> (Result<Arc<Report>, HybridError>, Metrics) {
        let mut seen = Observed::default();
        let result = self.serve(query, Some(&mut seen));
        (result, seen.metrics)
    }

    /// Like [`Session::solve_with_metrics`], but also records a structured
    /// trace of the run (preprocessing is still shared, so its cache hits
    /// show up as [`hybrid_sim::TraceEvent::Cache`] events). The returned
    /// recorder reconciles exactly against the returned metrics.
    pub fn solve_traced(
        &self,
        query: &Query,
    ) -> (Result<Arc<Report>, HybridError>, Metrics, Recorder) {
        let mut seen = Observed { trace: Some(Recorder::new()), ..Observed::default() };
        let result = self.serve(query, Some(&mut seen));
        (result, seen.metrics, seen.trace.expect("the traced net hands its recorder back"))
    }

    /// The one body behind every solve method. It counts the query and
    /// checks its parameters and its ξ. A plain solve (`observe` is `None`)
    /// on a cacheable session then returns the memo's report if there is
    /// one. Otherwise the protocol runs on a fresh net, serving preprocessing
    /// from the prepared artifact when caching is sound, and the memo keeps
    /// the very `Arc` returned. An observed solve traces into the recorder
    /// `observe` holds, if any, and gets the net's metrics back in it.
    fn serve(
        &self,
        query: &Query,
        mut observe: Option<&mut Observed>,
    ) -> Result<Arc<Report>, HybridError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        query.validate().map_err(HybridError::Query)?;
        self.check_xi(query)?;
        let key = self.cacheable().then(|| (self.epoch, query_key(query)));
        if let (Some(key), None) = (&key, &observe) {
            if let Some(report) = self.reports.lock().expect("report memo lock").get(key) {
                self.report_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(report));
            }
        }
        let mut net = self.fresh_net();
        if let Some(rec) = observe.as_mut().and_then(|seen| seen.trace.take()) {
            net.set_trace(rec);
        }
        let prep = if key.is_some() { Prep::Warm(&self.prepared) } else { Prep::Cold };
        let result = solve_inner(&mut net, query, self.cfg.seed, prep).map(Arc::new);
        if let (Some(key), Ok(report)) = (key, &result) {
            self.reports.lock().expect("report memo lock").insert(key, Arc::clone(report));
        }
        if let Some(seen) = observe {
            seen.trace = net.take_trace();
            seen.metrics = net.into_metrics();
        }
        result
    }

    /// Serves a batch of independent queries, returning one result per input
    /// in order. Repeated queries are deduplicated (solved once, the answer
    /// shared) and the distinct ones are shared among scoped worker threads,
    /// [`hybrid_graph::workers`] of them. Every answer is bit-identical to
    /// solving the batch sequentially. Reports are shared, never copied: a
    /// memo hit returns the memo's own [`Arc<Report>`], and the repeats of
    /// one query within the batch all return that same allocation. On a faulty session dedup is disabled
    /// along with every other cache: each input runs its own cold protocol,
    /// per the module-level contract.
    pub fn solve_batch(&self, queries: &[Query]) -> Vec<Result<Arc<Report>, HybridError>> {
        // Dedup: map each input to the first occurrence of its key. A
        // non-cacheable (faulty) session skips dedup entirely — its contract
        // is that *every* query runs cold, through the batch path too.
        let mut first_of: HashMap<QueryKey, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let slot = if self.cacheable() {
                *first_of.entry(query_key(q)).or_insert_with(|| {
                    unique.push(i);
                    unique.len() - 1
                })
            } else {
                unique.push(i);
                unique.len() - 1
            };
            slot_of.push(slot);
        }
        // Deduplicated repeats are served queries too — count them (and the
        // fact that they skipped the protocol) so `stats()` matches its docs.
        let repeats = (queries.len() - unique.len()) as u64;
        self.queries.fetch_add(repeats, Ordering::Relaxed);
        self.report_hits.fetch_add(repeats, Ordering::Relaxed);
        type Served = Result<Arc<Report>, HybridError>;
        let threads = hybrid_graph::workers(unique.len());
        let results: Vec<Served> = if threads <= 1 {
            unique.iter().map(|&i| self.serve(&queries[i], None)).collect()
        } else {
            use std::sync::atomic::AtomicUsize;
            let slots: Vec<Mutex<Option<Served>>> =
                unique.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= unique.len() {
                            break;
                        }
                        let result = self.serve(&queries[unique[u]], None);
                        *slots[u].lock().expect("batch slot lock") = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("batch slot").expect("every slot filled"))
                .collect()
        };
        slot_of.into_iter().map(|slot| results[slot].clone()).collect()
    }
}

/// What an observed solve hands back beside its report: the executing net's
/// metrics and, when the caller installed a recorder, the run's trace.
#[derive(Default)]
struct Observed {
    metrics: Metrics,
    trace: Option<Recorder>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, DiameterCorollary, KsspCorollary};
    use hybrid_graph::generators::{erdos_renyi_connected, grid};
    use hybrid_graph::NodeId;
    use hybrid_sim::TraceEvent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_same_report(a: &Report, b: &Report) {
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.global_messages, b.global_messages);
        assert_eq!(a.dropped_messages, b.dropped_messages);
        assert_eq!(a.skeleton_size, b.skeleton_size);
        assert_eq!(a.h, b.h);
        assert_eq!(a.coverage_fallbacks, b.coverage_fallbacks);
        assert_eq!(a.guarantee, b.guarantee);
        match (&a.answer, &b.answer) {
            (crate::solver::Answer::Distances(x), crate::solver::Answer::Distances(y)) => {
                assert_eq!(x.as_flat(), y.as_flat())
            }
            (
                crate::solver::Answer::DistanceRow { dist: x, .. },
                crate::solver::Answer::DistanceRow { dist: y, .. },
            ) => assert_eq!(x, y),
            (
                crate::solver::Answer::DistanceRows { est: x, .. },
                crate::solver::Answer::DistanceRows { est: y, .. },
            ) => assert_eq!(x, y),
            (
                crate::solver::Answer::Diameter { estimate: x, .. },
                crate::solver::Answer::Diameter { estimate: y, .. },
            ) => assert_eq!(x, y),
            _ => panic!("answer shapes differ"),
        }
    }

    #[test]
    fn session_matches_fresh_solve_across_algorithms() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_connected(70, 0.08, 4, &mut rng).unwrap();
        let session = Session::new(&g, SessionConfig::new(11)).unwrap();
        let queries = [
            Query::apsp().build().unwrap(),
            Query::sssp(NodeId::new(3)).build().unwrap(),
            Query::kssp(KsspCorollary::Cor47).random_sources(4).build().unwrap(),
            Query::diameter(DiameterCorollary::Cor52).build().unwrap(),
        ];
        for q in &queries {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let fresh = solve(&mut net, q, 11).unwrap();
            let served = session.solve(q).unwrap();
            assert_same_report(&fresh, &served);
        }
    }

    #[test]
    fn repeats_hit_the_report_memo_and_skeletons_are_shared() {
        let g = grid(8, 8, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(5)).unwrap();
        let q46 = Query::kssp(KsspCorollary::Cor46).random_sources(2).build().unwrap();
        let q47 = Query::kssp(KsspCorollary::Cor47).random_sources(5).build().unwrap();
        let d52 = Query::diameter(DiameterCorollary::Cor52).build().unwrap();
        session.solve(&q46).unwrap();
        session.solve(&q47).unwrap();
        session.solve(&d52).unwrap();
        // Cor 4.6, 4.7 and 5.2 all sample at x = 2/3: one shared skeleton.
        assert_eq!(session.stats().skeletons_prepared, 1);
        session.solve(&q46).unwrap();
        session.solve(&q46).unwrap();
        let stats = session.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.report_hits, 2);
    }

    #[test]
    fn xi_mismatches_are_structured_errors() {
        let g = grid(6, 6, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(3)).unwrap();
        let q = Query::apsp().xi(2.0).build().unwrap();
        let err = session.solve(&q).unwrap_err();
        assert!(
            matches!(err, HybridError::Query(QueryError::SessionXiMismatch { got, .. }) if got == 2.0),
            "{err:?}"
        );
        // The LOCAL baselines ignore ξ and pass under any value.
        let local = Query::apsp().variant(crate::solver::ApspVariant::LocalFlood).build().unwrap();
        assert!(session.solve(&local).is_ok());
    }

    #[test]
    fn batch_preserves_order_and_dedups() {
        let g = grid(7, 7, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(9)).unwrap();
        let a = Query::apsp().build().unwrap();
        let b = Query::sssp(NodeId::new(0)).build().unwrap();
        let batch = vec![a.clone(), b.clone(), a.clone(), b.clone(), a.clone()];
        let results = session.solve_batch(&batch);
        assert_eq!(results.len(), 5);
        let r0 = results[0].as_ref().unwrap();
        let r2 = results[2].as_ref().unwrap();
        let r4 = results[4].as_ref().unwrap();
        assert_same_report(r0, r2);
        assert_same_report(r0, r4);
        assert_eq!(results[1].as_ref().unwrap().label(), "sssp-thm13");
        // 5 inputs served, 2 distinct protocol runs, 3 deduplicated repeats.
        let stats = session.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.report_hits, 3);
    }

    #[test]
    fn memo_hits_and_batch_repeats_share_one_report() {
        let g = grid(7, 7, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(9)).unwrap();
        let a = Query::apsp().build().unwrap();
        let b = Query::sssp(NodeId::new(0)).build().unwrap();
        // A cold batch: the repeats of `a` share the allocation of its one run.
        let first = session.solve_batch(&[a.clone(), b.clone(), a.clone()]);
        let a0 = first[0].as_ref().unwrap();
        assert!(Arc::ptr_eq(a0, first[2].as_ref().unwrap()), "in-batch repeat copied");
        // A later batch serves both queries from the memo: the same objects.
        let again = session.solve_batch(&[b.clone(), a.clone(), a.clone()]);
        assert!(Arc::ptr_eq(first[1].as_ref().unwrap(), again[0].as_ref().unwrap()));
        assert!(Arc::ptr_eq(a0, again[1].as_ref().unwrap()), "memo hit copied");
        assert!(Arc::ptr_eq(a0, again[2].as_ref().unwrap()));
        // `solve` still hands out an owned report equal to the shared one.
        let owned: Report = session.solve(&a).unwrap();
        assert_same_report(&owned, a0);
        assert_eq!(session.stats().report_hits, 1 + 3 + 1);
    }

    #[test]
    fn traced_solves_reconcile_and_expose_preprocessing_cache_hits() {
        let g = grid(7, 7, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(5)).unwrap();
        let q = Query::apsp().build().unwrap();
        let cache_events = |rec: &Recorder, want_hit: bool| {
            rec.events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Cache { hit, .. } if *hit == want_hit))
                .count()
        };
        let (r1, m1, rec1) = session.solve_traced(&q);
        let r1 = r1.unwrap();
        rec1.reconcile(&m1).expect("first traced run reconciles");
        assert!(cache_events(&rec1, false) >= 1, "first run prepares cold");
        assert_eq!(cache_events(&rec1, true), 0);
        let (r2, m2, rec2) = session.solve_traced(&q);
        let r2 = r2.unwrap();
        rec2.reconcile(&m2).expect("second traced run reconciles");
        assert!(cache_events(&rec2, true) >= 1, "second run hits the skeleton cache");
        assert_eq!(cache_events(&rec2, false), 0);
        assert_eq!(r1.rounds, r2.rounds, "the replayed bill is identical");
    }

    #[test]
    fn observed_solves_memoise_the_report_they_return() {
        let g = grid(7, 7, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(9)).unwrap();
        let a = Query::apsp().build().unwrap();
        let b = Query::sssp(NodeId::new(0)).build().unwrap();
        let (ra, _) = session.solve_with_metrics(&a);
        let (rb, _, _) = session.solve_traced(&b);
        let (ra, rb) = (ra.unwrap(), rb.unwrap());
        assert_eq!(session.stats().report_hits, 0, "observed solves always run the protocol");
        // A later batch serves each from the memo: the allocation returned.
        let batch = session.solve_batch(std::slice::from_ref(&a));
        assert!(Arc::ptr_eq(&ra, batch[0].as_ref().unwrap()), "metrics solve memoised a copy");
        assert_eq!(session.stats().report_hits, 1);
        let batch = session.solve_batch(std::slice::from_ref(&b));
        assert!(Arc::ptr_eq(&rb, batch[0].as_ref().unwrap()), "traced solve memoised a copy");
        assert_eq!(session.stats().report_hits, 2);
        assert_eq!(session.stats().queries, 4);
    }

    #[test]
    fn prepared_bytes_are_nonzero_and_monotone_in_n() {
        use hybrid_graph::generators::path;
        let q = Query::apsp().build().unwrap();
        let mut sizes = Vec::new();
        for n in [40usize, 160] {
            let g = path(n, 1).unwrap();
            let session = Session::new(&g, SessionConfig::new(7)).unwrap();
            assert_eq!(session.stats().prepared_bytes, 0, "nothing prepared yet");
            session.solve(&q).unwrap();
            let bytes = session.stats().prepared_bytes;
            assert!(bytes > 0, "prepared artifacts must have a nonzero footprint");
            sizes.push(bytes);
        }
        assert!(sizes[1] > sizes[0], "prepared bytes must grow with n: {sizes:?}");
    }

    #[test]
    fn invalid_session_configs_are_rejected() {
        let g = grid(4, 4, 1).unwrap();
        let mut cfg = SessionConfig::new(1);
        cfg.xi = -1.0;
        assert!(matches!(
            Session::new(&g, cfg).unwrap_err(),
            HybridError::Query(QueryError::NonPositiveXi { .. })
        ));
        let cfg = SessionConfig {
            net: HybridConfig { send_cap_factor: 0.0, ..HybridConfig::default() },
            ..SessionConfig::new(1)
        };
        assert!(matches!(Session::new(&g, cfg).unwrap_err(), HybridError::Sim(_)));
    }

    #[test]
    fn post_delta_memo_hits_are_impossible() {
        use hybrid_graph::DeltaBatch;
        let g = grid(6, 6, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(3)).unwrap();
        let q = Query::apsp().build().unwrap();
        let before = session.solve(&q).unwrap();
        session.solve(&q).unwrap();
        assert_eq!(session.stats().report_hits, 1, "same-epoch repeats do hit");
        let batch = DeltaBatch::new().reweight(NodeId::new(0), NodeId::new(1), 7);
        let (next, repair) = session.apply_delta(&batch).unwrap();
        assert_eq!(session.epoch(), 0, "predecessor unchanged");
        assert_eq!(next.epoch(), 1);
        assert_eq!(repair.epoch, 1);
        let after = next.solve(&q).unwrap();
        assert_eq!(next.stats().report_hits, 0, "a post-delta memo hit must be impossible");
        // The reweight really changed the answer, so a stale hit would have
        // been an observable wrong answer, not a harmless shortcut.
        match (&before.answer, &after.answer) {
            (crate::solver::Answer::Distances(x), crate::solver::Answer::Distances(y)) => {
                assert_ne!(x.as_flat(), y.as_flat())
            }
            _ => panic!("answer shapes differ"),
        }
        let cold = Session::new(next.graph(), SessionConfig::new(3)).unwrap();
        assert_same_report(&after, &cold.solve(&q).unwrap());
    }

    #[test]
    fn apply_delta_patch_path_is_bit_identical_to_cold_rebuild() {
        use hybrid_graph::generators::path;
        use hybrid_graph::DeltaBatch;
        let g = path(120, 3).unwrap();
        // A path graph keeps h-hop balls genuinely local; raise the damage
        // threshold past the worst preamble's dirtied fraction (SSSP samples
        // deeper, so its h-ball covers ~0.7 of the path) so every preamble
        // takes the patch path.
        let cfg = SessionConfig { damage_threshold: 0.75, ..SessionConfig::new(7) };
        let session = Session::new(&g, cfg.clone()).unwrap();
        let queries = [
            Query::apsp().build().unwrap(),
            Query::sssp(NodeId::new(5)).build().unwrap(),
            Query::diameter(DiameterCorollary::Cor52).build().unwrap(),
        ];
        for q in &queries {
            session.solve(q).unwrap();
        }
        let batch = DeltaBatch::new().reweight(NodeId::new(3), NodeId::new(4), 9).add_edge(
            NodeId::new(0),
            NodeId::new(2),
            5,
        );
        let (next, repair) = session.apply_delta(&batch).unwrap();
        assert!(repair.preambles > 0, "prepared preambles must migrate");
        assert_eq!(repair.full, 0, "a local edit on a path graph must patch: {repair:?}");
        assert!(repair.patched > 0);
        assert!(repair.rows_patched > 0);
        assert!(repair.rounds > 0, "repair work is billed on the round clock");
        assert!(repair.dirty_fraction > 0.0 && repair.dirty_fraction <= 0.75);
        assert_eq!(repair.path(), crate::repair::RepairPath::Patched);
        let cold = Session::new(next.graph(), cfg).unwrap();
        for q in &queries {
            assert_same_report(&next.solve(q).unwrap(), &cold.solve(q).unwrap());
        }
        assert_eq!(next.stats().report_hits, 0);
    }

    #[test]
    fn apply_delta_full_fallback_is_bit_identical_too() {
        use hybrid_graph::DeltaBatch;
        let g = grid(8, 8, 1).unwrap();
        // A negative threshold forces the verified full-re-prepare fallback.
        let cfg = SessionConfig { damage_threshold: -1.0, ..SessionConfig::new(5) };
        let session = Session::new(&g, cfg.clone()).unwrap();
        let q = Query::apsp().build().unwrap();
        session.solve(&q).unwrap();
        let batch = DeltaBatch::new().remove_edge(NodeId::new(0), NodeId::new(1));
        let (next, repair) = session.apply_delta(&batch).unwrap();
        assert_eq!(repair.patched, 0);
        assert!(repair.full > 0);
        assert_eq!(repair.path(), crate::repair::RepairPath::Full);
        assert!(repair.rounds > 0);
        let cold = Session::new(next.graph(), cfg).unwrap();
        assert_same_report(&next.solve(&q).unwrap(), &cold.solve(&q).unwrap());
    }

    #[test]
    fn apply_delta_rejects_invalid_batches_structurally() {
        use hybrid_graph::DeltaBatch;
        let g = grid(4, 4, 1).unwrap();
        let session = Session::new(&g, SessionConfig::new(1)).unwrap();
        let bad = DeltaBatch::new().remove_edge(NodeId::new(0), NodeId::new(15));
        let err = session.apply_delta(&bad).unwrap_err();
        assert!(matches!(err, HybridError::Delta(_)), "{err:?}");
        assert_eq!(session.epoch(), 0, "failed deltas leave the session untouched");
    }

    #[test]
    fn faulty_sessions_run_cold_and_stay_bit_identical() {
        let g = grid(8, 8, 1).unwrap();
        let plan = FaultPlan::drops(0.2, 77);
        let cfg = SessionConfig { faults: Some(plan.clone()), ..SessionConfig::new(5) };
        let session = Session::new(&g, cfg).unwrap();
        let q = Query::apsp().build().unwrap();
        let run_fresh = || {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            net.inject_faults(&plan).unwrap();
            solve(&mut net, &q, 5)
        };
        for _ in 0..2 {
            let (served, fresh) = (session.solve(&q), run_fresh());
            match (served, fresh) {
                (Ok(a), Ok(b)) => assert_same_report(&a, &b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("outcomes diverged: {other:?}"),
            }
        }
        // Nothing was cached: every query re-ran the full protocol.
        assert_eq!(session.stats().report_hits, 0);
        assert_eq!(session.stats().skeletons_prepared, 0);
        // The batch path honors the cold contract too: duplicates are not
        // deduplicated away, each input runs its own protocol.
        let results = session.solve_batch(&[q.clone(), q.clone()]);
        assert_eq!(results.len(), 2);
        assert_eq!(session.stats().report_hits, 0, "faulty batches never dedup");
        assert_eq!(session.stats().queries, 4);
    }
}
