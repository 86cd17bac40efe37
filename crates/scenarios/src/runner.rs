//! The scenario runner: executes one scenario end to end (graph → net →
//! algorithm → golden verification), or a whole batch in parallel on scoped
//! threads — mirroring `hybrid_graph::dijkstra::par_dist_rows`, with one
//! worker pool pulling scenarios off a shared index.
//!
//! Runs are deterministic per `(scenario, seed, n)`: every random stream
//! (graph, algorithm, faults) derives from the scenario seed, and threads
//! never share RNG state, so the parallel schedule cannot change any result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hybrid_core::session::{Session, SessionConfig};
use hybrid_core::solver::solve;
use hybrid_graph::Graph;
use hybrid_sim::Recorder;

use crate::churn::{churn_batch, step_seed};
use crate::model::{ChurnPlan, Scenario};
use crate::verify::{check_error, check_report, Verdict, Verification};

/// How the runner executes a scenario's suite: a fresh `solve` per run (the
/// historical path) or through a shared-preprocessing serving
/// [`Session`] pinned to the scenario's `(seed, ξ, faults)`. Both paths are
/// bit-identical per the session contract; running the smoke matrix under
/// both is the CI guard for that equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One cold `solve` per scenario run.
    #[default]
    Fresh,
    /// Serve the suite through a [`hybrid_core::session::Session`].
    Session,
}

/// Structured result of one scenario run — what the JSON sink and the tables
/// consume.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Registry name.
    pub scenario: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Requested node count (families may round up slightly).
    pub n: usize,
    /// Graph family label.
    pub family: &'static str,
    /// Fault plan label.
    pub faults: &'static str,
    /// Algorithm suite label.
    pub suite: &'static str,
    /// Golden verification verdict.
    pub verdict: Verdict,
    /// Verification detail (what was checked / what went wrong).
    pub detail: String,
    /// Simulated HYBRID rounds consumed — the full run for a completed
    /// suite, the partial count for a structured-error abort, 0 only when the
    /// run panicked.
    pub rounds: u64,
    /// Global messages delivered.
    pub global_messages: u64,
    /// Global messages removed by the fault plan.
    pub dropped_messages: u64,
    /// Wall-clock nanoseconds of the run (graph build + algorithm +
    /// verification).
    pub wall_ns: u128,
    /// Number of structured trace events the run emitted (0 only when the
    /// run panicked before tracing could start).
    pub trace_events: u64,
    /// Name of the phase that consumed the most simulated rounds
    /// (lexicographically first on ties; empty when nothing was charged).
    pub top_phase: String,
    /// Rounds charged under [`ScenarioReport::top_phase`].
    pub top_phase_rounds: u64,
}

impl ScenarioReport {
    /// `true` if the verdict is [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        self.verdict == Verdict::Pass
    }

    /// The deterministic portion of the report (everything except wall-clock
    /// time) — what reproducibility tests compare.
    pub fn deterministic_key(&self) -> (String, u64, usize, &'static str, String, u64, u64, u64) {
        (
            self.scenario.clone(),
            self.seed,
            self.n,
            self.verdict.as_str(),
            self.detail.clone(),
            self.rounds,
            self.global_messages,
            self.dropped_messages,
        )
    }
}

/// Executes the scenario's algorithm suite on `net` through the solver facade
/// and verifies the result, returning `(rounds, verification)`. The suite's
/// typed [`hybrid_core::solver::Query`] replaces the per-algorithm dispatch
/// ladder, and verification reads the run's contract off
/// [`hybrid_core::solver::Report::guarantee`].
fn run_suite(sc: &Scenario, g: &Graph, net: &mut hybrid_sim::HybridNet<'_>) -> (u64, Verification) {
    let contract = sc.contract();
    match solve(net, &sc.suite.query(), sc.seed) {
        Ok(report) => (report.rounds, check_report(g, &report, contract)),
        Err(e) => (net.rounds(), check_error(&e, contract, net.metrics().dropped_messages)),
    }
}

/// Executes the suite through a serving [`Session`] pinned to the scenario's
/// `(seed, ξ, network, faults)` — the alternate engine whose reports must be
/// bit-identical to [`run_suite`]'s.
fn run_suite_session(sc: &Scenario, g: &Graph) -> (u64, Verification, u64, u64, Recorder) {
    let contract = sc.contract();
    let cfg = SessionConfig {
        seed: sc.seed,
        xi: sc.suite.xi(),
        net: sc.faults.config(),
        faults: sc.faults.sim_plan(g.len(), sc.seed),
        ..SessionConfig::new(sc.seed)
    };
    let session = Session::new(g, cfg).expect("registry scenario configs are valid");
    let (result, metrics, rec) = session.solve_traced(&sc.suite.query());
    let mut verification = match &result {
        Ok(report) => check_report(g, report, contract),
        Err(e) => check_error(e, contract, metrics.dropped_messages),
    };
    reconcile_into(&rec, &metrics, &mut verification);
    let rounds = match result {
        Ok(report) => report.rounds,
        Err(_) => metrics.rounds,
    };
    (rounds, verification, metrics.global_messages, metrics.dropped_messages, rec)
}

/// Replays a [`ChurnPlan`] through epoch-versioned sessions: one query on
/// the epoch-0 graph, then `steps` rounds of *delta → migrate → query*,
/// where the migration goes through [`Session::apply_delta`] (incremental
/// patch or verified full re-prepare — its rounds are billed into the run's
/// total) and **every** query is held to two contracts at once:
///
/// 1. the scenario's golden contract against the graph version live at that
///    point (strict / lossy / must-recover, exactly as a static run), and
/// 2. bit-identity against a *cold* [`Session::new`] on that same graph
///    version — the churn stack must never leak stale state across epochs.
///
/// Both engines replay churn scenarios this way: churn is inherently a
/// session workload (there is nothing "fresh" about an incremental epoch),
/// and the cold side of contract 2 is exactly the fresh path's solve.
fn run_churn_session(
    sc: &Scenario,
    g0: &Graph,
    plan: ChurnPlan,
) -> (u64, Verification, u64, u64, Recorder) {
    let contract = sc.contract();
    let cfg = SessionConfig {
        seed: sc.seed,
        xi: sc.suite.xi(),
        net: sc.faults.config(),
        faults: sc.faults.sim_plan(g0.len(), sc.seed),
        ..SessionConfig::new(sc.seed)
    };
    let query = sc.suite.query();
    let mut session =
        Session::new(g0, cfg.clone()).expect("registry churn scenario configs are valid");
    let mut graph = g0.clone();
    let (mut rounds, mut gm, mut dm) = (0u64, 0u64, 0u64);
    let mut rec = Recorder::default();
    for step in 0..=plan.steps {
        // Mutate first on every epoch after 0, so the final query runs on the
        // most-churned graph.
        if step > 0 {
            let (batch, next) =
                churn_batch(&graph, step_seed(sc.seed, step - 1), plan.ops_per_step);
            let (migrated, repair) = match session.apply_delta(&batch) {
                Ok(pair) => pair,
                Err(e) => {
                    let v = Verification::fail(format!("apply_delta failed at step {step}: {e}"));
                    return (rounds, v, gm, dm, rec);
                }
            };
            if migrated.epoch() != step as u64 {
                let v = Verification::fail(format!(
                    "epoch drift at step {step}: session reports {}",
                    migrated.epoch()
                ));
                return (rounds, v, gm, dm, rec);
            }
            session = migrated;
            graph = next;
            rounds += repair.rounds;
        }
        let (result, metrics, step_rec) = session.solve_traced(&query);
        let mut verification = match &result {
            Ok(report) => check_report(&graph, report, contract),
            Err(e) => check_error(e, contract, metrics.dropped_messages),
        };
        reconcile_into(&step_rec, &metrics, &mut verification);
        rounds += match &result {
            Ok(report) => report.rounds,
            Err(_) => metrics.rounds,
        };
        gm += metrics.global_messages;
        dm += metrics.dropped_messages;
        rec = step_rec;
        if verification.verdict != Verdict::Pass {
            verification.detail = format!("churn step {step}: {}", verification.detail);
            return (rounds, verification, gm, dm, rec);
        }
        // Contract 2: bit-identity against a cold session on this epoch's
        // graph — answers, guarantees, and round bills, or the identical
        // structured error.
        let cold = Session::new(&graph, cfg.clone()).expect("cold churn session config is valid");
        let (cold_result, _) = cold.solve_with_metrics(&query);
        if format!("{result:?}") != format!("{cold_result:?}") {
            let v = Verification::fail(format!(
                "churn step {step}: epoch-{step} answer diverged from a cold solve on the \
                 live graph version"
            ));
            return (rounds, v, gm, dm, rec);
        }
    }
    let queries = plan.steps + 1;
    let v = Verification::pass(format!(
        "churn replay: {queries} queries across {queries} graph versions, each verified \
         under the {} contract and bit-identical to a cold solve on its version",
        contract.label()
    ));
    (rounds, v, gm, dm, rec)
}

/// Folds a trace-reconciliation failure into the run's verdict: a run whose
/// trace totals diverge from its metrics fails even if its answer verified —
/// self-verifying observability is part of the contract.
fn reconcile_into(rec: &Recorder, metrics: &hybrid_sim::Metrics, verification: &mut Verification) {
    if let Err(e) = rec.reconcile(metrics) {
        let detail = format!("trace reconciliation failed: {e}");
        if verification.verdict == Verdict::Pass {
            *verification = Verification::fail(detail);
        } else {
            verification.detail.push_str("; ");
            verification.detail.push_str(&detail);
        }
    }
}

/// Runs one scenario at size ≈ `n` (the [`Engine::Fresh`] path); see
/// [`run_scenario_with`].
pub fn run_scenario(sc: &Scenario, n: usize) -> ScenarioReport {
    run_scenario_with(sc, n, Engine::Fresh)
}

/// Runs one scenario at size ≈ `n` under the chosen engine: builds the
/// graph, wires the fault plan, executes the suite, and verifies against
/// ground truth. Panics inside the algorithm are caught and reported as
/// [`Verdict::Fail`] — a fault plan must surface as a structured error,
/// never a crash.
///
/// Every run is traced, and the trace must [`Recorder::reconcile`] exactly
/// against the run's metrics — a mismatch fails the verdict. Tracing never
/// changes answers or the round bill (pinned by the determinism suite), so
/// reports are identical to an untraced run's.
pub fn run_scenario_with(sc: &Scenario, n: usize, engine: Engine) -> ScenarioReport {
    run_scenario_inner(sc, n, engine).0
}

/// Like [`run_scenario_with`] (always the [`Engine::Fresh`] path), returning
/// the run's trace recorder alongside the report — the export path behind
/// `experiments --trace`.
pub fn run_scenario_traced(sc: &Scenario, n: usize) -> (ScenarioReport, Recorder) {
    let (report, rec) = run_scenario_inner(sc, n, Engine::Fresh);
    (report, rec.unwrap_or_default())
}

fn run_scenario_inner(
    sc: &Scenario,
    n: usize,
    engine: Engine,
) -> (ScenarioReport, Option<Recorder>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let g = sc.graph(n);
        if let Some(plan) = sc.churn {
            return run_churn_session(sc, &g, plan);
        }
        match engine {
            Engine::Fresh => {
                let mut net = sc.net(&g);
                net.set_trace(Recorder::new());
                let (rounds, mut verification) = run_suite(sc, &g, &mut net);
                let rec = net.take_trace().expect("recorder installed above");
                reconcile_into(&rec, net.metrics(), &mut verification);
                let m = net.metrics();
                (rounds, verification, m.global_messages, m.dropped_messages, rec)
            }
            Engine::Session => run_suite_session(sc, &g),
        }
    }));
    let (rounds, verification, global_messages, dropped_messages, rec) = match result {
        Ok(r) => {
            let (rounds, verification, gm, dm, rec) = r;
            (rounds, verification, gm, dm, Some(rec))
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (0, Verification::fail(format!("panicked: {msg}")), 0, 0, None)
        }
    };
    let (trace_events, top_phase, top_phase_rounds) = match &rec {
        Some(rec) => {
            let totals = rec.totals();
            let mut top: Option<(&str, u64)> = None;
            for (name, stats) in &totals.phases {
                if top.is_none_or(|(_, r)| stats.rounds > r) {
                    top = Some((name.as_str(), stats.rounds));
                }
            }
            let (name, rounds) = top.unwrap_or(("", 0));
            (rec.len() as u64, name.to_string(), rounds)
        }
        None => (0, String::new(), 0),
    };
    let report = ScenarioReport {
        scenario: sc.name.to_string(),
        seed: sc.seed,
        n,
        family: sc.family.label(),
        faults: sc.faults.label(),
        suite: sc.suite.label(),
        verdict: verification.verdict,
        detail: verification.detail,
        rounds,
        global_messages,
        dropped_messages,
        wall_ns: start.elapsed().as_nanos(),
        trace_events,
        top_phase,
        top_phase_rounds,
    };
    (report, rec)
}

/// Runs every scenario in `batch` at size ≈ `n` (the [`Engine::Fresh`]
/// path) on [`hybrid_graph::workers`] scoped threads and returns the reports
/// in input order. Independent scenarios never share state, so the output is
/// identical to running them sequentially.
pub fn run_scenarios(batch: &[&Scenario], n: usize) -> Vec<ScenarioReport> {
    let jobs = batch.len();
    let threads = hybrid_graph::workers(jobs);
    if threads <= 1 {
        return batch.iter().map(|sc| run_scenario(sc, n)).collect();
    }
    let reports: Vec<Mutex<Option<ScenarioReport>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let report = run_scenario(batch[i], n);
                *reports[i].lock().expect("no poisoned slots") = Some(report);
            });
        }
    });
    reports
        .into_iter()
        .map(|slot| slot.into_inner().expect("lock").expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AlgorithmSuite, FaultPlan, GraphFamily, WeightModel};
    use hybrid_core::solver::DiameterCorollary;

    fn tiny(name: &'static str, suite: AlgorithmSuite) -> Scenario {
        Scenario {
            name,
            tags: &[],
            family: GraphFamily::SquareGrid,
            weights: WeightModel::Unit,
            faults: FaultPlan::None,
            suite,
            seed: 11,
            default_n: 36,
            churn: None,
        }
    }

    #[test]
    fn single_run_passes_and_reports() {
        let sc = tiny("t-apsp", AlgorithmSuite::Apsp { xi: 1.5 });
        let r = run_scenario(&sc, 36);
        assert!(r.passed(), "{}: {}", r.scenario, r.detail);
        assert!(r.rounds > 0);
        assert!(r.global_messages > 0);
        assert_eq!(r.dropped_messages, 0);
        assert_eq!(r.family, "square-grid");
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let scenarios = [
            tiny("t-apsp", AlgorithmSuite::Apsp { xi: 1.5 }),
            tiny("t-sssp", AlgorithmSuite::Sssp { xi: 1.5 }),
            tiny(
                "t-diam",
                AlgorithmSuite::Diameter { cor: DiameterCorollary::Cor52, eps: 0.5, xi: 1.0 },
            ),
        ];
        let batch: Vec<&Scenario> = scenarios.iter().collect();
        let par = run_scenarios(&batch, 36);
        let seq: Vec<ScenarioReport> = batch.iter().map(|sc| run_scenario(sc, 36)).collect();
        assert_eq!(par.len(), 3);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.deterministic_key(), s.deterministic_key());
            assert!(p.passed(), "{}: {}", p.scenario, p.detail);
        }
    }

    #[test]
    fn session_engine_matches_fresh_engine() {
        let scenarios = [
            tiny("t-apsp", AlgorithmSuite::Apsp { xi: 1.5 }),
            tiny("t-sssp", AlgorithmSuite::Sssp { xi: 1.5 }),
            tiny(
                "t-diam",
                AlgorithmSuite::Diameter { cor: DiameterCorollary::Cor52, eps: 0.5, xi: 1.0 },
            ),
        ];
        for sc in &scenarios {
            let fresh = run_scenario_with(sc, 36, Engine::Fresh);
            let session = run_scenario_with(sc, 36, Engine::Session);
            assert_eq!(fresh.deterministic_key(), session.deterministic_key(), "{}", sc.name);
            assert!(session.passed(), "{}: {}", session.scenario, session.detail);
        }
    }

    #[test]
    fn panics_become_fail_verdicts() {
        // An impossible family configuration: ThinGrid with more rows than
        // nodes panics inside the generator assertions.
        let mut sc = tiny("t-bad", AlgorithmSuite::Apsp { xi: 1.5 });
        sc.family = GraphFamily::BarabasiAlbert { attach: 0 };
        let r = run_scenario(&sc, 16);
        assert_eq!(r.verdict, Verdict::Fail);
        assert!(r.detail.contains("panicked"), "{}", r.detail);
    }
}
