//! `apsp-cold`: Theorem 1.1 exact APSP solved from scratch on a fresh
//! `HybridNet` for every op, on the registry's `e2-er` graph at n = 400.
//!
//! It is the paper's headline algorithm with no caching, so the round
//! engine, token routing, prepare and the graph kernels do all the work and
//! the broker, memo and repair layers do none.

use hybrid_core::skeleton_ops::compute_skeleton;
use hybrid_core::{solve, HybridError, Query, Report};
use hybrid_graph::apsp::{apsp, DistanceMatrix};
use hybrid_graph::dijkstra::par_lex_rows_with;
use hybrid_graph::minplus::min_plus_into;
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};
use hybrid_serve::graph_fingerprint;
use hybrid_sim::{HybridConfig, HybridNet, Recorder};

use crate::measure::{median, relabel, Attribution, Metric, Outcome, Phase, DEFAULT_SEED};
use crate::measure::{SetupTimes, SpanLog};
use crate::probe::{self, ExchangeProbe, SimCounts};

const N: usize = 400;
/// The solve seed of experiment E2; on the registry graph it gives the E2
/// instance.
const SOLVE_SEED: u64 = 5;
/// Theorem 1.1's simulated round bill on the E2 instance at n = 400.
const E2_ROUNDS: u64 = 529;
const WARMUP_SOLVES: usize = 2;

struct Setup {
    g: Graph,
    query: Query,
    reference: DistanceMatrix,
    inputs: u64,
}

/// Builds the instance of workload seed `seed` ([`DEFAULT_SEED`] is the
/// registry's E2 instance, other seeds relabel it) and its reference APSP, and warms the
/// allocator and caches with untimed solves.
fn setup(seed: u64) -> Setup {
    let sc = hybrid_scenarios::find("e2-er").expect("e2-er is registered");
    let g = relabel(&sc.graph(N), seed);
    let query = sc.suite.query();
    let reference = apsp(&g);
    for _ in 0..WARMUP_SOLVES {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        solve(&mut net, &query, SOLVE_SEED).expect("warm-up solve");
    }
    let inputs = graph_fingerprint(&g);
    Setup { g, query, reference, inputs }
}

/// Tallies of the answer checks, turned into gates at the end of a run.
#[derive(Debug, Default)]
struct Checks {
    failed: u64,
    inexact: u64,
    off_pin: u64,
    rounds: u64,
}

impl Checks {
    fn check(&mut self, s: &Setup, seed: u64, result: Result<Report, HybridError>) {
        match result {
            Ok(report) => {
                if report.distances().is_none_or(|m| m.as_flat() != s.reference.as_flat()) {
                    self.inexact += 1;
                }
                if seed == DEFAULT_SEED && report.rounds != E2_ROUNDS {
                    self.off_pin += 1;
                }
                self.rounds += report.rounds;
            }
            Err(_) => self.failed += 1,
        }
    }

    fn gates(&self, seed: u64, out: &mut Outcome) {
        out.failed += self.failed;
        out.gate("apsp-cold: every matrix equals hybrid_graph::apsp::apsp", self.inexact == 0);
        if seed == DEFAULT_SEED {
            out.gate(
                format!("apsp-cold: every round bill is the E2 pin {E2_ROUNDS}"),
                self.off_pin == 0,
            );
        }
    }
}

/// The closed loop: `ops` solves, each on a fresh net.
fn plain_phase(s: &Setup, seed: u64, ops: usize, checks: &mut Checks) -> Phase {
    let mut phase = Phase::default();
    for _ in 0..ops {
        let (result, net) = phase.op(|| {
            let mut net = HybridNet::new(&s.g, HybridConfig::default());
            let result = solve(&mut net, &s.query, SOLVE_SEED);
            (result, net)
        });
        drop(net);
        checks.check(s, seed, result);
    }
    phase
}

fn run(s: &Setup, seed: u64, ops: usize) -> Outcome {
    let mut checks = Checks::default();
    let phase = plain_phase(s, seed, ops, &mut checks);
    let mut out = Outcome { inputs: s.inputs, attempted: ops as u64, ..Outcome::default() };
    checks.gates(seed, &mut out);
    out.metrics = phase.end_to_end(checks.rounds as f64 / ops as f64);
    out.notes.push(phase.wall_note());
    out.counts = vec![("rounds", checks.rounds), ("failed", checks.failed)];
    out
}

/// The traced run: the first half of the ops untraced (the overhead
/// baseline), the second half traced, each traced op followed by probes of
/// the graph kernels and the exchange engine on its own input.
fn run_traced(s: &Setup, seed: u64, ops: usize, log: &mut SpanLog) -> Outcome {
    let half = ops / 2;
    let mut checks = Checks::default();
    let untraced_p50 = median(&plain_phase(s, seed, half, &mut checks).cpu_ms);

    let n = s.g.len();
    // Theorem 1.1's merge operands: the near matrix (n × |V_S|) and the
    // skeleton labels (|V_S| × n), from the skeleton Algorithm 6 samples.
    let mut skel_net = HybridNet::new(&s.g, HybridConfig::default());
    let skeleton = compute_skeleton(&mut skel_net, 0.5, 1.5, &[], SOLVE_SEED, "probe")
        .expect("skeleton of a connected graph");
    let vs = skeleton.len();
    let h = skeleton.h() as Distance;
    let labels = skeleton.dh_flat().to_vec();
    let mut nearm = vec![INFINITY; n * vs];
    for sl in 0..vs {
        for (v, &d) in skeleton.dh_row(sl).iter().enumerate() {
            nearm[v * vs + sl] = d;
        }
    }
    let sources: Vec<NodeId> = s.g.nodes().collect();
    let mut rows = vec![INFINITY; n * n];
    let mut merged = vec![INFINITY; n * n];
    let mut exchange = ExchangeProbe::new(&s.g, SOLVE_SEED);

    let mut phase = Phase::default();
    let (mut solve_ns, mut prepare_ms, mut lex_ns, mut mp_ns, mut x_ns, mut x_msgs) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0u64);
    let mut sim = SimCounts::default();
    for i in 0..ops - half {
        let op = i as u64;
        let (result, mut net, ns_solve) = phase.op(|| {
            let root = log.begin("op", op, None);
            let mut net = HybridNet::new(&s.g, HybridConfig::default());
            net.set_trace(Recorder::new());
            let (result, ns_solve) =
                log.time("core.solve", op, Some(root), || solve(&mut net, &s.query, SOLVE_SEED));
            log.end(root);
            (result, net, ns_solve)
        });
        solve_ns += ns_solve;
        let rec = net.take_trace().expect("recorder installed in the op");
        prepare_ms += probe::prepare_ms(&rec);
        let metrics = net.into_metrics();
        sim.add(&[&metrics]);
        checks.check(s, seed, result);

        // Assembly pass 1: one lexicographic Dijkstra per node, h-hop gated.
        lex_ns += log
            .time("graph.lex_rows", op, None, || {
                par_lex_rows_with(&s.g, &sources, &mut rows, |_, _, dist, hops, row| {
                    for v in 0..n {
                        row[v] = if hops[v] <= h { dist[v] } else { INFINITY };
                    }
                })
            })
            .1;
        // Assembly pass 2: the skeleton merge.
        merged.copy_from_slice(&rows);
        mp_ns += log
            .time("graph.minplus", op, None, || min_plus_into(&nearm, &labels, &mut merged, n, n))
            .1;
        let ((ns, msgs), _) = log.time("sim.exchange", op, None, || exchange.replay(&metrics));
        x_ns += ns;
        x_msgs += msgs;
    }
    let traced = (ops - half) as f64;
    let mut out = Outcome { inputs: s.inputs, attempted: ops as u64, ..Outcome::default() };
    checks.gates(seed, &mut out);

    let op_mean = phase.wall_ms.iter().sum::<f64>() / traced;
    let ns_per_msg = x_ns / x_msgs.max(1) as f64;
    let (msgs, grounds, lrounds, maxload) = sim.per_op();
    let mut attr = Attribution::default();
    attr.part("core", "prepare (prepare:* spans)", prepare_ms / traced);
    attr.part("graph", "par_lex_rows_with, all sources", lex_ns / 1e6 / traced);
    attr.part("graph", "min_plus_into, n x |V_S| x n", mp_ns / 1e6 / traced);
    attr.part("sim", "exchange_into (ns/msg x msgs)", ns_per_msg * msgs / 1e6);
    let (mut lines, remainder) = attr.table(op_mean, "core");
    lines.insert(0, format!("skeleton |V_S| = {vs}, h = {h}"));
    out.notes = lines;

    let traced_p50 = median(&phase.cpu_ms);
    let k = phase.ops();
    out.metrics = vec![
        Metric::new("core.solve_cold_ms", "ms", solve_ns / 1e6 / traced, k),
        Metric::new("core.prepare_ms", "ms", prepare_ms / traced, k),
        Metric::new("graph.lex_rows_ms", "ms", lex_ns / 1e6 / traced, k),
        Metric::new("graph.minplus_ms", "ms", mp_ns / 1e6 / traced, k),
        Metric::new("sim.exchange_ns_per_msg", "ns", ns_per_msg, x_msgs as usize),
        Metric::new("sim.global_messages", "count", msgs, k),
        Metric::new("sim.global_rounds", "rounds", grounds, k),
        Metric::new("sim.local_rounds", "rounds", lrounds, k),
        Metric::new("sim.max_recv_load", "count", maxload, k),
        Metric::new("trace.op_p50_ms", "ms", traced_p50, k),
        Metric::new("trace.overhead_ms", "ms", traced_p50 - untraced_p50, k),
        Metric::new("trace.remainder_ms", "ms", remainder, k),
    ];
    out.counts = vec![("rounds", checks.rounds), ("messages", msgs as u64)];
    out
}

/// Sets up `reps` times (the last set-up serves the timed phase) and runs.
pub fn bench(seed: u64, ops: usize, reps: usize, log: Option<&mut SpanLog>) -> Outcome {
    let mut times = SetupTimes::default();
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        state = Some(times.time(|| setup(seed)));
    }
    let s = state.expect("at least one set-up");
    match log {
        Some(log) => run_traced(&s, seed, ops, log),
        None => {
            let mut out = run(&s, seed, ops);
            out.metrics.insert(0, times.metric());
            out
        }
    }
}
