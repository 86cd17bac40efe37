//! `churn-cycle`: one op is an `UPDATE` of the weighted cycle(2400, 3)
//! followed by a `SOLVE` of exact SSSP (Theorem 1.3) on the new epoch, both
//! through `Broker::serve_line`.
//!
//! It puts writes beside reads on serve-hot's layers: every query misses
//! the memo and is re-verified cold, on a sparse graph with a large
//! diameter. Most updates reweight one edge, which repair patches; every
//! [`FULL_EVERY`]-th reweights four edges a quarter of the cycle apart,
//! dirtying more than the damage threshold, so repair re-prepares in full.
//! Square and thin grids take the full path on every update, so they would
//! leave patching unmeasured.

use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

use hybrid_core::{solve, Query, Report, Session, SessionConfig};
use hybrid_graph::dijkstra::dijkstra;
use hybrid_graph::generators::cycle;
use hybrid_graph::{DeltaBatch, Distance, Graph, GraphDelta, NodeId};
use hybrid_serve::protocol::{delta_spec, parse_request, query_spec};
use hybrid_serve::{report_digest, Broker, BrokerConfig, BrokerStats, GraphCatalog, TenantConfig};
use hybrid_sim::{HybridConfig, HybridNet, Metrics, Recorder};

use crate::measure::{field, median, percentile, Attribution, Metric, Outcome};
use crate::measure::{Phase, SetupTimes, SpanLog, SplitMix64};
use crate::probe::{self, ExchangeProbe, SimCounts};
use crate::sys;

/// The `BENCH_churn.json` instance: a cycle on 2400 nodes, every weight 3.
const N: usize = 2400;
const WEIGHT: Distance = 3;
const GRAPH: &str = "churn-cycle";
const TENANT: &str = "steady";
/// One update in this many reweights four spread edges (the full path).
const FULL_EVERY: usize = 8;
const SPREAD_EDGES: usize = 4;
/// Untimed update+solve ops that warm the repair and solve paths.
const WARMUP_OPS: usize = 2;
/// The session seed of the `BENCH_churn.json` repair records.
const BROKER_SEED: u64 = 41;
const SOURCE: usize = 0;

/// Everything generated from the workload seed.
pub struct Inputs {
    catalog: GraphCatalog,
    g0: Graph,
    query: Query,
    /// Per op (warm-up first): the delta, its `UPDATE` line, its `SOLVE` line.
    ops: Vec<(DeltaBatch, String, String)>,
    fingerprint: u64,
}

impl Inputs {
    /// The cycle, and `WARMUP_OPS + ops` reweight batches drawn from a
    /// SplitMix64 stream of the seed (edge, and a weight in 1..=4 that
    /// differs from the edge's current one).
    pub fn new(seed: u64, ops: usize) -> Inputs {
        let g0 = cycle(N, WEIGHT).expect("cycle builds");
        let mut catalog = GraphCatalog::new();
        catalog.insert(GRAPH, g0.clone());
        let query = Query::sssp(NodeId::new(SOURCE)).xi(1.5).build().expect("valid SSSP query");
        let mut rng = SplitMix64::new(seed);
        let mut weights = vec![WEIGHT; N];
        let mut fp = DefaultHasher::new();
        let batches = (0..WARMUP_OPS + ops).map(|k| {
            let edges: Vec<usize> = if k % FULL_EVERY == FULL_EVERY - 1 {
                let offset = rng.below(N);
                (0..SPREAD_EDGES).map(|j| (offset + j * N / SPREAD_EDGES) % N).collect()
            } else {
                vec![rng.below(N)]
            };
            let mut batch = DeltaBatch::new();
            for e in edges {
                let mut w = 1 + rng.below(4) as Distance;
                if w == weights[e] {
                    w = w % 4 + 1;
                }
                weights[e] = w;
                let (u, v) = (e.min((e + 1) % N), e.max((e + 1) % N));
                batch.push(GraphDelta::Reweight { u: NodeId::new(u), v: NodeId::new(v), w });
            }
            batch
        });
        let spec = query_spec(&query);
        let ops = batches
            .enumerate()
            .map(|(id, batch)| {
                let update = format!(
                    "UPDATE id={id} tenant={TENANT} graph={GRAPH} ops={}",
                    delta_spec(&batch)
                );
                let solve = format!("SOLVE id={id} tenant={TENANT} graph={GRAPH} query={spec}");
                fp.write(update.as_bytes());
                (batch, update, solve)
            })
            .collect();
        Inputs { catalog, g0, query, ops, fingerprint: fp.finish() }
    }

    /// A broker over the catalog with the tenant registered and the epoch-0
    /// query served, so its session and cold referee are built.
    pub fn warm_broker(&self) -> Broker<'_> {
        let broker = Broker::new(&self.catalog, BrokerConfig::new(BROKER_SEED));
        broker.register_tenant(TENANT, TenantConfig::new(1)).expect("trivial tenant");
        let line =
            format!("SOLVE id=0 tenant={TENANT} graph={GRAPH} query={}", query_spec(&self.query));
        let resp = broker.serve_line(&line);
        assert!(resp.starts_with("OK "), "warm-up request failed: {resp}");
        broker
    }
}

/// The benchmark's own copy of the graph, one epoch behind the broker
/// until [`Referee::advance`] catches it up, and the checks against it.
struct Referee {
    graph: Graph,
    failed: u64,
    wrong: u64,
    rounds: u64,
}

impl Referee {
    /// Applies `batch` to the own copy; returns the time it took in ns.
    fn advance(&mut self, batch: &DeltaBatch) -> f64 {
        let t0 = Instant::now();
        self.graph = self.graph.apply_delta(batch).expect("generated batches are valid");
        t0.elapsed().as_nanos() as f64
    }

    /// A cold solve of `query` on the own copy, with the program's own
    /// trace installed: the report, the net's counters, and the wall time
    /// of its `prepare:*` spans.
    fn cold_solve(&self, query: &Query) -> (Report, Metrics, f64) {
        let mut net = HybridNet::new(&self.graph, HybridConfig::default());
        net.set_trace(Recorder::new());
        let report = solve(&mut net, query, BROKER_SEED).expect("cold SSSP on a connected graph");
        let prepare = probe::prepare_ms(&net.take_trace().expect("recorder installed"));
        (report, net.into_metrics(), prepare)
    }

    /// Checks one op's two response lines against the cold report of the
    /// own copy, whose row must equal Dijkstra's.
    fn check(&mut self, update: &str, solve: &str, cold: &Report) {
        let digest = field(solve, "digest").and_then(|d| u64::from_str_radix(d, 16).ok());
        let rounds = field(solve, "rounds").and_then(|r| r.parse::<u64>().ok());
        let (Some(digest), Some(rounds)) = (digest, rounds) else {
            self.failed += 1;
            return;
        };
        if !update.starts_with("OK ") || !solve.starts_with("OK ") {
            self.failed += 1;
            return;
        }
        self.rounds += rounds;
        let truth = dijkstra(&self.graph, NodeId::new(SOURCE));
        let row_exact = cold.distance_row().is_some_and(|(_, row)| row == truth.as_slice());
        if !row_exact || digest != report_digest(cold) || field(solve, "verified") != Some("1") {
            self.wrong += 1;
        }
    }
}

/// Runs one op: the `UPDATE` line, then the `SOLVE` line. Returns both
/// responses and the update's on-CPU time in ms (see [`Phase`]).
fn op(broker: &Broker<'_>, update: &str, solve: &str) -> (String, String, f64) {
    let cpu0 = sys::cpu_time_ns();
    let u = broker.serve_line(update);
    let up_ms = (sys::cpu_time_ns() - cpu0) as f64 / 1e6;
    (u, broker.serve_line(solve), up_ms)
}

/// The broker's counters between two snapshots, as per-layer figures.
fn broker_metrics(s0: &BrokerStats, s1: &BrokerStats, ops: usize) -> Vec<Metric> {
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let (patched, full) = (s1.repair_patched - s0.repair_patched, s1.repair_full - s0.repair_full);
    vec![
        Metric::new(
            "serve.session_hit_ratio",
            "ratio",
            ratio(s1.session_hits - s0.session_hits, s1.served - s0.served),
            ops,
        ),
        Metric::new("serve.verified", "count", ratio(s1.verified - s0.verified, ops as u64), ops),
        Metric::new("serve.mismatches", "count", (s1.mismatches - s0.mismatches) as f64, ops),
        Metric::new("core.repair_patched_frac", "ratio", ratio(patched, patched + full), ops),
    ]
}

fn run(inputs: &Inputs, broker: &Broker<'_>, log: Option<&mut SpanLog>) -> Outcome {
    let mut referee = Referee { graph: inputs.g0.clone(), failed: 0, wrong: 0, rounds: 0 };
    let (warm, timed) = inputs.ops.split_at(WARMUP_OPS);
    for (batch, update, solve) in warm {
        let (u, s, _) = op(broker, update, solve);
        referee.advance(batch);
        let (cold, _, _) = referee.cold_solve(&inputs.query);
        referee.check(&u, &s, &cold);
    }
    // The round bill counts timed ops only.
    referee.rounds = 0;
    let (plain, traced) =
        if log.is_some() { timed.split_at(timed.len() / 2) } else { (timed, &timed[..0]) };
    let s0 = broker.stats();
    let mut phase = Phase::default();
    let mut update_ms = Vec::with_capacity(plain.len());
    for (batch, update, solve) in plain {
        let (u, s, up) = phase.op(|| op(broker, update, solve));
        update_ms.push(up);
        referee.advance(batch);
        let (cold, _, _) = referee.cold_solve(&inputs.query);
        referee.check(&u, &s, &cold);
    }
    let mut out = Outcome { inputs: inputs.fingerprint, ..Outcome::default() };
    match log {
        None => {
            out.metrics = phase.end_to_end(referee.rounds as f64 / plain.len() as f64);
            out.notes.push(phase.wall_note());
            out.notes.push(format!(
                "update_p50_ms = {:.4} ms (n={}), update_p90_ms = {:.4} ms",
                median(&update_ms),
                update_ms.len(),
                percentile(&update_ms, 0.9)
            ));
        }
        Some(log) => {
            let s1 = broker.stats();
            let (metrics, notes) =
                run_traced(inputs, broker, traced, log, &mut referee, median(&phase.cpu_ms));
            out.metrics = metrics;
            out.metrics.extend(broker_metrics(&s1, &broker.stats(), traced.len()));
            out.notes = notes;
        }
    }
    let end = broker.stats();
    out.attempted = (warm.len() + timed.len()) as u64;
    out.failed = referee.failed;
    out.gate(
        "churn-cycle: every SSSP row equals Dijkstra and every digest the own cold solve",
        referee.wrong == 0 && referee.failed == 0,
    );
    let (patched, full) =
        (end.repair_patched - s0.repair_patched, end.repair_full - s0.repair_full);
    out.gate("churn-cycle: repair patched at least once", patched > 0);
    out.gate("churn-cycle: repair re-prepared in full at least once", full > 0);
    out.gate("churn-cycle: zero bit-identity mismatches", end.mismatches == s0.mismatches);
    out.counts = vec![
        ("repair_patched", patched),
        ("repair_full", full),
        ("rounds", referee.rounds),
        ("failed", referee.failed),
    ];
    out
}

/// The traced half: each op is the two `serve_line` calls, followed by the
/// layers they reach inside, re-run on the same input — parse, the graph
/// delta, the session repair and warm solve on the benchmark's mirror of
/// the broker's session, the cold referee's solve, the digests and the
/// exchange engine at the solves' volume. What they leave uncovered is the
/// broker's self time.
fn run_traced(
    inputs: &Inputs,
    broker: &Broker<'_>,
    ops: &[(DeltaBatch, String, String)],
    log: &mut SpanLog,
    referee: &mut Referee,
    untraced_p50: f64,
) -> (Vec<Metric>, Vec<String>) {
    // The mirror starts as a cold session on the current epoch, which the
    // repair contract makes bit-identical to the broker's migrated one.
    let cfg = SessionConfig { xi: 1.5, ..SessionConfig::new(BROKER_SEED) };
    let mut mirror = Session::new(&referee.graph, cfg).expect("session over the cycle");
    mirror.solve(&inputs.query).expect("prepare the mirror's SSSP preamble");
    let mut exchange = ExchangeProbe::new(&inputs.g0, BROKER_SEED);
    let mut phase = Phase::default();
    let mut sim = SimCounts::default();
    let mut t = [0.0f64; 10];
    // Memo hits of the session that served each op's SOLVE (a fresh
    // session per epoch, so its counters cover that one query).
    let (mut dirty, mut queries, mut report_hits) = (0.0, 0u64, 0u64);
    let (mut x_ns, mut x_msgs) = (0.0, 0u64);
    for (i, (batch, update, solve)) in ops.iter().enumerate() {
        let op_id = i as u64;
        let (u, s, up_ns) = phase.op(|| {
            let root = log.begin("op", op_id, None);
            let (u, up_ns) =
                log.time("serve.update_line", op_id, Some(root), || broker.serve_line(update));
            let (s, _) =
                log.time("serve.solve_line", op_id, Some(root), || broker.serve_line(solve));
            log.end(root);
            (u, s, up_ns)
        });
        let st = broker.stats();
        queries += st.session_queries;
        report_hits += st.session_report_hits;
        let parse_update = log.time("serve.parse", op_id, None, || parse_request(update)).1;
        let parse_solve = log.time("serve.parse", op_id, None, || parse_request(solve)).1;
        let delta_ns = {
            let id = log.begin("graph.apply_delta", op_id, None);
            let ns = referee.advance(batch);
            log.end(id);
            ns
        };
        let ((next, repair), repair_ns) = log.time("core.repair", op_id, None, || {
            mirror.apply_delta(batch).expect("mirror accepts the broker's delta")
        });
        mirror = next;
        dirty += repair.dirty_fraction;
        let ((warm, warm_metrics), warm_ns) =
            log.time("core.session_warm", op_id, None, || mirror.solve_with_metrics(&inputs.query));
        warm.expect("warm solve on the mirror");
        let ((cold, cold_metrics, prepare_ms), cold_ns) =
            log.time("core.solve_cold", op_id, None, || referee.cold_solve(&inputs.query));
        let digest_ns = log.time("serve.digest", op_id, None, || report_digest(&cold)).1;
        let ((xw, mw), _) =
            log.time("sim.exchange", op_id, None, || exchange.replay(&warm_metrics));
        let ((xc, mc), _) =
            log.time("sim.exchange", op_id, None, || exchange.replay(&cold_metrics));
        x_ns += xw + xc;
        x_msgs += mw + mc;
        sim.add(&[&warm_metrics, &cold_metrics]);
        referee.check(&u, &s, &cold);
        let sim_warm = xw / mw.max(1) as f64 * warm_metrics.global_messages as f64;
        let sim_cold = xc / mc.max(1) as f64 * cold_metrics.global_messages as f64;
        let raw = [
            parse_update + parse_solve,
            up_ns - parse_update,
            delta_ns,
            repair_ns,
            warm_ns,
            cold_ns,
            prepare_ms * 1e6,
            sim_warm,
            sim_cold,
            digest_ns,
        ];
        for (sum, ns) in t.iter_mut().zip(raw) {
            *sum += ns;
        }
    }
    let [parse, update, delta, repair, warm, cold, prepare, sim_warm, sim_cold, digest] = t;
    let k = ops.len() as f64;
    let ms = |ns: f64| ns / 1e6 / k;
    let op_mean = phase.wall_ms.iter().sum::<f64>() / k;
    // Disjoint slices of the op: Broker::update is the catalog's graph
    // delta plus the session repair; the SOLVE is the warm session solve
    // plus the cold referee, each with its exchanges split out to sim, and
    // the broker digests both the served report and the referee's.
    let mut attr = Attribution::default();
    attr.part("serve", "protocol::parse_request x2", ms(parse));
    attr.part("graph", "Graph::apply_delta (catalog)", ms(delta));
    attr.part("core", "Session::apply_delta (repair)", ms(repair));
    attr.part("core", "warm session solve, less sim", ms(warm - sim_warm));
    attr.part("core", "cold referee, less sim, prep", ms(cold - sim_cold - prepare));
    attr.part("core", "prepare (referee's prepare:*)", ms(prepare));
    attr.part("sim", "exchange_into (ns/msg x msgs)", ms(sim_warm + sim_cold));
    attr.part("serve", "report_digest x2", 2.0 * ms(digest));
    let (notes, remainder) = attr.table(op_mean, "serve");
    let traced_p50 = median(&phase.cpu_ms);
    let (msgs, grounds, lrounds, maxload) = sim.per_op();
    let n = ops.len();
    let metrics = vec![
        Metric::new("serve.parse_us", "us", parse / 1e3 / k, n),
        Metric::new("serve.update_ms", "ms", ms(update), n),
        Metric::new("serve.digest_us", "us", 2.0 * digest / 1e3 / k, n),
        Metric::new("serve.broker_self_us", "us", remainder * 1e3, n),
        Metric::new("graph.apply_delta_us", "us", delta / 1e3 / k, n),
        Metric::new("core.repair_ms", "ms", ms(repair), n),
        Metric::new("core.session_warm_ms", "ms", ms(warm), n),
        Metric::new("core.solve_cold_ms", "ms", ms(cold), n),
        Metric::new("core.prepare_ms", "ms", ms(prepare), n),
        Metric::new("core.dirty_fraction", "ratio", dirty / k, n),
        Metric::new("sim.exchange_ns_per_msg", "ns", x_ns / x_msgs.max(1) as f64, x_msgs as usize),
        Metric::new("sim.global_messages", "count", msgs, n),
        Metric::new("sim.global_rounds", "rounds", grounds, n),
        Metric::new("sim.local_rounds", "rounds", lrounds, n),
        Metric::new("sim.max_recv_load", "count", maxload, n),
        Metric::new("trace.op_p50_ms", "ms", traced_p50, n),
        Metric::new("trace.overhead_ms", "ms", traced_p50 - untraced_p50, n),
        Metric::new("trace.remainder_ms", "ms", remainder, n),
        Metric::new(
            "core.report_hit_ratio",
            "ratio",
            report_hits as f64 / queries.max(1) as f64,
            queries as usize,
        ),
    ];
    (metrics, notes)
}

/// Sets up `reps` times (the last set-up serves the timed phase) and runs.
pub fn bench(seed: u64, ops: usize, reps: usize, log: Option<&mut SpanLog>) -> Outcome {
    let mut times = SetupTimes::default();
    for _ in 1..reps {
        times.time(|| drop(Inputs::new(seed, ops).warm_broker()));
    }
    // The broker borrows the inputs, so the last set-up is timed in two parts.
    let inputs = times.time(|| Inputs::new(seed, ops));
    let broker = times.time_more(|| inputs.warm_broker());
    let traced = log.is_some();
    let mut out = run(&inputs, &broker, log);
    if !traced {
        out.metrics.insert(0, times.metric());
    }
    out
}
