//! Structured tracing: round-level spans, per-exchange events, and
//! self-reconciling aggregates.
//!
//! The simulator's scientific payload is the simulated round bill; this
//! module makes it *inspectable* without making it *different*. A
//! [`Recorder`] installed via [`crate::HybridNet::set_trace`] buffers one
//! [`TraceEvent`] per charge the net makes — local charges, global
//! exchanges (with per-exchange message counts and send/receive loads),
//! reliable-layer waves (backoff, retransmissions, declare-dead), and the
//! solver-level spans opened by higher layers. Tracing is strictly
//! observational: a traced run produces bit-identical answers, guarantees,
//! and round bills, and a disabled trace costs zero allocations on the
//! steady-state exchange path (enforced by the counting-allocator suite).
//!
//! Because every event mirrors exactly one `Metrics` mutation,
//! [`Recorder::reconcile`] can prove the trace is complete: the
//! event-derived totals (rounds, messages, drops, retransmissions, and the
//! per-phase breakdown) must equal the final [`Metrics`] counters exactly.
//! The scenario smoke matrix enforces this for every registry workload.
//!
//! Exports: [`Recorder::chrome_trace`] renders the buffer in the
//! `chrome://tracing` JSON format with **simulated rounds as the clock**
//! (1 round = 1 µs on the viewer's axis); [`Recorder::rollup`] renders a
//! text phase tree with rounds/messages/wall-µs per span.
//!
//! # Example
//!
//! ```
//! use hybrid_graph::generators::path;
//! use hybrid_graph::NodeId;
//! use hybrid_sim::{Envelope, HybridConfig, HybridNet, Recorder};
//!
//! let g = path(8, 1).unwrap();
//! let mut net = HybridNet::new(&g, HybridConfig::default());
//! net.set_trace(Recorder::new());
//! net.trace_span_begin("solve:example");
//! net.charge_local(2, "explore");
//! net.exchange("route", vec![Envelope::new(NodeId::new(0), NodeId::new(3), 7u32)]).unwrap();
//! net.trace_span_end("solve:example");
//!
//! let rec = net.take_trace().unwrap();
//! rec.reconcile(net.metrics()).expect("trace totals equal the metrics");
//! assert!(rec.chrome_trace().contains("\"traceEvents\""));
//! assert!(rec.rollup().contains("solve:example"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::{Metrics, PhaseStats};

/// One structured observation of a simulated run.
///
/// Charge-mirroring variants ([`TraceEvent::Local`],
/// [`TraceEvent::GlobalRounds`], [`TraceEvent::Exchange`],
/// [`TraceEvent::Backoff`], [`TraceEvent::Wave`], [`TraceEvent::Absorb`])
/// advance the simulated clock by their `rounds` contribution; marker
/// variants (spans, cache hits, declare-dead, delivery summaries) do not.
/// Wall-clock fields appear only on span events and are filled by the
/// [`Recorder`] at record time — determinism comparisons use
/// [`Recorder::events_sans_wall`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A named scope opened (solver `solve`, `prepare` phases, session items).
    SpanBegin {
        /// Scope name, e.g. `"solve:apsp-thm11"`.
        name: String,
        /// Simulated round clock at open.
        round: u64,
        /// Wall-clock µs since the recorder's epoch (filled at record time).
        wall_us: u64,
    },
    /// A named scope closed.
    SpanEnd {
        /// Scope name (matches the corresponding [`TraceEvent::SpanBegin`]).
        name: String,
        /// Simulated round clock at close.
        round: u64,
        /// Wall-clock µs since the recorder's epoch (filled at record time).
        wall_us: u64,
    },
    /// A local-mode charge ([`crate::HybridNet::charge_local`]).
    Local {
        /// Phase label.
        phase: String,
        /// Rounds charged.
        rounds: u64,
    },
    /// A bulk global-mode charge ([`crate::HybridNet::charge_global_rounds`]).
    GlobalRounds {
        /// Phase label.
        phase: String,
        /// Rounds charged.
        rounds: u64,
    },
    /// One fire-and-forget global exchange (also the empty reliable
    /// exchange, which bills its round without running waves).
    Exchange {
        /// Phase label.
        phase: String,
        /// Rounds the exchange cost (> 1 when stretched).
        rounds: u64,
        /// Messages delivered on the wire.
        messages: u64,
        /// Largest per-node send load of this exchange.
        max_send_load: u64,
        /// Largest per-node receive load of this exchange.
        max_recv_load: u64,
        /// Messages removed by the random-loss stream before the wire.
        lost: u64,
        /// Messages suppressed because an endpoint had crashed.
        suppressed: u64,
        /// Messages whose payload the corruption stream flipped (discarded
        /// before delivery — fire-and-forget has no retransmission).
        corrupted: u64,
    },
    /// A reliable-layer exponential-backoff pause before a retry wave.
    Backoff {
        /// Phase label.
        phase: String,
        /// Wave number (the first retry wave is 2).
        wave: u64,
        /// Backoff rounds charged.
        rounds: u64,
    },
    /// One reliable-layer transmission wave (wire rounds plus an ack round).
    Wave {
        /// Phase label.
        phase: String,
        /// Wave number (1 is the initial transmission).
        wave: u64,
        /// Wire rounds of the wave (> 1 when stretched).
        rounds: u64,
        /// Ack rounds charged after the wire rounds (always 1 today).
        ack_rounds: u64,
        /// Messages attempted on the wire this wave.
        messages: u64,
        /// Attempted messages that were retransmissions.
        retransmissions: u64,
        /// Attempted messages lost to the drop stream this wave.
        lost: u64,
        /// Messages suppressed this wave (crashed sender, destination
        /// already declared dead, or given up on at the attempt bound).
        suppressed: u64,
        /// Attempted messages whose payload arrived bit-flipped this wave —
        /// checksum-detected, discarded, and queued for retransmission.
        corrupted: u64,
        /// Messages delivered this wave after at least one retransmission.
        recovered: u64,
        /// Largest per-node send load of the wave.
        max_send_load: u64,
    },
    /// The reliable layer's failure detector declared a node dead.
    DeclareDead {
        /// The node given up on.
        node: u32,
    },
    /// Delivered-set summary of a reliable exchange after recovery.
    Delivered {
        /// Messages that reached their inboxes.
        messages: u64,
        /// Largest per-node receive load of the final delivery.
        max_recv_load: u64,
    },
    /// A cache-visibility marker (session report memo, prepared skeletons).
    Cache {
        /// What was looked up, e.g. `"skeleton:apsp-skeleton"`.
        name: String,
        /// `true` for a hit (served from cache), `false` for a cold build.
        hit: bool,
    },
    /// Totals of a nested sub-execution merged via
    /// [`crate::HybridNet::absorb_metrics`] (e.g. the CLIQUE simulation's
    /// inner net). The sub-run is opaque to this trace; its counters are
    /// folded in wholesale so reconciliation stays exact.
    Absorb {
        /// Sub-run total rounds.
        rounds: u64,
        /// Sub-run local-mode rounds.
        local_rounds: u64,
        /// Sub-run global messages.
        messages: u64,
        /// Sub-run messages lost to drop streams.
        lost: u64,
        /// Sub-run messages suppressed by crashes.
        suppressed: u64,
        /// Sub-run corrupted payloads (checksum-detected, never delivered).
        corrupted: u64,
        /// Sub-run retransmissions.
        retransmissions: u64,
        /// Sub-run recovered messages.
        recovered: u64,
        /// Sub-run declared-dead count.
        declared_dead: u64,
        /// Sub-run stretched exchanges.
        stretched: u64,
        /// Sub-run per-phase breakdown.
        phases: Vec<(String, PhaseStats)>,
    },
}

impl TraceEvent {
    /// Rounds this event advances the simulated clock by (0 for markers).
    pub fn clock_rounds(&self) -> u64 {
        match self {
            TraceEvent::Local { rounds, .. }
            | TraceEvent::GlobalRounds { rounds, .. }
            | TraceEvent::Exchange { rounds, .. }
            | TraceEvent::Backoff { rounds, .. }
            | TraceEvent::Absorb { rounds, .. } => *rounds,
            TraceEvent::Wave { rounds, ack_rounds, .. } => rounds + ack_rounds,
            _ => 0,
        }
    }

    /// A copy with wall-clock fields zeroed — the comparison shape of the
    /// determinism tests (two traced runs must agree on everything else).
    pub fn sans_wall(&self) -> TraceEvent {
        let mut ev = self.clone();
        match &mut ev {
            TraceEvent::SpanBegin { wall_us, .. } | TraceEvent::SpanEnd { wall_us, .. } => {
                *wall_us = 0;
            }
            _ => {}
        }
        ev
    }
}

/// Event-derived aggregate totals (see [`Recorder::totals`]) — the left-hand
/// side of [`Recorder::reconcile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Total rounds derived from charge events.
    pub rounds: u64,
    /// Local-mode rounds.
    pub local_rounds: u64,
    /// Global messages on the wire.
    pub messages: u64,
    /// Messages lost to drop streams.
    pub lost: u64,
    /// Messages suppressed by crashes.
    pub suppressed: u64,
    /// Corrupted payloads (checksum-detected, never delivered).
    pub corrupted: u64,
    /// Retransmitted messages.
    pub retransmissions: u64,
    /// Messages recovered after retransmission.
    pub recovered: u64,
    /// Nodes declared dead.
    pub declared_dead: u64,
    /// Exchanges/waves that stretched past one wire round.
    pub stretched: u64,
    /// Per-phase breakdown derived from charge events.
    pub phases: BTreeMap<String, PhaseStats>,
}

impl Totals {
    fn phase(&mut self, label: &str) -> &mut PhaseStats {
        if !self.phases.contains_key(label) {
            self.phases.insert(label.to_string(), PhaseStats::default());
        }
        self.phases.get_mut(label).expect("just interned")
    }

    fn apply(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Local { phase, rounds } => {
                self.rounds += rounds;
                self.local_rounds += rounds;
                self.phase(phase).rounds += rounds;
            }
            TraceEvent::GlobalRounds { phase, rounds }
            | TraceEvent::Backoff { phase, rounds, .. } => {
                self.rounds += rounds;
                self.phase(phase).rounds += rounds;
            }
            TraceEvent::Exchange {
                phase, rounds, messages, lost, suppressed, corrupted, ..
            } => {
                self.rounds += rounds;
                self.messages += messages;
                self.lost += lost;
                self.suppressed += suppressed;
                self.corrupted += corrupted;
                if *rounds > 1 {
                    self.stretched += 1;
                }
                let e = self.phase(phase);
                e.rounds += rounds;
                e.messages += messages;
            }
            TraceEvent::Wave {
                phase,
                rounds,
                ack_rounds,
                messages,
                retransmissions,
                lost,
                suppressed,
                corrupted,
                recovered,
                ..
            } => {
                self.rounds += rounds + ack_rounds;
                self.messages += messages;
                self.retransmissions += retransmissions;
                self.lost += lost;
                self.suppressed += suppressed;
                self.corrupted += corrupted;
                self.recovered += recovered;
                if *rounds > 1 {
                    self.stretched += 1;
                }
                let e = self.phase(phase);
                e.rounds += rounds + ack_rounds;
                e.messages += messages;
            }
            TraceEvent::DeclareDead { .. } => self.declared_dead += 1,
            TraceEvent::Absorb {
                rounds,
                local_rounds,
                messages,
                lost,
                suppressed,
                corrupted,
                retransmissions,
                recovered,
                declared_dead,
                stretched,
                phases,
            } => {
                self.rounds += rounds;
                self.local_rounds += local_rounds;
                self.messages += messages;
                self.lost += lost;
                self.suppressed += suppressed;
                self.corrupted += corrupted;
                self.retransmissions += retransmissions;
                self.recovered += recovered;
                self.declared_dead += declared_dead;
                self.stretched += stretched;
                for (label, stats) in phases {
                    let e = self.phase(label);
                    e.rounds += stats.rounds;
                    e.messages += stats.messages;
                }
            }
            TraceEvent::SpanBegin { .. }
            | TraceEvent::SpanEnd { .. }
            | TraceEvent::Delivered { .. }
            | TraceEvent::Cache { .. } => {}
        }
    }
}

/// The buffered trace sink the simulator emits into (install with
/// [`crate::HybridNet::set_trace`], retrieve with
/// [`crate::HybridNet::take_trace`]). See the module docs for the contract
/// and an end-to-end example.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    events: Vec<TraceEvent>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its wall-clock epoch is now.
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), events: Vec::new() }
    }

    /// Buffers one event, stamping span events with the wall clock.
    pub fn record(&mut self, mut ev: TraceEvent) {
        match &mut ev {
            TraceEvent::SpanBegin { wall_us, .. } | TraceEvent::SpanEnd { wall_us, .. } => {
                *wall_us = self.epoch.elapsed().as_micros() as u64;
            }
            _ => {}
        }
        self.events.push(ev);
    }

    /// Opens a named span at the given simulated round.
    pub fn span_begin(&mut self, name: &str, round: u64) {
        self.record(TraceEvent::SpanBegin { name: name.to_string(), round, wall_us: 0 });
    }

    /// Closes a named span at the given simulated round.
    pub fn span_end(&mut self, name: &str, round: u64) {
        self.record(TraceEvent::SpanEnd { name: name.to_string(), round, wall_us: 0 });
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events with wall-clock fields zeroed — what the determinism
    /// tests compare across runs.
    pub fn events_sans_wall(&self) -> Vec<TraceEvent> {
        self.events.iter().map(TraceEvent::sans_wall).collect()
    }

    /// Event-derived aggregate totals.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for ev in &self.events {
            t.apply(ev);
        }
        t
    }

    /// Proves the trace is complete: the event-derived totals must equal
    /// the [`Metrics`] counters of the traced run *exactly* — rounds (total
    /// and local), global messages, loss/suppression/corruption splits,
    /// retransmissions, recoveries, declared-dead count, stretched
    /// exchanges, and the full per-phase rounds/messages breakdown.
    ///
    /// # Errors
    ///
    /// A human-readable list of every mismatching counter.
    pub fn reconcile(&self, metrics: &Metrics) -> Result<(), String> {
        let t = self.totals();
        let mut errs = Vec::new();
        let mut check = |what: &str, trace: u64, metric: u64| {
            if trace != metric {
                errs.push(format!("{what}: trace says {trace}, metrics say {metric}"));
            }
        };
        check("rounds", t.rounds, metrics.rounds);
        check("local rounds", t.local_rounds, metrics.local_rounds);
        check("global rounds", t.rounds - t.local_rounds, metrics.global_rounds);
        check("global messages", t.messages, metrics.global_messages);
        check("dropped by loss", t.lost, metrics.dropped_by_loss);
        check("suppressed by crash", t.suppressed, metrics.suppressed_by_crash);
        check("corrupted payloads", t.corrupted, metrics.corrupted_messages);
        check("dropped messages", t.lost + t.suppressed + t.corrupted, metrics.dropped_messages);
        check("retransmissions", t.retransmissions, metrics.retransmissions);
        check("recovered messages", t.recovered, metrics.recovered_messages);
        check("declared dead", t.declared_dead, metrics.declared_dead);
        check("stretched exchanges", t.stretched, metrics.stretched_exchanges);
        for (label, stats) in &metrics.phases {
            let got = t.phases.get(label).copied().unwrap_or_default();
            if got != *stats {
                errs.push(format!(
                    "phase {label}: trace says {}r/{}m, metrics say {}r/{}m",
                    got.rounds, got.messages, stats.rounds, stats.messages
                ));
            }
        }
        for label in t.phases.keys() {
            if !metrics.phases.contains_key(label) {
                errs.push(format!("phase {label}: in trace but not in metrics"));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        }
    }

    /// Renders the buffer in the `chrome://tracing` / Perfetto JSON format,
    /// with **simulated rounds as the clock** (`ts`/`dur` are rounds, which
    /// the viewer displays as µs). Load the file via `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Spans become `B`/`E` pairs; charges become
    /// complete (`X`) slices; markers become instants.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n");
        out.push_str("  \"otherData\": {\"clock\": \"simulated-rounds\"},\n");
        out.push_str("  \"traceEvents\": [\n");
        let mut clock = 0u64;
        let mut first = true;
        let push = |line: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("    ");
            out.push_str(&line);
        };
        for ev in &self.events {
            let line = match ev {
                TraceEvent::SpanBegin { name, .. } => Some(format!(
                    "{{\"name\": \"{}\", \"ph\": \"B\", \"ts\": {clock}, \"pid\": 0, \"tid\": 0}}",
                    escape(name)
                )),
                TraceEvent::SpanEnd { name, .. } => Some(format!(
                    "{{\"name\": \"{}\", \"ph\": \"E\", \"ts\": {clock}, \"pid\": 0, \"tid\": 0}}",
                    escape(name)
                )),
                TraceEvent::Local { phase, rounds } => Some(format!(
                    "{{\"name\": \"local:{}\", \"ph\": \"X\", \"ts\": {clock}, \"dur\": {rounds}, \
                     \"pid\": 0, \"tid\": 0}}",
                    escape(phase)
                )),
                TraceEvent::GlobalRounds { phase, rounds } => Some(format!(
                    "{{\"name\": \"global:{}\", \"ph\": \"X\", \"ts\": {clock}, \"dur\": {rounds}, \
                     \"pid\": 0, \"tid\": 0}}",
                    escape(phase)
                )),
                TraceEvent::Exchange {
                    phase,
                    rounds,
                    messages,
                    max_send_load,
                    max_recv_load,
                    lost,
                    suppressed,
                    corrupted,
                } => Some(format!(
                    "{{\"name\": \"exchange:{}\", \"ph\": \"X\", \"ts\": {clock}, \
                     \"dur\": {rounds}, \"pid\": 0, \"tid\": 0, \"args\": {{\"messages\": \
                     {messages}, \"max_send_load\": {max_send_load}, \"max_recv_load\": \
                     {max_recv_load}, \"lost\": {lost}, \"suppressed\": {suppressed}, \
                     \"corrupted\": {corrupted}}}}}",
                    escape(phase)
                )),
                TraceEvent::Backoff { phase, wave, rounds } => Some(format!(
                    "{{\"name\": \"backoff:{}\", \"ph\": \"X\", \"ts\": {clock}, \
                     \"dur\": {rounds}, \"pid\": 0, \"tid\": 0, \"args\": {{\"wave\": {wave}}}}}",
                    escape(phase)
                )),
                TraceEvent::Wave {
                    phase,
                    wave,
                    rounds,
                    ack_rounds,
                    messages,
                    retransmissions,
                    lost,
                    suppressed,
                    corrupted,
                    recovered,
                    max_send_load,
                } => Some(format!(
                    "{{\"name\": \"wave:{}\", \"ph\": \"X\", \"ts\": {clock}, \"dur\": {}, \
                     \"pid\": 0, \"tid\": 0, \"args\": {{\"wave\": {wave}, \"messages\": \
                     {messages}, \"retransmissions\": {retransmissions}, \"lost\": {lost}, \
                     \"suppressed\": {suppressed}, \"corrupted\": {corrupted}, \
                     \"recovered\": {recovered}, \"max_send_load\": {max_send_load}}}}}",
                    escape(phase),
                    rounds + ack_rounds
                )),
                TraceEvent::DeclareDead { node } => Some(format!(
                    "{{\"name\": \"declare-dead:{node}\", \"ph\": \"i\", \"ts\": {clock}, \
                     \"s\": \"g\", \"pid\": 0, \"tid\": 0}}"
                )),
                TraceEvent::Delivered { messages, max_recv_load } => Some(format!(
                    "{{\"name\": \"delivered\", \"ph\": \"i\", \"ts\": {clock}, \"s\": \"t\", \
                     \"pid\": 0, \"tid\": 0, \"args\": {{\"messages\": {messages}, \
                     \"max_recv_load\": {max_recv_load}}}}}"
                )),
                TraceEvent::Cache { name, hit } => Some(format!(
                    "{{\"name\": \"cache-{}:{}\", \"ph\": \"i\", \"ts\": {clock}, \"s\": \"t\", \
                     \"pid\": 0, \"tid\": 0}}",
                    if *hit { "hit" } else { "miss" },
                    escape(name)
                )),
                TraceEvent::Absorb { rounds, messages, .. } => Some(format!(
                    "{{\"name\": \"absorbed-subrun\", \"ph\": \"X\", \"ts\": {clock}, \
                     \"dur\": {rounds}, \"pid\": 0, \"tid\": 0, \"args\": {{\"messages\": \
                     {messages}}}}}"
                )),
            };
            if let Some(line) = line {
                push(line, &mut out, &mut first);
            }
            clock += ev.clock_rounds();
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders a text rollup: the span tree with simulated rounds, global
    /// messages, and wall-µs per span, and each span's per-phase charge
    /// breakdown (innermost attribution) beneath it.
    pub fn rollup(&self) -> String {
        struct Node {
            name: String,
            depth: usize,
            begin_clock: u64,
            rounds: u64,
            messages: u64,
            wall_begin: u64,
            wall_us: Option<u64>,
            phases: Vec<(String, PhaseStats)>,
            cache: Vec<(String, bool)>,
            children: Vec<usize>,
        }
        let mut nodes = vec![Node {
            name: "run".to_string(),
            depth: 0,
            begin_clock: 0,
            rounds: 0,
            messages: 0,
            wall_begin: 0,
            wall_us: None,
            phases: Vec::new(),
            cache: Vec::new(),
            children: Vec::new(),
        }];
        let mut stack = vec![0usize];
        let mut clock = 0u64;
        for ev in &self.events {
            match ev {
                TraceEvent::SpanBegin { name, wall_us, .. } => {
                    let parent = *stack.last().expect("root never popped");
                    let depth = nodes[parent].depth + 1;
                    nodes.push(Node {
                        name: name.clone(),
                        depth,
                        begin_clock: clock,
                        rounds: 0,
                        messages: 0,
                        wall_begin: *wall_us,
                        wall_us: None,
                        phases: Vec::new(),
                        cache: Vec::new(),
                        children: Vec::new(),
                    });
                    let id = nodes.len() - 1;
                    nodes[parent].children.push(id);
                    stack.push(id);
                }
                TraceEvent::SpanEnd { wall_us, .. } => {
                    if stack.len() > 1 {
                        let id = stack.pop().expect("non-empty");
                        nodes[id].rounds = clock - nodes[id].begin_clock;
                        nodes[id].wall_us = Some(wall_us.saturating_sub(nodes[id].wall_begin));
                    }
                }
                TraceEvent::Cache { name, hit } => {
                    let top = *stack.last().expect("root never popped");
                    nodes[top].cache.push((name.clone(), *hit));
                }
                _ => {
                    let dr = ev.clock_rounds();
                    let dm = match ev {
                        TraceEvent::Exchange { messages, .. }
                        | TraceEvent::Wave { messages, .. }
                        | TraceEvent::Absorb { messages, .. } => *messages,
                        _ => 0,
                    };
                    for &id in &stack {
                        nodes[id].messages += dm;
                    }
                    if dr > 0 || dm > 0 {
                        let top = *stack.last().expect("root never popped");
                        let label = match ev {
                            TraceEvent::Local { phase, .. }
                            | TraceEvent::GlobalRounds { phase, .. }
                            | TraceEvent::Exchange { phase, .. }
                            | TraceEvent::Backoff { phase, .. }
                            | TraceEvent::Wave { phase, .. } => phase.clone(),
                            _ => "(absorbed)".to_string(),
                        };
                        let node = &mut nodes[top];
                        match node.phases.iter_mut().find(|(l, _)| *l == label) {
                            Some((_, stats)) => {
                                stats.rounds += dr;
                                stats.messages += dm;
                            }
                            None => {
                                node.phases.push((label, PhaseStats { rounds: dr, messages: dm }));
                            }
                        }
                    }
                    clock += dr;
                }
            }
        }
        // Close any span left open (panicking run, partial trace).
        while stack.len() > 1 {
            let id = stack.pop().expect("non-empty");
            nodes[id].rounds = clock - nodes[id].begin_clock;
        }
        nodes[0].rounds = clock;

        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace rollup: {} events, {} simulated rounds, {} global messages",
            self.events.len(),
            clock,
            nodes[0].messages
        );
        // Pre-order DFS over the recorded tree.
        fn render(nodes: &[Node], id: usize, out: &mut String) {
            let n = &nodes[id];
            if id != 0 {
                let indent = "  ".repeat(n.depth);
                let wall = n.wall_us.map(|w| format!("  wall {w}\u{b5}s")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{indent}{:<32} rounds {:>8}  msgs {:>10}{wall}",
                    n.name, n.rounds, n.messages
                );
            }
            let indent = "  ".repeat(n.depth + 1);
            for (label, stats) in &n.phases {
                if stats.messages > 0 {
                    let _ = writeln!(
                        out,
                        "{indent}[phase] {:<24} rounds {:>8}  msgs {:>10}",
                        label, stats.rounds, stats.messages
                    );
                } else {
                    let _ =
                        writeln!(out, "{indent}[phase] {:<24} rounds {:>8}", label, stats.rounds);
                }
            }
            for (name, hit) in &n.cache {
                let _ =
                    writeln!(out, "{indent}[cache] {name}: {}", if *hit { "hit" } else { "cold" });
            }
            for &c in &n.children {
                render(nodes, c, out);
            }
        }
        render(&nodes, 0, &mut out);
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange_ev(phase: &str, rounds: u64, messages: u64) -> TraceEvent {
        TraceEvent::Exchange {
            phase: phase.to_string(),
            rounds,
            messages,
            max_send_load: 1,
            max_recv_load: 1,
            lost: 0,
            suppressed: 0,
            corrupted: 0,
        }
    }

    #[test]
    fn totals_mirror_metric_charges() {
        let mut rec = Recorder::new();
        rec.record(TraceEvent::Local { phase: "explore".into(), rounds: 5 });
        rec.record(exchange_ev("route", 1, 10));
        rec.record(exchange_ev("route", 3, 30));
        let mut m = Metrics::new();
        m.charge_local(5, "explore");
        m.charge_global(1, 10, "route");
        m.charge_global(3, 30, "route");
        rec.reconcile(&m).unwrap();
        let t = rec.totals();
        assert_eq!(t.rounds, 9);
        assert_eq!(t.stretched, 1);
        assert_eq!(t.phases["route"].messages, 40);
    }

    #[test]
    fn reconcile_reports_every_mismatch() {
        let mut rec = Recorder::new();
        rec.record(TraceEvent::Local { phase: "a".into(), rounds: 2 });
        let mut m = Metrics::new();
        m.charge_local(3, "a");
        m.charge_global(1, 4, "b");
        let err = rec.reconcile(&m).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
        assert!(err.contains("phase a"), "{err}");
        assert!(err.contains("phase b"), "{err}");
        // A phase only the trace knows is also a mismatch.
        let mut rec2 = Recorder::new();
        rec2.record(TraceEvent::Local { phase: "ghost".into(), rounds: 0 });
        let err2 = rec2.reconcile(&Metrics::new()).unwrap_err();
        assert!(err2.contains("ghost"), "{err2}");
    }

    #[test]
    fn wave_and_backoff_events_carry_reliable_counters() {
        let mut rec = Recorder::new();
        rec.record(TraceEvent::Wave {
            phase: "t".into(),
            wave: 1,
            rounds: 1,
            ack_rounds: 1,
            messages: 4,
            retransmissions: 0,
            lost: 1,
            suppressed: 0,
            corrupted: 1,
            recovered: 0,
            max_send_load: 2,
        });
        rec.record(TraceEvent::Backoff { phase: "t".into(), wave: 2, rounds: 1 });
        rec.record(TraceEvent::Wave {
            phase: "t".into(),
            wave: 2,
            rounds: 1,
            ack_rounds: 1,
            messages: 2,
            retransmissions: 2,
            lost: 0,
            suppressed: 0,
            corrupted: 0,
            recovered: 2,
            max_send_load: 1,
        });
        rec.record(TraceEvent::DeclareDead { node: 3 });
        let t = rec.totals();
        assert_eq!(t.rounds, 5);
        assert_eq!(t.messages, 6);
        assert_eq!(t.retransmissions, 2);
        assert_eq!(t.lost, 1);
        assert_eq!(t.corrupted, 1);
        assert_eq!(t.recovered, 2);
        assert_eq!(t.declared_dead, 1);
    }

    #[test]
    fn absorb_event_folds_subrun_totals() {
        let mut sub = Metrics::new();
        sub.charge_local(2, "inner");
        sub.charge_global(1, 6, "inner");
        let mut rec = Recorder::new();
        rec.record(TraceEvent::Absorb {
            rounds: sub.rounds,
            local_rounds: sub.local_rounds,
            messages: sub.global_messages,
            lost: 0,
            suppressed: 0,
            corrupted: 0,
            retransmissions: 0,
            recovered: 0,
            declared_dead: 0,
            stretched: 0,
            phases: sub.phases.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        });
        let mut m = Metrics::new();
        m.absorb(&sub);
        rec.reconcile(&m).unwrap();
    }

    #[test]
    fn span_events_get_wall_stamps_and_strip_them() {
        let mut rec = Recorder::new();
        rec.span_begin("solve:x", 0);
        rec.record(TraceEvent::Local { phase: "p".into(), rounds: 1 });
        rec.span_end("solve:x", 1);
        match &rec.events()[2] {
            TraceEvent::SpanEnd { round, .. } => assert_eq!(*round, 1),
            other => panic!("unexpected {other:?}"),
        }
        let stripped = rec.events_sans_wall();
        assert_eq!(
            stripped[0],
            TraceEvent::SpanBegin { name: "solve:x".into(), round: 0, wall_us: 0 }
        );
        // Two recorders of the same run agree after stripping.
        let mut rec2 = Recorder::new();
        rec2.span_begin("solve:x", 0);
        rec2.record(TraceEvent::Local { phase: "p".into(), rounds: 1 });
        rec2.span_end("solve:x", 1);
        assert_eq!(rec.events_sans_wall(), rec2.events_sans_wall());
    }

    #[test]
    fn chrome_trace_uses_simulated_rounds_as_clock() {
        let mut rec = Recorder::new();
        rec.span_begin("solve:x", 0);
        rec.record(TraceEvent::Local { phase: "explore".into(), rounds: 5 });
        rec.record(exchange_ev("route", 2, 8));
        rec.span_end("solve:x", 7);
        let json = rec.chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"local:explore\", \"ph\": \"X\", \"ts\": 0, \"dur\": 5"));
        assert!(json.contains("\"name\": \"exchange:route\", \"ph\": \"X\", \"ts\": 5, \"dur\": 2"));
        assert!(json.contains("\"ph\": \"E\", \"ts\": 7"));
        assert!(!json.contains(",\n  ]"), "no trailing comma before the array close");
    }

    #[test]
    fn rollup_builds_the_span_tree() {
        let mut rec = Recorder::new();
        rec.span_begin("solve:apsp", 0);
        rec.span_begin("prepare:skeleton", 0);
        rec.record(TraceEvent::Cache { name: "skeleton:apsp".into(), hit: false });
        rec.record(TraceEvent::Local { phase: "skeleton".into(), rounds: 4 });
        rec.span_end("prepare:skeleton", 4);
        rec.record(exchange_ev("route", 3, 12));
        rec.span_end("solve:apsp", 7);
        let text = rec.rollup();
        assert!(text.contains("7 simulated rounds"), "{text}");
        assert!(text.contains("12 global messages"), "{text}");
        assert!(text.contains("solve:apsp"), "{text}");
        assert!(text.contains("prepare:skeleton"), "{text}");
        assert!(text.contains("[cache] skeleton:apsp: cold"), "{text}");
        assert!(text.contains("[phase] route"), "{text}");
        // The outer span covers the inner one's rounds plus its own.
        let solve_line = text.lines().find(|l| l.contains("solve:apsp")).unwrap();
        assert!(solve_line.contains("rounds        7"), "{solve_line}");
    }
}
