//! The simulated HYBRID network: round clock, local-phase accounting, and the
//! congestion-enforcing global channel.
//!
//! # Hot path
//!
//! [`HybridNet::exchange_into`] is the steady-state-allocation-free engine
//! behind every global communication step, and a round costs
//! `O(m + n/64)` for `m` messages: per-node send/receive counters live in a
//! persistent scratch arena beside two `n/64`-word bitsets that mark the
//! nodes a batch touched, so the cap check, the load scans and the next
//! batch's zeroing walk only those nodes (in ascending ID order, the order a
//! dense `0..n` loop would visit them). Message placement is a stable
//! two-pass counting sort (by sender, then destination) whose buckets are
//! laid out by the same walk; a batch already in `(dst, src)` order skips
//! the sort and moves in one pass. Delivered messages land in a
//! caller-reused, destination-sparse [`FlatInboxes`] arena. The nested-`Vec`
//! [`HybridNet::exchange`] remains as a convenience wrapper with identical
//! observable behavior.
//!
//! Every exchange runs on the calling thread: the simulated bill, not the
//! number of OS threads replaying a round, is the reproduction's result.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;

use hybrid_graph::{Graph, NodeId};

use crate::channel::{Envelope, FlatInboxes, Inboxes, SendQueues};
use crate::config::{HybridConfig, OverflowPolicy};
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::trace::{Recorder, TraceEvent};

/// Errors of a simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Under [`OverflowPolicy::Fail`]: a node tried to send more global messages
    /// in one exchange than the per-round cap allows.
    SendCapExceeded {
        /// The offending node.
        node: NodeId,
        /// Messages it attempted to send.
        sent: usize,
        /// The per-round cap.
        cap: usize,
    },
    /// Under [`OverflowPolicy::Fail`]: a node would receive more global messages
    /// in one round than the cap — the event the paper's Lemma D.2 excludes w.h.p.
    RecvCapExceeded {
        /// The overloaded node.
        node: NodeId,
        /// Messages addressed to it.
        received: usize,
        /// The per-round cap.
        cap: usize,
    },
    /// An envelope addressed a node outside `0..n`.
    AddressOutOfRange {
        /// The bad destination.
        node: NodeId,
        /// Network size.
        n: usize,
    },
    /// A [`HybridConfig`] or [`FaultPlan`] was rejected at construction —
    /// degenerate caps (e.g. a non-finite or non-positive cap factor, which
    /// would starve `exchange` pacing into a livelock) or an out-of-range
    /// fault probability.
    InvalidConfig {
        /// Human-readable description of the rejected field.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SendCapExceeded { node, sent, cap } => {
                write!(f, "node {node} sent {sent} global messages, cap is {cap}")
            }
            SimError::RecvCapExceeded { node, received, cap } => {
                write!(f, "node {node} would receive {received} global messages, cap is {cap}")
            }
            SimError::AddressOutOfRange { node, n } => {
                write!(f, "destination {node} out of range for network of {n} nodes")
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Persistent per-net scratch buffers for the exchange engine. Sized once for
/// `n` at construction; the permutation buffer grows to the largest batch seen
/// and is reused afterwards, so steady-state exchanges never allocate.
///
/// A counter is nonzero only on a node its bitset marks, and each batch
/// zeroes the counters the previous one marked before counting its own —
/// lazily, at the next count, so an error that returns midway through a
/// batch leaves nothing stale for the exchange after it.
#[derive(Debug, Default)]
struct ExchangeScratch {
    /// Per-node send counters of the last counted batch.
    sent: Vec<u32>,
    /// Per-node receive counters of the last counted batch.
    recv: Vec<u32>,
    /// Nodes with a nonzero `sent` counter, one bit each.
    senders: Vec<u64>,
    /// Nodes with a nonzero `recv` counter, one bit each.
    receivers: Vec<u64>,
    /// Whether the last counted batch was already in `(dst, src)` order.
    ordered: bool,
    /// Counting-sort cursors; meaningful only on touched nodes.
    offs: Vec<u32>,
    /// First-pass permutation (message indices stable-sorted by sender).
    perm1: Vec<u32>,
}

impl ExchangeScratch {
    fn for_n(n: usize) -> Self {
        let words = n.div_ceil(64);
        ExchangeScratch {
            sent: vec![0; n],
            recv: vec![0; n],
            senders: vec![0; words],
            receivers: vec![0; words],
            ordered: true,
            offs: vec![0; n],
            perm1: Vec::new(),
        }
    }

    /// Zeroes the counters the previous batch touched.
    fn reset(&mut self) {
        clear_marked(&mut self.senders, &mut self.sent);
        clear_marked(&mut self.receivers, &mut self.recv);
    }

    /// Starts a new batch and counts the `(src, dst)` pairs into it, checking
    /// each message's destination, then its sender, against the network
    /// size `n`, and noting whether the batch is already in `(dst, src)`
    /// order.
    ///
    /// # Errors
    ///
    /// [`SimError::AddressOutOfRange`] for the first bad endpoint.
    fn count(
        &mut self,
        n: usize,
        pairs: impl Iterator<Item = (NodeId, NodeId)>,
    ) -> Result<(), SimError> {
        self.reset();
        let mut in_order = true;
        // Consecutive messages between the same endpoints (a tree round
        // sends several words down each edge) are counted as one run.
        let (mut last, mut run) = ((0, 0), 0);
        for (src, dst) in pairs {
            if dst.index() >= n {
                return Err(SimError::AddressOutOfRange { node: dst, n });
            }
            if src.index() >= n {
                return Err(SimError::AddressOutOfRange { node: src, n });
            }
            let key = (dst.index(), src.index());
            if run > 0 && key == last {
                run += 1;
                continue;
            }
            if run > 0 {
                in_order &= last < key;
                self.add_run(last, run);
            }
            (last, run) = (key, 1);
        }
        if run > 0 {
            self.add_run(last, run);
        }
        self.ordered = in_order;
        Ok(())
    }

    /// Counts `k` messages of the current batch on the edge `(dst, src)`.
    fn add_run(&mut self, (d, s): (usize, usize), k: u32) {
        mark(&mut self.sent, &mut self.senders, s, k);
        mark(&mut self.recv, &mut self.receivers, d, k);
    }

    /// The NCC cap check of the counted batch: visits the touched nodes in
    /// ascending ID order, checking each node's sends before its receives, so
    /// under [`OverflowPolicy::Fail`] the error names the smallest violating
    /// node. Returns the rounds the batch needs under
    /// [`OverflowPolicy::Stretch`] (`max(1, ⌈sent / send_cap⌉, ⌈recv /
    /// recv_cap⌉)` over all nodes) and the largest per-node send load.
    fn check_caps(
        &self,
        send_cap: usize,
        recv_cap: usize,
        policy: OverflowPolicy,
    ) -> Result<(u64, usize), SimError> {
        let mut rounds = 1u64;
        let mut max_sent = 0usize;
        let touched = self.senders.iter().zip(&self.receivers).map(|(s, r)| s | r);
        for v in ones(touched) {
            let (sent, received) = (self.sent[v] as usize, self.recv[v] as usize);
            max_sent = max_sent.max(sent);
            if sent > send_cap {
                if policy == OverflowPolicy::Fail {
                    return Err(SimError::SendCapExceeded {
                        node: NodeId::new(v),
                        sent,
                        cap: send_cap,
                    });
                }
                rounds = rounds.max(sent.div_ceil(send_cap) as u64);
            }
            if received > recv_cap {
                if policy == OverflowPolicy::Fail {
                    return Err(SimError::RecvCapExceeded {
                        node: NodeId::new(v),
                        received,
                        cap: recv_cap,
                    });
                }
                rounds = rounds.max(received.div_ceil(recv_cap) as u64);
            }
        }
        Ok((rounds, max_sent))
    }
}

/// Adds `k` to node `v`'s counter and marks `v` in `bits`.
fn mark(counts: &mut [u32], bits: &mut [u64], v: usize, k: u32) {
    counts[v] += k;
    bits[v / 64] |= 1 << (v % 64);
}

/// Zeroes the counters of the nodes marked in `bits` and clears the marks.
fn clear_marked(bits: &mut [u64], counts: &mut [u32]) {
    for (w, word) in bits.iter_mut().enumerate() {
        let mut b = std::mem::take(word);
        while b != 0 {
            counts[w * 64 + b.trailing_zeros() as usize] = 0;
            b &= b - 1;
        }
    }
}

/// The positions of the set bits of a bitset given word by word, ascending.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    let mut words = words.enumerate();
    let (mut base, mut b) = (0, 0u64);
    std::iter::from_fn(move || {
        while b == 0 {
            let (w, word) = words.next()?;
            (base, b) = (w * 64, word);
        }
        let v = base + b.trailing_zeros() as usize;
        b &= b - 1;
        Some(v)
    })
}

/// Lays out the counting-sort buckets of the nodes marked in `bits`, in
/// ascending ID order: node `v`'s bucket starts at `offs[v]` and holds
/// `counts[v]` messages, and `visit(v, first slot, count)` sees each marked
/// node in order.
fn lay_out_buckets(
    bits: &[u64],
    counts: &[u32],
    offs: &mut [u32],
    mut visit: impl FnMut(usize, u32, u32),
) {
    let mut at = 0u32;
    for v in ones(bits.iter().copied()) {
        offs[v] = at;
        visit(v, at, counts[v]);
        at += counts[v];
    }
}

/// Transmission attempts the reliable layer makes to an unacknowledged
/// destination before its failure detector declares the node dead. The bound
/// only applies to destinations that are *actually* crashed — a lost message
/// to a live node is always retried (its ack would have arrived otherwise),
/// so reliable exchange eventually delivers to every live node.
const RELIABLE_MAX_ATTEMPTS: u8 = 8;

/// Cap (in simulated rounds) on the reliable layer's per-wave exponential
/// backoff: retry wave `w` waits `min(2^(w-2), 8)` rounds first.
const RELIABLE_MAX_BACKOFF: u64 = 8;

/// Persistent wave state of the reliable exchange layer (see
/// [`HybridNet::set_reliable`]): sequence numbers awaiting an ack, the
/// current wave's wire batch, per-message attempt counts, and delivery flags.
/// Lives on the net so steady-state reliable exchanges reuse their buffers
/// instead of allocating per call — and so the trivial-plan path never touches
/// them at all.
#[derive(Debug, Default)]
struct ReliableScratch {
    /// Sequence numbers (outbox indices) still awaiting delivery.
    pending: Vec<u32>,
    /// The current wave's attempted (on-wire) subset of `pending`.
    attempted: Vec<u32>,
    /// Per-message transmission attempts (saturating).
    attempts: Vec<u8>,
    /// Per-message delivery flags.
    delivered: Vec<bool>,
}

/// Per-call pacing scratch of [`HybridNet::drain_queues`] — the reusable
/// outbox and inbox arena of the drain loop. Pooled per payload type on the
/// net (see [`DrainPool`]), so repeated drains reuse their buffers across
/// calls instead of reallocating per invocation.
struct DrainScratch<M> {
    outbox: Vec<Envelope<M>>,
    flat: FlatInboxes<M>,
}

impl<M> Default for DrainScratch<M> {
    fn default() -> Self {
        DrainScratch { outbox: Vec::new(), flat: FlatInboxes::new() }
    }
}

/// Type-keyed pool of [`DrainScratch`] buffers, one per payload type `M` ever
/// drained on this net.
#[derive(Default)]
struct DrainPool(HashMap<TypeId, Box<dyn Any + Send>>);

impl DrainPool {
    fn take<M: Send + 'static>(&mut self) -> Box<DrainScratch<M>> {
        self.0
            .remove(&TypeId::of::<DrainScratch<M>>())
            .and_then(|b| b.downcast::<DrainScratch<M>>().ok())
            .unwrap_or_default()
    }

    fn put<M: Send + 'static>(&mut self, scratch: Box<DrainScratch<M>>) {
        self.0.insert(TypeId::of::<DrainScratch<M>>(), scratch);
    }
}

impl fmt::Debug for DrainPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DrainPool({} payload types)", self.0.len())
    }
}

/// A simulated HYBRID network over a fixed local graph.
///
/// See the crate docs for the fidelity contract: global messages are routed and
/// cap-checked individually; local phases are charged on the clock.
#[derive(Debug)]
pub struct HybridNet<'g> {
    graph: &'g Graph,
    config: HybridConfig,
    metrics: Metrics,
    cut: Option<Vec<bool>>,
    scratch: ExchangeScratch,
    faults: Option<FaultState>,
    /// Pooled [`HybridNet::drain_queues`] scratch buffers, per payload type.
    drain_pool: DrainPool,
    /// Routes exchanges through the ack/retransmission layer when a
    /// non-trivial fault plan is installed (see [`HybridNet::set_reliable`]).
    reliable: bool,
    /// Wave state of the reliable layer (untouched on the trivial-plan path).
    rel: ReliableScratch,
    /// Buffered trace sink (see [`HybridNet::set_trace`]); `None` — the
    /// default — keeps every emission site a single branch, so the
    /// steady-state exchange path stays allocation-free when not tracing.
    trace: Option<Recorder>,
}

impl<'g> HybridNet<'g> {
    /// Creates a network over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (see [`HybridConfig::validate`]); use
    /// [`HybridNet::try_new`] to handle that as an error instead.
    pub fn new(graph: &'g Graph, config: HybridConfig) -> Self {
        Self::try_new(graph, config).expect("valid HybridConfig")
    }

    /// Creates a network over `graph`, rejecting degenerate configurations.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if a cap factor is non-finite or
    /// non-positive (a 0-messages-per-round budget would livelock paced
    /// protocols instead of erroring).
    pub fn try_new(graph: &'g Graph, config: HybridConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(HybridNet {
            graph,
            config,
            metrics: Metrics::new(),
            cut: None,
            scratch: ExchangeScratch::for_n(graph.len()),
            faults: None,
            drain_pool: DrainPool::default(),
            reliable: false,
            rel: ReliableScratch::default(),
            trace: None,
        })
    }

    /// OS threads that replay one simulated round: always 1. Every round
    /// runs on the calling thread; parallelism lives in the graph kernels
    /// (see `hybrid_graph::workers`).
    pub fn round_threads(&self) -> usize {
        1
    }

    /// Installs a [`FaultPlan`]: from now on every global exchange drops
    /// messages per the plan's probability (deterministic stream) and silences
    /// crashed endpoints. Replaces any previously installed plan; dropped
    /// messages are counted in [`Metrics::dropped_messages`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the plan is invalid for this network
    /// (see [`FaultPlan::validate_for`]) — an out-of-range drop probability,
    /// or a crash schedule that kills every node at round 0.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        plan.validate_for(self.n())?;
        self.faults =
            if plan.is_trivial() { None } else { Some(FaultState::install(plan, self.n())) };
        Ok(())
    }

    /// Removes any installed fault plan.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// `true` if a non-trivial fault plan is currently installed.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Turns the reliable exchange layer on or off.
    ///
    /// While enabled *and* a non-trivial fault plan is installed, every
    /// global exchange runs an ack/retransmission protocol instead of the
    /// fire-and-forget step: each message carries a sequence number (its
    /// outbox index), unacknowledged messages are re-sent in waves under a
    /// bounded exponential backoff, and a destination that never acks is
    /// declared dead after `RELIABLE_MAX_ATTEMPTS` (8) attempts. Every wave is
    /// billed honestly — the wire rounds, one ack round, and the backoff
    /// rounds all advance the clock (recovery is charged, never discounted) —
    /// and all retry decisions are made in sequence order from the plan's
    /// deterministic streams, so repeated runs are bit-identical. Without
    /// faults (or with a trivial plan) the flag is inert and exchanges
    /// behave exactly as before.
    pub fn set_reliable(&mut self, on: bool) {
        self.reliable = on;
    }

    /// Is the reliable exchange layer enabled? (See
    /// [`HybridNet::set_reliable`]; it only takes effect while a non-trivial
    /// fault plan is installed.)
    pub fn reliable(&self) -> bool {
        self.reliable
    }

    /// Nodes the reliable layer's failure detector has declared dead so far
    /// (empty without faults, or before any declaration).
    pub fn declared_dead_nodes(&self) -> Vec<NodeId> {
        self.faults.as_ref().map(FaultState::declared_dead_nodes).unwrap_or_default()
    }

    /// Installs a trace recorder: from now on every charge and every
    /// exchange emits a structured [`TraceEvent`] into it (see
    /// [`crate::trace`]). Tracing is strictly observational — answers,
    /// guarantees, and the round bill are bit-identical with or without it —
    /// and with no recorder installed the emission sites cost one branch and
    /// zero allocations. Replaces any previously installed recorder.
    pub fn set_trace(&mut self, rec: Recorder) {
        self.trace = Some(rec);
    }

    /// Removes and returns the installed trace recorder, if any; the net
    /// stops emitting events.
    pub fn take_trace(&mut self) -> Option<Recorder> {
        self.trace.take()
    }

    /// `true` while a trace recorder is installed.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Opens a named trace span at the current simulated round (no-op
    /// without a recorder). Used by the solver layers to scope `solve`,
    /// `prepare`, and session items.
    pub fn trace_span_begin(&mut self, name: &str) {
        let round = self.metrics.rounds;
        if let Some(t) = self.trace.as_mut() {
            t.span_begin(name, round);
        }
    }

    /// Closes a named trace span at the current simulated round (no-op
    /// without a recorder).
    pub fn trace_span_end(&mut self, name: &str) {
        let round = self.metrics.rounds;
        if let Some(t) = self.trace.as_mut() {
            t.span_end(name, round);
        }
    }

    /// Records a cache-visibility marker (no-op without a recorder): `hit`
    /// is `true` when `name` was served from a warm cache, `false` for a
    /// cold build.
    pub fn trace_cache(&mut self, name: &str, hit: bool) {
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Cache { name: name.to_string(), hit });
        }
    }

    /// The local communication graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.len()
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Per-node global send cap (messages per round).
    pub fn send_cap(&self) -> usize {
        self.config.send_cap(self.graph.len())
    }

    /// Per-node global receive cap (messages per round).
    pub fn recv_cap(&self) -> usize {
        self.config.recv_cap(self.graph.len())
    }

    /// Total rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Execution metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the network and returns its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Merges metrics of a sub-execution (e.g. a nested protocol run on its own
    /// net) into this one. Under tracing the sub-run's totals are folded into
    /// the trace as one [`TraceEvent::Absorb`] event, so reconciliation stays
    /// exact even though the sub-run itself was not traced.
    pub fn absorb_metrics(&mut self, other: &Metrics) {
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Absorb {
                rounds: other.rounds,
                local_rounds: other.local_rounds,
                messages: other.global_messages,
                lost: other.dropped_by_loss,
                suppressed: other.suppressed_by_crash,
                corrupted: other.corrupted_messages,
                retransmissions: other.retransmissions,
                recovered: other.recovered_messages,
                declared_dead: other.declared_dead,
                stretched: other.stretched_exchanges,
                phases: other.phases.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            });
        }
        self.metrics.absorb(other);
    }

    /// Registers a node bipartition; subsequent global messages whose endpoints
    /// lie on different sides are counted in [`Metrics::cut_messages`]. Used by
    /// the lower-bound experiments (§6, §7) to measure Alice↔Bob information flow.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != n`.
    pub fn set_cut(&mut self, side: Vec<bool>) {
        assert_eq!(side.len(), self.graph.len(), "cut must label every node");
        self.cut = Some(side);
    }

    /// Removes the registered cut.
    pub fn clear_cut(&mut self) {
        self.cut = None;
    }

    /// Charges `rounds` rounds of local-mode communication under `phase`.
    ///
    /// The semantics (what every node knows afterwards) are computed by the caller
    /// with the reference routines of `hybrid-graph` — in the LOCAL model, `d`
    /// rounds of flooding teach every node exactly its `d`-hop neighborhood, and
    /// bandwidth is unconstrained.
    pub fn charge_local(&mut self, rounds: u64, phase: &str) {
        self.metrics.charge_local(rounds, phase);
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Local { phase: phase.to_string(), rounds });
        }
    }

    /// Charges `rounds` global-mode rounds without routing messages. Used when a
    /// sub-protocol's cost is known (e.g. repeating an already-measured routing
    /// instance `T_A` times in the CLIQUE-on-skeleton simulation) — the rounds
    /// are honest, the message contents are not interesting.
    pub fn charge_global_rounds(&mut self, rounds: u64, phase: &str) {
        self.metrics.charge_global_rounds_only(rounds, phase);
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::GlobalRounds { phase: phase.to_string(), rounds });
        }
    }

    /// Performs one global-mode communication step, delivering `outbox` into
    /// the reusable arena `out` subject to the NCC caps.
    ///
    /// This is the zero-allocation engine: with warmed buffers (same network,
    /// batch sizes no larger than previously seen, phase label already known to
    /// the metrics) a call performs **no heap allocation**. `outbox` is left
    /// empty with its capacity intact so callers can refill it for the next
    /// step; on error it is left untouched.
    ///
    /// Semantics are identical to [`HybridNet::exchange`]: under
    /// [`OverflowPolicy::Stretch`] the step is charged
    /// `max(1, ⌈max_v sent_v / send_cap⌉, ⌈max_v recv_v / recv_cap⌉)` rounds;
    /// under [`OverflowPolicy::Fail`] any cap violation is an error. Inboxes
    /// are grouped by destination and sorted by `(sender, insertion order)`.
    ///
    /// # Errors
    ///
    /// [`SimError::AddressOutOfRange`] for a bad endpoint; cap violations under
    /// [`OverflowPolicy::Fail`].
    pub fn exchange_into<M>(
        &mut self,
        phase: &str,
        outbox: &mut Vec<Envelope<M>>,
        out: &mut FlatInboxes<M>,
    ) -> Result<(), SimError> {
        // Reliable mode re-sends lost messages instead of shrugging them off;
        // it only engages under a non-trivial fault plan, so the healthy path
        // is bit-identical to the fire-and-forget engine below.
        if self.reliable && self.faults.is_some() {
            return self.exchange_reliable(phase, outbox, out);
        }
        let n = self.graph.len();
        let send_cap = self.send_cap();
        let recv_cap = self.recv_cap();
        out.clear();

        // Fault hook: crashed endpoints fall silent and the drop stream loses
        // messages *before* any accounting — a lost message consumes neither
        // bandwidth nor rounds, it simply never happened on the wire. `retain`
        // is in-place, so the fault-free path stays allocation-free too.
        // Messages with out-of-range endpoints are exempt: an addressing bug
        // must always surface as [`SimError::AddressOutOfRange`] below, never
        // be swallowed by a random drop.
        let mut lost = 0u64;
        let mut suppressed = 0u64;
        let mut corrupted = 0u64;
        if let Some(faults) = &mut self.faults {
            let round = self.metrics.rounds;
            outbox.retain(|e| {
                if e.src.index() >= n || e.dst.index() >= n {
                    return true;
                }
                if !(faults.alive(e.src, round) && faults.alive(e.dst, round)) {
                    suppressed += 1;
                    return false;
                }
                if faults.drop_next() {
                    lost += 1;
                    return false;
                }
                if faults.corrupt_next() {
                    // Bit-flipped in flight; the checksum catches it on
                    // receipt and fire-and-forget has no retransmission, so
                    // the payload is discarded — never delivered corrupted.
                    corrupted += 1;
                    return false;
                }
                true
            });
            self.metrics.dropped_by_loss += lost;
            self.metrics.suppressed_by_crash += suppressed;
            self.metrics.corrupted_messages += corrupted;
            self.metrics.dropped_messages += lost + suppressed + corrupted;
        }
        let m = outbox.len();

        // Count per-node loads (and validate addresses) into the scratch
        // arena, then apply the cap policy.
        self.scratch.count(n, outbox.iter().map(|e| (e.src, e.dst)))?;
        let (rounds_needed, max_sent) =
            self.scratch.check_caps(send_cap, recv_cap, self.config.overflow)?;

        // Metrics: loads, cut traffic.
        self.metrics.max_send_load = self.metrics.max_send_load.max(max_sent);
        if let Some(side) = &self.cut {
            let crossing =
                outbox.iter().filter(|e| side[e.src.index()] != side[e.dst.index()]).count();
            self.metrics.cut_messages += crossing as u64;
        }
        self.metrics.charge_global(rounds_needed, m as u64, phase);

        let max_recv_load = self.scatter_into(outbox, out);
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Exchange {
                phase: phase.to_string(),
                rounds: rounds_needed,
                messages: m as u64,
                max_send_load: max_sent as u64,
                max_recv_load,
                lost,
                suppressed,
                corrupted,
            });
        }
        Ok(())
    }

    /// The ack/retransmission engine behind [`HybridNet::set_reliable`].
    ///
    /// Messages are identified by their sequence number (outbox index) and
    /// retried in *waves*: each wave ships every still-pending message whose
    /// sender is alive and whose destination has not been declared dead,
    /// bills the wire rounds plus one ack round, and decides each message's
    /// fate sequentially (in sequence order) from the plan's deterministic
    /// drop stream — crashed destinations accumulate unacked attempts until
    /// the failure detector declares them dead, lost messages to live nodes
    /// are re-pended for the next wave after a bounded exponential backoff.
    /// Because the round clock advances between waves, mid-run crash
    /// schedules keep firing during recovery. The surviving messages are
    /// finally handed to the shared stable scatter in sequence order, so
    /// per-`(src, dst)` delivery order matches the sequence numbers exactly.
    fn exchange_reliable<M>(
        &mut self,
        phase: &str,
        outbox: &mut Vec<Envelope<M>>,
        out: &mut FlatInboxes<M>,
    ) -> Result<(), SimError> {
        let n = self.graph.len();
        let send_cap = self.send_cap();
        let recv_cap = self.recv_cap();
        out.clear();

        // Validate every address upfront: an error must leave `outbox`
        // untouched, and the wave loop permanently consumes fault-stream
        // state, so nothing below may fail on a healthy configuration.
        self.scratch.count(n, outbox.iter().map(|e| (e.src, e.dst)))?;
        let m = outbox.len();
        if m == 0 {
            // An empty exchange still costs its round, like the unreliable
            // engine.
            self.metrics.charge_global(1, 0, phase);
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::Exchange {
                    phase: phase.to_string(),
                    rounds: 1,
                    messages: 0,
                    max_send_load: 0,
                    max_recv_load: 0,
                    lost: 0,
                    suppressed: 0,
                    corrupted: 0,
                });
            }
        }

        // Seed the wave state: every message pending, zero attempts.
        self.rel.pending.clear();
        self.rel.pending.extend(0..m as u32);
        self.rel.attempts.clear();
        self.rel.attempts.resize(m, 0);
        self.rel.delivered.clear();
        self.rel.delivered.resize(m, false);

        let mut wave = 0u64;
        while !self.rel.pending.is_empty() {
            wave += 1;
            if wave > 1 {
                // Bounded exponential backoff before each retry wave.
                let backoff = (1u64 << (wave - 2).min(3)).min(RELIABLE_MAX_BACKOFF);
                self.metrics.charge_global_rounds_only(backoff, phase);
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent::Backoff {
                        phase: phase.to_string(),
                        wave,
                        rounds: backoff,
                    });
                }
            }
            let round = self.metrics.rounds;

            // Wire batch of this wave: pending messages with a live sender
            // and a destination not yet declared dead.
            let faults = self.faults.as_mut().expect("reliable mode requires installed faults");
            let rel = &mut self.rel;
            rel.attempted.clear();
            let mut suppressed_now = 0u64;
            for &idx in &rel.pending {
                let e = &outbox[idx as usize];
                if !faults.alive(e.src, round) || faults.is_declared_dead(e.dst) {
                    suppressed_now += 1;
                } else {
                    rel.attempted.push(idx);
                }
            }

            // Per-node loads and the cap policy, over the wire batch only.
            let wire = rel.attempted.iter().map(|&idx| {
                let e = &outbox[idx as usize];
                (e.src, e.dst)
            });
            self.scratch.count(n, wire)?;
            let (rounds_needed, max_sent) =
                self.scratch.check_caps(send_cap, recv_cap, self.config.overflow)?;

            // Commit this wave's bill: suppressions, loads, cut traffic,
            // retransmissions, the wire rounds, and one round of acks.
            let metrics = &mut self.metrics;
            let trace = &mut self.trace;
            metrics.suppressed_by_crash += suppressed_now;
            metrics.dropped_messages += suppressed_now;
            if rel.attempted.is_empty() {
                rel.pending.clear();
                if let Some(t) = trace.as_mut() {
                    // A wave that never reached the wire charges nothing but
                    // may still have suppressed messages — mirror it so the
                    // suppression counters reconcile.
                    t.record(TraceEvent::Wave {
                        phase: phase.to_string(),
                        wave,
                        rounds: 0,
                        ack_rounds: 0,
                        messages: 0,
                        retransmissions: 0,
                        lost: 0,
                        suppressed: suppressed_now,
                        corrupted: 0,
                        recovered: 0,
                        max_send_load: 0,
                    });
                }
                break;
            }
            metrics.max_send_load = metrics.max_send_load.max(max_sent);
            if let Some(side) = &self.cut {
                let crossing = rel
                    .attempted
                    .iter()
                    .map(|&idx| &outbox[idx as usize])
                    .filter(|e| side[e.src.index()] != side[e.dst.index()])
                    .count();
                metrics.cut_messages += crossing as u64;
            }
            let retrans =
                rel.attempted.iter().filter(|&&idx| rel.attempts[idx as usize] > 0).count();
            metrics.retransmissions += retrans as u64;
            metrics.charge_global(rounds_needed, rel.attempted.len() as u64, phase);
            metrics.charge_global_rounds_only(1, phase);

            // Delivery decisions, strictly in sequence order: the drop
            // stream is consumed deterministically.
            rel.pending.clear();
            let mut lost_now = 0u64;
            let mut dead_suppressed = 0u64;
            let mut corrupted_now = 0u64;
            let mut recovered_now = 0u64;
            for &idx in &rel.attempted {
                let i = idx as usize;
                let e = &outbox[i];
                rel.attempts[i] = rel.attempts[i].saturating_add(1);
                if !faults.alive(e.dst, round) {
                    // On the wire, but the destination is down: no ack. After
                    // enough unacked attempts the failure detector gives up
                    // on the node for the rest of the plan's lifetime.
                    if rel.attempts[i] >= RELIABLE_MAX_ATTEMPTS {
                        if faults.declare_dead(e.dst) {
                            metrics.declared_dead += 1;
                            if let Some(t) = trace.as_mut() {
                                t.record(TraceEvent::DeclareDead { node: e.dst.index() as u32 });
                            }
                        }
                        metrics.suppressed_by_crash += 1;
                        metrics.dropped_messages += 1;
                        dead_suppressed += 1;
                    } else {
                        rel.pending.push(idx);
                    }
                } else if faults.drop_next() {
                    metrics.dropped_by_loss += 1;
                    metrics.dropped_messages += 1;
                    lost_now += 1;
                    rel.pending.push(idx);
                } else if faults.corrupt_next() {
                    // The payload arrived bit-flipped; the per-message
                    // checksum catches it, the receiver withholds the ack,
                    // and the message is treated exactly like a loss:
                    // re-pended for the next retransmission wave. The
                    // flipped payload itself is never delivered.
                    metrics.corrupted_messages += 1;
                    metrics.dropped_messages += 1;
                    corrupted_now += 1;
                    rel.pending.push(idx);
                } else {
                    rel.delivered[i] = true;
                    if rel.attempts[i] > 1 {
                        metrics.recovered_messages += 1;
                        recovered_now += 1;
                    }
                }
            }
            if let Some(t) = trace.as_mut() {
                t.record(TraceEvent::Wave {
                    phase: phase.to_string(),
                    wave,
                    rounds: rounds_needed,
                    ack_rounds: 1,
                    messages: rel.attempted.len() as u64,
                    retransmissions: retrans as u64,
                    lost: lost_now,
                    suppressed: suppressed_now + dead_suppressed,
                    corrupted: corrupted_now,
                    recovered: recovered_now,
                    max_send_load: max_sent as u64,
                });
            }
        }

        // Compact to the delivered set in sequence order and hand it to the
        // shared stable scatter; every round was already billed wave by wave.
        let rel = &mut self.rel;
        let mut i = 0usize;
        outbox.retain(|_| {
            let keep = rel.delivered[i];
            i += 1;
            keep
        });
        self.scratch.count(n, outbox.iter().map(|e| (e.src, e.dst)))?;
        let delivered = outbox.len() as u64;
        let max_recv_load = self.scatter_into(outbox, out);
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Delivered { messages: delivered, max_recv_load });
        }
        Ok(())
    }

    /// Shared delivery engine of [`HybridNet::exchange_into`] and the
    /// reliable layer: sorts `outbox` by `(dst, src, insertion order)` and
    /// moves the payloads into `out`. Expects the scratch arena to hold
    /// `outbox`'s counted loads (addresses validated); charges nothing but
    /// records each destination's receive load, in ascending ID order.
    /// Returns the largest receive load.
    fn scatter_into<M>(&mut self, outbox: &mut Vec<Envelope<M>>, out: &mut FlatInboxes<M>) -> u64 {
        let n = self.graph.len();
        let m = outbox.len();
        // Deliver: stable two-pass counting sort by (dst, src, insertion order)
        // — radix pass 1 orders by sender, pass 2 groups by destination and
        // moves the payloads in one fused scatter; both passes are stable, so
        // the result matches a stable comparison sort on `(dst, src)` exactly.
        // Both passes lay out their buckets by walking only the touched
        // nodes. A batch already in `(dst, src)` order is its own sort and
        // moves in one pass.
        let ExchangeScratch { sent, recv, senders, receivers, ordered, offs, perm1 } =
            &mut self.scratch;

        // Pass 1: message indices, stable-ordered by sender.
        if !*ordered {
            lay_out_buckets(senders, sent, offs, |_, _, _| {});
            perm1.clear();
            perm1.resize(m, 0);
            for (i, e) in outbox.iter().enumerate() {
                let s = e.src.index();
                perm1[offs[s] as usize] = i as u32;
                offs[s] += 1;
            }
        }

        // Destination buckets, the sparse inbox index and the receive loads,
        // in ascending destination order.
        let (msgs, dsts, starts) = out.parts_mut(n);
        debug_assert!(msgs.is_empty(), "callers clear the arena first");
        let touched = receivers.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        dsts.reserve(touched);
        starts.reserve(touched + 1);
        msgs.reserve(m);
        let mut max_recv_load = 0u64;
        let metrics = &mut self.metrics;
        lay_out_buckets(receivers, recv, offs, |v, at, load| {
            metrics.record_recv_load(load as usize);
            max_recv_load = max_recv_load.max(u64::from(load));
            dsts.push(v as u32);
            starts.push(at);
        });
        starts.push(m as u32);
        if *ordered {
            msgs.extend(outbox.drain(..).map(|e| (e.src, e.msg)));
            return max_recv_load;
        }

        // Pass 2: group by destination and move payloads into the arena.
        // Kept as raw moves because the safe form (a slot per message, then
        // in-place swap cycles and one `drain`) timed 17–41% slower on random
        // batches of 150–6,402 messages at n = 2400 (CHANGES.md).
        //
        // SAFETY: `perm1` is a permutation of `0..m`, so every element of
        // `outbox` is read exactly once; the destination buckets partition
        // `0..m` (their counts sum to `m`), so every slot of `msgs`, empty
        // with capacity ≥ `m`, is written exactly once. `outbox`'s length is
        // zeroed before any move and `msgs`'s length is only set after all
        // writes, so a panic leaks elements instead of double-dropping them.
        unsafe {
            let (src, dst) = (outbox.as_ptr(), msgs.as_mut_ptr());
            outbox.set_len(0);
            for &i in perm1.iter() {
                let e = std::ptr::read(src.add(i as usize));
                let d = e.dst.index();
                std::ptr::write(dst.add(offs[d] as usize), (e.src, e.msg));
                offs[d] += 1;
            }
            msgs.set_len(m);
        }
        max_recv_load
    }

    /// Performs one global-mode communication step: delivers `outbox` subject to
    /// the NCC caps.
    ///
    /// Convenience wrapper over [`HybridNet::exchange_into`] returning nested
    /// per-node inboxes (allocates; hot paths use the arena API directly).
    ///
    /// Inboxes are sorted by `(sender, insertion order)` for determinism.
    ///
    /// # Errors
    ///
    /// [`SimError::AddressOutOfRange`] for a bad destination; cap violations under
    /// [`OverflowPolicy::Fail`].
    pub fn exchange<M>(
        &mut self,
        phase: &str,
        outbox: Vec<Envelope<M>>,
    ) -> Result<Inboxes<M>, SimError> {
        let mut outbox = outbox;
        let mut flat = FlatInboxes::new();
        self.exchange_into(phase, &mut outbox, &mut flat)?;
        Ok(flat.into_inboxes())
    }

    /// Runs a multi-step global protocol where every node holds a queue of
    /// envelopes and sends at most `send_cap` per round, until all queues drain.
    /// This is the common "while T ≠ ∅: pick Θ(log n) tokens, send" pattern of the
    /// paper's Algorithm 4.
    ///
    /// Under [`OverflowPolicy::Stretch`] the drain is **receive-aware and
    /// round-robin**: each round starts from a rotating queue index and takes
    /// messages only while the head message's destination still has per-round
    /// receive budget (head-of-line blocking preserves per-sender FIFO
    /// order). Consequently a paced drain never triggers the stretch
    /// machinery — `stretched_exchanges` stays a congestion signal instead of
    /// conflating pacing with overload — and contended receivers are served
    /// fairly across senders.
    ///
    /// Under [`OverflowPolicy::Fail`] the drain stays deliberately
    /// receive-*blind* (every queue sends up to `send_cap` per round): the
    /// strict policy exists to *prove* the protocols' w.h.p. receive bounds
    /// (Lemma D.2), so a skewed destination assignment must surface as
    /// [`SimError::RecvCapExceeded`], not be silently paced away.
    ///
    /// Returns the concatenated inboxes (per destination, in delivery order).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying exchanges.
    pub fn drain_queues<M: Send + 'static>(
        &mut self,
        phase: &str,
        queues: Vec<Vec<Envelope<M>>>,
    ) -> Result<Inboxes<M>, SimError> {
        let mut flat = SendQueues::new();
        let keys = queues.iter().enumerate().flat_map(|(v, q)| std::iter::repeat_n(v, q.len()));
        flat.reset(queues.len(), keys);
        for (v, q) in queues.into_iter().enumerate() {
            for e in q {
                flat.push(v, e);
            }
        }
        let mut all: Inboxes<M> = (0..self.graph.len()).map(|_| Vec::new()).collect();
        self.drain_queues_into(phase, &mut flat, |dst, pair| all[dst].push(pair))?;
        Ok(all)
    }

    /// The arena form of [`HybridNet::drain_queues`]: drains `queues` under
    /// the same pacing, handing every delivered `(sender, message)` pair to
    /// `deliver(destination, pair)` in delivery order instead of collecting
    /// nested inboxes. Queue `v` is the send queue of node `v`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying exchanges.
    pub fn drain_queues_into<M: Send + 'static>(
        &mut self,
        phase: &str,
        queues: &mut SendQueues<M>,
        mut deliver: impl FnMut(usize, (NodeId, M)),
    ) -> Result<(), SimError> {
        // The pacing scratch (per-round outbox + inbox arena) is pooled on
        // the net per payload type, so repeated drains — e.g. one per
        // simulated CLIQUE round — reuse their buffers across calls instead
        // of reallocating per invocation.
        let mut scratch = self.drain_pool.take::<M>();
        let result = self.drain_paced(phase, queues, &mut scratch, &mut deliver);
        self.drain_pool.put(scratch);
        result
    }

    fn drain_paced<M>(
        &mut self,
        phase: &str,
        queues: &mut SendQueues<M>,
        scratch: &mut DrainScratch<M>,
        deliver: &mut impl FnMut(usize, (NodeId, M)),
    ) -> Result<(), SimError> {
        let n = self.graph.len();
        let DrainScratch { outbox, flat } = scratch;
        outbox.clear();
        flat.clear();
        let cap = self.send_cap();
        let recv_cap = self.recv_cap();
        let pace_receivers = self.config.overflow == OverflowPolicy::Stretch;
        let nq = queues.num_queues();
        let mut start_q = 0usize;
        loop {
            outbox.clear();
            // The round's receive budget is counted in the exchange scratch,
            // which the exchange below recounts anyway.
            let scratch = &mut self.scratch;
            scratch.reset();
            queues.take_paced(start_q, cap, outbox, |head| {
                let d = head.dst.index();
                if d >= n {
                    return Err(SimError::AddressOutOfRange { node: head.dst, n });
                }
                if pace_receivers && scratch.recv[d] as usize >= recv_cap {
                    return Ok(false);
                }
                mark(&mut scratch.recv, &mut scratch.receivers, d, 1);
                Ok(true)
            })?;
            if outbox.is_empty() {
                break;
            }
            start_q = (start_q + 1) % nq.max(1);
            self.exchange_into(phase, outbox, flat)?;
            flat.drain_into(&mut *deliver);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::path;

    fn net(g: &Graph) -> HybridNet<'_> {
        HybridNet::new(g, HybridConfig::default())
    }

    /// Every non-empty inbox of `flat` with its destination, in order.
    fn listed<M: Clone>(flat: &FlatInboxes<M>) -> Vec<(usize, Vec<(NodeId, M)>)> {
        flat.iter().map(|(d, msgs)| (d, msgs.to_vec())).collect()
    }

    #[test]
    fn single_exchange_is_one_round() {
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        let inboxes =
            net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(15), 7u32)]).unwrap();
        assert_eq!(inboxes[15], vec![(NodeId::new(0), 7)]);
        assert_eq!(net.rounds(), 1);
        assert_eq!(net.metrics().global_messages, 1);
    }

    #[test]
    fn local_charge_accumulates() {
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        net.charge_local(10, "explore");
        assert_eq!(net.rounds(), 10);
        assert_eq!(net.metrics().local_rounds, 10);
    }

    #[test]
    fn stretch_charges_honest_rounds() {
        let g = path(16, 1).unwrap(); // send cap = ⌈log2 16⌉ = 4
        let mut net = net(&g);
        let outbox: Vec<_> =
            (0..12).map(|i| Envelope::new(NodeId::new(0), NodeId::new(1 + (i % 8)), i)).collect();
        net.exchange("t", outbox).unwrap();
        // 12 messages / cap 4 = 3 rounds.
        assert_eq!(net.rounds(), 3);
        assert_eq!(net.metrics().stretched_exchanges, 1);
    }

    #[test]
    fn fail_policy_rejects_send_overflow() {
        let g = path(16, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let outbox: Vec<_> =
            (0..5).map(|i| Envelope::new(NodeId::new(0), NodeId::new(1 + i), i)).collect();
        let err = net.exchange("t", outbox).unwrap_err();
        assert!(matches!(err, SimError::SendCapExceeded { sent: 5, cap: 4, .. }));
    }

    #[test]
    fn fail_policy_rejects_recv_overflow() {
        let g = path(16, 1).unwrap(); // recv cap = 16
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let outbox: Vec<_> = (0..15)
            .flat_map(|s| {
                (0..2).map(move |j| Envelope::new(NodeId::new(s), NodeId::new(15), (s, j)))
            })
            .collect();
        let err = net.exchange("t", outbox).unwrap_err();
        assert!(matches!(err, SimError::RecvCapExceeded { received: 30, .. }));
    }

    #[test]
    fn rejects_bad_address() {
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        let err = net
            .exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(9), 0u8)])
            .unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }));
    }

    #[test]
    fn inboxes_sorted_by_sender() {
        let g = path(8, 1).unwrap();
        let mut net = net(&g);
        let outbox = vec![
            Envelope::new(NodeId::new(5), NodeId::new(0), 'b'),
            Envelope::new(NodeId::new(2), NodeId::new(0), 'a'),
        ];
        let inboxes = net.exchange("t", outbox).unwrap();
        assert_eq!(inboxes[0], vec![(NodeId::new(2), 'a'), (NodeId::new(5), 'b')]);
    }

    /// SplitMix64 finaliser: a deterministic scramble for test batches.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A test message: payload `(index, salt)`.
    type Msg = Envelope<(u64, u64)>;

    /// `m` messages between nodes drawn from `lo..n`; every fifth repeats
    /// the previous message's endpoints, so ties are common.
    fn scrambled(salt: u64, m: u64, lo: usize, n: usize) -> Vec<Msg> {
        let span = (n - lo) as u64;
        let mut out: Vec<Msg> = Vec::new();
        for i in 0..m {
            let h = mix(salt << 32 | i);
            let (s, d) = match out.last() {
                Some(e) if i % 5 == 4 => (e.src, e.dst),
                _ => (
                    NodeId::new(lo + (h % span) as usize),
                    NodeId::new(lo + (h >> 32) as usize % span as usize),
                ),
            };
            out.push(Envelope::new(s, d, (i, salt)));
        }
        out
    }

    /// Per-node send and receive counts of `outbox`, counted densely.
    fn dense_loads<M>(outbox: &[Envelope<M>], n: usize) -> (Vec<usize>, Vec<usize>) {
        let (mut sent, mut recv) = (vec![0; n], vec![0; n]);
        for e in outbox {
            sent[e.src.index()] += 1;
            recv[e.dst.index()] += 1;
        }
        (sent, recv)
    }

    #[test]
    fn counting_sort_matches_reference_comparison_sort() {
        // Equivalence oracle: the former implementation's stable
        // `sort_by_key(|e| (e.dst, e.src))` placement, computed independently,
        // must agree byte-for-byte with the engine — including ties (several
        // messages with the same (src, dst) keep insertion order) — and the
        // exchange's trace event must carry the loads and rounds a dense
        // count gives. n = 150 spans three bitset words. The batches are
        // dense, sparse, confined to the last word, empty, already in
        // (dst, src) order (the one-pass move) and ordered but for one
        // adjacent pair swapped across two destinations or within one (back
        // on the counting sort); all run in a row on one net and one inbox
        // arena, so each also shows that the previous batch left no stale
        // counts behind.
        let n = 150;
        let g = path(n, 1).unwrap();
        let mut net = net(&g);
        net.set_trace(Recorder::new());
        let (send_cap, recv_cap) = (net.send_cap(), net.recv_cap());
        let mut flat = FlatInboxes::new();
        for salt in 0..4u64 {
            let mut ordered = scrambled(salt, 300, 0, n);
            ordered.sort_by_key(|e| (e.dst, e.src));
            let swap_first = |differ: fn(&Msg, &Msg) -> bool| {
                let mut batch = ordered.clone();
                let p = (0..299).find(|&p| differ(&batch[p], &batch[p + 1])).unwrap();
                batch.swap(p, p + 1);
                batch
            };
            let across = swap_first(|a, b| a.dst != b.dst);
            let within = swap_first(|a, b| a.dst == b.dst && a.src != b.src);
            let batches = [
                scrambled(salt, 600, 0, n),
                scrambled(salt, 5, 0, n),
                scrambled(salt, 20, 128, n),
                Vec::new(),
                ordered,
                across,
                within,
            ];
            for (k, outbox) in batches.into_iter().enumerate() {
                let mut sorted = outbox.clone();
                sorted.sort_by_key(|e| (e.dst, e.src));
                let mut reference: Inboxes<(u64, u64)> = (0..n).map(|_| Vec::new()).collect();
                for e in sorted {
                    reference[e.dst.index()].push((e.src, e.msg));
                }
                let (sent, recv) = dense_loads(&outbox, n);
                let (max_sent, max_recv) =
                    (sent.iter().copied().max().unwrap(), recv.iter().copied().max().unwrap());
                let rounds =
                    1.max(max_sent.div_ceil(send_cap)).max(max_recv.div_ceil(recv_cap)) as u64;
                let m = outbox.len();
                let mut outbox = outbox;
                net.exchange_into("t", &mut outbox, &mut flat).unwrap();
                let case = format!("salt {salt}, batch {k}");
                assert_eq!(flat.num_nodes(), n, "{case}");
                assert_eq!(flat.len(), m, "{case}");
                let got: Inboxes<(u64, u64)> = (0..n).map(|v| flat.node(v).to_vec()).collect();
                assert_eq!(got, reference, "{case}");
                let nonempty: Vec<_> = reference
                    .into_iter()
                    .enumerate()
                    .filter(|(_, inbox)| !inbox.is_empty())
                    .collect();
                assert_eq!(listed(&flat), nonempty, "{case}");
                let rec = net.take_trace().unwrap();
                let want = TraceEvent::Exchange {
                    phase: "t".into(),
                    rounds,
                    messages: m as u64,
                    max_send_load: max_sent as u64,
                    max_recv_load: max_recv as u64,
                    lost: 0,
                    suppressed: 0,
                    corrupted: 0,
                };
                assert_eq!(rec.events().last(), Some(&want), "{case}");
                net.set_trace(rec);
            }
        }
    }

    #[test]
    fn fail_policy_names_the_smallest_violator_send_first() {
        // Batches with several cap violators: the sparse cap check must
        // report what a dense `0..n` scan does — the smallest violating ID,
        // with a node's sends checked before its receives. The batches run
        // in a row on one net, each after a failed one.
        let n = 200;
        let g = path(n, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let (send_cap, recv_cap) = (net.send_cap(), net.recv_cap());
        let dense_first_violation = |outbox: &[Envelope<u64>]| {
            let (sent, recv) = dense_loads(outbox, n);
            (0..n).find_map(|v| {
                let node = NodeId::new(v);
                if sent[v] > send_cap {
                    Some(SimError::SendCapExceeded { node, sent: sent[v], cap: send_cap })
                } else if recv[v] > recv_cap {
                    Some(SimError::RecvCapExceeded { node, received: recv[v], cap: recv_cap })
                } else {
                    None
                }
            })
        };
        // `k` messages from `s`, to `d` or (with `d = None`) spread around.
        let burst = |s: usize, d: Option<usize>, k: usize| -> Vec<Envelope<u64>> {
            (0..k)
                .map(|j| {
                    let d = d.unwrap_or((s + 1 + 7 * j) % n);
                    Envelope::new(NodeId::new(s), NodeId::new(d), j as u64)
                })
                .collect()
        };
        // `k` messages into `d`, one from each of `k` senders from `from` on.
        let fan_in = |d: usize, from: usize, k: usize| -> Vec<Envelope<u64>> {
            (0..k).map(|j| Envelope::new(NodeId::new((from + j) % n), NodeId::new(d), 0)).collect()
        };
        let mut batches: Vec<Vec<Envelope<u64>>> = vec![
            // Three senders over the cap; 70 is the smallest.
            [
                burst(190, None, send_cap + 1),
                burst(70, None, send_cap + 2),
                burst(130, None, send_cap + 1),
            ]
            .concat(),
            // A receiver over the cap below a sender over the cap.
            [burst(100, None, send_cap + 1), fan_in(64, 110, recv_cap + 1)].concat(),
            // Node 127 over both caps: its sends are reported first.
            [
                fan_in(150, 0, recv_cap + 3),
                burst(127, None, send_cap + 1),
                fan_in(127, 0, recv_cap + 1),
            ]
            .concat(),
            // The last node of the last word.
            [burst(199, Some(198), send_cap + 1), fan_in(199, 20, recv_cap + 1)].concat(),
        ];
        // Skewed random batches with many violators.
        for salt in 0..8u64 {
            batches.push(
                (0..1200u64)
                    .map(|i| {
                        let h = mix(salt << 32 | i);
                        let s = if h.is_multiple_of(3) {
                            (h >> 8) as usize % 12 * 16
                        } else {
                            (h >> 8) as usize % n
                        };
                        let d = if h.is_multiple_of(5) {
                            3 + (h >> 40) as usize % 6 * 31
                        } else {
                            (h >> 40) as usize % n
                        };
                        Envelope::new(NodeId::new(s), NodeId::new(d), i)
                    })
                    .collect(),
            );
        }
        for (k, batch) in batches.into_iter().enumerate() {
            let want = dense_first_violation(&batch).expect("every batch violates a cap");
            let err = net.exchange("t", batch).unwrap_err();
            assert_eq!(err, want, "batch {k}");
        }
        assert_eq!(net.rounds(), 0, "a failed exchange charges nothing");
    }

    #[test]
    fn the_exchange_after_a_failed_one_matches_a_fresh_net() {
        // An error partway through a batch leaves its counts behind; the next
        // exchange on the same net must still deliver, charge and trace
        // exactly what it does on a fresh net.
        let n = 150;
        let g = path(n, 1).unwrap();
        let env =
            |s: usize, d: usize| Envelope::new(NodeId::new(s), NodeId::new(d), (s * n + d) as u32);
        // Node 5 floods its neighbours, then one message is misaddressed.
        let mut misaddressed: Vec<_> = (0..20).map(|j| env(5, 6 + j)).collect();
        misaddressed.push(Envelope::new(NodeId::new(140), NodeId::new(999), 0));
        misaddressed.extend((0..10).map(|j| env(130 + j, 9)));
        let over_send: Vec<_> = (0..12).map(|j| env(5, 20 + j)).collect();
        let over_recv: Vec<_> = (0..40).map(|j| env(60 + j, 9)).collect();
        // Touches the nodes the failed batches loaded.
        let follow_up = || vec![env(5, 6), env(5, 9), env(140, 5), env(131, 9), env(7, 140)];
        let cases = [
            ("misaddressed", HybridConfig::default(), false, misaddressed.clone()),
            ("misaddressed, reliable", HybridConfig::default(), true, misaddressed),
            ("over the send cap", HybridConfig::strict(), false, over_send),
            ("over the receive cap", HybridConfig::strict(), false, over_recv),
        ];
        for (name, config, reliable, bad) in cases {
            let run = |fail_first: bool| {
                let mut net = HybridNet::new(&g, config);
                if reliable {
                    net.inject_faults(&crate::fault::FaultPlan::drops(0.2, 9)).unwrap();
                    net.set_reliable(true);
                }
                net.set_trace(Recorder::new());
                let mut flat = FlatInboxes::new();
                if fail_first {
                    let mut outbox = bad.clone();
                    net.exchange_into("t", &mut outbox, &mut flat).unwrap_err();
                }
                let mut outbox = follow_up();
                net.exchange_into("t", &mut outbox, &mut flat).unwrap();
                let events = net.take_trace().unwrap().events_sans_wall();
                (listed(&flat), format!("{:?}", net.metrics()), events)
            };
            assert_eq!(run(true), run(false), "{name}");
        }
    }

    #[test]
    fn exchange_into_reuses_buffers() {
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        let mut outbox = Vec::new();
        let mut flat = FlatInboxes::new();
        for round in 0..3u32 {
            outbox.push(Envelope::new(NodeId::new(1), NodeId::new(4), round));
            outbox.push(Envelope::new(NodeId::new(0), NodeId::new(4), round + 10));
            net.exchange_into("t", &mut outbox, &mut flat).unwrap();
            assert!(outbox.is_empty(), "outbox drained for reuse");
            assert_eq!(
                flat.for_node(NodeId::new(4)),
                &[(NodeId::new(0), round + 10), (NodeId::new(1), round)]
            );
        }
        assert_eq!(net.rounds(), 3);
    }

    #[test]
    fn exchange_into_leaves_outbox_on_error() {
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        let mut outbox = vec![Envelope::new(NodeId::new(0), NodeId::new(9), 1u8)];
        let mut flat = FlatInboxes::new();
        let err = net.exchange_into("t", &mut outbox, &mut flat).unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }));
        assert_eq!(outbox.len(), 1, "failed exchange must not consume the outbox");
    }

    #[test]
    fn cut_counts_crossings() {
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        net.set_cut(vec![true, true, false, false]);
        let outbox = vec![
            Envelope::new(NodeId::new(0), NodeId::new(1), 0u8), // same side
            Envelope::new(NodeId::new(0), NodeId::new(3), 0u8), // crossing
            Envelope::new(NodeId::new(2), NodeId::new(1), 0u8), // crossing
        ];
        net.exchange("t", outbox).unwrap();
        assert_eq!(net.metrics().cut_messages, 2);
        net.clear_cut();
        net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(3), 0u8)]).unwrap();
        assert_eq!(net.metrics().cut_messages, 2);
    }

    #[test]
    fn drain_queues_paces_to_cap() {
        let g = path(16, 1).unwrap(); // cap 4
        let mut net = net(&g);
        // Node 0 queues 10 messages to distinct targets; node 1 queues 2.
        let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
        for i in 0..10 {
            queues[0].push(Envelope::new(NodeId::new(0), NodeId::new(2 + i), i as u32));
        }
        queues[1].push(Envelope::new(NodeId::new(1), NodeId::new(14), 100));
        queues[1].push(Envelope::new(NodeId::new(1), NodeId::new(15), 101));
        let inboxes = net.drain_queues("t", queues).unwrap();
        assert_eq!(net.rounds(), 3); // ⌈10/4⌉
        assert_eq!(net.metrics().global_messages, 12);
        assert_eq!(inboxes[14], vec![(NodeId::new(1), 100)]);
        assert_eq!(net.metrics().stretched_exchanges, 0); // paced, never over cap
    }

    #[test]
    fn drain_queues_paces_contended_receiver_without_stretch() {
        // Regression for the receive-blind drain: 8 senders each queue 4
        // messages for node 15 (32 total, recv cap 16). The old drain shipped
        // all 32 in one exchange, which *stretched* to 2 rounds and polluted
        // `stretched_exchanges`; the receive-aware drain paces the same load
        // over 2 clean exchanges — same honest total, distinguishable metrics.
        let g = path(16, 1).unwrap(); // send cap 4, recv cap 16
        let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
        for s in 0..8 {
            for i in 0..4 {
                queues[s].push(Envelope::new(NodeId::new(s), NodeId::new(15), (s * 4 + i) as u32));
            }
        }
        let mut net = net(&g);
        let inboxes = net.drain_queues("t", queues).unwrap();
        assert_eq!(net.rounds(), 2, "⌈32 / recv cap 16⌉ rounds");
        assert_eq!(net.metrics().stretched_exchanges, 0, "pacing must not stretch");
        assert_eq!(net.metrics().global_messages, 32);
        assert_eq!(net.metrics().max_recv_load, 16);
        assert_eq!(inboxes[15].len(), 32);
        // Per-sender FIFO order survives the head-of-line pacing.
        for s in 0..8u32 {
            let from_s: Vec<u32> = inboxes[15]
                .iter()
                .filter(|(src, _)| src.index() == s as usize)
                .map(|&(_, m)| m)
                .collect();
            assert_eq!(from_s, vec![s * 4, s * 4 + 1, s * 4 + 2, s * 4 + 3]);
        }
    }

    #[test]
    fn drain_queues_round_robin_is_fair_under_contention() {
        // 4 senders, one contended receiver with recv budget 16 and 8 messages
        // each: rotation means no sender is systematically served last.
        let g = path(16, 1).unwrap(); // send cap 4, recv cap 16
        let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
        for s in 0..8 {
            for i in 0..6 {
                queues[s].push(Envelope::new(NodeId::new(s), NodeId::new(9), (s * 6 + i) as u32));
            }
        }
        let mut net = net(&g);
        let inboxes = net.drain_queues("t", queues).unwrap();
        assert_eq!(inboxes[9].len(), 48);
        // 4 rounds: the recv budget (16/round) and the per-sender send cap
        // (4/round) interleave — the rotating start means every queue drains
        // within one round of the others instead of the last queue idling
        // until the first ones finish.
        assert_eq!(net.rounds(), 4);
        assert_eq!(net.metrics().stretched_exchanges, 0);
    }

    #[test]
    fn strict_drain_still_detects_receiver_overload() {
        // The Fail policy is the verification mode: a skewed destination
        // assignment in a drained phase must error, not be paced away —
        // receive-aware pacing applies to Stretch only.
        let g = path(16, 1).unwrap(); // send cap 4, recv cap 16
        let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
        for s in 0..8 {
            for i in 0..4 {
                queues[s].push(Envelope::new(NodeId::new(s), NodeId::new(15), (s * 4 + i) as u32));
            }
        }
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let err = net.drain_queues("t", queues).unwrap_err();
        assert!(matches!(err, SimError::RecvCapExceeded { received: 32, cap: 16, .. }));
    }

    #[test]
    fn drain_queues_rejects_bad_address() {
        let g = path(4, 1).unwrap();
        let mut queues: Vec<Vec<Envelope<u8>>> = vec![Vec::new(); 4];
        queues[0].push(Envelope::new(NodeId::new(0), NodeId::new(7), 1));
        let mut net = net(&g);
        let err = net.drain_queues("t", queues).unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }));
    }

    #[test]
    fn drain_queues_scratch_pool_reuses_buffers_across_calls() {
        // Two drains with the same payload type: the second must find the
        // pooled pacing scratch (observable as retained capacity — the pool
        // is per payload type, keyed under the net).
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        let mk_queues = || -> Vec<Vec<Envelope<u32>>> {
            let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
            for i in 0..32 {
                queues[i % 4].push(Envelope::new(
                    NodeId::new(i % 4),
                    NodeId::new(8 + (i % 8)),
                    i as u32,
                ));
            }
            queues
        };
        let a = net.drain_queues("t", mk_queues()).unwrap();
        assert_eq!(net.drain_pool.0.len(), 1, "scratch pooled after the first drain");
        let b = net.drain_queues("t", mk_queues()).unwrap();
        assert_eq!(a, b);
        assert_eq!(net.drain_pool.0.len(), 1, "same payload type reuses the pooled scratch");
        // A different payload type gets its own pooled entry.
        let queues: Vec<Vec<Envelope<u8>>> =
            vec![vec![Envelope::new(NodeId::new(0), NodeId::new(1), 9u8)]; 1];
        net.drain_queues("t", queues).unwrap();
        assert_eq!(net.drain_pool.0.len(), 2);
    }

    #[test]
    fn error_display() {
        let e = SimError::RecvCapExceeded { node: NodeId::new(3), received: 9, cap: 4 };
        assert!(e.to_string().contains("receive"));
        let e = SimError::InvalidConfig { reason: "boom".into() };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn try_new_rejects_degenerate_config() {
        let g = path(4, 1).unwrap();
        let cfg = HybridConfig { send_cap_factor: 0.0, ..HybridConfig::default() };
        let err = HybridNet::try_new(&g, cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    #[should_panic(expected = "valid HybridConfig")]
    fn new_panics_on_degenerate_config() {
        let g = path(4, 1).unwrap();
        let _ =
            HybridNet::new(&g, HybridConfig { recv_cap_factor: f64::NAN, ..Default::default() });
    }

    #[test]
    fn drops_never_swallow_bad_addresses() {
        // An addressing bug must surface as an error on every seed — the
        // fault filter exempts out-of-range endpoints from the drop stream.
        use crate::fault::FaultPlan;
        let g = path(4, 1).unwrap();
        for seed in 0..8 {
            let mut net = net(&g);
            net.inject_faults(&FaultPlan::drops(0.9, seed)).unwrap();
            let err = net
                .exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(9), 0u8)])
                .unwrap_err();
            assert!(matches!(err, SimError::AddressOutOfRange { .. }), "seed {seed}");
        }
    }

    #[test]
    fn crashed_nodes_fall_silent() {
        use crate::fault::{Crash, FaultPlan};
        let g = path(8, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::node_crashes(vec![Crash {
            node: NodeId::new(3),
            at_round: 1,
        }]))
        .unwrap();
        // Round clock is 0: node 3 is still alive.
        let inboxes =
            net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(3), 1u8)]).unwrap();
        assert_eq!(inboxes[3], vec![(NodeId::new(0), 1)]);
        // Clock is now 1: node 3 neither receives nor sends.
        let inboxes = net
            .exchange(
                "t",
                vec![
                    Envelope::new(NodeId::new(0), NodeId::new(3), 2u8), // to crashed
                    Envelope::new(NodeId::new(3), NodeId::new(5), 3u8), // from crashed
                    Envelope::new(NodeId::new(0), NodeId::new(5), 4u8), // healthy
                ],
            )
            .unwrap();
        assert!(inboxes[3].is_empty());
        assert_eq!(inboxes[5], vec![(NodeId::new(0), 4)]);
        assert_eq!(net.metrics().dropped_messages, 2);
        assert_eq!(net.metrics().global_messages, 2, "dropped messages never hit the wire");
    }

    #[test]
    fn drop_faults_are_deterministic_and_counted() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let run = || {
            let mut net = net(&g);
            net.inject_faults(&FaultPlan::drops(0.5, 99)).unwrap();
            let mut delivered = Vec::new();
            for r in 0..32u32 {
                let inboxes = net
                    .exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(1), r)])
                    .unwrap();
                delivered.extend(inboxes[1].iter().map(|&(_, m)| m));
            }
            (delivered, net.metrics().dropped_messages)
        };
        let (a, dropped_a) = run();
        let (b, dropped_b) = run();
        assert_eq!(a, b, "same plan, same drops");
        assert_eq!(dropped_a, dropped_b);
        assert_eq!(a.len() as u64 + dropped_a, 32);
        assert!(dropped_a > 0, "p = 0.5 over 32 messages");
    }

    #[test]
    fn clear_faults_restores_delivery() {
        use crate::fault::FaultPlan;
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::drops(0.999, 7)).unwrap();
        net.clear_faults();
        let inboxes =
            net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(2), 5u8)]).unwrap();
        assert_eq!(inboxes[2], vec![(NodeId::new(0), 5)]);
        assert_eq!(net.metrics().dropped_messages, 0);
    }

    #[test]
    fn inject_faults_validates_plan() {
        use crate::fault::FaultPlan;
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        let err = net.inject_faults(&FaultPlan::drops(1.0, 0)).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn loss_and_crash_suppression_are_counted_separately() {
        use crate::fault::{Crash, FaultPlan};
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan {
            drop_prob: 0.5,
            corrupt_prob: 0.0,
            crashes: vec![Crash { node: NodeId::new(3), at_round: 0 }],
            seed: 11,
        })
        .unwrap();
        for r in 0..32u32 {
            let outbox = vec![
                Envelope::new(NodeId::new(0), NodeId::new(3), r), // always suppressed
                Envelope::new(NodeId::new(0), NodeId::new(1), r), // maybe lost
            ];
            net.exchange("t", outbox).unwrap();
        }
        let m = net.metrics();
        assert_eq!(m.suppressed_by_crash, 32, "every message to the crashed node");
        assert!(m.dropped_by_loss > 0, "p = 0.5 over 32 live messages");
        assert_eq!(m.dropped_messages, m.dropped_by_loss + m.suppressed_by_crash);
    }

    #[test]
    fn reliable_exchange_recovers_lost_messages() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::drops(0.4, 21)).unwrap();
        net.set_reliable(true);
        assert!(net.reliable() && net.has_faults());
        let outbox: Vec<_> = (0..32u32)
            .map(|i| {
                Envelope::new(NodeId::new((i % 4) as usize), NodeId::new(8 + (i % 8) as usize), i)
            })
            .collect();
        let inboxes = net.exchange("t", outbox).unwrap();
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        assert_eq!(delivered, 32, "reliable mode delivers everything to live nodes");
        let m = net.metrics();
        assert!(m.dropped_by_loss > 0, "the drop stream must bite");
        assert!(m.retransmissions > 0, "losses must be retried");
        assert!(m.recovered_messages > 0, "retries must recover messages");
        assert_eq!(m.declared_dead, 0, "a drop-only plan never kills anyone");
        assert!(net.rounds() > 2, "waves, acks and backoff are all charged");
        // Per-(src, dst) sequence order survives recovery.
        for inbox in inboxes.iter() {
            let mut last: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
            for &(src, seq) in inbox {
                if let Some(&prev) = last.get(&src) {
                    assert!(seq > prev, "sequence order violated: {prev} then {seq}");
                }
                last.insert(src, seq);
            }
        }
    }

    #[test]
    fn reliable_exchange_detects_and_recovers_corrupted_payloads() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::corruption(0.3, 33)).unwrap();
        net.set_reliable(true);
        let outbox: Vec<_> = (0..64u32)
            .map(|i| {
                Envelope::new(NodeId::new((i % 4) as usize), NodeId::new(8 + (i % 8) as usize), i)
            })
            .collect();
        let sent: Vec<u32> = outbox.iter().map(|e| e.msg).collect();
        let inboxes = net.exchange("t", outbox).unwrap();
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        assert_eq!(delivered, 64, "every corrupted payload is retransmitted until it lands");
        // Delivered payloads are exactly the sent ones: detection converts
        // corruption to loss, it never leaks a flipped payload.
        let mut got: Vec<u32> =
            inboxes.iter().flat_map(|inbox| inbox.iter().map(|&(_, p)| p)).collect();
        got.sort_unstable();
        let mut want = sent;
        want.sort_unstable();
        assert_eq!(got, want);
        let m = net.metrics();
        assert!(m.corrupted_messages > 0, "p = 0.3 over 64 messages must bite");
        assert_eq!(m.dropped_by_loss, 0, "a corruption-only plan never random-drops");
        assert_eq!(m.dropped_messages, m.corrupted_messages + m.suppressed_by_crash);
        assert!(m.retransmissions > 0 && m.recovered_messages > 0);
    }

    #[test]
    fn fire_and_forget_discards_corrupted_payloads() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::corruption(0.4, 9)).unwrap();
        let mut delivered = 0usize;
        for r in 0..64u32 {
            let inboxes =
                net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(1), r)]).unwrap();
            delivered += inboxes[1].len();
        }
        let m = net.metrics();
        assert!(m.corrupted_messages > 0, "the corruption stream must bite");
        assert_eq!(delivered as u64 + m.corrupted_messages, 64);
        assert_eq!(m.dropped_messages, m.corrupted_messages);
    }

    #[test]
    fn corruption_stream_does_not_perturb_drop_decisions() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let run = |corrupt_prob: f64| {
            let mut net = net(&g);
            net.inject_faults(&FaultPlan { corrupt_prob, ..FaultPlan::drops(0.3, 17) }).unwrap();
            let mut lost_pattern = Vec::new();
            for r in 0..128u32 {
                let before = net.metrics().dropped_by_loss;
                net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(1), r)]).unwrap();
                lost_pattern.push(net.metrics().dropped_by_loss - before);
            }
            lost_pattern
        };
        assert_eq!(run(0.0), run(0.3), "enabling corruption must not shift the drop stream");
    }

    #[test]
    fn reliable_exchange_declares_crashed_destinations_dead() {
        use crate::fault::{Crash, FaultPlan};
        let g = path(8, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::node_crashes(vec![Crash {
            node: NodeId::new(3),
            at_round: 0,
        }]))
        .unwrap();
        net.set_reliable(true);
        let inboxes = net
            .exchange(
                "t",
                vec![
                    Envelope::new(NodeId::new(0), NodeId::new(3), 1u8),
                    Envelope::new(NodeId::new(0), NodeId::new(5), 2u8),
                ],
            )
            .unwrap();
        assert!(inboxes[3].is_empty());
        assert_eq!(inboxes[5], vec![(NodeId::new(0), 2)]);
        assert_eq!(net.metrics().declared_dead, 1, "node 3 gave up after max attempts");
        assert_eq!(net.declared_dead_nodes(), vec![NodeId::new(3)]);
        assert!(net.metrics().suppressed_by_crash > 0);
        // A second exchange to the declared-dead node is suppressed instantly:
        // no further retransmission waves are spent on it.
        let retrans_before = net.metrics().retransmissions;
        let rounds_before = net.rounds();
        let inboxes =
            net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(3), 9u8)]).unwrap();
        assert!(inboxes[3].is_empty());
        assert_eq!(net.metrics().retransmissions, retrans_before);
        assert!(net.rounds() - rounds_before <= 1, "no retry waves for a declared-dead node");
    }

    #[test]
    fn payloads_that_own_memory_move_exactly_once() {
        // Every other test sends `Copy` payloads, which a double move or a
        // lost move would not show. Here each payload is an `Arc` whose
        // strong count is 2 while it is in flight or delivered (the test
        // keeps one handle) and 1 once it is dropped, so a payload moved
        // twice or dropped in transit shows in the counts. The batches go
        // through the counting sort, the one-pass move of an ordered batch
        // and the reliable layer's retries, drops and a crashed node.
        use crate::fault::{Crash, FaultPlan};
        use std::sync::Arc;
        let g = path(64, 1).unwrap();
        let handles: Vec<Arc<u32>> = (0..2048u32).map(Arc::new).collect();
        let batch = |ordered: bool| {
            let mut outbox: Vec<Envelope<Arc<u32>>> = handles
                .iter()
                .map(|p| {
                    let i = **p;
                    let (s, d) =
                        ((i.wrapping_mul(13) % 64) as usize, (i.wrapping_mul(29) % 64) as usize);
                    Envelope::new(NodeId::new(s), NodeId::new(d), Arc::clone(p))
                })
                .collect();
            if ordered {
                outbox.sort_by_key(|e| (e.dst, e.src));
            }
            outbox
        };
        let cases =
            [("unordered", false, false), ("ordered", true, false), ("reliable", false, true)];
        for (name, ordered, reliable) in cases {
            let mut net = net(&g);
            if reliable {
                net.inject_faults(&FaultPlan {
                    drop_prob: 0.3,
                    corrupt_prob: 0.0,
                    crashes: vec![Crash { node: NodeId::new(7), at_round: 2 }],
                    seed: 5,
                })
                .unwrap();
                net.set_reliable(true);
            }
            let mut outbox = batch(ordered);
            let mut flat = FlatInboxes::new();
            net.exchange_into("t", &mut outbox, &mut flat).unwrap();
            assert!(outbox.is_empty(), "{name}");
            let delivered: std::collections::HashSet<u32> =
                flat.iter().flat_map(|(_, msgs)| msgs.iter().map(|(_, p)| **p)).collect();
            assert_eq!(delivered.len(), flat.len(), "{name}: a payload delivered twice");
            if reliable {
                assert!(net.metrics().recovered_messages > 0, "{name}: no retry recovered");
                assert!(delivered.len() < handles.len(), "{name}: the crash suppressed nothing");
            } else {
                assert_eq!(delivered.len(), handles.len(), "{name}");
            }
            for p in &handles {
                let want = if delivered.contains(p.as_ref()) { 2 } else { 1 };
                assert_eq!(Arc::strong_count(p), want, "{name}: payload {p}");
            }
            drop(flat);
            assert!(handles.iter().all(|p| Arc::strong_count(p) == 1), "{name}: a payload leaked");
        }
    }

    #[test]
    fn reliable_flag_is_inert_without_faults() {
        let g = path(8, 1).unwrap();
        let mut net = net(&g);
        net.set_reliable(true);
        let inboxes =
            net.exchange("t", vec![Envelope::new(NodeId::new(0), NodeId::new(3), 1u8)]).unwrap();
        assert_eq!(inboxes[3], vec![(NodeId::new(0), 1)]);
        assert_eq!(net.rounds(), 1, "no fault plan: the fire-and-forget engine runs");
        assert_eq!(net.metrics().retransmissions, 0);
    }

    #[test]
    fn reliable_exchange_leaves_outbox_on_error_and_charges_empty_rounds() {
        use crate::fault::FaultPlan;
        let g = path(4, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::drops(0.2, 3)).unwrap();
        net.set_reliable(true);
        let mut outbox = vec![Envelope::new(NodeId::new(0), NodeId::new(9), 1u8)];
        let mut flat = FlatInboxes::new();
        let err = net.exchange_into("t", &mut outbox, &mut flat).unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }));
        assert_eq!(outbox.len(), 1, "failed reliable exchange must not consume the outbox");
        assert_eq!(net.rounds(), 0);
        // An empty reliable exchange still costs its round.
        let mut empty: Vec<Envelope<u8>> = Vec::new();
        net.exchange_into("t", &mut empty, &mut flat).unwrap();
        assert_eq!(net.rounds(), 1);
    }

    #[test]
    fn drain_queues_under_drops_terminates() {
        use crate::fault::FaultPlan;
        let g = path(16, 1).unwrap();
        let mut net = net(&g);
        net.inject_faults(&FaultPlan::drops(0.3, 5)).unwrap();
        let mut queues: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); 16];
        for i in 0..40 {
            queues[i % 4].push(Envelope::new(
                NodeId::new(i % 4),
                NodeId::new(8 + (i % 8)),
                i as u32,
            ));
        }
        let inboxes = net.drain_queues("t", queues).unwrap();
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        assert_eq!(delivered as u64 + net.metrics().dropped_messages, 40);
        assert!(net.metrics().dropped_messages > 0);
    }
}
