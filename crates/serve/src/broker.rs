//! The multi-tenant request broker: a byte-budgeted LRU of [`Session`]s with
//! per-tenant admission control, batch coalescing, and online bit-identity
//! verification against cold solves.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

use hybrid_core::session::{Session, SessionConfig};
use hybrid_core::solver::{solve, Answer, Guarantee, Query, Report};
use hybrid_core::HybridError;
use hybrid_graph::{DeltaBatch, Graph};
use hybrid_sim::{FaultPlan, HybridConfig, HybridNet};

/// Floor charged per cached session so even an unqueried (zero-byte) session
/// occupies budget and can be evicted.
const MIN_ENTRY_BYTES: usize = 1024;

// ---------------------------------------------------------------------------
// FNV-1a digests
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit) — the broker's stable digest over graphs and
/// reports. Not cryptographic; collision resistance is irrelevant because the
/// cold reference is computed from the same query on the same graph.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable fingerprint of a graph's structure (node count, edge list, weights)
/// — one component of the broker's session-cache key. Two graphs with equal
/// fingerprints are treated as the same preprocessing domain.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.usize(g.len());
    for e in g.edges() {
        h.u64(u64::from(e.u.raw()));
        h.u64(u64::from(e.v.raw()));
        h.u64(e.w);
    }
    h.finish()
}

/// Stable digest of everything a [`Report`] pins besides wall-clock: the
/// query label, the answer payload, the guarantee, and the full round/message
/// bill. Phase attributions are excluded, exactly like the session-equivalence
/// tests — they describe *where* rounds went, and their sum is already pinned
/// by [`Report::rounds`].
pub fn report_digest(r: &Report) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.label().as_bytes());
    h.u64(r.rounds);
    h.u64(r.global_messages);
    h.u64(r.dropped_messages);
    h.usize(r.skeleton_size);
    h.usize(r.h);
    h.usize(r.coverage_fallbacks);
    match &r.guarantee {
        Guarantee::Exact => h.u64(1),
        Guarantee::Stretch { factor } => {
            h.u64(2);
            h.u64(factor.to_bits());
        }
        Guarantee::DiameterFactor { factor } => {
            h.u64(3);
            h.u64(factor.to_bits());
        }
        Guarantee::Degraded { from, to, cause } => {
            h.u64(4);
            h.bytes(from.as_bytes());
            h.bytes(to.as_bytes());
            h.bytes(cause.to_string().as_bytes());
        }
    }
    match &r.answer {
        Answer::Distances(m) => {
            h.u64(10);
            for &d in m.as_flat() {
                h.u64(d);
            }
        }
        Answer::DistanceRow { source, dist } => {
            h.u64(11);
            h.u64(u64::from(source.raw()));
            for &d in dist {
                h.u64(d);
            }
        }
        Answer::DistanceRows { sources, est } => {
            h.u64(12);
            for s in sources {
                h.u64(u64::from(s.raw()));
            }
            for row in est {
                h.usize(row.len());
                for &d in row {
                    h.u64(d);
                }
            }
        }
        Answer::Diameter { estimate, exact_local } => {
            h.u64(13);
            h.u64(*estimate);
            h.u64(u64::from(*exact_local));
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// One graph version in the catalog: the shared graph, its fingerprint, and
/// its delta epoch.
#[derive(Debug, Clone)]
struct CatalogVersion {
    graph: Arc<Graph>,
    fingerprint: u64,
    epoch: u64,
}

/// Outcome of one [`GraphCatalog::apply_delta`]: the new version and what it
/// replaced.
#[derive(Debug, Clone)]
pub struct CatalogUpdate {
    /// Fingerprint of the version the delta replaced (the stale one).
    pub old_fingerprint: u64,
    /// Fingerprint of the post-delta graph.
    pub fingerprint: u64,
    /// Epoch of the new version (`0` at registration, `+1` per delta).
    pub epoch: u64,
    /// The post-delta graph.
    pub graph: Arc<Graph>,
}

/// The broker's graph namespace: named, fingerprinted, epoch-versioned
/// graphs. Lookups hand out shared [`Arc<Graph>`] handles, so a delta applied
/// mid-flight never invalidates a session already serving the old version —
/// old epochs stay alive exactly as long as someone holds them.
#[derive(Debug, Default)]
pub struct GraphCatalog {
    entries: Vec<(String, RwLock<CatalogVersion>)>,
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        GraphCatalog::default()
    }

    /// Registers `graph` under `name` at epoch 0 (replacing any previous
    /// binding) and returns its fingerprint.
    pub fn insert(&mut self, name: &str, graph: Graph) -> u64 {
        let fp = graph_fingerprint(&graph);
        self.entries.retain(|(n, _)| n != name);
        self.entries.push((
            name.to_string(),
            RwLock::new(CatalogVersion { graph: Arc::new(graph), fingerprint: fp, epoch: 0 }),
        ));
        fp
    }

    fn version(&self, name: &str) -> Option<&RwLock<CatalogVersion>> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up the current version of a registered graph: the shared graph
    /// and its fingerprint.
    pub fn get(&self, name: &str) -> Option<(Arc<Graph>, u64)> {
        let v = self.version(name)?.read().expect("catalog version lock");
        Some((Arc::clone(&v.graph), v.fingerprint))
    }

    /// Like [`GraphCatalog::get`], but when the caller pins an `expected`
    /// fingerprint, a version mismatch is rejected *here* as a structured
    /// [`ServeError::StaleFingerprint`] — instead of silently serving the new
    /// graph to a client still reasoning about the old one (which the digest
    /// referee, solving on the same new graph, would never catch).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownGraph`] / [`ServeError::StaleFingerprint`].
    pub fn get_pinned(
        &self,
        name: &str,
        expected: Option<u64>,
    ) -> Result<(Arc<Graph>, u64), ServeError> {
        let (graph, fingerprint) =
            self.get(name).ok_or_else(|| ServeError::UnknownGraph { graph: name.to_string() })?;
        if let Some(requested) = expected {
            if requested != fingerprint {
                return Err(ServeError::StaleFingerprint {
                    graph: name.to_string(),
                    requested,
                    current: fingerprint,
                });
            }
        }
        Ok((graph, fingerprint))
    }

    /// The delta epoch of a registered graph (`0` until the first delta).
    pub fn epoch(&self, name: &str) -> Option<u64> {
        Some(self.version(name)?.read().expect("catalog version lock").epoch)
    }

    /// Applies a validated delta batch to `name`'s current version: installs
    /// the post-delta graph, recomputes the FNV-1a fingerprint, and bumps the
    /// epoch. Lookups from this point on see the new version; holders of the
    /// old `Arc` are undisturbed.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownGraph`] for an unregistered name;
    /// [`ServeError::Solve`] wrapping the structured
    /// [`hybrid_graph::DeltaError`] when the batch fails validation (the
    /// catalog is unchanged).
    pub fn apply_delta(&self, name: &str, batch: &DeltaBatch) -> Result<CatalogUpdate, ServeError> {
        let slot = self
            .version(name)
            .ok_or_else(|| ServeError::UnknownGraph { graph: name.to_string() })?;
        let mut v = slot.write().expect("catalog version lock");
        let new_graph =
            v.graph.apply_delta(batch).map_err(|e| ServeError::Solve(HybridError::Delta(e)))?;
        let old_fingerprint = v.fingerprint;
        let fingerprint = graph_fingerprint(&new_graph);
        let graph = Arc::new(new_graph);
        *v = CatalogVersion { graph: Arc::clone(&graph), fingerprint, epoch: v.epoch + 1 };
        Ok(CatalogUpdate { old_fingerprint, fingerprint, epoch: v.epoch, graph })
    }

    /// Registered names, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured failure of a broker request — overload and admission failures
/// are first-class values here, never silent drops.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named a tenant that was never registered.
    UnknownTenant {
        /// The unregistered tenant name.
        tenant: String,
    },
    /// The request named a graph absent from the catalog.
    UnknownGraph {
        /// The unknown graph name.
        graph: String,
    },
    /// The request pinned a graph fingerprint that a delta has since
    /// superseded. Refused at lookup time — a client reasoning about an old
    /// graph version must learn about the delta explicitly, not receive
    /// answers computed on a graph it never saw.
    StaleFingerprint {
        /// The graph name.
        graph: String,
        /// The fingerprint the client pinned.
        requested: u64,
        /// The catalog's current fingerprint.
        current: u64,
    },
    /// The tenant's queue is at its configured depth; the request was shed
    /// *before* touching any session. The client may retry.
    Overloaded {
        /// The tenant whose queue was full.
        tenant: String,
        /// The configured depth that was hit.
        depth: usize,
    },
    /// The request carried a deadline budget and its admission-queue wait
    /// exhausted it before a slot opened. Counted separately from
    /// [`ServeError::Overloaded`]: overload is an instantaneous full-queue
    /// shed, deadline exhaustion is a timed-out wait.
    DeadlineExceeded {
        /// The tenant whose queue the request waited in.
        tenant: String,
        /// The deadline budget that was exhausted, in milliseconds.
        deadline_ms: u64,
    },
    /// The tenant's circuit breaker is open: enough consecutive failures
    /// accumulated that the broker fails fast instead of burning a slot. The
    /// breaker half-opens deterministically after a fixed number of rejected
    /// requests (request-count-based, not timer-based).
    BreakerOpen {
        /// The tenant whose breaker is open.
        tenant: String,
    },
    /// The solve panicked. The panic was contained (`catch_unwind`), the
    /// serving session was quarantined out of the LRU, and the failure is
    /// surfaced structurally instead of tearing down the worker.
    Internal {
        /// The tenant whose request hit the panic.
        tenant: String,
        /// The query's canonical label.
        query: &'static str,
    },
    /// A served answer did not digest-match the cold solve it must be
    /// bit-identical to. This is a broker invariant violation, not a client
    /// error.
    BitIdentityMismatch {
        /// The query's canonical label.
        query: &'static str,
        /// Digest of the cold reference.
        expected: u64,
        /// Digest of the served report.
        got: u64,
    },
    /// The underlying solve failed; carries the structured solver error
    /// (verified identical to the cold solve's error before propagation).
    Solve(HybridError),
    /// A protocol line could not be parsed.
    Protocol {
        /// What was wrong with the line.
        msg: String,
    },
}

impl ServeError {
    /// Stable machine-readable code used on the wire (`ERR ... code=<this>`).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownTenant { .. } => "unknown-tenant",
            ServeError::UnknownGraph { .. } => "unknown-graph",
            ServeError::StaleFingerprint { .. } => "stale-fingerprint",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::BreakerOpen { .. } => "breaker-open",
            ServeError::Internal { .. } => "internal",
            ServeError::BitIdentityMismatch { .. } => "bit-identity",
            ServeError::Solve(_) => "solve",
            ServeError::Protocol { .. } => "protocol",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            ServeError::UnknownGraph { graph } => write!(f, "unknown graph {graph:?}"),
            ServeError::StaleFingerprint { graph, requested, current } => write!(
                f,
                "graph {graph:?} fingerprint {requested:016x} is stale \
                 (current {current:016x}): re-read the graph before querying"
            ),
            ServeError::Overloaded { tenant, depth } => {
                write!(f, "tenant {tenant:?} overloaded: queue depth {depth} reached")
            }
            ServeError::DeadlineExceeded { tenant, deadline_ms } => write!(
                f,
                "tenant {tenant:?} request shed: {deadline_ms} ms deadline budget exhausted \
                 waiting for admission"
            ),
            ServeError::BreakerOpen { tenant } => {
                write!(f, "tenant {tenant:?} circuit breaker is open: failing fast")
            }
            ServeError::Internal { tenant, query } => write!(
                f,
                "internal error serving {query} for tenant {tenant:?}: solve panicked \
                 (session quarantined)"
            ),
            ServeError::BitIdentityMismatch { query, expected, got } => write!(
                f,
                "bit-identity violation serving {query}: cold digest {expected:016x}, \
                 served digest {got:016x}"
            ),
            ServeError::Solve(e) => write!(f, "solve failed: {e}"),
            ServeError::Protocol { msg } => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<HybridError> for ServeError {
    fn from(e: HybridError) -> Self {
        ServeError::Solve(e)
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Broker-wide configuration: the default seed, network, and the session
/// cache's byte budget.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Default root seed for requests that don't carry their own.
    pub seed: u64,
    /// Simulated network configuration for every session.
    pub net: HybridConfig,
    /// Byte budget of the session LRU, charged at
    /// `SessionStats::prepared_bytes` (floored at 1 KiB per session). When
    /// the resident total exceeds it, least-recently-used sessions are
    /// evicted (the most recent always survives).
    pub session_budget_bytes: usize,
    /// Verify every response against a memoized cold solve (the broker's
    /// bit-identity contract). On mismatch the response is replaced by
    /// [`ServeError::BitIdentityMismatch`]. Disable only for latency
    /// experiments that deliberately skip the referee.
    pub verify: bool,
}

impl BrokerConfig {
    /// Defaults: `ξ`-agnostic, default network, 256 MiB budget, verification
    /// on.
    pub fn new(seed: u64) -> Self {
        BrokerConfig {
            seed,
            net: HybridConfig::default(),
            session_budget_bytes: 256 << 20,
            verify: true,
        }
    }
}

/// Per-tenant admission policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Maximum concurrently admitted requests; request `depth + 1` is shed
    /// with [`ServeError::Overloaded`] (or waits, if it carries a deadline
    /// budget).
    pub max_queue_depth: usize,
    /// Optional fault plan for the tenant's sessions. Any plan that passes
    /// [`FaultPlan::validate`] is accepted — including lossy and corrupting
    /// ones. A non-trivial plan runs every query cold (fault streams are
    /// stateful per run, so preprocessing is never shared) through the
    /// reliable layer, and the cold referee replays the *same* plan, so the
    /// bit-identity contract holds on the chaos path too.
    pub faults: Option<FaultPlan>,
    /// Default deadline budget in milliseconds applied to requests that don't
    /// carry their own `deadline_ms`. `None`: no deadline — a full queue
    /// sheds instantly with [`ServeError::Overloaded`].
    pub default_deadline_ms: Option<u64>,
    /// Circuit breaker: this many *consecutive* request failures (solve
    /// errors, bit-identity mismatches, contained panics — not sheds) open
    /// the breaker. `None` disables the breaker.
    pub breaker_threshold: Option<u32>,
    /// While open, the breaker rejects this many requests with
    /// [`ServeError::BreakerOpen`] and then lets the next one through as a
    /// half-open probe — request-count-based, so the state machine is
    /// deterministic under a deterministic request order.
    pub breaker_cooldown: u32,
    /// Deterministic panic-injection seam for exercising the broker's panic
    /// containment: every `k`-th admitted request of this tenant (1-based)
    /// panics inside the solve path. `None` (the default) injects nothing.
    /// The panic is always contained, surfaced as [`ServeError::Internal`],
    /// and quarantines the serving session.
    pub chaos_panic_every: Option<u64>,
}

impl TenantConfig {
    /// A tenant admitting at most `max_queue_depth` concurrent requests, no
    /// faults, no deadline, breaker disabled.
    pub fn new(max_queue_depth: usize) -> Self {
        TenantConfig {
            max_queue_depth,
            faults: None,
            default_deadline_ms: None,
            breaker_threshold: None,
            breaker_cooldown: 4,
            chaos_panic_every: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------------

/// One in-process broker request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The requesting tenant (must be registered).
    pub tenant: String,
    /// Catalog name of the graph to query.
    pub graph: String,
    /// Root seed override (`None`: the broker default). Part of the session
    /// key — distinct seeds get distinct sessions.
    pub seed: Option<u64>,
    /// The query to serve.
    pub query: Query,
    /// Deadline budget in milliseconds (`None`: the tenant's configured
    /// default, if any). A request whose admission-queue wait exhausts the
    /// budget is shed with [`ServeError::DeadlineExceeded`].
    pub deadline_ms: Option<u64>,
    /// Optional graph-version pin: the fingerprint the client believes the
    /// graph has. If a delta has superseded it, the request is refused with
    /// [`ServeError::StaleFingerprint`] at lookup time. `None`: serve
    /// whatever version is current.
    pub fingerprint: Option<u64>,
}

impl Request {
    /// A request with no seed override, no deadline, and no version pin.
    pub fn new(tenant: &str, graph: &str, query: Query) -> Self {
        Request {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            seed: None,
            query,
            deadline_ms: None,
            fingerprint: None,
        }
    }
}

/// One successful broker response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The full report, bit-identical to a cold solve of the same request.
    /// Shared, not copied: a session-memo hit hands out the memo's own
    /// report.
    pub report: Arc<Report>,
    /// [`report_digest`] of the report — what went on the wire and what was
    /// compared against the cold reference.
    pub digest: u64,
    /// Whether this response was actually checked against the cold referee
    /// (`false` only when [`BrokerConfig::verify`] is off).
    pub verified: bool,
    /// Whether the serving session was already resident (an LRU hit).
    pub session_hit: bool,
}

// ---------------------------------------------------------------------------
// Broker internals
// ---------------------------------------------------------------------------

/// Cache key of a session: who is asking, over what graph, under which seed
/// and skeleton constant. Everything preprocessing depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SessionKey {
    tenant: String,
    fingerprint: u64,
    seed: u64,
    xi_bits: u64,
}

/// A memoized cold reference: the digest a served report must match, or the
/// structured error a cold solve produces (`None` until the first request
/// computes it).
#[derive(Default)]
struct ColdRef {
    expected: Option<Result<u64, HybridError>>,
    /// The report object last found equal to `expected`, so that serving the
    /// same object again reuses its digest instead of re-hashing it. Held by
    /// `Weak`: the allocation, and so the address, cannot be reused while
    /// this handle lives, yet the report's buffers are freed when its last
    /// owner drops it. A shared report cannot change either (`Arc::get_mut`
    /// refuses while a `Weak` exists), so an address match is a content
    /// match.
    matched: Weak<Report>,
}

type ColdCell = Arc<Mutex<ColdRef>>;

/// Failure of one coalesced solve, as stored in the batch results map: a
/// structured solver error, or a contained panic that poisoned the whole
/// batch.
#[derive(Debug, Clone)]
enum BatchError {
    Solve(HybridError),
    Panicked,
}

/// Coalescing state of one session: queued queries waiting for a leader, and
/// finished results waiting for their owners.
struct BatchState {
    next_ticket: u64,
    pending: Vec<(u64, Query)>,
    results: HashMap<u64, Result<Arc<Report>, BatchError>>,
    leader: bool,
    /// Set when a queued request carries a chaos panic injection; the next
    /// batch leader panics inside its (contained) solve call.
    chaos: bool,
}

/// One resident session plus its coalescing and verification state.
struct SessionEntry {
    session: Session,
    /// Tenant fault plan — replayed on the cold referee net so the
    /// bit-identity contract holds on the chaos path too.
    faults: Option<FaultPlan>,
    /// LRU stamp: monotonically bumped on every acquisition.
    stamp: AtomicU64,
    /// Last settled `prepared_bytes` (floored at [`MIN_ENTRY_BYTES`]).
    bytes: AtomicUsize,
    batch: Mutex<BatchState>,
    batch_cv: Condvar,
    /// Memoized cold references: canonical query spec → digest (or the
    /// structured error a cold solve produces). Computed at most once per
    /// distinct query per session; every response is compared against it,
    /// and each served report object is hashed once.
    cold: Mutex<HashMap<String, ColdCell>>,
}

/// The per-tenant circuit breaker's deterministic state machine. Transitions
/// are driven by request outcomes and request *counts*, never timers, so a
/// deterministic request order produces a deterministic breaker trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: counting consecutive failures.
    Closed {
        /// Consecutive failures so far.
        consecutive: u32,
    },
    /// Tripped: rejecting requests until enough have been turned away to
    /// earn a half-open probe.
    Open {
        /// Requests rejected since the breaker opened.
        rejected: u32,
    },
    /// One probe request is in flight; its outcome closes or re-opens the
    /// breaker. Concurrent requests are rejected meanwhile.
    HalfOpen,
}

/// Per-tenant admission state.
struct TenantState {
    cfg: TenantConfig,
    inflight: AtomicUsize,
    shed: AtomicU64,
    /// Requests shed because their deadline budget ran out while waiting.
    deadline_shed: AtomicU64,
    breaker: Mutex<BreakerState>,
    /// Signalled whenever an admission slot frees up, waking deadline
    /// waiters.
    slot_cv: Condvar,
    /// Companion lock of `slot_cv` (the inflight counter itself stays
    /// atomic; this mutex only sequences the waits).
    slot_lock: Mutex<()>,
    /// Admitted-request ordinal, driving the deterministic
    /// [`TenantConfig::chaos_panic_every`] injection seam.
    requests: AtomicU64,
}

/// RAII decrement of a tenant's inflight counter; keeps the tenant state
/// alive for as long as the request is admitted.
struct AdmitGuard {
    state: Arc<TenantState>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(1, Ordering::AcqRel);
        // Wake any deadline-budgeted request waiting for this slot.
        let _held = self.state.slot_lock.lock().expect("slot lock");
        self.state.slot_cv.notify_all();
    }
}

/// Cumulative broker counters (a consistent-enough snapshot of atomics; see
/// [`Broker::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Successfully served responses.
    pub served: u64,
    /// Requests shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests shed with [`ServeError::DeadlineExceeded`] (deadline budget
    /// exhausted waiting for admission) — disjoint from `shed`.
    pub deadline_shed: u64,
    /// Circuit-breaker open transitions: threshold trips plus failed
    /// half-open probes.
    pub breaker_opens: u64,
    /// Half-open probe requests let through while a breaker was open.
    pub breaker_probes: u64,
    /// Sessions quarantined out of the LRU after a contained solve panic.
    pub quarantined: u64,
    /// Served responses whose guarantee was `Guarantee::Degraded` — answers
    /// that are correct and verified but carry an explicit degradation.
    pub degraded_served: u64,
    /// Requests admitted to an already-resident session (LRU hits).
    pub session_hits: u64,
    /// Sessions created (LRU misses).
    pub sessions_admitted: u64,
    /// Sessions evicted by the byte budget.
    pub sessions_evicted: u64,
    /// Currently resident sessions.
    pub resident_sessions: usize,
    /// Total bytes currently charged against the session budget.
    pub session_bytes: usize,
    /// Responses checked against the cold referee.
    pub verified: u64,
    /// Bit-identity violations detected (must stay 0).
    pub mismatches: u64,
    /// Coalesced `solve_batch` calls issued by batch leaders.
    pub batches: u64,
    /// Queries that went through those coalesced calls.
    pub batched_queries: u64,
    /// Largest single coalesced batch.
    pub max_batch: u64,
    /// Sum of `SessionStats::queries` over resident sessions.
    pub session_queries: u64,
    /// Sum of `SessionStats::report_hits` over resident sessions.
    pub session_report_hits: u64,
    /// Delta operations applied through [`Broker::update`].
    pub deltas_applied: u64,
    /// Resident sessions migrated across a delta on the incremental patch
    /// path (damage analysis held).
    pub repair_patched: u64,
    /// Resident sessions migrated across a delta via the full re-prepare
    /// fallback.
    pub repair_full: u64,
    /// Requests refused with [`ServeError::StaleFingerprint`] because they
    /// pinned a superseded graph version.
    pub stale_epoch_refused: u64,
}

/// The multi-tenant serving front-end (see the crate docs for the contract
/// and an end-to-end example). Shared by reference across client threads —
/// every public method takes `&self`.
pub struct Broker<'g> {
    catalog: &'g GraphCatalog,
    cfg: BrokerConfig,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    lru: Mutex<HashMap<SessionKey, Arc<SessionEntry>>>,
    lru_clock: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    deadline_shed: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_probes: AtomicU64,
    quarantined: AtomicU64,
    degraded_served: AtomicU64,
    session_hits: AtomicU64,
    sessions_admitted: AtomicU64,
    sessions_evicted: AtomicU64,
    verified: AtomicU64,
    mismatches: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    max_batch: AtomicU64,
    deltas_applied: AtomicU64,
    repair_patched: AtomicU64,
    repair_full: AtomicU64,
    stale_epoch_refused: AtomicU64,
}

/// The `ξ` a query pins its session to (every variant carries the field; the
/// LOCAL baselines ignore it at solve time but still cache under it).
fn query_xi(q: &Query) -> f64 {
    match q {
        Query::Apsp { xi, .. }
        | Query::Sssp { xi, .. }
        | Query::Kssp { xi, .. }
        | Query::Diameter { xi, .. } => *xi,
    }
}

impl<'g> Broker<'g> {
    /// A broker over `catalog` with no tenants registered yet.
    pub fn new(catalog: &'g GraphCatalog, cfg: BrokerConfig) -> Self {
        Broker {
            catalog,
            cfg,
            tenants: Mutex::new(HashMap::new()),
            lru: Mutex::new(HashMap::new()),
            lru_clock: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_probes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
            session_hits: AtomicU64::new(0),
            sessions_admitted: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            repair_patched: AtomicU64::new(0),
            repair_full: AtomicU64::new(0),
            stale_epoch_refused: AtomicU64::new(0),
        }
    }

    /// Registers `tenant` under `cfg`.
    ///
    /// Any fault plan that passes [`FaultPlan::validate`] is accepted —
    /// lossy and corrupting plans included. A faulty tenant's queries run
    /// cold through the reliable layer, and the cold referee replays the
    /// *same* plan, so the bit-identity contract holds on the chaos path
    /// too (responses may carry `Guarantee::Degraded`, surfaced on the
    /// wire).
    ///
    /// # Errors
    ///
    /// [`ServeError::Solve`] wrapping the session layer's own validation
    /// error for a structurally invalid plan (the same path `Session::new`
    /// takes) — e.g. an out-of-range drop or corruption probability.
    pub fn register_tenant(&self, tenant: &str, cfg: TenantConfig) -> Result<(), ServeError> {
        if let Some(plan) = &cfg.faults {
            // Same validation a Session::new would run, surfaced eagerly.
            plan.validate().map_err(|e| ServeError::Solve(HybridError::Sim(e)))?;
        }
        let state = Arc::new(TenantState {
            cfg,
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            breaker: Mutex::new(BreakerState::Closed { consecutive: 0 }),
            slot_cv: Condvar::new(),
            slot_lock: Mutex::new(()),
            requests: AtomicU64::new(0),
        });
        self.tenants.lock().expect("tenant table lock").insert(tenant.to_string(), state);
        Ok(())
    }

    /// Requests shed so far for `tenant` (`None` if unregistered).
    pub fn tenant_shed(&self, tenant: &str) -> Option<u64> {
        let tenants = self.tenants.lock().expect("tenant table lock");
        tenants.get(tenant).map(|t| t.shed.load(Ordering::Relaxed))
    }

    /// Requests deadline-shed so far for `tenant` (`None` if unregistered).
    pub fn tenant_deadline_shed(&self, tenant: &str) -> Option<u64> {
        let tenants = self.tenants.lock().expect("tenant table lock");
        tenants.get(tenant).map(|t| t.deadline_shed.load(Ordering::Relaxed))
    }

    /// Breaker state per breaker-enabled tenant, sorted by tenant name:
    /// `"closed"`, `"open"`, or `"half-open"`. Tenants without a configured
    /// [`TenantConfig::breaker_threshold`] are omitted.
    pub fn breaker_states(&self) -> Vec<(String, &'static str)> {
        let tenants = self.tenants.lock().expect("tenant table lock");
        let mut out: Vec<(String, &'static str)> = tenants
            .iter()
            .filter(|(_, s)| s.cfg.breaker_threshold.is_some())
            .map(|(name, s)| {
                let label = match *s.breaker.lock().expect("breaker lock") {
                    BreakerState::Closed { .. } => "closed",
                    BreakerState::Open { .. } => "open",
                    BreakerState::HalfOpen => "half-open",
                };
                (name.clone(), label)
            })
            .collect();
        out.sort();
        out
    }

    /// A snapshot of the broker's cumulative counters.
    pub fn stats(&self) -> BrokerStats {
        let (resident, bytes, queries, hits) = {
            let lru = self.lru.lock().expect("session cache lock");
            let mut bytes = 0usize;
            let mut queries = 0u64;
            let mut hits = 0u64;
            for entry in lru.values() {
                bytes += entry.bytes.load(Ordering::Relaxed);
                let s = entry.session.stats();
                queries += s.queries;
                hits += s.report_hits;
            }
            (lru.len(), bytes, queries, hits)
        };
        BrokerStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            session_hits: self.session_hits.load(Ordering::Relaxed),
            sessions_admitted: self.sessions_admitted.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            resident_sessions: resident,
            session_bytes: bytes,
            verified: self.verified.load(Ordering::Relaxed),
            mismatches: self.mismatches.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_queries: self.batched_queries.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            session_queries: queries,
            session_report_hits: hits,
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            repair_patched: self.repair_patched.load(Ordering::Relaxed),
            repair_full: self.repair_full.load(Ordering::Relaxed),
            stale_epoch_refused: self.stale_epoch_refused.load(Ordering::Relaxed),
        }
    }

    /// Looks up a registered tenant's shared state.
    fn tenant_state(&self, tenant: &str) -> Result<Arc<TenantState>, ServeError> {
        let tenants = self.tenants.lock().expect("tenant table lock");
        tenants
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant { tenant: tenant.to_string() })
    }

    /// The breaker's admission-side gate, run before a slot is claimed.
    /// Returns whether this request is a half-open probe, or fails fast with
    /// [`ServeError::BreakerOpen`].
    fn breaker_gate(&self, state: &TenantState, tenant: &str) -> Result<bool, ServeError> {
        if state.cfg.breaker_threshold.is_none() {
            return Ok(false);
        }
        let mut b = state.breaker.lock().expect("breaker lock");
        match *b {
            BreakerState::Closed { .. } => Ok(false),
            BreakerState::Open { rejected } => {
                if rejected >= state.cfg.breaker_cooldown {
                    *b = BreakerState::HalfOpen;
                    self.breaker_probes.fetch_add(1, Ordering::Relaxed);
                    Ok(true)
                } else {
                    *b = BreakerState::Open { rejected: rejected + 1 };
                    Err(ServeError::BreakerOpen { tenant: tenant.to_string() })
                }
            }
            // One probe is already in flight; fail fast without counting
            // toward the next probe (its outcome decides the transition).
            BreakerState::HalfOpen => Err(ServeError::BreakerOpen { tenant: tenant.to_string() }),
        }
    }

    /// The breaker's outcome side, run after the request resolved. Solve
    /// errors, bit-identity mismatches, and contained panics count as
    /// failures; sheds and bad names are neutral (but release a dangling
    /// half-open probe so the next request re-probes immediately); success
    /// closes the breaker.
    fn breaker_settle(
        &self,
        state: &TenantState,
        probe: bool,
        outcome: &Result<Response, ServeError>,
    ) {
        let Some(threshold) = state.cfg.breaker_threshold else { return };
        let failed = match outcome {
            Ok(_) => false,
            Err(
                ServeError::Solve(_)
                | ServeError::BitIdentityMismatch { .. }
                | ServeError::Internal { .. },
            ) => true,
            // Sheds, unknown names, protocol noise: not evidence about the
            // tenant's solve health.
            Err(_) => {
                if probe {
                    let mut b = state.breaker.lock().expect("breaker lock");
                    if *b == BreakerState::HalfOpen {
                        *b = BreakerState::Open { rejected: state.cfg.breaker_cooldown };
                    }
                }
                return;
            }
        };
        let mut b = state.breaker.lock().expect("breaker lock");
        if failed {
            let opened = match *b {
                BreakerState::Closed { consecutive } => {
                    let consecutive = consecutive + 1;
                    if consecutive >= threshold {
                        *b = BreakerState::Open { rejected: 0 };
                        true
                    } else {
                        *b = BreakerState::Closed { consecutive };
                        false
                    }
                }
                // The probe failed: re-open (counted as another open).
                BreakerState::HalfOpen => {
                    *b = BreakerState::Open { rejected: 0 };
                    true
                }
                // A straggler admitted before the trip; the breaker is
                // already open.
                BreakerState::Open { .. } => false,
            };
            if opened {
                self.breaker_opens.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            // Any success is evidence of health — probe or straggler alike.
            *b = BreakerState::Closed { consecutive: 0 };
        }
    }

    /// Admission control: bounded per-tenant concurrency. Returns an RAII
    /// guard holding the slot (and the tenant state). Without a deadline
    /// budget a full queue sheds instantly with [`ServeError::Overloaded`];
    /// with one, the request waits for a slot until the budget runs out and
    /// then sheds with [`ServeError::DeadlineExceeded`].
    fn admit(&self, state: &Arc<TenantState>, req: &Request) -> Result<AdmitGuard, ServeError> {
        let deadline_ms = req.deadline_ms.or(state.cfg.default_deadline_ms);
        let mut wait_start: Option<Instant> = None;
        loop {
            let prev = state.inflight.fetch_add(1, Ordering::AcqRel);
            if prev < state.cfg.max_queue_depth {
                return Ok(AdmitGuard { state: Arc::clone(state) });
            }
            state.inflight.fetch_sub(1, Ordering::AcqRel);
            let Some(budget) = deadline_ms else {
                state.shed.fetch_add(1, Ordering::Relaxed);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    tenant: req.tenant.clone(),
                    depth: state.cfg.max_queue_depth,
                });
            };
            let start = *wait_start.get_or_insert_with(Instant::now);
            let remaining = Duration::from_millis(budget).checked_sub(start.elapsed());
            let Some(remaining) = remaining.filter(|d| !d.is_zero()) else {
                state.deadline_shed.fetch_add(1, Ordering::Relaxed);
                self.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded {
                    tenant: req.tenant.clone(),
                    deadline_ms: budget,
                });
            };
            // Re-check under the slot lock: AdmitGuard::drop notifies under
            // the same lock, so a slot freed between the failed claim above
            // and the wait below cannot be missed.
            let held = state.slot_lock.lock().expect("slot lock");
            if state.inflight.load(Ordering::Acquire) < state.cfg.max_queue_depth {
                continue;
            }
            let _ = state.slot_cv.wait_timeout(held, remaining).expect("slot lock");
        }
    }

    /// Removes a panicked session from the LRU — its internal state can no
    /// longer be trusted — and counts the quarantine once. In-flight holders
    /// of the same entry finish on their own `Arc` clone and fail contained
    /// as well.
    fn quarantine(&self, key: &SessionKey) {
        let mut lru = self.lru.lock().expect("session cache lock");
        if lru.remove(key).is_some() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wraps an owned session in a fresh LRU entry.
    fn fresh_entry(session: Session, faults: Option<FaultPlan>, stamp: u64) -> Arc<SessionEntry> {
        Arc::new(SessionEntry {
            session,
            faults,
            stamp: AtomicU64::new(stamp),
            bytes: AtomicUsize::new(MIN_ENTRY_BYTES),
            batch: Mutex::new(BatchState {
                next_ticket: 0,
                pending: Vec::new(),
                results: HashMap::new(),
                leader: false,
                chaos: false,
            }),
            batch_cv: Condvar::new(),
            cold: Mutex::new(HashMap::new()),
        })
    }

    /// Finds or creates the session for `key`, bumping its LRU stamp.
    fn acquire_session(
        &self,
        key: SessionKey,
        graph: Arc<Graph>,
        faults: Option<FaultPlan>,
    ) -> Result<(Arc<SessionEntry>, bool), ServeError> {
        let stamp = self.lru_clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut lru = self.lru.lock().expect("session cache lock");
        if let Some(entry) = lru.get(&key) {
            entry.stamp.store(stamp, Ordering::Relaxed);
            self.session_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(entry), true));
        }
        let scfg = SessionConfig {
            seed: key.seed,
            xi: f64::from_bits(key.xi_bits),
            net: self.cfg.net,
            faults: faults.clone(),
            ..SessionConfig::new(key.seed)
        };
        let session = Session::shared(graph, scfg)?;
        let entry = Self::fresh_entry(session, faults, stamp);
        lru.insert(key, Arc::clone(&entry));
        self.sessions_admitted.fetch_add(1, Ordering::Relaxed);
        Ok((entry, false))
    }

    /// Settles `entry`'s byte charge from its session stats, then evicts
    /// least-recently-used sessions until the resident total fits the budget
    /// (the most recently used session always survives, however large).
    fn settle_and_evict(&self, entry: &SessionEntry) {
        let bytes = entry.session.stats().prepared_bytes.max(MIN_ENTRY_BYTES);
        entry.bytes.store(bytes, Ordering::Relaxed);
        let mut lru = self.lru.lock().expect("session cache lock");
        loop {
            if lru.len() <= 1 {
                return;
            }
            let total: usize = lru.values().map(|e| e.bytes.load(Ordering::Relaxed)).sum();
            if total <= self.cfg.session_budget_bytes {
                return;
            }
            let victim = lru
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("non-empty cache");
            lru.remove(&victim);
            self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serves `query` on `entry` through the coalescing layer: the query is
    /// queued, one thread becomes the batch leader and drives every queued
    /// query through a single [`Session::solve_batch`] call (whose scoped
    /// worker pool shards the distinct queries), and everyone picks up their
    /// own result.
    /// The leader's solve call runs under `catch_unwind`: a panic (injected
    /// or organic) poisons the whole coalesced batch — every member gets
    /// [`BatchError::Panicked`] — but the leader flag is always reset and
    /// waiters always wake, so the coalescing layer survives the panic.
    fn serve_on_entry(
        &self,
        entry: &SessionEntry,
        query: &Query,
        chaos_panic: bool,
    ) -> Result<Arc<Report>, BatchError> {
        let ticket = {
            let mut b = entry.batch.lock().expect("batch lock");
            let t = b.next_ticket;
            b.next_ticket += 1;
            b.pending.push((t, query.clone()));
            b.chaos |= chaos_panic;
            t
        };
        let mut b = entry.batch.lock().expect("batch lock");
        loop {
            if let Some(result) = b.results.remove(&ticket) {
                return result;
            }
            if !b.leader {
                b.leader = true;
                let batch = std::mem::take(&mut b.pending);
                let chaos = std::mem::replace(&mut b.chaos, false);
                drop(b);
                let queries: Vec<Query> = batch.iter().map(|(_, q)| q.clone()).collect();
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    if chaos {
                        panic!("chaos: injected solve panic");
                    }
                    entry.session.solve_batch(&queries)
                }));
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.batched_queries.fetch_add(batch.len() as u64, Ordering::Relaxed);
                self.max_batch.fetch_max(batch.len() as u64, Ordering::Relaxed);
                let mut done = entry.batch.lock().expect("batch lock");
                match solved {
                    Ok(results) => {
                        for ((t, _), r) in batch.into_iter().zip(results) {
                            done.results.insert(t, r.map_err(BatchError::Solve));
                        }
                    }
                    Err(_) => {
                        for (t, _) in batch {
                            done.results.insert(t, Err(BatchError::Panicked));
                        }
                    }
                }
                done.leader = false;
                entry.batch_cv.notify_all();
                b = done;
            } else {
                b = entry.batch_cv.wait(b).expect("batch lock");
            }
        }
    }

    /// The cold referee: solves `query` from zero on a net configured exactly
    /// like the session's (`HybridConfig`, round threads, trivial fault
    /// plan), memoized per distinct query. The referee always runs on *the
    /// session's own graph* — the epoch the session is serving — so a
    /// catalog delta applied mid-flight can never make it compare against
    /// the wrong graph version. Returns the query's cell, holding the digest
    /// a served report must match or the structured error a cold solve
    /// produces.
    fn cold_reference(&self, entry: &SessionEntry, seed: u64, query: &Query) -> ColdCell {
        let spec = crate::protocol::query_spec(query);
        let cell = {
            let mut cold = entry.cold.lock().expect("cold referee map lock");
            Arc::clone(cold.entry(spec).or_default())
        };
        let mut slot = cell.lock().expect("cold referee cell lock");
        if slot.expected.is_none() {
            let mut net = HybridNet::new(entry.session.graph(), self.cfg.net);
            if let Some(plan) = &entry.faults {
                net.inject_faults(plan).expect("fault plan validated at registration");
            }
            slot.expected = Some(solve(&mut net, query, seed).map(|r| report_digest(&r)));
        }
        drop(slot);
        cell
    }

    /// Compares a served result against its cold reference `cell` and
    /// counts the comparison in `verified`. A report that is the very object
    /// last found equal reuses that digest; any other report is hashed and
    /// compared, and becomes the remembered object when it matches.
    /// Divergence counts in `mismatches` and fails with
    /// [`ServeError::BitIdentityMismatch`]; equal solve errors pass through
    /// as [`ServeError::Solve`].
    fn check_against_cold(
        &self,
        cell: &Mutex<ColdRef>,
        query: &'static str,
        served: Result<Arc<Report>, HybridError>,
    ) -> Result<(Arc<Report>, u64), ServeError> {
        self.verified.fetch_add(1, Ordering::Relaxed);
        let (expected, matched) = {
            let slot = cell.lock().expect("cold referee cell lock");
            let expected = slot.expected.clone().expect("cold reference computed");
            (expected, slot.matched.as_ptr())
        };
        let mismatch = |expected: Result<u64, HybridError>, got: u64| {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            ServeError::BitIdentityMismatch { query, expected: expected.unwrap_or(0), got }
        };
        match (served, expected) {
            (Ok(report), Ok(expected)) => {
                if std::ptr::eq(Arc::as_ptr(&report), matched) {
                    return Ok((report, expected));
                }
                let digest = report_digest(&report);
                if digest != expected {
                    return Err(mismatch(Ok(expected), digest));
                }
                cell.lock().expect("cold referee cell lock").matched = Arc::downgrade(&report);
                Ok((report, digest))
            }
            (Err(served), Err(cold)) if served == cold => Err(ServeError::Solve(served)),
            (served, expected) => Err(mismatch(expected, served.map_or(0, |r| report_digest(&r)))),
        }
    }

    /// Serves one request end to end: breaker gate, admission, session
    /// acquisition, coalesced solve (panic-contained), online bit-identity
    /// verification, breaker settlement, LRU settlement.
    ///
    /// # Errors
    ///
    /// Structured, always: [`ServeError::Overloaded`] or
    /// [`ServeError::DeadlineExceeded`] under admission pressure,
    /// [`ServeError::BreakerOpen`] while the tenant's breaker is tripped,
    /// [`ServeError::UnknownTenant`]/[`ServeError::UnknownGraph`] for bad
    /// names, [`ServeError::Solve`] for solver errors (verified identical
    /// to the cold solve's), [`ServeError::Internal`] for a contained solve
    /// panic (the session is quarantined),
    /// [`ServeError::BitIdentityMismatch`] if a served answer ever diverges
    /// from its cold reference.
    pub fn serve(&self, req: &Request) -> Result<Response, ServeError> {
        let state = self.tenant_state(&req.tenant)?;
        let probe = self.breaker_gate(&state, &req.tenant)?;
        let outcome = self.serve_admitted(&state, req);
        self.breaker_settle(&state, probe, &outcome);
        outcome
    }

    /// The post-breaker serving path: admission through LRU settlement.
    fn serve_admitted(
        &self,
        state: &Arc<TenantState>,
        req: &Request,
    ) -> Result<Response, ServeError> {
        let guard = self.admit(state, req)?;
        let (graph, fingerprint) =
            self.catalog.get_pinned(&req.graph, req.fingerprint).inspect_err(|e| {
                if matches!(e, ServeError::StaleFingerprint { .. }) {
                    self.stale_epoch_refused.fetch_add(1, Ordering::Relaxed);
                }
            })?;
        let seed = req.seed.unwrap_or(self.cfg.seed);
        let key = SessionKey {
            tenant: req.tenant.clone(),
            fingerprint,
            seed,
            xi_bits: query_xi(&req.query).to_bits(),
        };
        let (entry, session_hit) =
            self.acquire_session(key.clone(), graph, guard.state.cfg.faults.clone())?;
        let ordinal = guard.state.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let chaos_panic =
            guard.state.cfg.chaos_panic_every.is_some_and(|k| k > 0 && ordinal % k == 0);
        let result = match self.serve_on_entry(&entry, &req.query, chaos_panic) {
            Ok(report) => Ok(report),
            Err(BatchError::Solve(e)) => Err(e),
            Err(BatchError::Panicked) => {
                self.quarantine(&key);
                return Err(ServeError::Internal {
                    tenant: req.tenant.clone(),
                    query: req.query.label(),
                });
            }
        };
        let response = if self.cfg.verify {
            let cell = self.cold_reference(&entry, seed, &req.query);
            self.check_against_cold(&cell, req.query.label(), result)
                .map(|(report, digest)| Response { report, digest, verified: true, session_hit })
        } else {
            match result {
                Ok(report) => {
                    let digest = report_digest(&report);
                    Ok(Response { report, digest, verified: false, session_hit })
                }
                Err(e) => Err(ServeError::Solve(e)),
            }
        };
        if let Ok(resp) = &response {
            self.served.fetch_add(1, Ordering::Relaxed);
            if matches!(resp.report.guarantee, Guarantee::Degraded { .. }) {
                self.degraded_served.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.settle_and_evict(&entry);
        response
    }

    /// Applies a graph delta on behalf of `tenant`: validates and installs
    /// the post-delta graph in the catalog (new fingerprint, epoch + 1), then
    /// migrates every resident session serving the old version through
    /// [`Session::apply_delta`] — incremental patch or verified full
    /// re-prepare, counted separately — and rekeys it under the new
    /// fingerprint.
    ///
    /// In-flight queries admitted before the update finish on their own
    /// `Arc` of the old-epoch session (and are verified against *that*
    /// epoch's graph); every admission from here on resolves the catalog to
    /// the new version.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] / [`ServeError::UnknownGraph`] for bad
    /// names; [`ServeError::Solve`] wrapping the structured
    /// [`hybrid_graph::DeltaError`] when the batch fails validation (catalog
    /// and sessions unchanged).
    pub fn update(
        &self,
        tenant: &str,
        graph: &str,
        batch: &DeltaBatch,
    ) -> Result<UpdateOutcome, ServeError> {
        self.tenant_state(tenant)?;
        let cat = self.catalog.apply_delta(graph, batch)?;
        self.deltas_applied.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Migrate resident sessions off the superseded version. The stale
        // entries leave the LRU immediately (no new admission can reach them
        // — lookups now resolve to the new fingerprint); in-flight holders
        // finish on their Arc clones.
        let stale: Vec<(SessionKey, Arc<SessionEntry>)> = {
            let mut lru = self.lru.lock().expect("session cache lock");
            let keys: Vec<SessionKey> =
                lru.keys().filter(|k| k.fingerprint == cat.old_fingerprint).cloned().collect();
            keys.into_iter()
                .map(|k| {
                    let e = lru.remove(&k).expect("key collected above");
                    (k, e)
                })
                .collect()
        };
        let mut outcome = UpdateOutcome {
            graph: graph.to_string(),
            fingerprint: cat.fingerprint,
            epoch: cat.epoch,
            migrated: 0,
            patched: 0,
            full: 0,
        };
        for (key, entry) in stale {
            let (session, repair) = entry.session.apply_delta(batch).map_err(ServeError::Solve)?;
            outcome.migrated += 1;
            outcome.patched += repair.patched;
            outcome.full += repair.full;
            self.repair_patched.fetch_add(repair.patched as u64, Ordering::Relaxed);
            self.repair_full.fetch_add(repair.full as u64, Ordering::Relaxed);
            let stamp = entry.stamp.load(Ordering::Relaxed);
            let migrated = Self::fresh_entry(session, entry.faults.clone(), stamp);
            let new_key = SessionKey { fingerprint: cat.fingerprint, ..key };
            let mut lru = self.lru.lock().expect("session cache lock");
            // A concurrent admission may have built the new-epoch session
            // already; keep whichever is resident (both are bit-identical by
            // the repair contract).
            lru.entry(new_key).or_insert(migrated);
        }
        Ok(outcome)
    }
}

/// Outcome of one [`Broker::update`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The updated graph's catalog name.
    pub graph: String,
    /// Fingerprint of the post-delta graph (what future requests may pin).
    pub fingerprint: u64,
    /// The graph's new delta epoch.
    pub epoch: u64,
    /// Resident sessions migrated across the delta.
    pub migrated: usize,
    /// Preambles migrated on the incremental patch path, summed over those
    /// sessions.
    pub patched: usize,
    /// Preambles that took the full re-prepare fallback, summed over those
    /// sessions.
    pub full: usize,
}

#[cfg(test)]
mod tests {
    use hybrid_core::solver::Answer;
    use hybrid_graph::generators::grid;
    use hybrid_graph::NodeId;

    use super::*;

    #[test]
    fn digest_reuse_covers_only_the_object_last_found_equal() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(5, 5, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(1)).unwrap();
        let q = Query::sssp(NodeId::new(0)).build().unwrap();
        let served = broker.serve(&Request::new("t", "g", q.clone())).unwrap();
        let entry = broker.lru.lock().unwrap().values().next().cloned().unwrap();
        let cell = broker.cold_reference(&entry, 7, &q);
        let remembered =
            |r: &Arc<Report>| std::ptr::eq(cell.lock().unwrap().matched.as_ptr(), Arc::as_ptr(r));
        assert!(remembered(&served.report), "the served report is remembered");
        let label = q.label();

        // The remembered object itself: its digest is reused.
        let (_, digest) =
            broker.check_against_cold(&cell, label, Ok(Arc::clone(&served.report))).unwrap();
        assert_eq!(digest, served.digest);

        // Equal content in another allocation: hashed, accepted, remembered.
        let copy = Arc::new(Report::clone(&served.report));
        let (_, digest) = broker.check_against_cold(&cell, label, Ok(Arc::clone(&copy))).unwrap();
        assert_eq!(digest, served.digest);
        assert!(remembered(&copy), "an equal copy is re-hashed and becomes the remembered object");

        // One distance changed: hashed and refused.
        let mut tampered = Report::clone(&served.report);
        let Answer::DistanceRow { dist, .. } = &mut tampered.answer else {
            panic!("SSSP answers are distance rows")
        };
        dist[1] += 1;
        let tampered = Arc::new(tampered);
        let err = broker.check_against_cold(&cell, label, Ok(Arc::clone(&tampered))).unwrap_err();
        assert_eq!(
            err,
            ServeError::BitIdentityMismatch {
                query: label,
                expected: served.digest,
                got: report_digest(&tampered),
            }
        );
        assert!(remembered(&copy), "a refused report is never remembered");
        let stats = broker.stats();
        assert_eq!((stats.verified, stats.mismatches), (4, 1), "every check is counted");
    }
}
