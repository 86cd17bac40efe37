//! The serving gates: closed-loop broker load from the deterministic load
//! generator over two registry graphs at n = 48, every served response
//! verified bit-identical to a cold solve online. Three workloads:
//!
//! * `serve-mixed` — two tenants with comfortable queue depth and the
//!   default session budget; the cache-friendly steady state.
//! * `serve-tight` — three depth-1 tenants under a byte budget that any two
//!   resident sessions overflow; admission pressure and LRU eviction on the
//!   same request mix. Clients retry overloads with deterministic backoff.
//! * `serve-chaos` — a healthy tenant, a lossy+corrupting tenant, a crashing
//!   tenant whose answers come back explicitly degraded, and a panicking
//!   tenant behind a circuit breaker, all under deadline budgets.
//!
//! Every workload must account for every request (served, shed,
//! deadline-shed, breaker-rejected or failed — no silent loss), serve with
//! zero bit-identity mismatches (which is also how corruption that slipped
//! past the reliable layer's checksums would surface), verify every served
//! response, and keep its breaker counters self-consistent.

use hybrid_bench::experiments::mixed_query_batch;
use hybrid_shortest_paths::graph::NodeId;
use hybrid_shortest_paths::scenarios;
use hybrid_shortest_paths::serve::{run_load, LoadReport, LoadSpec};
use hybrid_shortest_paths::sim::{Crash, FaultPlan};
use hybrid_shortest_paths::{
    Broker, BrokerConfig, GraphCatalog, Session, SessionConfig, TenantConfig,
};

const N: usize = 48;

/// The registry graphs every workload serves.
fn catalog() -> GraphCatalog {
    let mut catalog = GraphCatalog::new();
    catalog.insert("e2-er", scenarios::find("e2-er").unwrap().graph(N));
    catalog.insert("sparse-grid", scenarios::find("sparse-grid-thm11").unwrap().graph(N));
    catalog
}

fn graphs() -> Vec<String> {
    vec!["e2-er".into(), "sparse-grid".into()]
}

/// The checks every workload must pass.
fn assert_served_and_accounted(r: &LoadReport) {
    let name = &r.name;
    assert_eq!(
        r.served + r.shed + r.deadline_shed + r.breaker_rejected + r.failed,
        r.issued,
        "{name}: every request must be accounted"
    );
    assert_eq!(r.stats.mismatches, 0, "{name}: bit-identity must hold");
    assert!(r.stats.verified >= r.served, "{name}: every served response is verified");
    assert!(r.served > 0 && r.qps > 0.0, "{name}: the loop must make progress");
    // A probe can only follow an open, and a rejection can only come from an
    // open breaker.
    assert!(r.stats.breaker_probes <= r.stats.breaker_opens, "{name}: probe without open");
    assert!(
        r.breaker_rejected == 0 || r.stats.breaker_opens > 0,
        "{name}: breaker rejection without any breaker open"
    );
}

/// Healthy workloads register no faults and no breaker tenants, so nothing
/// may fail and no chaos counter may move.
fn assert_no_chaos(r: &LoadReport) {
    assert_eq!(r.failed, 0, "{}: healthy workloads must not fail", r.name);
    assert_eq!(
        (r.stats.breaker_opens, r.stats.quarantined, r.degraded_served),
        (0, 0, 0),
        "{}: healthy workload leaked chaos counters (opens, quarantined, degraded)",
        r.name
    );
}

#[test]
fn serve_mixed_hits_resident_sessions() {
    let catalog = catalog();
    let broker = Broker::new(&catalog, BrokerConfig::new(7));
    for tenant in ["acme", "globex"] {
        broker.register_tenant(tenant, TenantConfig::new(4)).unwrap();
    }
    let r = run_load(
        &broker,
        &LoadSpec {
            name: "serve-mixed".into(),
            clients: 4,
            requests_per_client: 6,
            tenants: vec!["acme".into(), "globex".into()],
            graphs: graphs(),
            queries: mixed_query_batch(8),
            seed: 7,
            retries: 0,
            retry_backoff_ms: 0,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        },
    );
    assert_served_and_accounted(&r);
    assert_no_chaos(&r);
    assert!(r.stats.session_hits > 0, "steady-state mix must hit resident sessions");
}

#[test]
fn serve_tight_evicts_under_its_byte_budget() {
    let catalog = catalog();
    let queries = mixed_query_batch(8);
    // The smallest footprint a resident session can have: one query solved
    // on a fresh session, minimised over both graphs and every query. A
    // session's prepared artifacts only grow, so a budget below twice this
    // is overflowed by any two resident sessions, and eviction must fire
    // however many requests the depth-1 tenants shed.
    let smallest = ["e2-er", "sparse-grid"]
        .into_iter()
        .flat_map(|name| {
            let (g, _) = catalog.get(name).unwrap();
            queries.iter().map(move |q| {
                let session = Session::new(&g, SessionConfig::new(7)).unwrap();
                session.solve(q).unwrap();
                session.stats().prepared_bytes
            })
        })
        .min()
        .unwrap();
    assert!(smallest > 0, "a solved query prepares a nonzero footprint");
    let mut cfg = BrokerConfig::new(7);
    cfg.session_budget_bytes = 2 * smallest - 1;
    let broker = Broker::new(&catalog, cfg);
    for tenant in ["t0", "t1", "t2"] {
        broker.register_tenant(tenant, TenantConfig::new(1)).unwrap();
    }
    let tight = run_load(
        &broker,
        &LoadSpec {
            name: "serve-tight".into(),
            clients: 4,
            requests_per_client: 6,
            tenants: vec!["t0".into(), "t1".into(), "t2".into()],
            graphs: graphs(),
            queries,
            seed: 11,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        },
    );
    assert_served_and_accounted(&tight);
    assert_no_chaos(&tight);
    assert!(tight.stats.sessions_evicted > 0, "tight budget must evict");
}

#[test]
fn serve_chaos_contains_faults_and_degrades_explicitly() {
    let catalog = catalog();
    // The referee replays each tenant's fault plan, so bit-identity is still
    // enforced online; failures are exactly the contained panics.
    let broker = Broker::new(&catalog, BrokerConfig::new(7));
    broker.register_tenant("steady", TenantConfig::new(4)).unwrap();
    let mut lossy = TenantConfig::new(4);
    lossy.faults = Some(FaultPlan { corrupt_prob: 0.15, ..FaultPlan::drops(0.15, 21) });
    broker.register_tenant("lossy", lossy).unwrap();
    let mut crashy = TenantConfig::new(4);
    crashy.faults =
        Some(FaultPlan::node_crashes(vec![Crash { node: NodeId::new(0), at_round: 2 }]));
    broker.register_tenant("crashy", crashy).unwrap();
    // Every admitted request panics, so the breaker trips deterministically
    // after `breaker_threshold` contained failures and every later request
    // is either breaker-rejected or a failed half-open probe.
    let mut panicky = TenantConfig::new(4);
    panicky.breaker_threshold = Some(2);
    panicky.breaker_cooldown = 2;
    panicky.chaos_panic_every = Some(1);
    broker.register_tenant("panicky", panicky).unwrap();
    let chaos = run_load(
        &broker,
        &LoadSpec {
            name: "serve-chaos".into(),
            clients: 3,
            requests_per_client: 4,
            tenants: vec!["steady".into(), "lossy".into(), "crashy".into(), "panicky".into()],
            graphs: graphs(),
            // The chaos tenants run every query cold through the reliable
            // layer; a leaner mix keeps the run short.
            queries: mixed_query_batch(8).into_iter().take(4).collect(),
            seed: 13,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: Some(2_000),
            updates: Vec::new(),
            update_every: 0,
        },
    );
    assert_served_and_accounted(&chaos);
    assert!(chaos.failed > 0, "the panicking tenant must fail contained");
    assert!(chaos.stats.quarantined > 0, "contained panics must quarantine the session");
    assert!(chaos.degraded_served > 0, "the crashing tenant must serve degraded answers");
}
