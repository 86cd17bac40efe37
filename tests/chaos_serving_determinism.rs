//! Recovery determinism through the serving front-end: a chaos serving run —
//! faulty tenants, degraded answers, overload retries — executed twice must
//! yield **byte-identical** response streams: every digest, every
//! `degraded=` annotation, and every retry count.
//!
//! Latency is the only thing allowed to differ between runs, and none of the
//! wire responses carry latency, so the full line stream is comparable as-is.

use hybrid_shortest_paths::graph::NodeId;
use hybrid_shortest_paths::scenarios::workloads;
use hybrid_shortest_paths::serve::{run_load, LoadSpec};
use hybrid_shortest_paths::sim::{Crash, FaultPlan};
use hybrid_shortest_paths::{Broker, BrokerConfig, GraphCatalog, Query, TenantConfig};

const SEED: u64 = 23;

/// The chaos tenant mix: healthy, lossy+corrupting, crashing (degraded
/// answers), and a zero-depth tenant that always overloads (retry fodder).
fn chaos_broker(catalog: &GraphCatalog) -> Broker<'_> {
    let broker = Broker::new(catalog, BrokerConfig::new(SEED));
    broker.register_tenant("steady", TenantConfig::new(4)).unwrap();
    let mut lossy = TenantConfig::new(4);
    lossy.faults = Some(FaultPlan { corrupt_prob: 0.2, ..FaultPlan::drops(0.2, 17) });
    broker.register_tenant("lossy", lossy).unwrap();
    let mut crashy = TenantConfig::new(4);
    crashy.faults =
        Some(FaultPlan::node_crashes(vec![Crash { node: NodeId::new(0), at_round: 1 }]));
    broker.register_tenant("crashy", crashy).unwrap();
    broker.register_tenant("throttled", TenantConfig::new(0)).unwrap();
    broker
}

/// One full chaos run: a fixed wire-request sequence through `serve_line`
/// (the byte stream under test), then a single-client retry workload against
/// the zero-depth tenant. Returns every response line plus the deterministic
/// load counters (retries, shed, issued).
fn chaos_run() -> (Vec<String>, (u64, u64, u64)) {
    let g = workloads::er(56, 10.0, 4, 3);
    let mut catalog = GraphCatalog::new();
    catalog.insert("g", g);
    let broker = chaos_broker(&catalog);
    let requests = [
        "SOLVE id=1 tenant=steady graph=g query=apsp-thm11:xi=1.5",
        "SOLVE id=2 tenant=lossy graph=g query=apsp-thm11:xi=1.5",
        "SOLVE id=3 tenant=crashy graph=g query=apsp-thm11:xi=1.5",
        "SOLVE id=4 tenant=lossy graph=g query=sssp-thm13:src=3:xi=1.5",
        "SOLVE id=5 tenant=crashy graph=g query=diameter-cor52:eps=0.5:xi=1.5",
        // Fault streams are deterministic per run: the repeat must reproduce
        // id=2's digest exactly even though the plan replays afresh.
        "SOLVE id=6 tenant=lossy graph=g query=apsp-thm11:xi=1.5",
        "SOLVE id=7 tenant=throttled graph=g query=apsp-thm11:xi=1.5",
        "STATS",
    ];
    let stream: Vec<String> = requests.iter().map(|r| broker.serve_line(r)).collect();
    let report = run_load(
        &broker,
        &LoadSpec {
            name: "chaos-retries".into(),
            clients: 1,
            requests_per_client: 4,
            tenants: vec!["throttled".into()],
            graphs: vec!["g".into()],
            queries: vec![Query::apsp().xi(1.5).build().unwrap()],
            seed: SEED,
            retries: 2,
            retry_backoff_ms: 0,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        },
    );
    (stream, (report.retries, report.shed, report.issued))
}

/// The stream itself must exercise the chaos surface: degraded annotations
/// with their structured cause, verified faulty-tenant answers, a matching
/// repeat digest, and the structured overload rejection.
fn assert_stream_shape(stream: &[String]) {
    assert!(stream[0].starts_with("OK id=1") && stream[0].contains("guarantee=exact"));
    assert!(
        stream[1].starts_with("OK id=2") && stream[1].contains("verified=1"),
        "lossy tenant must serve verified: {}",
        stream[1]
    );
    assert!(
        stream[2].contains("guarantee=degraded=") && stream[2].contains(":crash-detected"),
        "crashy tenant must answer with a structured degraded guarantee: {}",
        stream[2]
    );
    assert!(stream[4].contains("guarantee=degraded="), "degraded diameter: {}", stream[4]);
    let digest_of = |line: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix("digest="))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no digest on {line}"))
    };
    assert_eq!(digest_of(&stream[1]), digest_of(&stream[5]), "repeat digest must match");
    assert!(stream[6].starts_with("ERR id=7 code=overloaded"), "throttled: {}", stream[6]);
    assert!(stream[7].starts_with("STATS "), "stats: {}", stream[7]);
}

#[test]
fn chaos_serving_is_byte_identical_across_runs() {
    let (a, tallies_a) = chaos_run();
    let (b, tallies_b) = chaos_run();
    assert_stream_shape(&a);
    assert_eq!(a, b, "two identical chaos runs must produce identical response streams");
    assert_eq!(tallies_a, tallies_b, "retry/shed/issued counts must be identical");
    assert_eq!(tallies_a.0, 8, "4 requests x 2 retries, all deterministic");
    assert_eq!(tallies_a.1, 4, "every throttled request sheds after its retries");
}
