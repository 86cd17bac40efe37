//! Serving front-end for the HYBRID shortest-path stack: a multi-tenant
//! request [`Broker`] over [`hybrid_core::Session`], admission control, a
//! line-delimited wire protocol, and a closed-loop [load generator](loadgen).
//!
//! The paper's economics (Kuhn–Schneider, PODC '20) hinge on *shared*
//! preprocessing: Corollaries 4.6/4.7/5.2 reuse one `x = 2/3` skeleton and
//! Corollaries 4.8/5.3 another, so a serving system amortizes the expensive
//! preamble across tenants' query streams. This crate is that system's front
//! door:
//!
//! * **Byte-budgeted session cache.** The broker owns an LRU of sessions
//!   keyed by `(tenant, graph fingerprint, seed, ξ)`, charged at each
//!   session's measured `prepared_bytes` — eviction is by bytes, not entry
//!   count.
//! * **Admission control.** Each tenant has a bounded queue depth; overflow
//!   is a structured [`ServeError::Overloaded`], never a silent drop. A
//!   request carrying a deadline budget waits for a slot instead and sheds
//!   with [`ServeError::DeadlineExceeded`] only when the budget runs out.
//! * **Fault-tolerant serving.** Tenants may register *any* fault plan that
//!   passes validation — lossy, corrupting, crashing. Their queries run cold
//!   through the reliable layer, the cold referee replays the same plan, and
//!   explicit downgrades surface on the wire as
//!   `degraded=<from>:<to>:<cause>`. Per-tenant circuit breakers fail fast
//!   after consecutive failures (request-count-based half-open probes, so
//!   the state machine is deterministic), and a solve panic is contained:
//!   the session is quarantined and the client sees
//!   [`ServeError::Internal`], not a torn-down worker.
//! * **Batch coalescing.** Concurrent queries on one session are collected
//!   by a batch leader into a single [`hybrid_core::Session::solve_batch`]
//!   call, whose scoped worker pool shards the distinct queries.
//! * **Online bit-identity verification.** Every served answer is digest-
//!   compared against a memoized *cold* solve of the same request — answers,
//!   guarantees, and the simulated round bill are bit-identical by contract;
//!   only wall-clock latency is nondeterministic. This holds for faulty
//!   tenants too. Responses share the session memo's report
//!   ([`Response::report`] is an `Arc`), and each served report object is
//!   hashed once: serving the object last found equal again reuses its
//!   digest, any other report is hashed in full. Every response is still
//!   compared and counted in [`BrokerStats::verified`].
//! * **Wire protocol.** One request line in, one response line out
//!   ([`protocol`]), served in-process ([`Broker::serve_line`]) and over TCP
//!   ([`tcp::serve_tcp`] — length-capped framing, graceful
//!   [`TcpServer::drain`]).
//!
//! # Example
//!
//! ```
//! use hybrid_core::solver::Query;
//! use hybrid_graph::generators::grid;
//! use hybrid_serve::{Broker, BrokerConfig, GraphCatalog, TenantConfig};
//!
//! let mut catalog = GraphCatalog::new();
//! catalog.insert("campus", grid(5, 5, 1).unwrap());
//!
//! let broker = Broker::new(&catalog, BrokerConfig::new(7));
//! broker.register_tenant("acme", TenantConfig::new(4)).unwrap();
//!
//! // In-process line protocol: solve APSP, then hit the session memo.
//! let first = broker.serve_line("SOLVE id=1 tenant=acme graph=campus query=apsp-thm11:xi=1.5");
//! let again = broker.serve_line("SOLVE id=2 tenant=acme graph=campus query=apsp-thm11:xi=1.5");
//! assert!(first.starts_with("OK id=1 query=apsp-thm11"), "{first}");
//! // Same query, same session ⇒ the same digest, verified against a cold solve.
//! assert_eq!(first.split("digest=").nth(1), again.split("digest=").nth(1));
//! assert!(first.ends_with("verified=1"), "{first}");
//! let stats = broker.stats();
//! assert_eq!(stats.served, 2);
//! assert_eq!(stats.mismatches, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod loadgen;
pub mod protocol;
pub mod tcp;

pub use broker::{
    graph_fingerprint, report_digest, Broker, BrokerConfig, BrokerStats, CatalogUpdate,
    GraphCatalog, Request, Response, ServeError, TenantConfig, UpdateOutcome,
};
pub use loadgen::{run_load, LoadReport, LoadSpec, LoadUpdate};
pub use protocol::{
    delta_spec, guarantee_label, parse_delta_ops, parse_query_spec, parse_request, query_spec,
    WireRequest,
};
pub use tcp::{serve_tcp, TcpServer, MAX_LINE_BYTES};

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    use hybrid_core::solver::{DiameterCorollary, Guarantee, KsspCorollary, Query, SsspVariant};
    use hybrid_graph::generators::{grid, path};
    use hybrid_graph::{DeltaBatch, NodeId};
    use hybrid_sim::{derive_seed, Crash, FaultPlan};
    use proptest::prelude::*;

    use super::*;

    fn mixed_queries() -> Vec<Query> {
        vec![
            Query::apsp().build().unwrap(),
            Query::sssp(NodeId::new(0)).build().unwrap(),
            Query::sssp(NodeId::new(1))
                .variant(SsspVariant::ApproxSoda20 { eps: 0.25 })
                .build()
                .unwrap(),
            Query::kssp(KsspCorollary::Cor46).random_sources(3).build().unwrap(),
            Query::kssp(KsspCorollary::Cor47)
                .sources(vec![NodeId::new(0), NodeId::new(4), NodeId::new(7)])
                .build()
                .unwrap(),
            Query::diameter(DiameterCorollary::Cor52).build().unwrap(),
        ]
    }

    #[test]
    fn query_specs_roundtrip() {
        for q in mixed_queries() {
            let spec = query_spec(&q);
            let parsed = parse_query_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(parsed, q, "spec {spec} did not roundtrip");
        }
    }

    #[test]
    fn malformed_specs_are_structured_errors() {
        for spec in ["", "apsp-thm99", "sssp-thm13", "kssp-cor46:eps=0.5", "apsp-thm11:xi=banana"] {
            let err = parse_query_spec(spec).unwrap_err();
            assert_eq!(err.code(), "protocol", "{spec} should fail as a protocol error");
        }
    }

    #[test]
    fn zero_depth_tenant_sheds_with_structured_overload() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(12, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("busy", TenantConfig::new(0)).unwrap();
        let req = Request::new("busy", "g", Query::apsp().build().unwrap());
        let err = broker.serve(&req).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { tenant: "busy".into(), depth: 0 });
        assert_eq!(broker.stats().shed, 1);
        assert_eq!(broker.tenant_shed("busy"), Some(1));
    }

    #[test]
    fn faulty_tenants_register_and_serve_verified() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(12, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));

        // Lossy *and* corrupting: runs cold through the reliable layer, still
        // bit-identical to the cold referee replaying the same plan.
        let mut chaotic = TenantConfig::new(4);
        chaotic.faults = Some(FaultPlan { corrupt_prob: 0.2, ..FaultPlan::drops(0.2, 9) });
        broker.register_tenant("chaotic", chaotic).unwrap();
        let q = Query::sssp(NodeId::new(0)).build().unwrap();
        let first = broker.serve(&Request::new("chaotic", "g", q.clone())).unwrap();
        let again = broker.serve(&Request::new("chaotic", "g", q.clone())).unwrap();
        assert!(first.verified && again.verified);
        assert_eq!(first.digest, again.digest, "faulty serving must stay deterministic");

        // A crash plan degrades explicitly — and the downgrade is structured
        // on the wire, not hidden.
        let mut crashing = TenantConfig::new(4);
        crashing.faults =
            Some(FaultPlan::node_crashes(vec![Crash { node: NodeId::new(0), at_round: 1 }]));
        broker.register_tenant("crashy", crashing).unwrap();
        let resp = broker.serve(&Request::new("crashy", "g", q)).unwrap();
        assert!(
            matches!(resp.report.guarantee, Guarantee::Degraded { .. }),
            "a crashed source must degrade, got {:?}",
            resp.report.guarantee
        );
        let line =
            broker.serve_line("SOLVE id=4 tenant=crashy graph=g query=sssp-thm13:src=0:xi=1.5");
        assert!(line.contains("guarantee=degraded="), "{line}");
        assert!(line.contains(":crash-detected"), "{line}");

        // Structurally invalid plans still surface the session layer's error.
        let mut invalid = TenantConfig::new(4);
        invalid.faults = Some(FaultPlan::drops(1.5, 9));
        assert_eq!(broker.register_tenant("broken", invalid).unwrap_err().code(), "solve");
        let mut corrupt = TenantConfig::new(4);
        corrupt.faults = Some(FaultPlan { corrupt_prob: 0.6, ..FaultPlan::drops(0.0, 9) });
        assert_eq!(broker.register_tenant("flipper", corrupt).unwrap_err().code(), "solve");

        let s = broker.stats();
        assert_eq!(s.mismatches, 0);
        assert!(s.degraded_served >= 2, "crashy served degraded answers, got {s:?}");
    }

    #[test]
    fn memo_hits_share_the_report_and_stay_verified() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(6, 6, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(1)).unwrap();
        let req = Request::new("t", "g", Query::apsp().build().unwrap());
        let first = broker.serve(&req).unwrap();
        for _ in 0..4 {
            let resp = broker.serve(&req).unwrap();
            assert!(resp.verified, "every memo hit is checked against the cold referee");
            assert_eq!(resp.digest, report_digest(&resp.report));
            assert_eq!(resp.digest, first.digest);
            assert!(Arc::ptr_eq(&resp.report, &first.report), "a memo hit is not copied");
        }
        let s = broker.stats();
        assert_eq!((s.served, s.verified, s.mismatches), (5, 5, 0));
        assert_eq!(s.session_report_hits, 4);
    }

    #[test]
    fn deadline_budgets_shed_separately_from_overload() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(10, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(0)).unwrap();
        let q = Query::apsp().build().unwrap();
        // Depth 0: the queue is always full. No deadline → instant overload.
        assert_eq!(
            broker.serve(&Request::new("t", "g", q.clone())).unwrap_err().code(),
            "overloaded"
        );
        // A deadline budget waits, then sheds on its own code.
        let mut patient = Request::new("t", "g", q.clone());
        patient.deadline_ms = Some(5);
        let err = broker.serve(&patient).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { tenant: "t".into(), deadline_ms: 5 });
        let s = broker.stats();
        assert_eq!((s.shed, s.deadline_shed), (1, 1), "the two shed kinds stay disjoint");
        assert_eq!(broker.tenant_shed("t"), Some(1));
        assert_eq!(broker.tenant_deadline_shed("t"), Some(1));
        // The tenant default applies when the request carries none.
        let mut dcfg = TenantConfig::new(0);
        dcfg.default_deadline_ms = Some(1);
        broker.register_tenant("d", dcfg).unwrap();
        assert_eq!(
            broker.serve(&Request::new("d", "g", q)).unwrap_err().code(),
            "deadline-exceeded"
        );
    }

    #[test]
    fn panics_are_contained_and_breaker_trips_deterministically() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(10, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        let mut cfg = TenantConfig::new(4);
        cfg.breaker_threshold = Some(1);
        cfg.breaker_cooldown = 1;
        cfg.chaos_panic_every = Some(1); // every admitted request panics
        broker.register_tenant("panicky", cfg).unwrap();
        let req = Request::new("panicky", "g", Query::apsp().build().unwrap());
        // 1: the panic is contained, the session quarantined, the breaker trips.
        let e1 = broker.serve(&req).unwrap_err();
        assert_eq!(e1.code(), "internal");
        // 2: open breaker fails fast without touching a session.
        assert_eq!(broker.serve(&req).unwrap_err().code(), "breaker-open");
        // 3: the half-open probe is admitted, panics again, re-opens.
        assert_eq!(broker.serve(&req).unwrap_err().code(), "internal");
        // 4: re-opened: fail fast again.
        assert_eq!(broker.serve(&req).unwrap_err().code(), "breaker-open");
        let s = broker.stats();
        assert_eq!(s.quarantined, 2, "each contained panic quarantines its session");
        assert_eq!(s.breaker_opens, 2, "threshold trip + failed probe");
        assert_eq!(s.breaker_probes, 1);
        assert_eq!(s.served, 0);
        assert_eq!(broker.breaker_states(), vec![("panicky".to_string(), "open")]);
        let stats_line = broker.serve_line("STATS");
        assert!(stats_line.contains("quarantined=2"), "{stats_line}");
        assert!(stats_line.contains("breaker.panicky=open"), "{stats_line}");
    }

    #[test]
    fn breaker_recovers_through_a_successful_probe() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(10, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        let mut cfg = TenantConfig::new(4);
        cfg.breaker_threshold = Some(1);
        cfg.breaker_cooldown = 0; // next request after a trip is the probe
        cfg.chaos_panic_every = Some(2); // even-ordinal requests panic
        broker.register_tenant("flaky", cfg).unwrap();
        let req = Request::new("flaky", "g", Query::apsp().build().unwrap());
        assert!(broker.serve(&req).is_ok(), "ordinal 1 is healthy");
        assert_eq!(broker.serve(&req).unwrap_err().code(), "internal");
        // Probe (ordinal 3) succeeds and closes the breaker.
        assert!(broker.serve(&req).is_ok(), "the probe should close the breaker");
        let s = broker.stats();
        assert_eq!((s.breaker_opens, s.breaker_probes), (1, 1));
        assert_eq!(s.served, 2);
        assert_eq!(broker.breaker_states(), vec![("flaky".to_string(), "closed")]);
    }

    #[test]
    fn unknown_names_are_structured_errors() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", path(8, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(2)).unwrap();
        let q = Query::apsp().build().unwrap();
        let nobody = Request::new("ghost", "g", q.clone());
        assert_eq!(broker.serve(&nobody).unwrap_err().code(), "unknown-tenant");
        let nowhere = Request::new("t", "mars", q);
        assert_eq!(broker.serve(&nowhere).unwrap_err().code(), "unknown-graph");
    }

    #[test]
    fn byte_budget_evicts_lru_and_readmission_stays_bit_identical() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("a", grid(5, 5, 1).unwrap());
        catalog.insert("b", path(30, 1).unwrap());
        // A 1-byte budget forces every acquisition over budget: only the most
        // recently used session survives each settlement.
        let mut cfg = BrokerConfig::new(7);
        cfg.session_budget_bytes = 1;
        let broker = Broker::new(&catalog, cfg);
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        let q = Query::apsp().build().unwrap();
        let serve = |graph: &str| broker.serve(&Request::new("t", graph, q.clone())).unwrap();
        let first_a = serve("a");
        let first_b = serve("b"); // evicts a
        let stats = broker.stats();
        assert_eq!(stats.resident_sessions, 1, "budget of 1 byte keeps a single session");
        assert_eq!(stats.sessions_evicted, 1);
        let again_a = serve("a"); // re-admission after eviction
        assert!(!again_a.session_hit, "a was evicted, so this is a fresh session");
        assert_eq!(again_a.digest, first_a.digest, "re-admitted session must serve identically");
        assert_eq!(broker.stats().sessions_evicted, 2);
        assert!(first_a.verified && first_b.verified && again_a.verified);
        assert_eq!(broker.stats().mismatches, 0);
    }

    #[test]
    fn stats_and_protocol_lines_agree() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        let ok =
            broker.serve_line("SOLVE id=9 tenant=t graph=g query=diameter-cor52:eps=0.5:xi=1.5");
        assert!(ok.starts_with("OK id=9 query=diameter-cor52 rounds="), "{ok}");
        assert!(ok.contains("guarantee=diameter="), "{ok}");
        let err = broker.serve_line("SOLVE id=3 tenant=nobody graph=g query=apsp-thm11:xi=1.5");
        assert!(err.starts_with("ERR id=3 code=unknown-tenant"), "{err}");
        let garbled = broker.serve_line("FROBNICATE everything");
        assert!(garbled.starts_with("ERR id=0 code=protocol"), "{garbled}");
        let stats = broker.serve_line("STATS");
        assert!(stats.starts_with("STATS served=1 shed=0"), "{stats}");
        // serving-v2 counters extend the line append-only.
        assert!(stats.contains(" deadline_shed=0"), "{stats}");
        assert!(stats.contains(" degraded_served=0"), "{stats}");
        assert!(!stats.contains("breaker."), "no breaker-enabled tenants: {stats}");
    }

    #[test]
    fn tcp_round_trip_serves_and_shuts_down() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        std::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let server = serve_tcp(scope, &broker, listener).unwrap();
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            for id in 1..=2u64 {
                writeln!(conn, "SOLVE id={id} tenant=t graph=g query=apsp-thm11:xi=1.5").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.starts_with(&format!("OK id={id} query=apsp-thm11")), "{line}");
                assert!(line.trim_end().ends_with("verified=1"), "{line}");
            }
            drop(conn);
            server.shutdown();
        });
        let stats = broker.stats();
        assert_eq!(stats.served, 2);
        assert_eq!((stats.session_hits, stats.sessions_admitted), (1, 1));
    }

    #[test]
    fn load_generator_is_deterministic_in_its_choices() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let run = |seed: u64| {
            let broker = Broker::new(&catalog, BrokerConfig::new(7));
            broker.register_tenant("t", TenantConfig::new(8)).unwrap();
            let spec = LoadSpec {
                name: "unit".into(),
                clients: 3,
                requests_per_client: 6,
                tenants: vec!["t".into()],
                graphs: vec!["g".into()],
                queries: mixed_queries(),
                seed,
                retries: 0,
                retry_backoff_ms: 0,
                deadline_ms: None,
                updates: Vec::new(),
                update_every: 0,
            };
            run_load(&broker, &spec)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.issued, 18);
        assert_eq!(
            a.served + a.shed + a.deadline_shed + a.breaker_rejected + a.failed,
            a.issued,
            "every request is accounted for"
        );
        assert_eq!(a.failed, 0, "registry queries on a connected grid must not fail");
        // The request mix is seed-deterministic, so the simulated round bill
        // (unlike wall-clock latency) matches exactly across runs.
        assert_eq!(a.rounds_total, b.rounds_total);
        assert_eq!(a.served, b.served);
        assert_eq!(a.stats.mismatches, 0);
    }

    #[test]
    fn load_generator_retries_deterministically_on_overload() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        // Depth 0: every attempt overloads, so the retry accounting is exact
        // regardless of timing.
        broker.register_tenant("t", TenantConfig::new(0)).unwrap();
        let spec = LoadSpec {
            name: "retry-unit".into(),
            clients: 2,
            requests_per_client: 3,
            tenants: vec!["t".into()],
            graphs: vec!["g".into()],
            queries: vec![Query::apsp().build().unwrap()],
            seed: 5,
            retries: 2,
            retry_backoff_ms: 0,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        };
        let r = run_load(&broker, &spec);
        assert_eq!((r.issued, r.served, r.shed), (6, 0, 6));
        assert_eq!(r.retries, 12, "each shed request burned its full retry budget");
    }

    #[test]
    fn delta_specs_roundtrip_and_malformed_ops_are_structured() {
        let batch = DeltaBatch::new()
            .reweight(NodeId::new(0), NodeId::new(1), 7)
            .add_edge(NodeId::new(2), NodeId::new(5), 3)
            .remove_edge(NodeId::new(1), NodeId::new(2));
        let spec = delta_spec(&batch);
        assert_eq!(spec, "~0-1:7,+2-5:3,-1-2");
        assert_eq!(parse_delta_ops(&spec).unwrap(), batch);
        for bad in ["", "x0-1:7", "+0-1", "~0:7", "+0-1:w", "~a-1:7"] {
            assert_eq!(parse_delta_ops(bad).unwrap_err().code(), "protocol", "{bad:?}");
        }
    }

    #[test]
    fn update_wire_migrates_sessions_and_serves_the_new_epoch_verified() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        let solve = "SOLVE id=1 tenant=t graph=g query=apsp-thm11:xi=1.5";
        let before = broker.serve_line(solve);
        assert!(before.starts_with("OK id=1"), "{before}");

        // One reweight: the resident session must migrate, the catalog epoch
        // must bump, and the response line carries the new fingerprint.
        let up = broker.serve_line("UPDATE id=2 tenant=t graph=g ops=~0-1:9");
        assert!(up.starts_with("OK id=2 update=g fp="), "{up}");
        assert!(up.contains("epoch=1"), "{up}");
        assert!(up.contains("migrated=1"), "{up}");

        // The next solve runs on the post-delta graph, is verified against a
        // cold referee on *that* graph, and matches a from-scratch session.
        let after = broker.serve_line(solve.replace("id=1", "id=3").as_str());
        assert!(after.ends_with("verified=1"), "{after}");
        assert_ne!(
            before.split("digest=").nth(1),
            after.split("digest=").nth(1),
            "reweighting 0-1 changes APSP"
        );
        let batch = DeltaBatch::new().reweight(NodeId::new(0), NodeId::new(1), 9);
        let post = grid(4, 4, 1).unwrap().apply_delta(&batch).unwrap();
        let cold = hybrid_core::Session::new(
            &post,
            hybrid_core::SessionConfig { xi: 1.5, ..hybrid_core::SessionConfig::new(7) },
        )
        .unwrap();
        let report = cold.solve(&Query::apsp().xi(1.5).build().unwrap()).unwrap();
        let want = format!("digest={:016x}", report_digest(&report));
        assert!(after.contains(&want), "{after} should carry {want}");

        // Churn counters surface on the STATS line.
        let stats = broker.serve_line("STATS");
        assert!(stats.contains("deltas_applied=1"), "{stats}");
        let s = broker.stats();
        assert_eq!(s.repair_patched + s.repair_full, 1, "one preamble migrated: {s:?}");
        assert_eq!(s.mismatches, 0);

        // Structurally invalid deltas leave catalog and counters untouched.
        let err = broker.serve_line("UPDATE id=4 tenant=t graph=g ops=-0-3");
        assert!(err.starts_with("ERR id=4 code=solve"), "{err}");
        assert_eq!(broker.stats().deltas_applied, 1);
        assert_eq!(
            broker.serve_line("UPDATE id=5 tenant=ghost graph=g ops=~0-1:9"),
            "ERR id=5 code=unknown-tenant msg=unknown tenant \"ghost\""
        );
    }

    #[test]
    fn stale_fingerprint_pins_are_refused_structurally() {
        let mut catalog = GraphCatalog::new();
        let fp0 = catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        let q = Query::apsp().build().unwrap();

        // A pin on the live version serves normally.
        let mut pinned = Request::new("t", "g", q.clone());
        pinned.fingerprint = Some(fp0);
        assert!(broker.serve(&pinned).unwrap().verified);

        let out = broker
            .update("t", "g", &DeltaBatch::new().reweight(NodeId::new(0), NodeId::new(1), 5))
            .unwrap();
        assert_ne!(out.fingerprint, fp0);

        // The old pin is now stale: structured refusal + counter.
        let err = broker.serve(&pinned).unwrap_err();
        assert_eq!(
            err,
            ServeError::StaleFingerprint {
                graph: "g".into(),
                requested: fp0,
                current: out.fingerprint
            }
        );
        assert_eq!(err.code(), "stale-fingerprint");
        assert_eq!(broker.stats().stale_epoch_refused, 1);

        // Wire form: an fp= pin on the new version works, the old one errs.
        let fresh = broker.serve_line(&format!(
            "SOLVE id=7 tenant=t graph=g fp={:016x} query=apsp-thm11:xi=1.5",
            out.fingerprint
        ));
        assert!(fresh.ends_with("verified=1"), "{fresh}");
        let stale = broker
            .serve_line(&format!("SOLVE id=8 tenant=t graph=g fp={fp0:016x} query=apsp-thm11"));
        assert!(stale.starts_with("ERR id=8 code=stale-fingerprint"), "{stale}");
        assert_eq!(broker.stats().stale_epoch_refused, 2);
    }

    #[test]
    fn load_generator_churn_draws_do_not_perturb_the_request_mix() {
        // Identity churn: reweighting an edge to its current weight leaves the
        // canonical graph (hence every digest and round bill) unchanged, so a
        // run with churn enabled must reproduce the no-churn run's round total
        // exactly — proving the update stream never steals a request draw.
        let run = |updates: Vec<LoadUpdate>, update_every: usize| {
            let mut catalog = GraphCatalog::new();
            catalog.insert("g", grid(4, 4, 1).unwrap());
            let broker = Broker::new(&catalog, BrokerConfig::new(7));
            broker.register_tenant("t", TenantConfig::new(8)).unwrap();
            let spec = LoadSpec {
                name: "churn-unit".into(),
                clients: 3,
                requests_per_client: 6,
                tenants: vec!["t".into()],
                graphs: vec!["g".into()],
                queries: mixed_queries(),
                seed: 11,
                retries: 0,
                retry_backoff_ms: 0,
                deadline_ms: None,
                updates,
                update_every,
            };
            run_load(&broker, &spec)
        };
        let quiet = run(Vec::new(), 0);
        let ident = DeltaBatch::new().reweight(NodeId::new(0), NodeId::new(1), 1);
        let churned =
            run(vec![LoadUpdate { tenant: "t".into(), graph: "g".into(), batch: ident }], 2);
        assert_eq!(quiet.updates_applied, 0);
        assert!(churned.updates_applied >= 9, "3 clients × 3 injections: {churned:?}");
        assert_eq!(churned.failed, 0);
        assert_eq!(churned.stats.mismatches, 0);
        assert_eq!(
            quiet.rounds_total, churned.rounds_total,
            "identity churn must leave the request mix and round bills untouched"
        );
    }

    #[test]
    fn tcp_rejects_oversized_lines_and_drains_gracefully() {
        let mut catalog = GraphCatalog::new();
        catalog.insert("g", grid(4, 4, 1).unwrap());
        let broker = Broker::new(&catalog, BrokerConfig::new(7));
        broker.register_tenant("t", TenantConfig::new(4)).unwrap();
        std::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let server = serve_tcp(scope, &broker, listener).unwrap();
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            // An oversized line is rejected without buffering it whole, and
            // the connection survives.
            let big = vec![b'x'; MAX_LINE_BYTES + 10];
            conn.write_all(&big[..1000]).unwrap();
            conn.write_all(&big[1000..]).unwrap();
            conn.write_all(b"\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ERR id=0 code=oversized"), "{line}");
            // A request split across writes reassembles fine.
            conn.write_all(b"SOLVE id=1 tenant=t graph=g query=apsp-").unwrap();
            conn.flush().unwrap();
            conn.write_all(b"thm11:xi=1.5\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("OK id=1 query=apsp-thm11"), "{line}");
            // Draining: in-flight work finished above; new requests are
            // answered with a structured refusal, echoing the id.
            server.drain();
            assert!(server.is_draining());
            writeln!(conn, "SOLVE id=3 tenant=t graph=g query=apsp-thm11:xi=1.5").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ERR id=3 code=draining"), "{line}");
            writeln!(conn, "STATS").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ERR id=0 code=draining"), "{line}");
            drop(conn);
            server.shutdown();
        });
        assert_eq!(broker.stats().served, 1, "only the pre-drain solve was served");
    }

    /// Deterministic junk for the protocol fuzzer: bytes biased toward the
    /// protocol alphabet (so parses get past the verb) with raw bytes mixed
    /// in, all derived from SplitMix64 streams.
    fn fuzz_line(seed: u64, len: usize) -> String {
        const ALPHABET: &[u8] =
            b"SOLVESTATS solve id=tenant graph query seed deadline_ms xi eps src k \
              apsp-thm11:0123456789.,=\t\r\x00\x7f\xff";
        let mut bytes = Vec::with_capacity(len);
        for i in 0..len {
            let d = derive_seed(seed, i as u64);
            if d & 7 == 0 {
                bytes.push((d >> 8) as u8);
            } else {
                bytes.push(ALPHABET[((d >> 8) as usize) % ALPHABET.len()]);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The wire entry point must never panic, whatever bytes arrive: it
        /// answers every line with a structured OK/ERR/STATS response.
        #[test]
        fn serve_line_never_panics_on_arbitrary_bytes(seed in any::<u64>(), len in 0usize..200) {
            let mut catalog = GraphCatalog::new();
            catalog.insert("g", path(6, 1).unwrap());
            let broker = Broker::new(&catalog, BrokerConfig::new(7));
            broker.register_tenant("t", TenantConfig::new(2)).unwrap();
            let line = fuzz_line(seed, len);
            let out = broker.serve_line(&line);
            prop_assert!(
                out.starts_with("OK ") || out.starts_with("ERR ") || out.starts_with("STATS"),
                "unstructured response {out:?} for input {line:?}"
            );
        }
    }
}
