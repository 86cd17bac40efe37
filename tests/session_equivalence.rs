//! Session-vs-fresh equivalence: the serving layer's core contract.
//!
//! A [`Session`] must answer every query bit-identically to a fresh
//! `solve()` — distances, rounds, guarantees, message accounting, and
//! structured errors under faults — while amortizing the shared preamble.
//! This suite pins that contract over the whole scenario registry and the two
//! pinned E2 perf instances, and closes with the cold-vs-amortized ratio
//! assertion (ratio-based, so a noisy box can't fake or break it).

use hybrid_bench::experiments::mixed_query_batch;
use hybrid_shortest_paths::core::session::{Session, SessionConfig};
use hybrid_shortest_paths::scenarios::workloads;
use hybrid_shortest_paths::scenarios::{registry, run_scenario_with, Engine};
use hybrid_shortest_paths::sim::{HybridConfig, HybridNet};
use hybrid_shortest_paths::{solve, Answer, ApspVariant, Query, Report};

/// Full-report equality, answers compared payload-by-payload.
fn assert_reports_identical(fresh: &Report, served: &Report, context: &str) {
    assert_eq!(fresh.rounds, served.rounds, "{context}: rounds");
    assert_eq!(fresh.global_messages, served.global_messages, "{context}: global messages");
    assert_eq!(fresh.dropped_messages, served.dropped_messages, "{context}: dropped messages");
    assert_eq!(fresh.skeleton_size, served.skeleton_size, "{context}: skeleton size");
    assert_eq!(fresh.h, served.h, "{context}: h");
    assert_eq!(fresh.coverage_fallbacks, served.coverage_fallbacks, "{context}: fallbacks");
    assert_eq!(fresh.guarantee, served.guarantee, "{context}: guarantee");
    match (&fresh.answer, &served.answer) {
        (Answer::Distances(a), Answer::Distances(b)) => {
            assert_eq!(a.as_flat(), b.as_flat(), "{context}: distance matrix")
        }
        (Answer::DistanceRow { dist: a, .. }, Answer::DistanceRow { dist: b, .. }) => {
            assert_eq!(a, b, "{context}: distance row")
        }
        (
            Answer::DistanceRows { sources: sa, est: a },
            Answer::DistanceRows { sources: sb, est: b },
        ) => {
            assert_eq!(sa, sb, "{context}: sources");
            assert_eq!(a, b, "{context}: estimate rows");
        }
        (
            Answer::Diameter { estimate: a, exact_local: xa },
            Answer::Diameter { estimate: b, exact_local: xb },
        ) => {
            assert_eq!(a, b, "{context}: diameter estimate");
            assert_eq!(xa, xb, "{context}: exact-local flag");
        }
        _ => panic!("{context}: answer shapes differ"),
    }
}

/// Every registry scenario — healthy, degraded, lossy, crashing — must
/// produce the identical deterministic report through the session engine,
/// including structured-error verdicts (the runner compares partial rounds
/// and message counts too).
#[test]
fn every_registry_scenario_is_bit_identical_via_session() {
    for sc in registry() {
        let fresh = run_scenario_with(sc, 48, Engine::Fresh);
        let served = run_scenario_with(sc, 48, Engine::Session);
        assert_eq!(
            fresh.deterministic_key(),
            served.deterministic_key(),
            "scenario {} diverged between engines",
            sc.name
        );
    }
}

/// Direct report comparison (not just runner verdicts) for a healthy, a
/// lossy, and a crashing scenario: distances and error values themselves.
#[test]
fn scenario_reports_compare_payload_by_payload() {
    for name in ["e2-er", "faulty-drop-apsp", "crash-mid-run-apsp", "sparse-grid-thm11"] {
        let sc = hybrid_shortest_paths::scenarios::find(name).expect("registered scenario");
        let g = sc.graph(48);
        let query = sc.suite.query();
        let mut net = sc.net(&g);
        let fresh = solve(&mut net, &query, sc.seed);
        let session = Session::new(
            &g,
            SessionConfig {
                xi: sc.suite.xi(),
                net: sc.faults.config(),
                faults: sc.faults.sim_plan(g.len(), sc.seed),
                ..SessionConfig::new(sc.seed)
            },
        )
        .expect("session");
        let served = session.solve(&query);
        match (fresh, served) {
            (Ok(a), Ok(b)) => assert_reports_identical(&a, &b, name),
            (Err(a), Err(b)) => assert_eq!(a, b, "{name}: structured errors must match"),
            (a, b) => panic!("{name}: outcomes diverged: fresh {a:?} vs session {b:?}"),
        }
    }
}

/// The two pinned E2 perf instances (n = 200 and n = 400, both APSP
/// algorithms) answer bit-identically through a session — and the session
/// keeps billing the pinned round counts recorded since PR 3.
#[test]
fn pinned_e2_instances_answer_bit_identically() {
    let pinned_rounds = [(200usize, 306u64, 305u64), (400, 529, 529)];
    for (n, thm11_rounds, soda20_rounds) in pinned_rounds {
        let g = workloads::er(n, 12.0, 4, 3);
        let session = Session::new(&g, SessionConfig::new(5)).expect("session");
        for (query, rounds) in [
            (Query::apsp().xi(1.5).build().unwrap(), thm11_rounds),
            (Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().unwrap(), soda20_rounds),
        ] {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let fresh = solve(&mut net, &query, 5).expect("fresh solve");
            let served = session.solve(&query).expect("session solve");
            assert_reports_identical(&fresh, &served, &format!("E2 n={n} {}", query.label()));
            assert_eq!(served.rounds, rounds, "E2 n={n} {} pinned rounds", query.label());
        }
    }
}

/// Batch amortization, ratio-based (satellite of the serving-layer PR): a
/// q=32 mixed batch on one E2 graph must be at least 2× faster through a
/// session than 32 cold solves. The recorded benchmark
/// (`BENCH_throughput.json`, E2 n = 400) shows ≈3.4–4.3×; the looser bound
/// here keeps the guard robust to a noisy box, and the session side runs
/// *sequentially* (plain `solve` per query, no batch workers) so multi-core
/// threading can never mask an amortization regression. The structural
/// assertions below pin the sharing itself, independent of wall clocks.
#[test]
fn amortized_mixed_batch_beats_cold_by_ratio() {
    let n = 200;
    let g = workloads::er(n, 12.0, 4, 3);
    let queries = mixed_query_batch(32);
    let seed = 7;

    let cold_start = std::time::Instant::now();
    let mut cold_rounds = 0u64;
    for q in &queries {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        cold_rounds += solve(&mut net, q, seed).expect("cold solve").rounds;
    }
    let cold = cold_start.elapsed();

    let session = Session::new(&g, SessionConfig::new(seed)).expect("session");
    let warm_start = std::time::Instant::now();
    let mut warm_rounds = 0u64;
    for q in &queries {
        warm_rounds += session.solve(q).expect("session solve").rounds;
    }
    let warm = warm_start.elapsed();

    // Amortization never discounts the simulated bill …
    assert_eq!(cold_rounds, warm_rounds, "simulated rounds must be identical");
    // … only the wall clock.
    let ratio = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    assert!(
        ratio >= 2.0,
        "q={} mixed batch amortization regressed: cold {:?} vs session {:?} (ratio {ratio:.2})",
        queries.len(),
        cold,
        warm,
    );

    // Structural sharing pins (wall-clock independent): 32 inputs = 8 unique
    // queries (24 repeats served from the report memo), and the 8 unique
    // preambles collapse onto 6 prepared skeletons — Cor 4.6, 4.7 and 5.2
    // share the x = 2/3 key; thm11, soda20, thm13 (forced source 0), the
    // approximate SSSP (forced source 1), and Cor 5.3 each get their own.
    // A regression that silently stops sharing (every query preparing its
    // own skeleton, or the warm path falling back to cold) breaks these
    // counts even on a machine where dedup alone still wins the ratio.
    let stats = session.stats();
    assert_eq!(stats.queries, 32);
    assert_eq!(stats.report_hits, 24, "24 of 32 mixed queries are repeats");
    assert_eq!(stats.skeletons_prepared, 6, "8 unique preambles share 6 skeletons");
}
