//! Failure-injection tests: the simulator's first-class fault hooks
//! (`FaultPlan` message drops and node crashes), the congestion machinery
//! under starved caps, the low-probability failure events of the randomized
//! lemmas, and the overflow policies under pressure.
//!
//! The fault regimes themselves are declarative: starved caps come from
//! `HybridConfig::starved`, and drops/crashes are `hybrid_sim::FaultPlan`s
//! installed in the exchange engine — the same hooks the scenario registry's
//! `faulty-*` entries use (see `crates/scenarios`).

use hybrid_shortest_paths::core::skeleton_ops::compute_representatives;
use hybrid_shortest_paths::core::token_routing::{route_tokens, RoutingRates, Token};
use hybrid_shortest_paths::core::HybridError;
use hybrid_shortest_paths::graph::apsp::apsp as reference_apsp;
use hybrid_shortest_paths::graph::generators::{cycle, erdos_renyi_connected, path};
use hybrid_shortest_paths::graph::skeleton::Skeleton;
use hybrid_shortest_paths::graph::{NodeId, INFINITY};
use hybrid_shortest_paths::scenarios;
use hybrid_shortest_paths::sim::{
    Crash, Envelope, FaultPlan, HybridConfig, HybridNet, OverflowPolicy, SimError,
};
use hybrid_shortest_paths::{solve, DiameterCorollary, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn strict_policy_surfaces_send_overflow_from_protocols() {
    // With send cap 1 and strict failure, token routing must abort with a
    // simulator error rather than silently mis-charge.
    let g = path(40, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::starved(OverflowPolicy::Fail));
    let tokens: Vec<Token<u8>> =
        (0..20).map(|i| Token::new(NodeId::new(0), NodeId::new(30), i, 0)).collect();
    let err = route_tokens(
        &mut net,
        tokens,
        &[NodeId::new(0)],
        &[NodeId::new(30)],
        RoutingRates::dense(),
        1,
        "tr",
    )
    .unwrap_err();
    assert!(
        matches!(err, HybridError::Sim(SimError::RecvCapExceeded { .. }))
            || matches!(err, HybridError::Sim(SimError::SendCapExceeded { .. })),
        "got {err:?}"
    );
}

#[test]
fn stretch_policy_pays_rounds_instead_of_failing() {
    // Same starved instance under Stretch: completes correctly, just slower.
    let g = path(40, 1).unwrap();
    let mut generous = HybridNet::new(&g, HybridConfig::default());
    let mk = || -> Vec<Token<u8>> {
        (0..20).map(|i| Token::new(NodeId::new(0), NodeId::new(30), i, 0)).collect()
    };
    let fast = route_tokens(
        &mut generous,
        mk(),
        &[NodeId::new(0)],
        &[NodeId::new(30)],
        RoutingRates::dense(),
        1,
        "tr",
    )
    .unwrap();
    let mut slow_net = HybridNet::new(&g, HybridConfig::starved(OverflowPolicy::Stretch));
    let slow = route_tokens(
        &mut slow_net,
        mk(),
        &[NodeId::new(0)],
        &[NodeId::new(30)],
        RoutingRates::dense(),
        1,
        "tr",
    )
    .unwrap();
    assert_eq!(slow.len(), 20, "all tokens still delivered");
    assert!(
        slow.rounds > fast.rounds,
        "starved net must pay more rounds ({} vs {})",
        slow.rounds,
        fast.rounds
    );
    assert!(slow_net.metrics().stretched_exchanges > 0);
}

#[test]
fn degenerate_caps_rejected_at_construction() {
    // The old failure mode: a 0-messages/round cap silently starved paced
    // exchanges. Now it is a structured construction error.
    let g = path(8, 1).unwrap();
    for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
        let cfg = HybridConfig {
            send_cap_factor: bad,
            recv_cap_factor: 1.0,
            overflow: OverflowPolicy::Stretch,
        };
        assert!(
            matches!(HybridNet::try_new(&g, cfg), Err(SimError::InvalidConfig { .. })),
            "factor {bad} must be rejected"
        );
    }
}

#[test]
fn direct_exchange_overflow_errors_are_precise() {
    let g = path(8, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::starved(OverflowPolicy::Fail));
    // Send cap is 1: two messages from one node must fail with the node named.
    let err = net
        .exchange(
            "t",
            vec![
                Envelope::new(NodeId::new(2), NodeId::new(3), 0u8),
                Envelope::new(NodeId::new(2), NodeId::new(4), 1u8),
            ],
        )
        .unwrap_err();
    match err {
        SimError::SendCapExceeded { node, sent, cap } => {
            assert_eq!(node, NodeId::new(2));
            assert_eq!(sent, 2);
            assert_eq!(cap, 1);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn dropped_messages_never_corrupt_apsp() {
    // The recovery contract end to end: the solver routes faulty runs through
    // the reliable exchange layer, so under random global-message loss exact
    // APSP *completes with the exact answer* on every seed — lost messages are
    // retransmitted (and billed), never silently absorbed or aborted on.
    let mut rng = StdRng::seed_from_u64(8);
    let g = erdos_renyi_connected(60, 10.0 / 60.0, 4, &mut rng).unwrap();
    let exact = reference_apsp(&g);
    let mut total_dropped = 0u64;
    let mut total_retransmitted = 0u64;
    for seed in 0..6u64 {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&FaultPlan::drops(0.01, seed)).unwrap();
        let out = solve(&mut net, &Query::apsp().xi(1.5).build().unwrap(), 5)
            .expect("reliable delivery must recover every loss");
        assert!(out.guarantee.is_exact(), "drop-only plans recover undowngraded");
        let dist = out.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    dist.get(u, v),
                    exact.get(u, v),
                    "recovered run must answer exactly at d({u},{v})"
                );
            }
        }
        assert_eq!(out.dropped_messages, net.metrics().dropped_messages);
        total_dropped += net.metrics().dropped_messages;
        total_retransmitted += net.metrics().retransmissions;
        assert_eq!(net.metrics().declared_dead, 0, "nobody crashed");
    }
    assert!(total_dropped > 0, "the drop stream must bite across 6 seeds");
    assert!(total_retransmitted >= total_dropped, "every loss costs at least one retransmission");
}

#[test]
fn crashed_nodes_fall_silent_mid_protocol() {
    // A node that crashes mid-run stops sending and receiving; the reliable
    // layer detects it, the solver degrades to the LOCAL fallback, and the
    // downgrade is recorded explicitly — never a silent answer change.
    use hybrid_shortest_paths::core::solver::Guarantee;
    let g = cycle(32, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    net.inject_faults(&FaultPlan::node_crashes(vec![Crash { node: NodeId::new(7), at_round: 10 }]))
        .unwrap();
    let out = solve(&mut net, &Query::apsp().xi(1.5).build().unwrap(), 3)
        .expect("crash recovery must complete");
    assert!(net.metrics().dropped_messages > 0, "the crash must remove traffic");
    assert_eq!(
        out.dropped_messages,
        net.metrics().dropped_messages,
        "the report accounts the faults"
    );
    match out.guarantee {
        Guarantee::Degraded { from, to, .. } => {
            assert_eq!(from, "apsp-thm11");
            assert_eq!(to, "apsp-local-flood");
        }
        other => panic!("a detected crash must degrade explicitly, got {other:?}"),
    }
    // The LOCAL fallback answers exactly on the full (local) graph.
    let exact = reference_apsp(&g);
    let dist = out.distances().expect("matrix answer");
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(dist.get(u, v), exact.get(u, v), "degraded answers are exact");
        }
    }
}

#[test]
fn faulty_registry_scenarios_verify_under_the_lossy_contract() {
    // The registry's fault scenarios are the canonical forms of the ad-hoc
    // setups above: run them through the engine and let the golden
    // verification layer apply the contract.
    for name in ["faulty-drop-apsp", "crash-mid-run-apsp", "faulty-soda20"] {
        let sc = scenarios::find(name).expect("registered");
        let report = scenarios::run_scenario(sc, 48);
        assert!(report.passed(), "{name}: {}", report.detail);
    }
}

#[test]
fn chaos_recovery_is_charged_never_discounted() {
    // Every chaos scenario next to its fault-free twin (same graph, seed and
    // suite): retransmission waves, backoff and crash detection cost
    // simulated rounds, so the chaos run can never bill fewer rounds than
    // its twin, and at least one must pay a recovery premium.
    let mut premium = false;
    for sc in scenarios::by_tag("chaos") {
        let twin = scenarios::Scenario { faults: scenarios::FaultPlan::None, ..*sc };
        let healthy = scenarios::run_scenario(&twin, 48);
        let chaos = scenarios::run_scenario(sc, 48);
        assert!(healthy.rounds > 0, "{}: the twin must do work", sc.name);
        assert!(
            chaos.rounds >= healthy.rounds,
            "{}: recovery is charged, never discounted ({} < {})",
            sc.name,
            chaos.rounds,
            healthy.rounds
        );
        premium |= chaos.rounds > healthy.rounds;
    }
    assert!(premium, "at least one chaos scenario must pay a recovery premium");
}

#[test]
fn skeleton_undersampling_degrades_gracefully() {
    // A skeleton whose h is far below the sampling gaps: the diameter
    // framework must not panic; it reports a (useless but safe) over-estimate,
    // possibly saturated at INFINITY when the skeleton is disconnected.
    let g = cycle(200, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let query = Query::diameter(DiameterCorollary::Cor52).eps(0.25).xi(0.05).build().unwrap();
    let out = solve(&mut net, &query, 5).unwrap();
    assert!(out.diameter_estimate().unwrap() >= 100, "never underestimates D = 100");
}

#[test]
fn apsp_survives_aggressive_xi_via_fallbacks() {
    // With ξ far below the Lemma C.1 regime the APSP run must still terminate
    // and never *under*estimate; exactness may be lost (that is the Monte
    // Carlo failure event) but the fallback accounting must kick in.
    let g = cycle(150, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let out = solve(&mut net, &Query::apsp().xi(0.1).build().unwrap(), 3).unwrap();
    let dist = out.distances().expect("matrix answer");
    let exact = reference_apsp(&g);
    for u in g.nodes() {
        for v in g.nodes() {
            let got = dist.get(u, v);
            assert!(got >= exact.get(u, v), "no underestimates even on failure");
            assert!(got < INFINITY, "connected graph: something must be found");
        }
    }
}

#[test]
fn representative_fallback_charges_extra_exploration() {
    let g = path(60, 1).unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    // Skeleton = {0} with tiny h: the far source must fall back.
    let skel = Skeleton::from_nodes(&g, vec![NodeId::new(0)], 2).unwrap();
    let (reps, fallbacks) =
        compute_representatives(&mut net, &skel, &[NodeId::new(59)], 1, "reps").unwrap();
    assert_eq!(fallbacks, 1);
    assert_eq!(reps[0].dist, 59);
    assert!(net.rounds() >= 57);
}

#[test]
fn halved_caps_roughly_double_global_phase_rounds() {
    // The (λ, γ) story quantitatively: global-bound phases scale inversely
    // with the cap, local phases are untouched.
    let mut rng = StdRng::seed_from_u64(4);
    let g = erdos_renyi_connected(150, 0.06, 3, &mut rng).unwrap();
    let query = Query::apsp().xi(1.0).build().unwrap();
    let full = {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        solve(&mut net, &query, 7).unwrap();
        net.into_metrics()
    };
    let halved = {
        let mut net = HybridNet::new(&g, HybridConfig::degraded(0.5, 2.0));
        solve(&mut net, &query, 7).unwrap();
        net.into_metrics()
    };
    assert_eq!(full.local_rounds, halved.local_rounds, "local mode unaffected");
    assert!(
        halved.global_rounds > full.global_rounds,
        "global rounds must grow when γ shrinks ({} vs {})",
        halved.global_rounds,
        full.global_rounds
    );
}

#[test]
fn zero_weight_and_duplicate_edges_rejected_at_the_source() {
    use hybrid_shortest_paths::graph::{GraphBuilder, GraphError};
    let mut b = GraphBuilder::new(3);
    assert!(matches!(
        b.add_edge(NodeId::new(0), NodeId::new(1), 0),
        Err(GraphError::ZeroWeight { .. })
    ));
    b.add_edge(NodeId::new(0), NodeId::new(1), 2).unwrap();
    assert!(matches!(
        b.add_edge(NodeId::new(1), NodeId::new(0), 3),
        Err(GraphError::DuplicateEdge { .. })
    ));
}
