//! End-to-end integration tests: the distributed algorithms against the
//! sequential ground truth, across graph families — all driven through the
//! solver facade (`Query` → `solve` → `Report`), the same entry point the
//! scenario engine and the benchmarks use.

use hybrid_shortest_paths::graph::apsp::apsp;
use hybrid_shortest_paths::graph::bfs::unweighted_diameter;
use hybrid_shortest_paths::graph::dijkstra::{dijkstra, dijkstra_lex};
use hybrid_shortest_paths::graph::generators::{
    barbell, caterpillar, cycle, erdos_renyi_connected, grid, random_geometric_connected,
    random_tree,
};
use hybrid_shortest_paths::graph::{Distance, Graph, NodeId, INFINITY};
use hybrid_shortest_paths::scenarios::workloads::random_nodes;
use hybrid_shortest_paths::sim::{HybridConfig, HybridNet};
use hybrid_shortest_paths::{
    solve, ApspVariant, DiameterCorollary, Guarantee, KsspCorollary, Query, SsspVariant,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("erdos-renyi", erdos_renyi_connected(90, 0.06, 5, &mut rng).unwrap()),
        ("geometric", random_geometric_connected(80, 0.2, 4, &mut rng).unwrap()),
        ("grid", grid(8, 10, 3).unwrap()),
        ("tree", random_tree(70, 6, &mut rng).unwrap()),
        ("caterpillar", caterpillar(20, 2, 2).unwrap()),
        ("barbell", barbell(15, 10, 1).unwrap()),
    ]
}

#[test]
fn apsp_exact_across_families() {
    let query = Query::apsp().xi(2.0).build().unwrap();
    for (name, g) in families(1) {
        let exact = apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &query, 17).unwrap();
        assert_eq!(report.guarantee, Guarantee::Exact, "{name}");
        let out = report.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(out.get(u, v), exact.get(u, v), "{name}: pair ({u}, {v})");
            }
        }
    }
}

/// Both APSP pipelines where only the skeleton route can answer: on a
/// 400-cycle the hop diameter (200) exceeds the skeleton budget h, so every
/// pair more than h hops apart is unreachable in each node's h-hop-gated
/// local row and must come from the skeleton labels (`near ⊗ labels`) —
/// routed connector labels for Theorem 1.1 (h = ξ·√n·ln n = 180 at ξ = 1.5),
/// disseminated `d_h` labels for the SODA'20 baseline (h = 163 at ξ = 0.5;
/// at ξ = 1.5 its h = 488 would cover the whole cycle). A wrong label, or a
/// skipped skeleton merge, breaks the matrix.
#[test]
fn apsp_long_cycle_is_decided_by_the_routed_labels() {
    let g = cycle(400, 3).unwrap();
    let exact = apsp(&g);
    // Per node for Thm 1.1: the 19 hop distances 181..=199 twice each, plus
    // the antipode; for SODA'20 the 36 distances 164..=199 twice each, plus
    // the antipode.
    for (variant, xi, pinned_h, pinned_rounds, pinned_routed) in [
        (ApspVariant::Thm11, 1.5, 180, 594, 400 * 39),
        (ApspVariant::Soda20, 0.5, 163, 349, 400 * 73),
    ] {
        let query = Query::apsp().variant(variant).xi(xi).build().unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &query, 5).unwrap();
        let label = report.label();
        assert_eq!(report.h, pinned_h, "{label}");
        assert_eq!(report.rounds, pinned_rounds, "{label}");
        let out = report.distances().expect("matrix answer");
        let h = report.h as Distance;
        let mut routed_only = 0usize;
        for u in g.nodes() {
            let (dist, hops) = dijkstra_lex(&g, u);
            for v in g.nodes() {
                assert_eq!(out.get(u, v), exact.get(u, v), "{label}: pair ({u}, {v})");
                let gated = if hops[v.index()] <= h { dist[v.index()] } else { INFINITY };
                if out.get(u, v) < gated {
                    routed_only += 1;
                }
            }
        }
        assert_eq!(routed_only, pinned_routed, "{label}");
    }
}

/// Theorem 1.3 SSSP where only the skeleton route can answer: on a
/// 400-cycle at ξ = 1.5 the skeleton budget is h = 99 hops, so the 201 nodes
/// more than 99 hops from the source are unreachable in its h-hop-gated
/// local row and must come from the skeleton distances. At the ξ = 2 of
/// `sssp_exact_across_families` h likely reaches every node of those
/// 70–90-node graphs, so the local rows alone can decide each answer.
#[test]
fn sssp_long_cycle_is_decided_by_the_skeleton() {
    let g = cycle(400, 3).unwrap();
    let source = NodeId::new(0);
    let query = Query::sssp(source).xi(1.5).build().unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let report = solve(&mut net, &query, 5).unwrap();
    assert_eq!(report.guarantee, Guarantee::Exact);
    assert_eq!(report.h, 99);
    assert_eq!(report.rounds, 238);
    assert_eq!(report.skeleton_size, 34);
    let (s, row) = report.distance_row().expect("row answer");
    assert_eq!(s, source);
    assert_eq!(row, dijkstra(&g, source).as_slice());
    let (dist, hops) = dijkstra_lex(&g, source);
    let h = report.h as Distance;
    let skeleton_only = g
        .nodes()
        .filter(|v| {
            let gated = if hops[v.index()] <= h { dist[v.index()] } else { INFINITY };
            row[v.index()] < gated
        })
        .count();
    assert_eq!(skeleton_only, 201);
}

#[test]
fn apsp_baseline_exact_across_families() {
    let query = Query::apsp().variant(ApspVariant::Soda20).xi(2.0).build().unwrap();
    for (name, g) in families(2) {
        let exact = apsp(&g);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &query, 23).unwrap();
        let out = report.distances().expect("matrix answer");
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(out.get(u, v), exact.get(u, v), "{name}: pair ({u}, {v})");
            }
        }
    }
}

#[test]
fn sssp_exact_across_families() {
    for (name, g) in families(3) {
        let source = NodeId::new(g.len() / 3);
        let exact = dijkstra(&g, source);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &Query::sssp(source).xi(2.0).build().unwrap(), 29).unwrap();
        let (s, dist) = report.distance_row().expect("row answer");
        assert_eq!(s, source, "{name}");
        assert_eq!(dist, exact.as_slice(), "{name}");
        // Local BF agrees too — same facade, different variant.
        let bf = Query::sssp(source).variant(SsspVariant::LocalBellmanFord).build().unwrap();
        let mut net2 = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net2, &bf, 29).unwrap();
        assert_eq!(report.distance_row().unwrap().1, exact.as_slice(), "{name} (local BF)");
    }
}

#[test]
fn kssp_guarantees_across_families() {
    for (name, g) in families(4) {
        let n = g.len();
        // `SourceSet::Random { k }` resolves to the nodes the scenario engine
        // picks with `workloads::random_nodes`.
        let query = Query::kssp(KsspCorollary::Cor47).random_sources(4).xi(2.0).build().unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &query, 31).unwrap();
        let (resolved, _) = report.distance_rows().expect("rows answer");
        assert_eq!(resolved, random_nodes(n, 4, 31).as_slice(), "{name}");

        let mut rng = StdRng::seed_from_u64(5);
        let mut sources: Vec<NodeId> = (0..5).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
        sources.sort_unstable();
        sources.dedup();
        let exact = apsp(&g);
        let exact_rows: Vec<Vec<Distance>> =
            sources.iter().map(|&s| exact.row(s).to_vec()).collect();

        for (cor, eps, seed) in
            [(KsspCorollary::Cor47, 0.5, 31u64), (KsspCorollary::Cor48, 0.3, 37)]
        {
            let query = Query::kssp(cor).sources(sources.clone()).eps(eps).xi(2.0).build().unwrap();
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let report = solve(&mut net, &query, seed).unwrap();
            let ratio = report.max_ratio_vs(&exact_rows);
            // The report carries the Theorem 4.1 factor for this run — no
            // per-corollary math on the caller side.
            assert!(
                ratio <= report.guarantee.factor() + 1e-9,
                "{name}: cor{} ratio {ratio} > {}",
                cor.number(),
                report.guarantee.factor()
            );
        }
    }
}

#[test]
fn kssp_corollary46_source_capacity_and_guarantee() {
    let g = grid(10, 12, 1).unwrap();
    let sources = vec![NodeId::new(0), NodeId::new(59), NodeId::new(119)];
    let exact = apsp(&g);
    let exact_rows: Vec<Vec<Distance>> = sources.iter().map(|&s| exact.row(s).to_vec()).collect();
    let query = Query::kssp(KsspCorollary::Cor46).sources(sources).xi(2.0).build().unwrap();
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let report = solve(&mut net, &query, 41).unwrap();
    assert!(report.max_ratio_vs(&exact_rows) <= report.guarantee.factor() + 1e-9);
}

#[test]
fn diameter_guarantees_across_unweighted_families() {
    let gs: Vec<(&str, Graph)> = vec![
        ("grid", grid(6, 25, 1).unwrap()),
        ("caterpillar", caterpillar(40, 1, 1).unwrap()),
        ("barbell", barbell(12, 30, 1).unwrap()),
    ];
    for (name, g) in gs {
        let d = unweighted_diameter(&g);
        for (cor, seed) in [(DiameterCorollary::Cor52, 43u64), (DiameterCorollary::Cor53, 47)] {
            let query = Query::diameter(cor).eps(0.5).xi(1.5).build().unwrap();
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let report = solve(&mut net, &query, seed).unwrap();
            let estimate = report.diameter_estimate().expect("diameter answer");
            assert!(estimate >= d, "{name}/cor{}: undershoot", cor.number());
            let ratio = estimate as f64 / d as f64;
            assert!(
                ratio <= report.guarantee.factor() + 1e-9,
                "{name}/cor{}: ratio {ratio} > {}",
                cor.number(),
                report.guarantee.factor()
            );
        }
    }
}

#[test]
fn strict_congestion_policy_holds_on_moderate_instances() {
    // The w.h.p. congestion bounds (Lemma D.2) must hold under the failing
    // policy for a realistic APSP run.
    let mut rng = StdRng::seed_from_u64(9);
    let g = erdos_renyi_connected(120, 0.05, 3, &mut rng).unwrap();
    let exact = apsp(&g);
    let mut net = HybridNet::new(&g, HybridConfig::strict());
    let report = solve(&mut net, &Query::apsp().xi(2.0).build().unwrap(), 53).unwrap();
    let out = report.distances().expect("matrix answer");
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(out.get(u, v), exact.get(u, v));
        }
    }
    assert!(net.metrics().max_recv_load <= net.recv_cap());
    assert_eq!(report.global_messages, net.metrics().global_messages);
}
