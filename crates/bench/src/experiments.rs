//! The experiment runners E1–E16, one per theorem or ablation of the paper.
//! Each returns a printable table; the `experiments` binary prints them.
//! Beside them live the scenario smoke matrix and the churn repair sweep
//! that every `experiments --smoke` run gates on.
//!
//! Workload construction is delegated to the scenario engine
//! (`hybrid_scenarios`): the shared helpers in
//! [`hybrid_scenarios::workloads`] and, for the scenario matrix (E16), the
//! named registry entries themselves.

use clique_sim::declared::DeclaredKssp;
use clique_sim::{Beta, SourceCapacity};
use hybrid_core::helpers::compute_helpers;
use hybrid_core::lower_bound_experiments::{run_diameter_lower_bound, run_kssp_lower_bound};
use hybrid_core::ruling_set::{ruling_set, verify};
use hybrid_core::session::{Session, SessionConfig};
use hybrid_core::solver::{
    solve, ApspVariant, DiameterCorollary, KsspCorollary, Query, SsspVariant,
};
use hybrid_core::token_routing::{mu_for, route_tokens, RoutingRates, Token};
use hybrid_core::RepairPath;
use hybrid_graph::apsp::apsp;
use hybrid_graph::dijkstra::shortest_path_diameter;
use hybrid_graph::generators::{cycle, grid, path_with_heavy_hub};
use hybrid_graph::skeleton::{count_coverage_violations, count_distance_violations};
use hybrid_graph::{DeltaBatch, Distance, Graph, GraphDelta, NodeId, INFINITY};
use hybrid_scenarios::workloads::{er, random_nodes};
use hybrid_scenarios::{registry, run_scenario_traced, run_scenarios, Scenario, ScenarioReport};
use hybrid_serve::{
    run_load, Broker, BrokerConfig, GraphCatalog, LoadReport, LoadSpec, LoadUpdate, TenantConfig,
};
use hybrid_sim::{HybridConfig, HybridNet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{f3, Table};

/// Experiment scale: `Small` for CI-sized runs, `Full` for the default tables,
/// `Large` for the n=3200 sweeps (compact-layout stress runs; correctness is
/// sample-verified there to keep one distance matrix in memory at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast sizes for CI-sized runs (`experiments --small`).
    Small,
    /// The default table sizes.
    Full,
    /// The extended n≤3200 sweeps (`experiments --large`).
    Large,
}

impl Scale {
    fn pick<T: Copy>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full | Scale::Large => full,
        }
    }

    fn pick3<T: Copy>(self, small: T, full: T, large: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
            Scale::Large => large,
        }
    }
}

/// The E2 workload graph, built from the registry's `e2-er` scenario, so the
/// E2 table and perfbench's apsp-cold workload solve the same instance. It is
/// bit-identical to the `er(n, 12.0, 4, 3)` instances recorded in the frozen
/// `BENCH_apsp.json` (pinned in `hybrid_scenarios::model`'s tests).
fn e2_graph(n: usize) -> Graph {
    hybrid_scenarios::find("e2-er").expect("registered").graph(n)
}

fn ratio_stats(est: &[Vec<Distance>], exact: &[Vec<Distance>]) -> (f64, f64) {
    let (mut worst, mut sum, mut cnt) = (1.0f64, 0.0f64, 0u64);
    for (row, erow) in est.iter().zip(exact) {
        for (&a, &e) in row.iter().zip(erow) {
            if e == 0 || e == INFINITY || a == INFINITY {
                continue;
            }
            let r = a as f64 / e as f64;
            worst = worst.max(r);
            sum += r;
            cnt += 1;
        }
    }
    (worst, if cnt > 0 { sum / cnt as f64 } else { 1.0 })
}

/// E1 — Theorem 2.2: token routing rounds vs the `Õ(K/n + √k_S + √k_R)` shape.
pub fn e1_token_routing(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1: token routing (Thm 2.2) — rounds vs Õ(K/n + √kS + √kR)",
        &["n", "|S|", "|R|", "kS", "kR", "K", "rounds", "K/n+√kS+√kR"],
    );
    let sizes: &[usize] = scale.pick(&[150, 300], &[200, 400, 800, 1600]);
    for &n in sizes {
        let g = er(n, 10.0, 1, 7);
        let s_count = (n as f64).sqrt() as usize;
        let senders = random_nodes(n, s_count, 1);
        let receivers = random_nodes(n, s_count, 2);
        let per = (n as f64).sqrt() as usize;
        let mut rng = StdRng::seed_from_u64(3);
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..per {
                let r = receivers[rng.gen_range(0..receivers.len())];
                tokens.push(Token::new(s, r, i as u32, 0u64));
            }
        }
        let k_total = tokens.len();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let routed = route_tokens(
            &mut net,
            tokens,
            &senders,
            &receivers,
            RoutingRates {
                p_s: senders.len() as f64 / n as f64,
                p_r: receivers.len() as f64 / n as f64,
            },
            11,
            "tr",
        )
        .expect("routing");
        let ks = per;
        let kr = k_total.div_ceil(receivers.len().max(1));
        let pred = k_total as f64 / n as f64 + (ks as f64).sqrt() + (kr as f64).sqrt();
        t.row(vec![
            n.to_string(),
            senders.len().to_string(),
            receivers.len().to_string(),
            ks.to_string(),
            kr.to_string(),
            k_total.to_string(),
            routed.rounds.to_string(),
            f3(pred),
        ]);
    }
    t
}

/// E2 — Theorem 1.1 vs the SODA'20 baseline: exact APSP round scaling.
///
/// At [`Scale::Large`] (n up to 3200) correctness is verified on 16 sampled
/// Dijkstra rows instead of a third full `n × n` matrix, so at most one
/// distance matrix beyond the answers is ever resident — the sweep fits the
/// container at n=3200.
pub fn e2_apsp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2: exact APSP (Thm 1.1, Õ(√n)) vs Augustine et al. baseline (Õ(n^2/3))",
        &["n", "thm1.1 rounds", "soda20 rounds", "√n·ln n", "n^2/3·ln n", "both exact"],
    );
    let sizes: &[usize] = scale.pick3(&[200, 400], &[300, 500, 800, 1200], &[800, 1600, 3200]);
    for &n in sizes {
        let g = e2_graph(n);
        let mut na = HybridNet::new(&g, HybridConfig::default());
        let a = solve(&mut na, &Query::apsp().xi(1.5).build().expect("valid"), 5).expect("apsp");
        let mut nb = HybridNet::new(&g, HybridConfig::default());
        let soda = Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().expect("valid");
        let b = solve(&mut nb, &soda, 5).expect("apsp baseline");
        let (ad, bd) = (a.distances().expect("matrix"), b.distances().expect("matrix"));
        let mut ok = true;
        if scale == Scale::Large {
            // Sampled verification: 16 deterministic source rows.
            let sources: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * (n / 16).max(1))).collect();
            for &u in &sources {
                let truth = hybrid_graph::dijkstra::dijkstra(&g, u);
                for v in g.nodes() {
                    ok &= ad.get(u, v) == truth.dist(v) && bd.get(u, v) == truth.dist(v);
                }
            }
        } else {
            let exact = apsp(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    ok &= ad.get(u, v) == exact.get(u, v) && bd.get(u, v) == exact.get(u, v);
                }
            }
        }
        let ln = (n as f64).ln();
        t.row(vec![
            n.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            f3((n as f64).sqrt() * ln),
            f3((n as f64).powf(2.0 / 3.0) * ln),
            ok.to_string(),
        ]);
    }
    t
}

/// E3 — Theorem 1.2 (Corollaries 4.6–4.8): k-SSP approximation quality and
/// runtime.
pub fn e3_kssp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3: k-SSP (Thm 1.2) — measured approximation vs guarantee",
        &["alg", "graph", "k", "rounds", "max ratio", "mean ratio", "guarantee"],
    );
    let n = scale.pick(150, 400);
    let side = (n as f64).sqrt() as usize;
    // The cycle has D = n/2 ≫ ηh, so the skeleton path (and its approximation
    // error) is actually exercised; on the small-diameter families the local
    // horizon already covers everything and ratios sit at 1.0.
    let cases: Vec<(&str, Graph, bool)> = vec![
        ("grid(unw)", grid(side, side, 1).expect("grid"), true),
        ("cycle(unw)", cycle(n, 1).expect("cycle"), true),
        ("er(w)", er(n, 10.0, 6, 9), false),
    ];
    for (gname, g, _unweighted) in &cases {
        let exact = apsp(g);
        // One serving session per graph: the three corollaries share the
        // session's prepared skeletons (4.6/4.7 sample at the same exponent)
        // with bit-identical reports.
        let session = Session::new(g, SessionConfig::new(31)).expect("session");
        for (cor, k, eps) in [
            (KsspCorollary::Cor46, 3usize, 0.5),
            (KsspCorollary::Cor47, 12, 0.5),
            (KsspCorollary::Cor48, 12, 0.25),
        ] {
            let sources = random_nodes(g.len(), k, 21);
            let exact_rows: Vec<Vec<Distance>> =
                sources.iter().map(|&s| exact.row(s).to_vec()).collect();
            let query =
                Query::kssp(cor).sources(sources.clone()).eps(eps).xi(1.5).build().expect("valid");
            let out = session.solve(&query).expect("kssp");
            let (_, est) = out.distance_rows().expect("rows");
            let (worst, mean) = ratio_stats(est, &exact_rows);
            t.row(vec![
                format!("cor{}", cor.number()),
                gname.to_string(),
                sources.len().to_string(),
                out.rounds.to_string(),
                f3(worst),
                f3(mean),
                f3(out.guarantee.factor()),
            ]);
        }
    }
    t
}

/// E4 — Theorem 1.3: exact SSSP `Õ(n^{2/5})` vs the `Θ(SPD)` local baseline
/// (and the `√SPD` reference of \[3\]).
pub fn e4_sssp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4: exact SSSP (Thm 1.3, Õ(n^2/5)) on high-SPD graphs",
        &["n", "SPD", "thm1.3 rounds", "local BF rounds", "√SPD ref", "exact"],
    );
    let sizes: &[usize] = scale.pick(&[600], &[800, 1600, 3200]);
    for &n in sizes {
        let g = path_with_heavy_hub(n, (n as u64) * 2).expect("hub graph");
        let spd = if n <= 800 { shortest_path_diameter(&g) } else { (n - 2) as u64 };
        let source = NodeId::new(0);
        let mut na = HybridNet::new(&g, HybridConfig::default());
        // ξ = 3: the Lemma C.1 failure probability is ≈ n^{-2}; the "exact"
        // column reports the Monte Carlo outcome.
        let a =
            solve(&mut na, &Query::sssp(source).xi(3.0).build().expect("valid"), 3).expect("sssp");
        let mut nb = HybridNet::new(&g, HybridConfig::default());
        let bf = Query::sssp(source).variant(SsspVariant::LocalBellmanFord).build().expect("valid");
        let b = solve(&mut nb, &bf, 3).expect("local bf");
        t.row(vec![
            n.to_string(),
            spd.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            f3((spd as f64).sqrt()),
            (a.distance_row().expect("row").1 == b.distance_row().expect("row").1).to_string(),
        ]);
    }
    t
}

/// E5 — Theorem 1.4 (Corollaries 5.2, 5.3): diameter approximation.
pub fn e5_diameter(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5: diameter (Thm 1.4) — (3/2+ε) in Õ(n^1/3), (1+ε) in Õ(n^0.397)",
        &["n", "D", "alg", "estimate", "ratio", "guarantee", "rounds"],
    );
    let sizes: &[usize] = scale.pick(&[300, 600], &[300, 600, 1200, 2400]);
    for &n in sizes {
        let g = cycle(n, 1).expect("cycle");
        let d = (n / 2) as u64;
        // Both corollaries serve from one session over the cycle instance.
        let session =
            Session::new(&g, SessionConfig { xi: 1.2, ..SessionConfig::new(5) }).expect("session");
        for cor in [DiameterCorollary::Cor52, DiameterCorollary::Cor53] {
            let query = Query::diameter(cor).eps(0.5).xi(1.2).build().expect("valid");
            let out = session.solve(&query).expect("diameter");
            let estimate = out.diameter_estimate().expect("estimate");
            t.row(vec![
                n.to_string(),
                d.to_string(),
                format!("cor{}", cor.number()),
                estimate.to_string(),
                f3(estimate as f64 / d as f64),
                f3(out.guarantee.factor()),
                out.rounds.to_string(),
            ]);
        }
    }
    t
}

/// E6 — Theorem 1.5 / Figure 1: the k-SSP information bottleneck.
pub fn e6_kssp_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6: k-SSP lower bound (Thm 1.5, Fig. 1) — entropy vs cut capacity",
        &[
            "k",
            "L",
            "n",
            "entropy bits",
            "cut bits/rd",
            "predicted LB",
            "measured",
            "cut msgs",
            "b decodes",
        ],
    );
    let ks: &[usize] = scale.pick(&[16, 36], &[16, 64, 144, 256]);
    for &k in ks {
        let l = (k as f64).sqrt().ceil() as usize;
        let rep = run_kssp_lower_bound(6 * l, l, k, 0.5, 5).expect("lb run");
        t.row(vec![
            k.to_string(),
            l.to_string(),
            rep.n.to_string(),
            f3(rep.entropy_bits),
            f3(rep.cut_capacity_bits_per_round),
            f3(rep.predicted_round_lb),
            rep.measured_rounds.to_string(),
            rep.measured_cut_messages.to_string(),
            rep.b_decodes_assignment.to_string(),
        ]);
    }
    t
}

/// E7 — Theorem 1.6 / Figure 2: the diameter gap and the implied bound.
pub fn e7_diameter_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7: diameter lower bound (Thm 1.6, Fig. 2) — set-disjointness gap",
        &[
            "k",
            "ell",
            "W",
            "instance",
            "n",
            "diameter",
            "lemma",
            "implied LB",
            "approx est",
            "cut msgs",
        ],
    );
    let ks: &[usize] = scale.pick(&[3, 5], &[4, 8, 12]);
    for &k in ks {
        for disjoint in [true, false] {
            for w in [1u64, 16] {
                let rep = run_diameter_lower_bound(k, 4, w, disjoint, 0.5, 11).expect("lb");
                assert!(rep.true_diameter <= rep.lemma_diameter);
                t.row(vec![
                    k.to_string(),
                    rep.ell.to_string(),
                    w.to_string(),
                    if disjoint { "disjoint" } else { "intersect" }.to_string(),
                    rep.n.to_string(),
                    rep.true_diameter.to_string(),
                    rep.lemma_diameter.to_string(),
                    f3(rep.implied_round_lb),
                    rep.approx_estimate.to_string(),
                    rep.cut_messages.to_string(),
                ]);
            }
        }
    }
    t
}

/// E8 — Lemma 2.2: helper-set invariants.
pub fn e8_helper_sets(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8: helper sets (Lemma 2.2) — size / radius / membership invariants",
        &["n", "|W|", "mu", "min |H_w|", "max radius", "4µ⌈log n⌉", "max member", "rounds"],
    );
    let n = scale.pick(200, 600);
    let g = er(n, 8.0, 1, 13);
    let log = hybrid_graph::graph::log2_ceil(n);
    for mu in [2usize, 4, 8] {
        let w = random_nodes(n, n / 10, 17);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let hs = compute_helpers(&mut net, &w, mu, 19, "helpers");
        let min_size = w.iter().map(|&x| hs.helpers(x).len()).min().unwrap_or(0);
        let mut max_radius = 0u64;
        for &x in &w {
            let d = hybrid_graph::bfs::bfs(&g, x);
            for &h in hs.helpers(x) {
                max_radius = max_radius.max(d.dist(h));
            }
        }
        t.row(vec![
            n.to_string(),
            w.len().to_string(),
            mu.to_string(),
            min_size.to_string(),
            max_radius.to_string(),
            (4 * mu * log).to_string(),
            hs.max_membership().to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E9 — Lemma 2.1: ruling-set contract and round cost.
pub fn e9_ruling_sets(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9: ruling sets (Lemma 2.1) — (2µ+1, 2µ⌈log n⌉) in O(µ log n) rounds",
        &["n", "mu", "|R|", "min pairwise", "α", "max dominate", "β", "rounds"],
    );
    let n = scale.pick(200, 800);
    let g = er(n, 6.0, 1, 23);
    for mu in [1usize, 2, 4, 8] {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let rs = ruling_set(&mut net, mu, "rs");
        let (min_pair, max_dom) = verify(&g, &rs);
        t.row(vec![
            n.to_string(),
            mu.to_string(),
            rs.rulers.len().to_string(),
            if rs.rulers.len() > 1 { min_pair.to_string() } else { "-".into() },
            rs.alpha.to_string(),
            max_dom.to_string(),
            rs.beta.to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E10 — Lemmas C.1 / C.2: skeleton coverage and distance preservation.
pub fn e10_skeletons(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10: skeletons (Lemmas C.1/C.2) — coverage + distance preservation",
        &["n", "x exp", "|V_S|", "h", "coverage viol.", "distance viol."],
    );
    let n = scale.pick(200, 500);
    let g = er(n, 8.0, 5, 29);
    let mut rng = StdRng::seed_from_u64(31);
    for x_exp in [1.0 / 3.0, 0.5, 2.0 / 3.0] {
        let x_lemma = (n as f64).powf(1.0 - x_exp);
        let params = hybrid_graph::skeleton::SkeletonParams::scaled(x_lemma, 1.5);
        let skel =
            hybrid_graph::skeleton::Skeleton::build(&g, params, &[], &mut rng).expect("skeleton");
        let pairs: Vec<(NodeId, NodeId)> = (0..40)
            .map(|i| (NodeId::new((i * 13) % n), NodeId::new((i * 31 + 7) % n)))
            .filter(|(a, b)| a != b)
            .collect();
        let cov = count_coverage_violations(&g, skel.nodes(), skel.h(), &pairs);
        let dist = count_distance_violations(&g, &skel);
        t.row(vec![
            n.to_string(),
            f3(x_exp),
            skel.len().to_string(),
            skel.h().to_string(),
            cov.to_string(),
            dist.to_string(),
        ]);
    }
    t
}

/// E11 — Lemma D.2 / Lemma 2.3: receive-load histogram during token routing.
pub fn e11_congestion(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11: congestion (Lemma D.2) — per-round receive loads stay O(log n)",
        &["n", "K", "recv cap", "max recv load", "p99 load", "stretched"],
    );
    let sizes: &[usize] = scale.pick(&[200], &[200, 500, 1000]);
    for &n in sizes {
        let g = er(n, 10.0, 1, 37);
        let senders = random_nodes(n, n / 8, 41);
        let receivers = random_nodes(n, n / 8, 43);
        let mut rng = StdRng::seed_from_u64(47);
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..12u32 {
                let r = receivers[rng.gen_range(0..receivers.len())];
                tokens.push(Token::new(s, r, i, 0u8));
            }
        }
        let k = tokens.len();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        route_tokens(
            &mut net,
            tokens,
            &senders,
            &receivers,
            RoutingRates { p_s: 0.125, p_r: 0.125 },
            53,
            "tr",
        )
        .expect("routing");
        let m = net.metrics();
        let hist = &m.recv_load_hist;
        let total: u64 = hist.iter().sum();
        let mut acc = 0u64;
        let mut p99 = 0usize;
        for (load, &c) in hist.iter().enumerate() {
            acc += c;
            if acc as f64 >= 0.99 * total as f64 {
                p99 = load;
                break;
            }
        }
        t.row(vec![
            n.to_string(),
            k.to_string(),
            net.recv_cap().to_string(),
            m.max_recv_load.to_string(),
            p99.to_string(),
            m.stretched_exchanges.to_string(),
        ]);
    }
    t
}

/// E12 — Corollary 4.1: HYBRID cost of one simulated CLIQUE round vs
/// `Õ(n^{2x-1} + n^{x/2})`.
pub fn e12_clique_sim(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12: CLIQUE-on-skeleton (Cor 4.1) — one clique round in Õ(n^{2x-1}+n^{x/2})",
        &["n", "x", "|S|", "hybrid rounds/clique round", "n^{2x-1}+n^{x/2}"],
    );
    let n = scale.pick(300, 800);
    let g = er(n, 10.0, 3, 59);
    for x in [0.4f64, 0.5, 0.6, 2.0 / 3.0] {
        // A declared plugin with T_A = 1 makes the report's measured
        // full-round cost the quantity of interest.
        let alg =
            DeclaredKssp::custom("probe", SourceCapacity::Apsp, 0.0, 1.0, 1.0, Beta::Zero, None);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let skel = hybrid_core::skeleton_ops::compute_skeleton(&mut net, x, 1.0, &[], 61, "s")
            .expect("skeleton");
        let before = net.rounds();
        let sources = vec![NodeId::new(0)];
        let (_, rep) = hybrid_core::clique_on_skeleton::simulate_kssp_on_skeleton(
            &mut net, &skel, &alg, &sources, 67, "cs",
        )
        .expect("clique sim");
        let _ = before;
        let nf = n as f64;
        let pred = nf.powf(2.0 * x - 1.0) + nf.powf(x / 2.0);
        t.row(vec![
            n.to_string(),
            f3(x),
            skel.len().to_string(),
            rep.hybrid_rounds.to_string(),
            f3(pred),
        ]);
    }
    t
}

/// E13 — ablation: the skeleton constant `ξ` (correctness/cost trade-off the
/// w.h.p. Lemma C.1 constant controls). The ER graph's hop diameter (≈ 4) is
/// below every `h` tried, so its local rows alone are exact; the cycle's
/// (n/2) is not, and a sampling gap wider than `h` there leaves the skeleton
/// connected the long way round, so small ξ can return wrong distances.
pub fn e13_xi_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13 (ablation): skeleton constant ξ — h, rounds, exactness of Thm 1.1 APSP",
        &["family", "n", "xi", "|V_S|", "h", "rounds", "exact", "fallbacks"],
    );
    let n = scale.pick(200, 400);
    for (family, g) in [("er", er(n, 10.0, 4, 71)), ("cycle", cycle(n, 3).expect("cycle"))] {
        let exact = apsp(&g);
        for xi in [0.25f64, 0.5, 1.0, 1.5, 2.5] {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let query = Query::apsp().xi(xi).build().expect("valid");
            let out = solve(&mut net, &query, 73).expect("apsp");
            let dist = out.distances().expect("matrix");
            let ok = dist.as_flat() == exact.as_flat();
            t.row(vec![
                family.to_string(),
                n.to_string(),
                f3(xi),
                out.skeleton_size.to_string(),
                out.h.to_string(),
                out.rounds.to_string(),
                ok.to_string(),
                out.coverage_fallbacks.to_string(),
            ]);
        }
    }
    t
}

/// E14 — ablation: the helper budget µ (none / rebalanced √k/log n / the
/// paper's √k) on a fixed heavy routing workload.
pub fn e14_mu_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E14 (ablation): helper budget µ — setup vs routing trade-off (Thm 2.2)",
        &["n", "kR", "policy", "µ", "setup rounds", "route rounds", "total"],
    );
    let n = scale.pick(300, 800);
    let g = er(n, 10.0, 1, 79);
    let receivers = random_nodes(n, (n as f64).sqrt() as usize, 83);
    let senders: Vec<NodeId> = g.nodes().collect();
    // Every node sends one token to every receiver: kR = n (the APSP shape).
    let make_tokens = || -> Vec<Token<u8>> {
        let mut tokens = Vec::new();
        for &s in &senders {
            for (i, &r) in receivers.iter().enumerate() {
                if s != r {
                    tokens.push(Token::new(s, r, i as u32, 0));
                }
            }
        }
        tokens
    };
    let k_r = senders.len();
    let policies: Vec<(&str, usize)> = vec![
        ("µ=1 (no helpers)", 1),
        ("µ=√k/log n (default)", mu_for(k_r, receivers.len() as f64 / n as f64, n)),
        ("µ=√k (paper)", ((k_r as f64).sqrt() as usize).max(1)),
    ];
    for (name, mu) in policies {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let session = hybrid_core::token_routing::RoutingSession::establish_with_budgets(
            &mut net, &senders, &receivers, 1, mu, 89, "tr",
        )
        .expect("session");
        let setup = net.rounds();
        let routed = session.route(&mut net, make_tokens(), "tr").expect("route");
        t.row(vec![
            n.to_string(),
            k_r.to_string(),
            name.to_string(),
            mu.to_string(),
            setup.to_string(),
            routed.rounds.to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E15 — ablation: the global bandwidth `γ` (the (λ, γ) spectrum of hybrid
/// networks, footnote 2): scaling the NCC message budget.
pub fn e15_gamma_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15 (ablation): global budget γ — APSP rounds vs NCC cap scaling",
        &["n", "cap factor", "send cap", "rounds", "exact"],
    );
    let n = scale.pick(200, 400);
    let g = er(n, 10.0, 4, 97);
    let exact = apsp(&g);
    for factor in [0.5f64, 1.0, 2.0, 4.0] {
        let cfg = HybridConfig {
            send_cap_factor: factor,
            recv_cap_factor: 4.0 * factor,
            overflow: hybrid_sim::OverflowPolicy::Stretch,
        };
        let mut net = HybridNet::new(&g, cfg);
        let out =
            solve(&mut net, &Query::apsp().xi(1.5).build().expect("valid"), 101).expect("apsp");
        let dist = out.distances().expect("matrix");
        let mut ok = true;
        for u in g.nodes() {
            for v in g.nodes() {
                ok &= dist.get(u, v) == exact.get(u, v);
            }
        }
        t.row(vec![
            n.to_string(),
            f3(factor),
            net.send_cap().to_string(),
            out.rounds.to_string(),
            ok.to_string(),
        ]);
    }
    t
}

/// The standard mixed serving batch: 8 distinct paper queries (both APSP
/// variants, exact and approximate SSSP, two k-SSP corollaries, both
/// diameter corollaries, all at the session's ξ = 1.5) cycled to length `q`
/// — the repeat-heavy shape of serving traffic on one graph.
pub fn mixed_query_batch(q: usize) -> Vec<Query> {
    let base = [
        Query::apsp().xi(1.5).build().expect("valid"),
        Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().expect("valid"),
        Query::sssp(NodeId::new(0)).xi(1.5).build().expect("valid"),
        Query::sssp(NodeId::new(1))
            .variant(SsspVariant::ApproxSoda20 { eps: 0.5 })
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::kssp(KsspCorollary::Cor46)
            .random_sources(2)
            .eps(0.5)
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::kssp(KsspCorollary::Cor47)
            .random_sources(8)
            .eps(0.5)
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::diameter(DiameterCorollary::Cor52).eps(0.5).xi(1.5).build().expect("valid"),
        Query::diameter(DiameterCorollary::Cor53).eps(0.5).xi(1.5).build().expect("valid"),
    ];
    (0..q).map(|i| base[i % base.len()].clone()).collect()
}

/// One timed repair migration of the churn sweep.
#[derive(Debug, Clone, Copy)]
pub struct RepairRun {
    /// The session's damage threshold.
    pub threshold: f64,
    /// The path [`Session::apply_delta`] took.
    pub path: RepairPath,
    /// Fraction of nodes the delta dirtied.
    pub dirty_fraction: f64,
    /// Fastest wall clock of five migrations, in nanoseconds.
    pub wall_ns: u128,
}

/// The churn repair sweep's measurements ([`churn_sweep`]), gated by
/// [`churn_gate_violations`].
#[derive(Debug, Clone)]
pub struct ChurnSweep {
    /// Cycle size of the repair runs.
    pub n: usize,
    /// The reweight under a permissive damage threshold (incremental patch).
    pub patch: RepairRun,
    /// The same reweight under threshold 0 (forced full re-prepare).
    pub full: RepairRun,
    /// The same reweight across the damage-threshold sweep.
    pub thresholds: Vec<RepairRun>,
    /// The churn+chaos serving loop.
    pub serve: LoadReport,
}

impl ChurnSweep {
    /// Full re-prepare wall clock over incremental patch wall clock.
    pub fn speedup(&self) -> f64 {
        self.full.wall_ns as f64 / self.patch.wall_ns.max(1) as f64
    }
}

/// The churn repair sweep that rides every `experiments --smoke`, in three
/// parts:
///
/// * patch vs full — the same single-edge reweight (the canonical localized
///   delta) migrated through [`Session::apply_delta`] under a permissive
///   damage threshold (incremental patch) and under threshold 0 (forced full
///   re-prepare), on a weighted cycle at n = 2400. Cycles are the
///   bounded-growth family this comparison needs: h-hop balls grow linearly,
///   so the delta dirties a bounded skeleton fraction (`≈ 2h/n`) and the
///   patch path has real work to skip — on an ER graph the ball covers most
///   of the graph and the comparison degenerates.
/// * the damage-threshold sweep — the same migration at thresholds 0 … 1,
///   recording which path repair took and the delta's dirtied-node fraction.
/// * `churn-serve` — the churn+chaos serving loop at [`SMOKE_N`]: a healthy
///   and a lossy tenant racing reweight updates against queries through the
///   broker, every answer verified bit-identical online against the graph
///   epoch the request landed on.
pub fn churn_sweep() -> ChurnSweep {
    // The SSSP preamble's hop budget is h = ξ·n^{2/5}·ln n, so the reweight
    // below dirties ≈ 2h/n of the cycle — about a fifth at n = 2400. Much
    // smaller n and the ball swallows the cycle (no locality left to
    // exploit).
    let n = 2400;
    let g = cycle(n, 3).expect("cycle builds");
    let e0 = g.edges()[0];
    let mut batch = DeltaBatch::new();
    batch.push(GraphDelta::Reweight { u: e0.u, v: e0.v, w: 2 });
    let query = Query::sssp(NodeId::new(0)).build().expect("default SSSP query is valid");
    // One prepared session per threshold: `apply_delta` consults the
    // session's own damage threshold, and repair only migrates prepared
    // preambles, so each session solves once before the timed migrations.
    // The minimum of five filters scheduler noise.
    let timed = |threshold: f64| {
        let cfg = SessionConfig { damage_threshold: threshold, ..SessionConfig::new(41) };
        let session = Session::new(&g, cfg).expect("cycle session");
        session.solve(&query).expect("prepare the SSSP preamble");
        let (mut wall_ns, mut last) = (u128::MAX, None);
        for _ in 0..5 {
            let start = std::time::Instant::now();
            let (_, rep) = session.apply_delta(&batch).expect("churn batch validates");
            wall_ns = wall_ns.min(start.elapsed().as_nanos());
            last = Some(rep);
        }
        let rep = last.expect("five migrations ran");
        RepairRun { threshold, path: rep.path(), dirty_fraction: rep.dirty_fraction, wall_ns }
    };
    let patch = timed(0.75);
    let full = timed(0.0);
    let thresholds = [0.0, 0.1, 0.25, 0.5, 1.0].into_iter().map(timed).collect();

    // The serving loop runs at smoke size: the lossy tenant solves every
    // query cold through the reliable layer.
    let gs = cycle(SMOKE_N, 3).expect("cycle builds");
    let mut catalog = GraphCatalog::new();
    catalog.insert("churn-cycle", gs.clone());
    let broker = Broker::new(&catalog, BrokerConfig::new(17));
    broker.register_tenant("steady", TenantConfig::new(4)).expect("trivial tenant");
    let mut lossy = TenantConfig::new(4);
    lossy.faults = Some(hybrid_sim::FaultPlan::drops(0.15, 23));
    broker.register_tenant("lossy", lossy).expect("valid lossy plan");
    // Reweight-only updates stay valid no matter how often or in what order
    // clients land them, so every injection must succeed.
    let updates: Vec<LoadUpdate> = gs
        .edges()
        .iter()
        .step_by(7)
        .take(2)
        .enumerate()
        .map(|(i, e)| {
            let mut b = DeltaBatch::new();
            b.push(GraphDelta::Reweight { u: e.u, v: e.v, w: 2 + i as Distance });
            LoadUpdate { tenant: "steady".into(), graph: "churn-cycle".into(), batch: b }
        })
        .collect();
    let serve = run_load(
        &broker,
        &LoadSpec {
            name: "churn-serve".into(),
            clients: 3,
            requests_per_client: 6,
            tenants: vec!["steady".into(), "lossy".into()],
            graphs: vec!["churn-cycle".into()],
            queries: mixed_query_batch(4),
            seed: 17,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: None,
            updates,
            update_every: 3,
        },
    );
    ChurnSweep { n, patch, full, thresholds, serve }
}

/// The churn smoke gate over a [`churn_sweep`]: incremental repair must beat
/// the full re-prepare ≥ 2× at `n ≥ 400`, the full fallback must fire
/// exactly when the dirty fraction exceeds the damage threshold (and the
/// sweep must exercise both paths), and the churn+chaos serving loop must
/// apply updates with zero bit-identity mismatches and zero failures.
/// Returns the violations; empty means the gate holds.
pub fn churn_gate_violations(sweep: &ChurnSweep) -> Vec<String> {
    let mut v = Vec::new();
    if sweep.n < 400 {
        v.push(format!("patch-vs-full must be measured at n ≥ 400, got n = {}", sweep.n));
    }
    if sweep.patch.path != RepairPath::Patched {
        v.push(format!("the patch run took the {:?} path", sweep.patch.path));
    }
    if sweep.full.path != RepairPath::Full {
        v.push(format!("the full run took the {:?} path", sweep.full.path));
    }
    let speedup = sweep.speedup();
    if speedup < 2.0 {
        v.push(format!(
            "incremental repair must be ≥ 2× faster than the full re-prepare at n = {}, got \
             {speedup:.2}×",
            sweep.n
        ));
    }
    let (mut fulls, mut patches) = (0, 0);
    for r in &sweep.thresholds {
        let want =
            if r.dirty_fraction > r.threshold { RepairPath::Full } else { RepairPath::Patched };
        if r.path != want {
            v.push(format!(
                "threshold {:.2}: dirty fraction {:.4} must take the {want:?} path, took {:?}",
                r.threshold, r.dirty_fraction, r.path
            ));
        }
        match r.path {
            RepairPath::Full => fulls += 1,
            RepairPath::Patched => patches += 1,
        }
    }
    if fulls == 0 || patches == 0 {
        v.push(format!(
            "threshold sweep must exercise both repair paths (full: {fulls}, patched: {patches})"
        ));
    }
    let serve = &sweep.serve;
    if serve.stats.mismatches > 0 {
        v.push(format!(
            "churn-serve: {} bit-identity mismatch(es) under churn+chaos",
            serve.stats.mismatches
        ));
    }
    if serve.failed > 0 {
        v.push(format!("churn-serve: {} request(s)/update(s) failed", serve.failed));
    }
    if serve.served == 0 {
        v.push("churn-serve: no request was served".into());
    }
    if serve.updates_applied == 0 {
        v.push("churn-serve: no update was applied".into());
    }
    v
}

/// Node count for smoke-scale scenario runs (tiny-n full-matrix).
pub const SMOKE_N: usize = 48;

/// Runs the scenario registry (optionally filtered by tag) through cold
/// solves: at [`Scale::Small`] every scenario runs at [`SMOKE_N`] in one
/// parallel batch; otherwise scenarios run at their own `default_n`,
/// batched by size so the parallel runner still applies.
pub fn scenario_reports(scale: Scale, filter: Option<&str>) -> Vec<ScenarioReport> {
    let selected: Vec<&Scenario> = match filter {
        Some(tag) => hybrid_scenarios::by_tag(tag),
        None => registry().iter().collect(),
    };
    match scale {
        Scale::Small => run_scenarios(&selected, SMOKE_N),
        Scale::Full | Scale::Large => {
            let mut sizes: Vec<usize> = selected.iter().map(|s| s.default_n).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let mut out = Vec::new();
            for n in sizes {
                let group: Vec<&Scenario> =
                    selected.iter().copied().filter(|s| s.default_n == n).collect();
                out.extend(run_scenarios(&group, n));
            }
            out
        }
    }
}

/// Traces each scenario at size `n` and writes two artifacts per run into
/// `dir` (created if needed): `<name>.trace.json`, a Chrome-trace document
/// with simulated rounds as the clock (load it in `chrome://tracing` or
/// Perfetto), and `<name>.rollup.txt`, the per-phase text summary. Returns
/// the number of runs whose golden verification — which folds in trace
/// reconciliation against the metrics counters — failed.
pub fn export_scenario_traces(dir: &std::path::Path, scenarios: &[&Scenario], n: usize) -> usize {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
    let mut failures = 0;
    for sc in scenarios {
        let (report, rec) = run_scenario_traced(sc, n);
        let chrome = rec.chrome_trace();
        let rollup = rec.rollup();
        assert!(
            !rec.is_empty() && !chrome.is_empty() && !rollup.is_empty(),
            "{}: a traced run must emit events",
            sc.name
        );
        let trace_path = dir.join(format!("{}.trace.json", sc.name));
        std::fs::write(&trace_path, &chrome)
            .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
        let rollup_path = dir.join(format!("{}.rollup.txt", sc.name));
        std::fs::write(&rollup_path, &rollup)
            .unwrap_or_else(|e| panic!("write {}: {e}", rollup_path.display()));
        eprintln!(
            "traced {:<22} {:>6} events, top phase {} ({} rounds) -> {}",
            sc.name,
            report.trace_events,
            report.top_phase,
            report.top_phase_rounds,
            trace_path.display(),
        );
        if !report.passed() {
            eprintln!("  verification FAILED: {}", report.detail);
            failures += 1;
        }
    }
    failures
}

/// E16 — the scenario matrix: every registry workload (graph family × fault
/// plan × algorithm suite) with its golden-verification verdict.
pub fn e16_scenarios(scale: Scale) -> Table {
    scenario_table(&scenario_reports(scale, None))
}

/// Renders scenario reports as a printable table.
pub fn scenario_table(reports: &[ScenarioReport]) -> Table {
    let mut t = Table::new(
        "E16: scenario matrix — registry workloads under golden verification",
        &["scenario", "family", "faults", "suite", "n", "rounds", "msgs", "dropped", "verdict"],
    );
    for r in reports {
        t.row(vec![
            r.scenario.clone(),
            r.family.to_string(),
            r.faults.to_string(),
            r.suite.to_string(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.global_messages.to_string(),
            r.dropped_messages.to_string(),
            r.verdict.as_str().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_experiments_run() {
        // Smoke: the cheap experiments complete and produce rows.
        for table in [
            e1_token_routing(Scale::Small),
            e8_helper_sets(Scale::Small),
            e9_ruling_sets(Scale::Small),
            e10_skeletons(Scale::Small),
        ] {
            assert!(table.render().lines().count() > 4);
        }
    }

    #[test]
    fn export_scenario_traces_writes_chrome_trace_and_rollup() {
        let dir = std::env::temp_dir().join(format!("hybrid-trace-test-{}", std::process::id()));
        let sc = hybrid_scenarios::find("sparse-grid-thm11").expect("registered");
        let failures = export_scenario_traces(&dir, &[sc], 36);
        assert_eq!(failures, 0);
        let chrome = std::fs::read_to_string(dir.join("sparse-grid-thm11.trace.json")).unwrap();
        assert!(chrome.trim_start().starts_with('{'));
        assert!(chrome.contains("\"traceEvents\""));
        let rollup = std::fs::read_to_string(dir.join("sparse-grid-thm11.rollup.txt")).unwrap();
        assert!(!rollup.trim().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn churn_sweep_passes_the_gate_and_the_gate_bites() {
        let sweep = churn_sweep();
        let violations = churn_gate_violations(&sweep);
        assert!(violations.is_empty(), "{violations:#?}");
        // A doctored sweep must trip the gate: a slow patch path (1.5×) …
        let mut doctored = sweep.clone();
        doctored.patch.wall_ns = doctored.full.wall_ns * 2 / 3;
        assert!(!churn_gate_violations(&doctored).is_empty(), "speedup gate must bite");
        // … and one full fallback below the damage threshold, leaving both
        // paths exercised so only the threshold check can catch it.
        let mut doctored = sweep.clone();
        let patched = doctored.thresholds.iter_mut().find(|r| r.path == RepairPath::Patched);
        patched.expect("the sweep patches below its threshold").path = RepairPath::Full;
        assert!(!churn_gate_violations(&doctored).is_empty(), "threshold gate must bite");
    }

    #[test]
    fn scenario_smoke_matrix_all_pass() {
        let reports = scenario_reports(Scale::Small, None);
        assert_eq!(reports.len(), registry().len());
        assert!(reports.iter().all(|r| r.passed()), "{reports:?}");
        let filtered = scenario_reports(Scale::Small, Some("faulty"));
        assert!(!filtered.is_empty() && filtered.len() < reports.len());
        assert!(scenario_table(&reports).render().contains("pass"));
    }
}
