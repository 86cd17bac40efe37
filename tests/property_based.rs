//! Property-based tests (proptest) over the core invariants of the paper's
//! building blocks.

use hybrid_shortest_paths::core::dissemination::disseminate;
use hybrid_shortest_paths::core::hash::{KWiseHash, TokenLabel};
use hybrid_shortest_paths::core::ruling_set::{ruling_set, verify};
use hybrid_shortest_paths::core::token_routing::{route_tokens, RoutingRates, Token};
use hybrid_shortest_paths::graph::bfs::unweighted_diameter;
use hybrid_shortest_paths::graph::dijkstra::dijkstra;
use hybrid_shortest_paths::graph::generators::erdos_renyi_connected;
use hybrid_shortest_paths::graph::limited::hop_limited_distances;
use hybrid_shortest_paths::graph::lower_bounds::{GammaGraph, SetDisjointness};
use hybrid_shortest_paths::graph::skeleton::{count_distance_violations, Skeleton};
use hybrid_shortest_paths::graph::{Graph, NodeId, INFINITY};
use hybrid_shortest_paths::sim::{Envelope, FaultPlan, FlatInboxes, HybridConfig, HybridNet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (8usize..60, 0u64..1000, 1u64..8).prop_map(|(n, seed, w)| {
        let mut rng = StdRng::seed_from_u64(seed);
        erdos_renyi_connected(n, 2.5 / n as f64, w, &mut rng).expect("generator")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// d_h is monotone in h, sandwiched between d and ∞, and equals d at h = n.
    #[test]
    fn hop_limited_distance_invariants(g in arb_connected_graph(), src in 0usize..8) {
        let src = NodeId::new(src % g.len());
        let exact = dijkstra(&g, src);
        let mut prev = hop_limited_distances(&g, src, 0);
        for h in [1usize, 2, 4, 8, g.len()] {
            let cur = hop_limited_distances(&g, src, h);
            for v in g.nodes() {
                prop_assert!(cur[v.index()] <= prev[v.index()]);
                prop_assert!(cur[v.index()] >= exact.dist(v));
            }
            prev = cur;
        }
        for v in g.nodes() {
            prop_assert_eq!(prev[v.index()], exact.dist(v));
        }
    }

    /// Ruling sets honor their (α, β) contract on arbitrary connected graphs.
    #[test]
    fn ruling_set_contract(g in arb_connected_graph(), mu in 1usize..5) {
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let rs = ruling_set(&mut net, mu, "rs");
        prop_assert!(!rs.rulers.is_empty());
        let (min_pair, max_dom) = verify(&g, &rs);
        if rs.rulers.len() > 1 {
            prop_assert!(min_pair >= rs.alpha as u64);
        }
        prop_assert!(max_dom <= rs.beta as u64);
    }

    /// Token routing delivers every token exactly once, whatever the workload.
    #[test]
    fn token_routing_delivers(
        g in arb_connected_graph(),
        seed in 0u64..500,
        per in 1usize..5,
    ) {
        let n = g.len();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let ns = 2 + (seed as usize % 4);
        let senders: Vec<NodeId> = (0..ns).map(|i| NodeId::new((i * 7 + 1) % n)).collect();
        let mut senders = senders;
        senders.sort_unstable();
        senders.dedup();
        let receivers: Vec<NodeId> =
            { let mut r: Vec<NodeId> = (0..3).map(|i| NodeId::new((i * 11 + 2) % n)).collect(); r.sort_unstable(); r.dedup(); r };
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..per {
                let r = receivers[rng.gen_range(0..receivers.len())];
                tokens.push(Token::new(s, r, i as u32, (s.raw() as u64) << 16 | i as u64));
            }
        }
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let routed = route_tokens(
            &mut net, tokens.clone(), &senders, &receivers,
            RoutingRates { p_s: senders.len() as f64 / n as f64, p_r: receivers.len() as f64 / n as f64 },
            seed, "tr",
        ).unwrap();
        prop_assert_eq!(routed.len(), tokens.len());
        for t in &tokens {
            let got = routed.for_receiver(t.label.r);
            prop_assert!(got.iter().any(|g| g.label == t.label && g.payload == t.payload));
        }
    }

    /// Dissemination terminates with a radius no larger than the diameter.
    #[test]
    fn dissemination_radius_bounded(g in arb_connected_graph(), k in 1usize..40, seed in 0u64..100) {
        let n = g.len();
        let owners: Vec<NodeId> = (0..k).map(|i| NodeId::new((i * 13) % n)).collect();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let rep = disseminate(&mut net, &owners, seed, "d").unwrap();
        let diam = unweighted_diameter(&g);
        prop_assert!(rep.local_radius <= diam);
        prop_assert_eq!(rep.k, k);
    }

    /// Skeletons with h ≥ n preserve all pairwise distances exactly: every
    /// simple path fits in the hop budget, so d_h = d and skeleton edges carry
    /// true distances. (h ≥ diameter is NOT enough on weighted graphs — a
    /// minimum-weight path may use more hops than the hop diameter.)
    #[test]
    fn skeleton_distance_preservation(g in arb_connected_graph(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut nodes: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(0.3)).collect();
        if nodes.is_empty() { nodes.push(NodeId::new(0)); }
        let s = Skeleton::from_nodes(&g, nodes, g.len()).unwrap();
        prop_assert_eq!(count_distance_violations(&g, &s), 0);
    }

    /// The Γ construction's diameter gap (Lemmas 7.1/7.2) holds for arbitrary
    /// random instances.
    #[test]
    fn gamma_diameter_gap(k in 2usize..5, ell in 2usize..5, weighted in any::<bool>(), seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = if weighted { (ell as u64) * 3 + 1 } else { 1 };
        let dis = SetDisjointness::random_disjoint(k, &mut rng);
        let gd = GammaGraph::build(dis, ell, w).unwrap();
        let d_dis = if w == 1 {
            unweighted_diameter(&gd.graph)
        } else {
            hybrid_shortest_paths::graph::apsp::weighted_diameter(&gd.graph)
        };
        prop_assert!(d_dis <= gd.disjoint_diameter());

        let int = SetDisjointness::random_intersecting(k, &mut rng);
        let gi = GammaGraph::build(int, ell, w).unwrap();
        let d_int = if w == 1 {
            unweighted_diameter(&gi.graph)
        } else {
            hybrid_shortest_paths::graph::apsp::weighted_diameter(&gi.graph)
        };
        prop_assert_eq!(d_int, gi.intersecting_diameter());
        prop_assert!(d_int > d_dis);
    }

    /// k-wise hash evaluations are deterministic, in range, and roughly uniform.
    #[test]
    fn hash_family_behaviour(seed in 0u64..1000, range in 2u64..64, k in 2usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = KWiseHash::sample(k, range, &mut rng);
        let mut seen = vec![0u32; range as usize];
        for s in 0..32u32 {
            for r in 0..4u32 {
                let label = TokenLabel::new(NodeId::new(s as usize), NodeId::new(r as usize), 0);
                let v = h.eval(label.key());
                prop_assert!(v < range);
                prop_assert_eq!(v, h.eval(label.key()));
                seen[v as usize] += 1;
            }
        }
        // No bucket hogs everything (weak uniformity smoke check).
        let max = *seen.iter().max().unwrap();
        prop_assert!(max < 128, "degenerate hash: {max}");
    }

    /// Reliable exchange under any `drop_prob < 0.5` delivers every message
    /// to its (live) destination exactly once, in per-sender sequence order.
    #[test]
    fn reliable_exchange_delivers_every_message_in_order(
        g in arb_connected_graph(),
        drop_prob in 0.0f64..0.5,
        fault_seed in 0u64..1000,
        batch_seed in 0u64..1000,
        m in 1usize..80,
    ) {
        let n = g.len();
        let mut rng = StdRng::seed_from_u64(batch_seed);
        use rand::Rng;
        // Payload = batch index, so per-(src, dst) sequence order is simply
        // increasing payload.
        let batch: Vec<(usize, usize, u64)> = (0..m)
            .map(|i| (rng.gen_range(0..n), rng.gen_range(0..n), i as u64))
            .collect();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        net.inject_faults(&FaultPlan::drops(drop_prob, fault_seed)).unwrap();
        net.set_reliable(true);
        let mut outbox: Vec<Envelope<u64>> = batch
            .iter()
            .map(|&(s, d, p)| Envelope::new(NodeId::new(s), NodeId::new(d), p))
            .collect();
        let mut flat = FlatInboxes::new();
        net.exchange_into("pt", &mut outbox, &mut flat).unwrap();
        let inboxes: Vec<Vec<(NodeId, u64)>> = (0..n).map(|d| flat.node(d).to_vec()).collect();
        let listed: Vec<usize> = flat.iter().map(|(d, _)| d).collect();
        let metrics = net.metrics();

        // No crashes in the plan: nothing may be suppressed or declared dead,
        // and every single message must arrive.
        prop_assert_eq!(metrics.declared_dead, 0);
        prop_assert_eq!(metrics.suppressed_by_crash, 0);
        prop_assert_eq!(inboxes.iter().map(Vec::len).sum::<usize>(), batch.len());
        // `iter` lists exactly the non-empty inboxes, in destination order.
        let nonempty: Vec<usize> = (0..n).filter(|&d| !inboxes[d].is_empty()).collect();
        prop_assert_eq!(listed, nonempty);
        let mut seen = vec![false; batch.len()];
        for (d, slice) in inboxes.iter().enumerate() {
            for (src, payload) in slice {
                let idx = *payload as usize;
                prop_assert!(!seen[idx], "duplicate delivery of message {idx}");
                seen[idx] = true;
                prop_assert_eq!(batch[idx].0, src.index());
                prop_assert_eq!(batch[idx].1, d);
            }
            // Per-sender sequence order: payloads from one src must appear in
            // the order they were enqueued.
            for src in 0..n {
                let from_src: Vec<u64> =
                    slice.iter().filter(|(s, _)| s.index() == src).map(|(_, p)| *p).collect();
                prop_assert!(
                    from_src.windows(2).all(|w| w[0] < w[1]),
                    "out-of-sequence delivery {:?} for src {src} -> dst {d}",
                    from_src
                );
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "reliable exchange lost a message");
        prop_assert!(metrics.retransmissions >= metrics.dropped_by_loss);
    }

    /// Any delta sequence — however it is split into batches — equals the
    /// from-scratch construction of the final edge list (the canonicalization
    /// guarantee of `Graph::apply_delta`).
    #[test]
    fn delta_sequence_equals_from_scratch(
        g in arb_connected_graph(),
        seed in 0u64..1000,
        ops in 1usize..40,
    ) {
        use hybrid_shortest_paths::graph::{DeltaBatch, GraphBuilder, GraphDelta};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let n = g.len();
        // Shadow model of the live edge set, evolved alongside the ops.
        let mut live: BTreeMap<(u32, u32), u64> =
            g.edges().iter().map(|e| ((e.u.raw(), e.v.raw()), e.w)).collect();
        let mut batches: Vec<DeltaBatch> = vec![DeltaBatch::new()];
        for _ in 0..ops {
            let op = loop {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    continue;
                }
                let (u, v) = (NodeId::new(a.min(b)), NodeId::new(a.max(b)));
                let key = (u.raw(), v.raw());
                match rng.gen_range(0..3) {
                    0 if !live.contains_key(&key) => {
                        let w = rng.gen_range(1u64..100);
                        live.insert(key, w);
                        break GraphDelta::AddEdge { u, v, w };
                    }
                    1 if live.contains_key(&key) => {
                        live.remove(&key);
                        break GraphDelta::RemoveEdge { u, v };
                    }
                    2 if live.contains_key(&key) => {
                        let w = rng.gen_range(1u64..100);
                        live.insert(key, w);
                        break GraphDelta::Reweight { u, v, w };
                    }
                    _ => continue,
                }
            };
            if rng.gen_bool(0.3) {
                batches.push(DeltaBatch::new());
            }
            batches.last_mut().unwrap().push(op);
        }
        // Stepped application, batch by batch.
        let mut stepped = g.clone();
        for b in &batches {
            stepped = stepped.apply_delta(b).unwrap();
        }
        // The same ops as one batch.
        let one: DeltaBatch = batches.iter().flat_map(|b| b.ops().iter().copied()).collect();
        let direct = g.apply_delta(&one).unwrap();
        // From-scratch construction of the final (sorted) edge list.
        let mut fresh = GraphBuilder::new(n);
        for (&(u, v), &w) in &live {
            fresh.add_edge(NodeId::new(u as usize), NodeId::new(v as usize), w).unwrap();
        }
        let fresh = fresh.build().unwrap();
        prop_assert_eq!(&stepped, &direct);
        prop_assert_eq!(&stepped, &fresh);
    }

    /// Distances produced by the reference Dijkstra satisfy the triangle
    /// inequality and symmetry.
    #[test]
    fn reference_metric_axioms(g in arb_connected_graph()) {
        let m = hybrid_shortest_paths::graph::apsp::apsp(&g);
        for a in g.nodes().take(6) {
            for b in g.nodes().take(6) {
                prop_assert_eq!(m.get(a, b), m.get(b, a));
                for c in g.nodes().take(6) {
                    if m.get(a, b) != INFINITY && m.get(b, c) != INFINITY {
                        prop_assert!(m.get(a, c) <= m.get(a, b) + m.get(b, c));
                    }
                }
            }
        }
    }
}
