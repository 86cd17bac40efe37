//! Round pins: the simulated round bill and global message count of every
//! registry scenario at two sizes, checked on every test run.
//!
//! Simulated rounds are the reproduction's scientific result, so a change
//! that moves any bill must say why: it edits this table in the same change
//! and records the reason in CHANGES.md. The table comes from the scenario
//! runner's fresh engine and covers all 28 registry scenarios at n = 48 and
//! n = 200, each at its own registry seed; bills do not depend on the thread
//! budget (`tests/parallel_determinism.rs`).

use hybrid_shortest_paths::scenarios::{registry, run_scenarios, Scenario};

/// `(scenario, n, seed, rounds, global messages)`.
const PINS: &[(&str, usize, u64, u64, u64)] = &[
    ("e2-er", 48, 3, 122, 2360),
    ("e2-er-soda20", 48, 3, 96, 1012),
    ("sparse-grid-thm11", 48, 17, 126, 2806),
    ("smallworld-ws-apsp", 48, 23, 124, 2906),
    ("wan-clustered-apsp", 48, 29, 121, 1634),
    ("ba-powerlaw-apsp", 48, 31, 124, 2748),
    ("ba-powerlaw-sssp", 48, 37, 98, 1596),
    ("heavy-hub-sssp-thm13", 48, 41, 134, 1524),
    ("geo-mesh-kssp47", 48, 43, 108, 2093),
    ("grid-kssp46", 48, 47, 111, 1981),
    ("cycle-diam-32", 48, 53, 94, 2248),
    ("cycle-diam-1eps", 48, 53, 125, 1942),
    ("datacenter-thin-grid", 48, 99, 69, 1792),
    ("faulty-soda20", 48, 61, 114, 916),
    ("faulty-degraded-sssp", 48, 67, 138, 1524),
    ("faulty-drop-apsp", 48, 71, 215, 2223),
    ("crash-mid-run-apsp", 48, 73, 165, 2090),
    ("chaos-drop-p10-apsp", 48, 101, 337, 2439),
    ("chaos-drop-p20-sssp", 48, 103, 436, 2205),
    ("chaos-drop-p30-apsp", 48, 107, 625, 2766),
    ("chaos-crash-storm-apsp", 48, 109, 304, 1309),
    ("chaos-drop-crash-diam", 48, 113, 342, 1734),
    ("chaos-drop-crash-kssp", 48, 127, 682, 1788),
    ("churn-grid-apsp", 48, 131, 625, 10316),
    ("churn-cycle-diam", 48, 137, 419, 7072),
    ("churn-thin-sssp", 48, 139, 503, 6096),
    ("churn-chaos-drop-apsp", 48, 149, 1260, 6780),
    ("churn-chaos-drop-crash-diam", 48, 151, 890, 4629),
    ("e2-er", 200, 3, 306, 16801),
    ("e2-er-soda20", 200, 3, 301, 8106),
    ("sparse-grid-thm11", 200, 17, 333, 13694),
    ("smallworld-ws-apsp", 200, 23, 311, 19115),
    ("wan-clustered-apsp", 200, 29, 305, 15192),
    ("ba-powerlaw-apsp", 200, 31, 307, 18395),
    ("ba-powerlaw-sssp", 200, 37, 216, 8318),
    ("heavy-hub-sssp-thm13", 200, 41, 304, 8318),
    ("geo-mesh-kssp47", 200, 43, 201, 10301),
    ("grid-kssp46", 200, 47, 214, 11772),
    ("cycle-diam-32", 200, 53, 173, 11446),
    ("cycle-diam-1eps", 200, 53, 225, 8454),
    ("datacenter-thin-grid", 200, 99, 111, 10164),
    ("faulty-soda20", 200, 61, 350, 9972),
    ("faulty-degraded-sssp", 200, 67, 258, 6998),
    ("faulty-drop-apsp", 200, 71, 641, 16413),
    ("crash-mid-run-apsp", 200, 73, 321, 12232),
    ("chaos-drop-p10-apsp", 200, 101, 887, 17884),
    ("chaos-drop-p20-sssp", 200, 103, 926, 10595),
    ("chaos-drop-p30-apsp", 200, 107, 2010, 20549),
    ("chaos-crash-storm-apsp", 200, 109, 334, 8525),
    ("chaos-drop-crash-diam", 200, 113, 571, 12216),
    ("chaos-drop-crash-kssp", 200, 127, 1027, 13511),
    ("churn-grid-apsp", 200, 131, 1699, 58796),
    ("churn-cycle-diam", 200, 137, 822, 40656),
    ("churn-thin-sssp", 200, 139, 1131, 37376),
    ("churn-chaos-drop-apsp", 200, 149, 4725, 76653),
    ("churn-chaos-drop-crash-diam", 200, 151, 2081, 43929),
];

#[test]
fn every_registry_round_bill_matches_its_pin() {
    let scenarios: Vec<&Scenario> = registry().iter().collect();
    let mut mismatches = Vec::new();
    for n in [48, 200] {
        let pins: Vec<_> = PINS.iter().filter(|p| p.1 == n).collect();
        assert_eq!(pins.len(), scenarios.len(), "n = {n}: every registry scenario is pinned");
        for (sc, report) in scenarios.iter().zip(run_scenarios(&scenarios, n)) {
            let pin = pins
                .iter()
                .find(|p| p.0 == sc.name)
                .unwrap_or_else(|| panic!("{} at n = {n} has no pin", sc.name));
            assert_eq!(pin.2, sc.seed, "{} pin was taken at another seed", sc.name);
            assert!(report.passed(), "{} at n = {n}: {}", sc.name, report.detail);
            let got = (report.rounds, report.global_messages);
            if got != (pin.3, pin.4) {
                mismatches.push(format!(
                    "{} n={n} seed={}: pinned (rounds, messages) = ({}, {}), got {got:?}",
                    sc.name, sc.seed, pin.3, pin.4
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "round bills moved:\n{}", mismatches.join("\n"));
}
