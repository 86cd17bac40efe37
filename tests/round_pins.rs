//! Round pins: the simulated round bill, global message count and trace
//! event stream of every registry scenario at two sizes, checked on every
//! test run.
//!
//! Simulated rounds are the reproduction's scientific result, so a change
//! that moves any bill must say why: it edits this table in the same change
//! and records the reason in CHANGES.md. The same holds for the event
//! digest, a 64-bit FNV-1a over the scenario's
//! `Recorder::events_sans_wall()` in `Debug` form, one line per event: an
//! engine change that means to keep the simulation bit-identical leaves it
//! alone, and a change that legitimately alters events (a new event kind,
//! a renamed phase) edits the digests and says why in CHANGES.md. The table
//! comes from the scenario runner's fresh engine and covers all 28 registry
//! scenarios at n = 48 and n = 200, each at its own registry seed; bills and
//! events do not depend on the thread budget (`tests/parallel_determinism.rs`,
//! `crates/scenarios/tests/trace_determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hybrid_shortest_paths::scenarios::{registry, run_scenario_traced, Scenario, ScenarioReport};

/// `(scenario, n, seed, rounds, global messages, event digest)`.
const PINS: &[(&str, usize, u64, u64, u64, u64)] = &[
    ("e2-er", 48, 3, 122, 2360, 0x60a4_44d3_f189_1d81),
    ("e2-er-soda20", 48, 3, 96, 1012, 0xfc49_7c62_9935_2e03),
    ("sparse-grid-thm11", 48, 17, 126, 2806, 0x38fa_bf45_5bc2_dc9c),
    ("smallworld-ws-apsp", 48, 23, 124, 2906, 0xf061_f456_4960_0d4c),
    ("wan-clustered-apsp", 48, 29, 121, 1634, 0xdd89_97e3_d515_adc9),
    ("ba-powerlaw-apsp", 48, 31, 124, 2748, 0x5506_81a0_803b_b597),
    ("ba-powerlaw-sssp", 48, 37, 98, 1596, 0xeebd_71e5_17db_9254),
    ("heavy-hub-sssp-thm13", 48, 41, 134, 1524, 0xc817_0b35_fd1b_7b3c),
    ("geo-mesh-kssp47", 48, 43, 108, 2093, 0xf309_2a18_9b94_2228),
    ("grid-kssp46", 48, 47, 111, 1981, 0x85c7_ce59_04f3_fb1d),
    ("cycle-diam-32", 48, 53, 94, 2248, 0x3529_f094_58fd_301b),
    ("cycle-diam-1eps", 48, 53, 125, 1942, 0x4f15_0f32_9411_ca54),
    ("datacenter-thin-grid", 48, 99, 69, 1792, 0xa044_360f_1a8b_a01f),
    ("faulty-soda20", 48, 61, 114, 916, 0x5ead_dcca_ba0a_09e2),
    ("faulty-degraded-sssp", 48, 67, 138, 1524, 0x06dc_ac1d_575a_179a),
    ("faulty-drop-apsp", 48, 71, 215, 2223, 0x1319_58bf_e608_a065),
    ("crash-mid-run-apsp", 48, 73, 165, 2090, 0x5cc4_6b03_5839_c9e2),
    ("chaos-drop-p10-apsp", 48, 101, 337, 2439, 0xe0a2_164c_baa0_ae47),
    ("chaos-drop-p20-sssp", 48, 103, 436, 2205, 0x4e66_3a53_f3fd_7850),
    ("chaos-drop-p30-apsp", 48, 107, 625, 2766, 0x0ce5_d330_4124_d0b5),
    ("chaos-crash-storm-apsp", 48, 109, 304, 1309, 0x566a_a577_a51e_d555),
    ("chaos-drop-crash-diam", 48, 113, 342, 1734, 0x11f8_4ce1_6a6a_8a91),
    ("chaos-drop-crash-kssp", 48, 127, 682, 1788, 0x875a_8b33_c785_593e),
    ("churn-grid-apsp", 48, 131, 625, 10316, 0xe4ed_c709_e63e_5ced),
    ("churn-cycle-diam", 48, 137, 419, 7072, 0x546d_557d_f4b3_05b8),
    ("churn-thin-sssp", 48, 139, 503, 6096, 0x0440_87d8_1f8d_1215),
    ("churn-chaos-drop-apsp", 48, 149, 1260, 6780, 0xc93c_7869_946d_4394),
    ("churn-chaos-drop-crash-diam", 48, 151, 890, 4629, 0xe8b1_0eba_a569_ba5c),
    ("e2-er", 200, 3, 306, 16801, 0x1e4c_b1a8_2c02_f259),
    ("e2-er-soda20", 200, 3, 301, 8106, 0x8c30_49c4_17cc_bab7),
    ("sparse-grid-thm11", 200, 17, 333, 13694, 0xf53a_aa8a_5bfd_dc12),
    ("smallworld-ws-apsp", 200, 23, 311, 19115, 0x3c22_ede1_3ed4_eef3),
    ("wan-clustered-apsp", 200, 29, 305, 15192, 0xd34d_fa02_c3e4_24f4),
    ("ba-powerlaw-apsp", 200, 31, 307, 18395, 0x43dd_3647_3274_2dcf),
    ("ba-powerlaw-sssp", 200, 37, 216, 8318, 0xb82b_aa90_6975_848a),
    ("heavy-hub-sssp-thm13", 200, 41, 304, 8318, 0x162a_bd2c_4fd2_42fe),
    ("geo-mesh-kssp47", 200, 43, 201, 10301, 0x6afb_eb1a_01f1_3d76),
    ("grid-kssp46", 200, 47, 214, 11772, 0xe5d7_d03b_cee4_bcde),
    ("cycle-diam-32", 200, 53, 173, 11446, 0xc617_50de_1c53_2c85),
    ("cycle-diam-1eps", 200, 53, 225, 8454, 0x2e0c_0bb6_0ae9_31af),
    ("datacenter-thin-grid", 200, 99, 111, 10164, 0x754b_b6b8_d025_22a9),
    ("faulty-soda20", 200, 61, 350, 9972, 0x26a0_e0ab_0670_431c),
    ("faulty-degraded-sssp", 200, 67, 258, 6998, 0xcec3_ea39_d4aa_bfc8),
    ("faulty-drop-apsp", 200, 71, 641, 16413, 0x574c_3d1e_a976_2e94),
    ("crash-mid-run-apsp", 200, 73, 321, 12232, 0x62c1_8aa9_a202_3da4),
    ("chaos-drop-p10-apsp", 200, 101, 887, 17884, 0x1e3e_7228_9cb9_67f1),
    ("chaos-drop-p20-sssp", 200, 103, 926, 10595, 0x2bb2_b1e9_88d2_4124),
    ("chaos-drop-p30-apsp", 200, 107, 2010, 20549, 0x913e_d7ab_9bf4_feff),
    ("chaos-crash-storm-apsp", 200, 109, 334, 8525, 0x9d6a_e172_7f04_3426),
    ("chaos-drop-crash-diam", 200, 113, 571, 12216, 0xa537_19ad_d38c_f038),
    ("chaos-drop-crash-kssp", 200, 127, 1027, 13511, 0x2877_b653_206f_38f3),
    ("churn-grid-apsp", 200, 131, 1699, 58796, 0x0a5a_3569_452b_d770),
    ("churn-cycle-diam", 200, 137, 822, 40656, 0x2830_0eb0_71ee_8f8e),
    ("churn-thin-sssp", 200, 139, 1131, 37376, 0xbc87_929a_0f6b_299f),
    ("churn-chaos-drop-apsp", 200, 149, 4725, 76653, 0x6607_1b75_cae3_ba6a),
    ("churn-chaos-drop-crash-diam", 200, 151, 2081, 43929, 0x43bb_8224_aa35_9509),
];

/// 64-bit FNV-1a over the `Debug` form of each event, one line per event.
fn events_digest(events: &[hybrid_shortest_paths::sim::TraceEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ev in events {
        for b in format!("{ev:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs every scenario traced at size ≈ `n` on scoped workers and returns
/// each report with its event digest, in registry order.
fn run_traced(scenarios: &[&Scenario], n: usize) -> Vec<(ScenarioReport, u64)> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(scenarios.len());
    let slots: Vec<Mutex<Option<(ScenarioReport, u64)>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sc) = scenarios.get(i) else { break };
                let (report, rec) = run_scenario_traced(sc, n);
                let digest = events_digest(&rec.events_sans_wall());
                *slots[i].lock().expect("no poisoned slot") = Some((report, digest));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("lock").expect("every slot filled")).collect()
}

#[test]
fn every_registry_round_bill_matches_its_pin() {
    let scenarios: Vec<&Scenario> = registry().iter().collect();
    let mut mismatches = Vec::new();
    for n in [48, 200] {
        let pins: Vec<_> = PINS.iter().filter(|p| p.1 == n).collect();
        assert_eq!(pins.len(), scenarios.len(), "n = {n}: every registry scenario is pinned");
        for (sc, (report, digest)) in scenarios.iter().zip(run_traced(&scenarios, n)) {
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
            if digest != pin.5 {
                mismatches.push(format!(
                    "{} n={n} seed={}: pinned event digest {:#018x}, got {digest:#018x}",
                    sc.name, sc.seed, pin.5
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "round bills or event streams moved:\n{}",
        mismatches.join("\n")
    );
}
