//! Experiment runner: prints the paper's tables (E1–E16) and drives the
//! scenario registry's smoke matrix.
//!
//! ```sh
//! cargo run --release -p hybrid-bench --bin experiments -- all
//! cargo run --release -p hybrid-bench --bin experiments -- e2 e5 e16
//! cargo run --release -p hybrid-bench --bin experiments -- --small all
//! cargo run --release -p hybrid-bench --bin experiments -- --large e2 e4
//! cargo run --release -p hybrid-bench --bin experiments -- --list
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --via-session
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --filter faulty
//! cargo run --release -p hybrid-bench --bin experiments -- --trace traces/
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --trace traces/
//! ```
//!
//! * `e1` … `e16` print those tables; `all` (the default) prints every one.
//!   An unknown experiment id or `--` flag exits with status 2.
//! * `--list` prints the scenario registry (names, tags, families, faults).
//! * `--smoke` runs the full registry (or the `--filter <tag>` subset) at
//!   tiny `n` with golden verification, then the churn repair sweep
//!   (patch-vs-full speedup, damage-threshold sweep, and the churn+chaos
//!   serving loop, gated on ≥ 2× incremental speedup, threshold-exact
//!   fallback and zero bit-identity mismatches), and exits non-zero on any
//!   failure — the CI gate.
//! * `--via-session` makes `--smoke` execute every suite through a serving
//!   `Session` instead of a cold `solve` — the CI guard that the session
//!   path answers bit-identically under golden verification.
//! * `--filter <tag>` restricts scenario selection (for `--smoke` and `e16`).
//! * `--trace <dir>` writes one Chrome-trace JSON (`<name>.trace.json`,
//!   simulated rounds as the clock — load in `chrome://tracing` or Perfetto)
//!   plus a text rollup (`<name>.rollup.txt`) per traced run into `<dir>`.
//!   Alone it traces the E2 workload and one `chaos-*` scenario; with
//!   `--smoke` it traces every scenario in the matrix, and a trace that
//!   fails to reconcile against the metrics counters fails the run.
//! * `--large` extends the E2/E4 sweeps to n = 3200 with sampled
//!   verification.

use hybrid_bench::experiments as ex;
use hybrid_bench::Scale;
use hybrid_scenarios::registry;

/// Prints `msg` and exits with status 2: the input was not understood.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    type Runner = fn(Scale) -> hybrid_bench::table::Table;
    let runs: [(&str, Runner); 16] = [
        ("e1", ex::e1_token_routing),
        ("e2", ex::e2_apsp),
        ("e3", ex::e3_kssp),
        ("e4", ex::e4_sssp),
        ("e5", ex::e5_diameter),
        ("e6", ex::e6_kssp_lower_bound),
        ("e7", ex::e7_diameter_lower_bound),
        ("e8", ex::e8_helper_sets),
        ("e9", ex::e9_ruling_sets),
        ("e10", ex::e10_skeletons),
        ("e11", ex::e11_congestion),
        ("e12", ex::e12_clique_sim),
        ("e13", ex::e13_xi_ablation),
        ("e14", ex::e14_mu_ablation),
        ("e15", ex::e15_gamma_ablation),
        ("e16", ex::e16_scenarios),
    ];
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One pass: `--filter` and `--trace` consume the following value, the
    // other flags stand alone, and everything else is an experiment id.
    let mut filter: Option<String> = None;
    let mut filter_flag = false;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut trace_flag = false;
    let mut wanted: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--filter" => {
                filter_flag = true;
                filter = iter.next().cloned();
            }
            "--trace" => {
                trace_flag = true;
                trace_dir = iter.next().map(std::path::PathBuf::from);
            }
            "--small" | "--large" | "--list" | "--smoke" | "--via-session" => {}
            flag if flag.starts_with("--") => usage_error(&format!(
                "unknown flag {flag} (flags: --small, --large, --list, --smoke, --via-session, \
                 --filter <tag>, --trace <dir>)"
            )),
            id if id == "all" || runs.iter().any(|(r, _)| *r == id) => wanted.push(id),
            id => usage_error(&format!("unknown experiment id {id:?} (e1 … e16, or all)")),
        }
    }
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else if args.iter().any(|a| a == "--large") {
        Scale::Large
    } else {
        Scale::Full
    };
    let list = args.iter().any(|a| a == "--list");
    let smoke = args.iter().any(|a| a == "--smoke");
    let engine = if args.iter().any(|a| a == "--via-session") {
        hybrid_scenarios::Engine::Session
    } else {
        hybrid_scenarios::Engine::Fresh
    };
    // Like a dangling --filter: a flag no code path will consult must error,
    // not silently run the Fresh engine.
    if engine == hybrid_scenarios::Engine::Session && !smoke {
        usage_error("--via-session applies to --smoke runs only; nothing here consults it");
    }
    if filter_flag && filter.is_none() {
        usage_error("--filter requires a tag (see --list for the registry's tags)");
    }
    if trace_flag && trace_dir.is_none() {
        usage_error("--trace requires an output directory for the trace/rollup files");
    }
    // `--trace` without `--smoke` is its own mode (trace the E2 workload plus
    // one chaos scenario, then exit); experiment ids alongside it would be
    // silently ignored, so they must error like any unconsulted flag.
    if trace_dir.is_some() && !smoke && (!wanted.is_empty() || list) {
        usage_error(
            "--trace combines only with --smoke; alone it traces the E2 workload and one chaos \
             scenario",
        );
    }
    // A filter that no code path will consult must error, not silently gate
    // nothing: it applies to --smoke and to the e16 scenario matrix.
    let runs_e16 = wanted.contains(&"e16") || wanted.contains(&"all") || wanted.is_empty();
    if filter.is_some() && !smoke && !list && !runs_e16 {
        usage_error("--filter applies to --smoke and e16 runs only; nothing here consults it");
    }

    if list {
        println!(
            "{} registered scenarios (tags: {}):",
            registry().len(),
            hybrid_scenarios::all_tags().join(", ")
        );
        for sc in registry() {
            println!(
                "  {:<22} family={:<16} faults={:<14} suite={:<14} seed={:<4} default_n={:<5} tags=[{}]",
                sc.name,
                sc.family.label(),
                sc.faults.label(),
                sc.suite.label(),
                sc.seed,
                sc.default_n,
                sc.tags.join(", "),
            );
        }
        return;
    }

    if smoke {
        eprintln!(
            "running scenario smoke matrix (n = {}, filter = {}, engine = {:?})...",
            ex::SMOKE_N,
            filter.as_deref().unwrap_or("<none>"),
            engine,
        );
        let reports = ex::scenario_reports_with(Scale::Small, filter.as_deref(), engine);
        if reports.is_empty() {
            usage_error(&format!("no scenarios match filter {filter:?}"));
        }
        let failures = reports.iter().filter(|r| !r.passed()).count();
        ex::scenario_table(&reports).print();
        // The churn repair sweep rides every smoke run: patch-vs-full wall
        // clock, the damage-threshold sweep, and the churn+chaos serving
        // loop, gated by `churn_gate_violations`.
        eprintln!("running churn repair sweep...");
        let churn = ex::churn_sweep();
        eprintln!(
            "churn repair at n = {}: patch {:.2} ms, full {:.2} ms, speedup {:.2}×",
            churn.n,
            churn.patch.wall_ns as f64 / 1e6,
            churn.full.wall_ns as f64 / 1e6,
            churn.speedup()
        );
        let churn_violations = ex::churn_gate_violations(&churn);
        for v in &churn_violations {
            eprintln!("churn gate FAILED: {v}");
        }
        // `--smoke --trace <dir>`: one traced run per scenario in the matrix,
        // exporting the Chrome trace + rollup; a reconciliation mismatch
        // fails the verdict and therefore the gate below.
        let trace_failures = if let Some(dir) = &trace_dir {
            eprintln!("exporting smoke-matrix traces into {}...", dir.display());
            let selected: Vec<&hybrid_scenarios::Scenario> = match filter.as_deref() {
                Some(tag) => hybrid_scenarios::by_tag(tag),
                None => registry().iter().collect(),
            };
            ex::export_scenario_traces(dir, &selected, ex::SMOKE_N)
        } else {
            0
        };
        if failures + churn_violations.len() + trace_failures > 0 {
            eprintln!(
                "{failures} scenario(s), {} churn gate violation(s), and {trace_failures} traced \
                 run(s) FAILED verification",
                churn_violations.len()
            );
            std::process::exit(1);
        }
        eprintln!("all scenarios passed golden verification (churn repair gate included)");
        return;
    }

    // Plain `--trace <dir>`: trace the E2 workload (the perf-trajectory
    // anchor) and the first chaos scenario (retransmission waves and
    // degradation events in the stream), then exit.
    if let Some(dir) = &trace_dir {
        let chaos = hybrid_scenarios::by_tag("chaos");
        let chaos_first = chaos.first().copied().expect("registry ships chaos scenarios");
        let e2 = hybrid_scenarios::find("e2-er").expect("registry ships e2-er");
        eprintln!("exporting traces into {}...", dir.display());
        let trace_failures = ex::export_scenario_traces(dir, &[e2, chaos_first], ex::SMOKE_N);
        if trace_failures > 0 {
            eprintln!("{trace_failures} traced run(s) FAILED verification");
            std::process::exit(1);
        }
        return;
    }

    let all = wanted.is_empty() || wanted.contains(&"all");
    for (id, f) in runs {
        if all || wanted.contains(&id) {
            eprintln!("running {id}...");
            if id == "e16" && filter.is_some() {
                ex::scenario_table(&ex::scenario_reports(scale, filter.as_deref())).print();
            } else {
                f(scale).print();
            }
        }
    }
}
