//! The repository's benchmark: three fixed-length, single-client, closed-loop
//! workloads through the public APIs of `hybrid-core` and `hybrid-serve`,
//! every answer checked, plus a traced run that attributes each op's time
//! to the layers (`graph`, `sim`, `core`, `serve`).
//!
//! ```text
//! hybrid-perfbench --workload <apsp-cold|serve-hot|churn-cycle> [--seed N]
//!                  [--seconds S] [--trace 0|1]
//! hybrid-perfbench --self-test
//! ```
//!
//! Run rules, each removing a measured noise source:
//!
//! * The process pins itself to one CPU, so every default worker budget
//!   resolves to 1; no `HYBRID_*_THREADS` variable is honoured.
//! * One client sends a fixed number of ops, derived from `--seconds` and
//!   the workload's nominal op cost, never from the clock. Inputs and order
//!   come from a SplitMix64 stream of the seed, so a run replays the same
//!   ops and every count repeats. Seed 0 gives the registry instances;
//!   other seeds relabel their nodes, so every seed times work of one size.
//! * Latency, throughput and set-up are on-CPU time, which leaves out
//!   hypervisor steal (see [`measure::Phase`]); the wall figures and the
//!   run's steal share are printed beside them.
//! * Malloc thresholds are fixed, so a large block's page faults do not
//!   depend on the heap history.
//! * Set-up and warm-up are outside the timed phase and reported as
//!   `setup_s`; checks and counter reads run between ops, outside every
//!   figure.
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run also writes its spans, in Chrome's trace format, under
//! `perfbench/out/`. A failed correctness gate exits with code 1.

mod apsp_cold;
mod churn_cycle;
mod measure;
mod probe;
mod serve_hot;
mod sys;

use std::fmt::Write as _;
use std::process::ExitCode;

use hybrid_graph::generators::cycle;
use hybrid_sim::{HybridConfig, HybridNet};

use measure::{Outcome, SpanLog, DEFAULT_SEED};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Workload {
    name: &'static str,
    /// Nominal wall time of one op on one CPU; the op count is
    /// `--seconds` divided by it, so it never depends on the clock.
    nominal_ms: f64,
    /// Op counts are rounded up to a multiple of this, so each half of a
    /// traced run holds whole request-mix blocks.
    granule: usize,
    min_ops: usize,
    bench: fn(u64, usize, usize, Option<&mut SpanLog>) -> Outcome,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "apsp-cold",
        nominal_ms: 33.0,
        granule: 2,
        min_ops: 100,
        bench: apsp_cold::bench,
    },
    Workload {
        name: "serve-hot",
        nominal_ms: 0.6,
        granule: 2 * serve_hot::BLOCK,
        min_ops: 1000,
        bench: serve_hot::bench,
    },
    Workload {
        name: "churn-cycle",
        nominal_ms: 52.0,
        granule: 16,
        min_ops: 96,
        bench: churn_cycle::bench,
    },
];

impl Workload {
    fn ops(&self, seconds: u64) -> usize {
        let ops = ((seconds as f64 * 1e3 / self.nominal_ms).ceil() as usize).max(self.min_ops);
        ops.div_ceil(self.granule) * self.granule
    }
}

/// The end-to-end metrics of the untraced run, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("sim_rounds", "rounds"),
    ("alloc_mb_per_op", "MB"),
    ("peak_heap_mb", "MB"),
];

/// Every per-layer metric of the traced run, with its unit. A workload
/// reports the ones its ops reach; the rest read 0 with no samples.
const PER_LAYER: [(&str, &str); 26] = [
    ("serve.digest_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.broker_self_us", "us"),
    ("serve.update_ms", "ms"),
    ("core.session_hit_us", "us"),
    ("core.session_warm_ms", "ms"),
    ("core.solve_cold_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("graph.lex_rows_ms", "ms"),
    ("graph.minplus_ms", "ms"),
    ("graph.apply_delta_us", "us"),
    ("sim.exchange_ns_per_msg", "ns"),
    ("sim.global_messages", "count"),
    ("sim.global_rounds", "rounds"),
    ("sim.local_rounds", "rounds"),
    ("sim.max_recv_load", "count"),
    ("core.report_hit_ratio", "ratio"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.verified", "count"),
    ("serve.mismatches", "count"),
    ("core.repair_patched_frac", "ratio"),
    ("core.dirty_fraction", "ratio"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.remainder_ms", "ms"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return Ok(Command::SelfTest);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

/// Drops `HYBRID_*_THREADS` overrides (they change the measured path),
/// fixes the allocator's thresholds and pins the process to one CPU;
/// returns that CPU.
fn prepare_process() -> Result<usize, String> {
    for (key, value) in std::env::vars() {
        if key.starts_with("HYBRID_") && key.ends_with("_THREADS") {
            println!("ignoring {key}={value}: worker budgets come from the CPU affinity");
            // Still single-threaded here, so no other thread reads the
            // environment concurrently.
            std::env::remove_var(&key);
        }
    }
    sys::fix_malloc_thresholds()?;
    let (cpu, nproc) = sys::pin_to_one_cpu()?;
    let budget = std::thread::available_parallelism().map_or(0, |p| p.get());
    let probe_graph = cycle(3, 1).expect("triangle");
    let round_threads = HybridNet::new(&probe_graph, HybridConfig::default()).round_threads();
    println!(
        "host nproc={nproc} pinned to cpu {cpu}; worker budget: available_parallelism={budget} \
         round_threads={round_threads}"
    );
    if budget != 1 || round_threads != 1 {
        return Err(format!("pinning left a worker budget of {budget}/{round_threads}, not 1"));
    }
    Ok(cpu)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly the metrics the run mode registers.
fn result_json(out: &Outcome, names: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.metrics.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    s.push_str("}}");
    s
}

fn print_outcome(out: &Outcome, names: &[(&str, &str)]) {
    for line in &out.notes {
        println!("{line}");
    }
    for (name, unit) in names {
        match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) => {
                assert_eq!(m.unit, *unit, "{name} is registered in {unit}");
                println!("metric {name} = {} {unit} (n={})", m.value, m.samples)
            }
            None => println!("metric {name} = 0 {unit} (n=0: not reached by this workload)"),
        }
    }
    for g in &out.gates {
        println!("gate {}: {}", if g.passed { "pass" } else { "FAIL" }, g.name);
    }
    println!("ops attempted={} failed={} inputs={:016x}", out.attempted, out.failed, out.inputs);
}

fn run(args: &Args, cpu: usize) -> Result<Outcome, String> {
    let w = args.workload;
    let ops = w.ops(args.seconds);
    println!(
        "workload {} seed={} ops={ops} ({} s at a nominal {} ms/op) trace={}",
        w.name,
        args.seed,
        args.seconds,
        w.nominal_ms,
        u8::from(args.trace)
    );
    let steal0 = sys::steal_jiffies(cpu);
    let mut log = SpanLog::new();
    let out = if args.trace {
        (w.bench)(args.seed, ops, 1, Some(&mut log))
    } else {
        (w.bench)(args.seed, ops, SETUP_REPS, None)
    };
    match (steal0, sys::steal_jiffies(cpu)) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => println!(
            "steal on cpu {cpu} during the run: {:.2}% of {} jiffies",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
            t1 - t0
        ),
        _ => println!("steal on cpu {cpu}: unavailable"),
    }
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
        std::fs::write(&path, log.chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} spans to {}", log.len(), path.display());
    }
    Ok(out)
}

/// Checks the benchmark itself on every workload: two runs with one seed
/// give identical inputs and counts, a second seed gives other inputs, and
/// every run — the traced one included — passes every gate.
fn self_test() -> Vec<String> {
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        let ops = w.granule.max(8).next_multiple_of(w.granule);
        let a = (w.bench)(DEFAULT_SEED, ops, 1, None);
        let b = (w.bench)(DEFAULT_SEED, ops, 1, None);
        let c = (w.bench)(DEFAULT_SEED + 1, ops, 1, None);
        let mut log = SpanLog::new();
        let d = (w.bench)(DEFAULT_SEED + 1, ops, 1, Some(&mut log));
        let mut check = |ok: bool, what: &str| {
            println!("self-test {}: {} {what}", w.name, if ok { "pass" } else { "FAIL" });
            if !ok {
                failures.push(format!("{}: {what}", w.name));
            }
        };
        check(a.inputs == b.inputs, "one seed, identical inputs");
        check(a.counts == b.counts, &format!("one seed, identical counts {:?}", a.counts));
        check(a.inputs != c.inputs, "a second seed changes the inputs");
        for (label, o) in [("seed 0", &a), ("seed 0 again", &b), ("seed 1", &c), ("traced", &d)] {
            check(o.correct() && o.failed == 0, &format!("{label}: every gate passes"));
        }
    }
    failures
}

fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu = match prepare_process() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match command {
        Command::SelfTest => {
            let failures = self_test();
            if failures.is_empty() {
                println!("self-test: pass");
                return ExitCode::SUCCESS;
            }
            eprintln!("self-test failed: {failures:?}");
            return ExitCode::FAILURE;
        }
        Command::Run(args) => args,
    };
    let mut out = match run(&args, cpu) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let non_finite: Vec<&str> =
        out.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
    out.gate(format!("every metric is a finite number {non_finite:?}"), non_finite.is_empty());
    print_outcome(&out, names);
    println!("{}", result_json(&out, names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
