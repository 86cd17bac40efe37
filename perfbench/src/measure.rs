//! Measurement plumbing shared by the workloads: per-op timing of the timed
//! phase, order statistics, the in-memory span log of traced runs, and the
//! result types `main` prints.

use std::fmt::Write as _;
use std::time::Instant;

use hybrid_graph::{Graph, GraphBuilder, NodeId};
use hybrid_sim::derive_seed;

use crate::sys;

/// The default workload seed: it reproduces the registry instances.
pub const DEFAULT_SEED: u64 = 0;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many observations the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name, unit, value, samples }
    }
}

/// A named correctness gate.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub passed: bool,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for a given seed (the self-test
    /// compares them across runs).
    pub counts: Vec<(&'static str, u64)>,
    /// Fingerprint of the generated inputs: equal seeds must give equal
    /// fingerprints, distinct seeds distinct ones.
    pub inputs: u64,
    /// Human-readable lines printed ahead of the result (attribution tables).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn gate(&mut self, name: impl Into<String>, passed: bool) {
        self.gates.push(Gate { name: name.into(), passed });
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The timed phase of a closed-loop run: wall time, on-CPU time and heap
/// allocation of every op, each measured around the op alone so checks and
/// counter reads between ops stay out of every figure.
///
/// Latency and throughput are taken over on-CPU time. The process is
/// pinned and single-threaded, and a single-client op never blocks or
/// sleeps, so an op's on-CPU time is its wall time minus the time the
/// hypervisor (steal) or another task took the CPU away: wall time this
/// program does not control. Steal on a 2-vCPU VM ranged from 1% to 26%
/// between runs, which moved apsp-cold's wall p90 by a third and its wall
/// throughput by a quarter. The wall figures are printed beside.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    alloc_bytes: u64,
    peak_live: u64,
}

impl Phase {
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_time_ns();
        sys::open_window();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let wall = t0.elapsed();
        let (bytes, peak) = sys::close_window();
        self.cpu_ms.push((sys::cpu_time_ns() - cpu0) as f64 / 1e6);
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.alloc_bytes += bytes;
        self.peak_live = self.peak_live.max(peak);
        out
    }

    pub fn ops(&self) -> usize {
        self.wall_ms.len()
    }

    /// The end-to-end figures every workload reports, after `setup_s`.
    pub fn end_to_end(&self, mean_rounds: f64) -> Vec<Metric> {
        let ops = self.ops();
        let cpu_ms: f64 = self.cpu_ms.iter().sum();
        vec![
            Metric::new("throughput_ops_s", "1/s", ops as f64 / (cpu_ms / 1e3), ops),
            Metric::new("latency_p50_ms", "ms", median(&self.cpu_ms), ops),
            Metric::new("latency_p90_ms", "ms", percentile(&self.cpu_ms, 0.9), ops),
            Metric::new("cpu_ms_per_op", "ms", cpu_ms / ops as f64, ops),
            Metric::new("sim_rounds", "rounds", mean_rounds, ops),
            Metric::new("alloc_mb_per_op", "MB", self.alloc_bytes as f64 / 1e6 / ops as f64, ops),
            Metric::new("peak_heap_mb", "MB", self.peak_live as f64 / 1e6, ops),
        ]
    }

    /// The wall-clock figures, for the human-readable lines.
    pub fn wall_note(&self) -> String {
        let wall_s: f64 = self.wall_ms.iter().sum::<f64>() / 1e3;
        format!(
            "wall clock (steal included): {:.4} ops/s, p50 = {:.4} ms, p90 = {:.4} ms (n={})",
            self.ops() as f64 / wall_s,
            median(&self.wall_ms),
            percentile(&self.wall_ms, 0.9),
            self.ops()
        )
    }
}

/// Set-up times of one run, on-CPU like the op figures (see [`Phase`]): the
/// workload sets up several times and reports the median, so one slow
/// set-up does not move `setup_s`.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` and records its CPU time.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_time_ns();
        let out = setup();
        self.0.push((sys::cpu_time_ns() - cpu0) as f64 / 1e9);
        out
    }

    /// Runs `more` and adds its CPU time to the last set-up's.
    pub fn time_more<T>(&mut self, more: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_time_ns();
        let out = more();
        *self.0.last_mut().expect("a set-up was timed") += (sys::cpu_time_ns() - cpu0) as f64 / 1e9;
        out
    }

    pub fn metric(&self) -> Metric {
        Metric::new("setup_s", "s", median(&self.0), self.0.len())
    }
}

/// One span of a traced run.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// The traced run's span log: spans around the benchmark's own calls into
/// the layers, kept in memory and written out once at exit.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { base: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64
    }

    /// Times `f` as a span of its own; returns its result and nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, op, parent);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    /// The log in Chrome's trace-event format (load it in `chrome://tracing`
    /// or Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Per-op layer attribution of a traced run: each part is the mean time per
/// op of one disjoint slice of the op, and the remainder is what no part
/// covers — the caller's self time.
#[derive(Debug, Default)]
pub struct Attribution {
    parts: Vec<(&'static str, &'static str, f64)>,
}

impl Attribution {
    /// Adds `ms_per_op` of layer `layer` under `part`.
    pub fn part(&mut self, layer: &'static str, part: &'static str, ms_per_op: f64) {
        self.parts.push((layer, part, ms_per_op));
    }

    /// The table lines, with `op_ms` (mean traced op) split into the parts
    /// and the remainder; returns them with the remainder in ms.
    pub fn table(&self, op_ms: f64, remainder_owner: &str) -> (Vec<String>, f64) {
        let covered: f64 = self.parts.iter().map(|p| p.2).sum();
        let remainder = op_ms - covered;
        let mut lines = vec![format!("attribution of the mean traced op ({op_ms:.4} ms):")];
        for (layer, part, ms) in &self.parts {
            lines.push(format!(
                "  {layer:<6} {part:<28} {ms:>10.4} ms  {:>6.2}%",
                100.0 * ms / op_ms
            ));
        }
        lines.push(format!(
            "  {:<6} {:<28} {remainder:>10.4} ms  {:>6.2}%",
            remainder_owner,
            "self (unattributed remainder)",
            100.0 * remainder / op_ms
        ));
        let mut layers: Vec<&str> = self.parts.iter().map(|p| p.0).collect();
        layers.sort_unstable();
        layers.dedup();
        let by_layer: Vec<String> = layers
            .iter()
            .map(|l| {
                let ms: f64 = self.parts.iter().filter(|p| p.0 == *l).map(|p| p.2).sum();
                format!("{l}={ms:.4}")
            })
            .collect();
        lines.push(format!(
            "  per layer (ms/op): {} remainder={remainder:.4} sum={op_ms:.4}",
            by_layer.join(" ")
        ));
        (lines, remainder)
    }
}

/// A SplitMix64 stream of a seed (the simulator's `derive_seed` over a
/// counter): the benchmark's only source of randomness, so a seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    seed: u64,
    draws: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { seed, draws: 0 }
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        self.draws += 1;
        (derive_seed(self.seed, self.draws) % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The workload seed's copy of `g`: its nodes relabelled by a SplitMix64
/// shuffle of the seed, or `g` itself for [`DEFAULT_SEED`]. A new seed thus gives new
/// inputs — other labels, so other skeleton members, routes and answers —
/// of the registry instance's size, degrees and weights, and runs on
/// different seeds time comparable work.
pub fn relabel(g: &Graph, seed: u64) -> Graph {
    if seed == DEFAULT_SEED {
        return g.clone();
    }
    let mut label: Vec<usize> = (0..g.len()).collect();
    SplitMix64::new(seed).shuffle(&mut label);
    let mut b = GraphBuilder::new(g.len());
    for e in g.edges() {
        b.add_edge(NodeId::new(label[e.u.index()]), NodeId::new(label[e.v.index()]), e.w)
            .expect("a relabelled simple graph stays simple");
    }
    b.build().expect("a relabelled connected graph stays valid")
}

/// The value of `key=` in a `key=value` response line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}
