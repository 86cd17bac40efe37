//! Layer probes of the traced runs: public functions of a layer that the op
//! reaches only inside another call, re-run on the op's own input right
//! after it, so their time can be attributed without spans inside the
//! program.

use std::time::Instant;

use hybrid_graph::{Graph, NodeId};
use hybrid_sim::{Envelope, FlatInboxes, HybridConfig, HybridNet, Metrics, Recorder, TraceEvent};

use crate::measure::SplitMix64;

/// Drives `HybridNet::exchange_into` with random point-to-point traffic.
pub struct ExchangeProbe<'g> {
    net: HybridNet<'g>,
    outbox: Vec<Envelope<u64>>,
    inbox: FlatInboxes<u64>,
    rng: SplitMix64,
}

impl<'g> ExchangeProbe<'g> {
    pub fn new(g: &'g Graph, seed: u64) -> Self {
        ExchangeProbe {
            net: HybridNet::new(g, HybridConfig::default()),
            outbox: Vec::new(),
            inbox: FlatInboxes::new(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Runs one exchange per global round of `m` (the op's own volume:
    /// its messages spread evenly over its global rounds) and returns
    /// `(nanoseconds inside exchange_into, messages sent)`.
    pub fn replay(&mut self, m: &Metrics) -> (f64, u64) {
        let n = self.net.n();
        let rounds = m.global_rounds.max(1);
        let per_exchange = (m.global_messages / rounds) as usize;
        let mut ns = 0.0;
        for _ in 0..rounds {
            for k in 0..per_exchange as u64 {
                let src = NodeId::new(self.rng.below(n));
                let dst = NodeId::new(self.rng.below(n));
                self.outbox.push(Envelope::new(src, dst, k));
            }
            let t0 = Instant::now();
            self.net
                .exchange_into("probe", &mut self.outbox, &mut self.inbox)
                .expect("random traffic within the address range always exchanges");
            ns += t0.elapsed().as_nanos() as f64;
        }
        (ns, rounds * per_exchange as u64)
    }
}

/// Wall time of the program's own `prepare:*` spans in `rec`, in ms.
pub fn prepare_ms(rec: &Recorder) -> f64 {
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut us = 0u64;
    for ev in rec.events() {
        match ev {
            TraceEvent::SpanBegin { name, wall_us, .. } if name.starts_with("prepare:") => {
                open.push((name, *wall_us));
            }
            TraceEvent::SpanEnd { name, wall_us, .. } if name.starts_with("prepare:") => {
                if let Some(i) = open.iter().rposition(|(n, _)| n == name) {
                    us += wall_us - open.remove(i).1;
                }
            }
            _ => {}
        }
    }
    us as f64 / 1e3
}

/// Per-op means of the simulator's exact counters over a traced phase.
#[derive(Debug, Default)]
pub struct SimCounts {
    ops: u64,
    global_messages: u64,
    global_rounds: u64,
    local_rounds: u64,
    max_recv_load: usize,
}

impl SimCounts {
    /// Adds the counters of one op's protocol runs.
    pub fn add(&mut self, runs: &[&Metrics]) {
        self.ops += 1;
        for m in runs {
            self.global_messages += m.global_messages;
            self.global_rounds += m.global_rounds;
            self.local_rounds += m.local_rounds;
            self.max_recv_load = self.max_recv_load.max(m.max_recv_load);
        }
    }

    /// `(messages, global rounds, local rounds)` per op, and the largest
    /// per-node receive load of any exchange.
    pub fn per_op(&self) -> (f64, f64, f64, f64) {
        let ops = self.ops.max(1) as f64;
        (
            self.global_messages as f64 / ops,
            self.global_rounds as f64 / ops,
            self.local_rounds as f64 / ops,
            self.max_recv_load as f64,
        )
    }
}
