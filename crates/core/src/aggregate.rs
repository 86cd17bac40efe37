//! NCC aggregation and broadcast (Lemma B.2, from Augustine et al. \[2\]).
//!
//! An aggregate-distributive function (min, max, sum, …) over per-node inputs is
//! computed and made known to *all* nodes in `O(log n)` rounds using only the
//! global network: convergecast up a binary tree over the node IDs, then
//! broadcast back down. Every round each node sends at most 2 and receives at
//! most 2 messages — far under the NCC caps, so this protocol is safe even under
//! the strict overflow policy.

use std::ops::Range;

use hybrid_graph::NodeId;
use hybrid_sim::{Envelope, FlatInboxes, HybridNet, SendQueues};

use crate::error::HybridError;

/// Depth of node `v` in the implicit binary tree over IDs (root = 0).
fn depth(v: usize) -> u32 {
    (v + 1).ilog2()
}

/// The IDs at depth `d` of the tree over `0..n`: `2^d − 1 .. 2^(d+1) − 1`.
fn level(d: usize, n: usize) -> Range<usize> {
    ((1 << d) - 1).min(n)..((1 << (d + 1)) - 1).min(n)
}

fn parent(v: usize) -> usize {
    (v - 1) / 2
}

fn children(v: usize, n: usize) -> impl Iterator<Item = usize> {
    [2 * v + 1, 2 * v + 2].into_iter().filter(move |&c| c < n)
}

/// Computes `combine` over all `Some` inputs and makes the result known to every
/// node. Returns `None` if no node holds a value.
///
/// Runs in `2 · ⌈log₂ n⌉ + O(1)` rounds on the global network (Lemma B.2).
///
/// # Errors
///
/// Propagates simulator errors (none expected: loads are ≤ 2 per node per round).
///
/// # Example
///
/// ```
/// use hybrid_graph::generators::path;
/// use hybrid_sim::{HybridConfig, HybridNet};
/// use hybrid_core::aggregate::aggregate_all;
///
/// # fn main() -> Result<(), hybrid_core::HybridError> {
/// let g = path(10, 1).expect("valid graph");
/// let mut net = HybridNet::new(&g, HybridConfig::strict());
/// let inputs: Vec<Option<u64>> = (0..10).map(|i| Some(i as u64)).collect();
/// let max = aggregate_all(&mut net, &inputs, "agg", |a, b| a.max(b))?;
/// assert_eq!(max, Some(9));
/// # Ok(())
/// # }
/// ```
pub fn aggregate_all<T, F>(
    net: &mut HybridNet<'_>,
    inputs: &[Option<T>],
    phase: &str,
    mut combine: F,
) -> Result<Option<T>, HybridError>
where
    T: Clone,
    F: FnMut(T, T) -> T,
{
    let n = net.n();
    assert_eq!(inputs.len(), n, "one input slot per node");
    let mut acc: Vec<Option<T>> = inputs.to_vec();
    let max_depth = if n <= 1 { 0 } else { depth(n - 1) as usize };
    // One outbox and one inbox arena serve every level's exchange.
    let mut outbox = Vec::new();
    let mut inboxes = FlatInboxes::new();

    // Convergecast: one exchange per depth level, deepest first.
    for d in (1..=max_depth).rev() {
        for v in level(d, n) {
            // A depth-d node is done after it sends (only shallower nodes
            // receive from here on), so the value moves out instead of
            // being cloned.
            if let Some(val) = acc[v].take() {
                outbox.push(Envelope::new(NodeId::new(v), NodeId::new(parent(v)), val));
            }
        }
        net.exchange_into(phase, &mut outbox, &mut inboxes)?;
        inboxes.drain_into(|v, (_, val)| {
            acc[v] = Some(match acc[v].take() {
                Some(cur) => combine(cur, val),
                None => val,
            });
        });
    }

    let result = acc[0].take();

    // Broadcast down: one exchange per depth level.
    if let Some(res) = &result {
        for d in 0..max_depth {
            for v in level(d, n) {
                for c in children(v, n) {
                    outbox.push(Envelope::new(NodeId::new(v), NodeId::new(c), res.clone()));
                }
            }
            net.exchange_into(phase, &mut outbox, &mut inboxes)?;
        }
    }
    Ok(result)
}

/// Broadcasts a list of `O(log n)`-bit words from one node to every node, via the
/// same binary tree, pipelined (`O(log n + |words| / log n)` rounds). Used to
/// publish the token-routing hash seed (`O(log² n)` bits ⇒ `Õ(1)` rounds,
/// matching Lemma 2.3).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn broadcast_words(
    net: &mut HybridNet<'_>,
    src: NodeId,
    words: &[u64],
    phase: &str,
) -> Result<(), HybridError> {
    let n = net.n();
    if n <= 1 || words.is_empty() {
        return Ok(());
    }
    let cap = net.send_cap();
    // Source ships words to the root first (pipelined), then the tree fans out.
    // Per tree level each node forwards to ≤ 2 children; batches of ⌊cap/2⌋.
    let batch = (cap / 2).max(1);
    // Route to root (node 0) unless src is the root.
    if src.index() != 0 {
        let mut queues = SendQueues::new();
        queues.reset(n, std::iter::repeat_n(src.index(), words.len()));
        for &w in words {
            queues.push(src.index(), Envelope::new(src, NodeId::new(0), w));
        }
        net.drain_queues_into(phase, &mut queues, |_, _| {})?;
    }
    // Pipelined fan-out: in round `t`, depth `d` forwards chunk `t - d`, so
    // only depths `t + 1 - chunks ..= t` send. Total rounds: depth +
    // ⌈|words|/batch⌉ - 1 instead of their product. One outbox and one
    // inbox arena serve every round.
    let max_depth = depth(n - 1) as usize;
    let chunks = words.len().div_ceil(batch);
    let mut outbox = Vec::new();
    let mut inboxes = FlatInboxes::new();
    for t in 0..max_depth + chunks - 1 {
        for d in (t + 1).saturating_sub(chunks)..=t.min(max_depth) {
            let chunk = &words[(t - d) * batch..((t - d + 1) * batch).min(words.len())];
            for v in level(d, n) {
                for c in children(v, n) {
                    for &w in chunk {
                        outbox.push(Envelope::new(NodeId::new(v), NodeId::new(c), w));
                    }
                }
            }
        }
        if !outbox.is_empty() {
            net.exchange_into(phase, &mut outbox, &mut inboxes)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::{cycle, path};
    use hybrid_sim::HybridConfig;

    #[test]
    fn max_over_all_nodes() {
        let g = cycle(33, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let inputs: Vec<Option<u64>> = (0..33).map(|i| Some((i * 7 % 13) as u64)).collect();
        let expect = inputs.iter().flatten().copied().max();
        let got = aggregate_all(&mut net, &inputs, "agg", |a, b| a.max(b)).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn rounds_are_logarithmic() {
        let g = path(128, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let inputs: Vec<Option<u64>> = (0..128).map(|i| Some(i as u64)).collect();
        aggregate_all(&mut net, &inputs, "agg", |a, b| a + b).unwrap();
        // 2 · ⌈log2 128⌉ = 14 rounds.
        assert!(net.rounds() <= 14, "rounds = {}", net.rounds());
    }

    #[test]
    fn sparse_inputs() {
        let g = path(20, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let mut inputs: Vec<Option<u64>> = vec![None; 20];
        inputs[17] = Some(5);
        inputs[3] = Some(9);
        let got = aggregate_all(&mut net, &inputs, "agg", |a, b| a.min(b)).unwrap();
        assert_eq!(got, Some(5));
    }

    #[test]
    fn empty_inputs_yield_none() {
        let g = path(8, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let inputs: Vec<Option<u64>> = vec![None; 8];
        assert_eq!(aggregate_all(&mut net, &inputs, "agg", |a, b| a + b).unwrap(), None);
    }

    #[test]
    fn single_node_network() {
        let g = hybrid_graph::GraphBuilder::new(1).build().unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let got = aggregate_all(&mut net, &[Some(42u64)], "agg", |a, b| a + b).unwrap();
        assert_eq!(got, Some(42));
        assert_eq!(net.rounds(), 0);
    }

    #[test]
    fn sum_aggregation() {
        let g = cycle(10, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let inputs: Vec<Option<u64>> = (0..10).map(|i| Some(i as u64)).collect();
        assert_eq!(aggregate_all(&mut net, &inputs, "agg", |a, b| a + b).unwrap(), Some(45));
    }

    #[test]
    fn broadcast_words_is_cheap() {
        let g = path(64, 1).unwrap(); // cap = 6
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let words: Vec<u64> = (0..24).collect(); // O(log² n) bits worth of seed
        broadcast_words(&mut net, NodeId::new(10), &words, "seed").unwrap();
        // ⌈24/6⌉ = 4 rounds to root + pipelined fan-out 6 + ⌈24/3⌉ - 1 = 13.
        assert!(net.rounds() <= 20, "rounds = {}", net.rounds());
    }
}
