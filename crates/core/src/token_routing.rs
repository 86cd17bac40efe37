//! The token routing protocol (§2, Algorithms 2–4, Theorem 2.2) — the paper's
//! central tool.
//!
//! Instance: senders `S` must deliver point-to-point tokens to receivers `R`
//! (each sender ≤ `k_S` tokens, each receiver ≤ `k_R`; receivers know the labels
//! they are owed). With `S, R` sampled at rates `p_S, p_R`, the protocol runs in
//! `Õ(K/n + √k_S + √k_R)` rounds:
//!
//! 1. **Helper sets** (Algorithm 1): `µ_S = ⌊min(√k_S, 1/p_S)⌋` helpers per
//!    sender, `µ_R` per receiver.
//! 2. **Preparation** (Algorithm 3): tokens / expected labels are balanced
//!    round-robin over each node's helpers through local flooding.
//! 3. **Routing scheme** (Algorithm 4): sender-helpers push tokens to
//!    pseudo-random *intermediate* nodes `h(s, r, i)` given by a shared
//!    `Θ(log n)`-wise independent hash (seed `O(log² n)` bits, broadcast in
//!    `Õ(1)` rounds); receiver-helpers then *request* their labels from the same
//!    intermediates, which answer in the following round. All queues are paced
//!    to `O(log n)` messages per node per round; Lemma D.2 guarantees no
//!    receive-side overload w.h.p., which the simulator verifies.
//! 4. Receivers collect their tokens from their helpers via local flooding.

use hybrid_graph::graph::log2_ceil;
use hybrid_graph::NodeId;
use hybrid_sim::{derive_seed, Envelope, FlatInboxes, HybridNet, SendQueues};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate::broadcast_words;
use crate::error::HybridError;
use crate::hash::{independence_for, KWiseHash, TokenLabel};
use crate::helpers::{compute_helpers, HelperSets};

/// A routable token: label (§2.2) plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<T> {
    /// The label `(s, r, i)`.
    pub label: TokenLabel,
    /// Payload (`O(log n)` bits in the model).
    pub payload: T,
}

impl<T> Token<T> {
    /// Creates a token.
    pub fn new(s: NodeId, r: NodeId, i: u32, payload: T) -> Self {
        Token { label: TokenLabel::new(s, r, i), payload }
    }
}

/// Sampling-rate context of Theorem 2.2: `S` and `R` were sampled with
/// probabilities `p_S` and `p_R` (this determines the helper budget `1/p`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingRates {
    /// Sampling probability of the sender set.
    pub p_s: f64,
    /// Sampling probability of the receiver set.
    pub p_r: f64,
}

impl RoutingRates {
    /// Both sides are the full node set (`p = 1`): helpers degenerate to the
    /// nodes themselves.
    pub fn dense() -> Self {
        RoutingRates { p_s: 1.0, p_r: 1.0 }
    }
}

/// Result of a routing run.
///
/// Node IDs are dense, so deliveries live in one receiver-grouped arena:
/// receiver `r`'s tokens are `tokens[starts[r]..starts[r + 1]]` — no hashing
/// on any lookup.
#[derive(Debug, Clone)]
pub struct RoutedTokens<T> {
    /// Delivered tokens, grouped by receiver and sorted by label within.
    tokens: Vec<Token<T>>,
    /// `n + 1` receiver boundaries into `tokens`.
    starts: Vec<u32>,
    /// Helper budgets used.
    pub mu_s: usize,
    /// Helper budgets used.
    pub mu_r: usize,
    /// Rounds consumed by this routing instance.
    pub rounds: u64,
}

impl<T> RoutedTokens<T> {
    /// Tokens delivered to `r` (sorted by label).
    pub fn for_receiver(&self, r: NodeId) -> &[Token<T>] {
        match (self.starts.get(r.index()), self.starts.get(r.index() + 1)) {
            (Some(&a), Some(&b)) => &self.tokens[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Total tokens delivered.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Computes the helper budget `µ` (Algorithm 2 sets `µ = ⌊min(√k, 1/p)⌋`).
///
/// We additionally divide by `⌈log₂ n⌉`: the setup cost is dominated by the
/// ruling set (`2µ log n` rounds) while the routing phase runs at
/// `k/(µ · log n)` rounds thanks to the `Θ(log n)` per-round message budget —
/// balancing the two gives `µ* = Θ(√k / log n)`, which keeps the total at the
/// same `Õ(√k)` as the paper's choice but with the crossover against the
/// SODA'20 baseline visible at simulable `n` (experiment E2).
pub fn mu_for(k: usize, p: f64, n: usize) -> usize {
    let budget = if p <= 0.0 { f64::MAX } else { 1.0 / p };
    let mu = (k as f64).sqrt().min(budget);
    ((mu / log2_ceil(n) as f64).floor() as usize).clamp(1, (mu.floor() as usize).max(1))
}

/// A reusable routing context: helper sets and the shared hash are
/// established once (Algorithm 2 step 1 + the seed broadcast of Lemma 2.3),
/// then any number of token batches between the same sender/receiver
/// populations can be routed (Algorithms 3–4 per batch). This is exactly the
/// structure the CLIQUE-on-skeleton simulation needs: Corollary 4.1 routes one
/// batch per simulated CLIQUE round over the same node set.
#[derive(Debug)]
pub struct RoutingSession {
    senders: Vec<NodeId>,
    receivers: Vec<NodeId>,
    hs: HelperSets,
    hr: HelperSets,
    hash: KWiseHash,
    mu_s: usize,
    mu_r: usize,
}

impl RoutingSession {
    /// Establishes helper sets sized for workloads of up to `expected_k_s`
    /// tokens per sender and `expected_k_r` per receiver, and broadcasts the
    /// shared hash seed.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the seed broadcast.
    #[allow(clippy::too_many_arguments)] // mirrors Theorem 2.2's parameter list
    pub fn establish(
        net: &mut HybridNet<'_>,
        senders: &[NodeId],
        receivers: &[NodeId],
        rates: RoutingRates,
        expected_k_s: usize,
        expected_k_r: usize,
        seed: u64,
        phase: &str,
    ) -> Result<Self, HybridError> {
        let n = net.n();
        let mu_s = mu_for(expected_k_s, rates.p_s, n);
        let mu_r = mu_for(expected_k_r, rates.p_r, n);
        Self::establish_with_budgets(net, senders, receivers, mu_s, mu_r, seed, phase)
    }

    /// Helper budgets `(µ_S, µ_R)` of this session.
    pub fn budgets(&self) -> (usize, usize) {
        (self.mu_s, self.mu_r)
    }

    /// Like [`RoutingSession::establish`], but with *explicit* helper budgets
    /// instead of the [`mu_for`] policy — the knob of ablation experiment E14
    /// (µ = 1: no helpers; µ = √k: the paper's asymptotic choice; in between:
    /// the rebalanced default).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the seed broadcast.
    pub fn establish_with_budgets(
        net: &mut HybridNet<'_>,
        senders: &[NodeId],
        receivers: &[NodeId],
        mu_s: usize,
        mu_r: usize,
        seed: u64,
        phase: &str,
    ) -> Result<Self, HybridError> {
        assert!(mu_s >= 1 && mu_r >= 1, "budgets must be positive");
        let n = net.n();
        // Algorithm 2 step 1: helper sets. µ = 1 means every node is its own
        // helper — zero setup rounds.
        let hs = if mu_s > 1 {
            compute_helpers(net, senders, mu_s, derive_seed(seed, 1), &format!("{phase}:helpers-s"))
        } else {
            HelperSets::trivial(senders, n)
        };
        let hr = if mu_r > 1 {
            compute_helpers(
                net,
                receivers,
                mu_r,
                derive_seed(seed, 2),
                &format!("{phase}:helpers-r"),
            )
        } else {
            HelperSets::trivial(receivers, n)
        };
        // Shared hash function: sampled at the minimum-ID sender, seed
        // broadcast over the global network (O(log² n) bits ⇒ Õ(1) rounds;
        // Lemma 2.3).
        let k_ind = independence_for(n);
        let mut hash_rng = StdRng::seed_from_u64(derive_seed(seed, 3));
        let hash = KWiseHash::sample(k_ind, n as u64, &mut hash_rng);
        let seed_origin = senders.iter().copied().min().unwrap_or(NodeId::new(0));
        broadcast_words(net, seed_origin, &hash.seed_words(), &format!("{phase}:hash-seed"))?;
        Ok(RoutingSession {
            senders: senders.to_vec(),
            receivers: receivers.to_vec(),
            hs,
            hr,
            hash,
            mu_s,
            mu_r,
        })
    }

    /// Routes one batch of tokens (Algorithms 3–4).
    ///
    /// # Errors
    ///
    /// * [`HybridError::DuplicateTokenLabel`] for non-unique labels within the
    ///   batch.
    /// * [`HybridError::MissingTokens`] if delivery is incomplete
    ///   (protocol-bug guard).
    /// * Simulator errors (congestion under the strict policy).
    pub fn route<T: Clone + Send + 'static>(
        &self,
        net: &mut HybridNet<'_>,
        mut tokens: Vec<Token<T>>,
        phase: &str,
    ) -> Result<RoutedTokens<T>, HybridError> {
        let start_rounds = net.rounds();
        let n = net.n();

        // One sort by label exposes duplicates and orders every sender's
        // tokens, the order Algorithm 3 hands them to helpers in. Batches
        // built in label order, the common case, cost one linear pass.
        tokens.sort_unstable_by_key(|t| t.label);
        if let Some(w) = tokens.windows(2).find(|w| w[0].label == w[1].label) {
            let l = w[0].label;
            return Err(HybridError::DuplicateTokenLabel {
                sender: l.s,
                receiver: l.r,
                index: l.i,
            });
        }
        // Delivery arena: receiver `r` fills `slots[starts[r]..starts[r + 1]]`
        // from `fill[r]` on; self-addressed tokens are delivered for free.
        let mut starts = vec![0u32; n + 1];
        for t in &tokens {
            starts[t.label.r.index() + 1] += 1;
        }
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        let mut fill = starts[..n].to_vec();
        let mut slots: Vec<Option<Token<T>>> = Vec::with_capacity(tokens.len());
        slots.resize_with(tokens.len(), || None);
        let mut routable = Vec::with_capacity(tokens.len());
        for t in tokens {
            if t.label.s == t.label.r {
                let r = t.label.r.index();
                slots[fill[r] as usize] = Some(t);
                fill[r] += 1;
            } else {
                routable.push(t);
            }
        }
        if routable.is_empty() {
            return Ok(self.delivered(slots, starts, 0));
        }

        // Algorithm 3: preparation — balanced round-robin assignment of
        // tokens to sender-helpers and of labels to receiver-helpers,
        // distributed by local flooding over the (measured) cluster radii
        // (Fact 2.4). Trivial helper families need no flooding.
        let prep_radius = 2 * (self.hs.radius + self.hr.radius);
        if prep_radius > 0 {
            net.charge_local(prep_radius as u64, &format!("{phase}:prep-detect"));
            net.charge_local(prep_radius as u64, &format!("{phase}:prep-flood"));
        }
        let labels: Vec<TokenLabel> = routable.iter().map(|t| t.label).collect();
        // Every token's intermediate h(s, r, i), evaluated once for both its
        // push and its request.
        let mids = self.hash.nodes_for(&labels);

        // Sender side: token j of sender s goes to helper hs[s][j mod |H_s|].
        // Algorithm 4 phase A: sender-helpers push tokens to intermediates,
        // whose stores fill as the tokens land.
        let push_helpers = round_robin(&self.hs, labels.iter().map(|l| l.s));
        let mut pushes = SendQueues::new();
        pushes.reset(n, push_helpers.iter().map(|h| h.index()));
        for ((t, &h), &mid) in routable.into_iter().zip(&push_helpers).zip(&mids) {
            pushes.push(h.index(), Envelope::new(h, mid, t));
        }
        let mut stores = IntermediateStores::new(n, &labels, &mids);
        net.drain_queues_into(&format!("{phase}:to-intermediates"), &mut pushes, |mid, (_, t)| {
            let slot = stores.slot(mid, t.label).expect("tokens land at their own intermediate");
            stores.payloads[slot] = Some(t.payload);
        })?;

        // Receiver side: expected label j of receiver r goes to helper
        // hr[r][j mod |H'_r|], walking each receiver's labels in label order.
        let (_, by_receiver) = group_by_node(n, labels.iter().map(|l| l.r));
        let request_helpers =
            round_robin(&self.hr, by_receiver.iter().map(|&j| labels[j as usize].r));
        let mut requests = SendQueues::new();
        requests.reset(n, request_helpers.iter().map(|h| h.index()));
        for (&j, &h) in by_receiver.iter().zip(&request_helpers) {
            requests.push(h.index(), Envelope::new(h, mids[j as usize], labels[j as usize]));
        }
        let mut responses = SendQueues::new();
        responses.reset(n, mids.iter().map(|mid| mid.index()));

        // Algorithm 4 phase B: receiver-helpers request labels; intermediates
        // answer in the next round. Requests and responses are interleaved,
        // each side paced to the send cap. The per-round exchanges reuse one
        // outbox and one flat-inbox arena each — no allocation per round.
        let cap = net.send_cap();
        let req_phase = format!("{phase}:requests");
        let resp_phase = format!("{phase}:responses");
        let mut req_outbox = Vec::new();
        let mut req_flat = FlatInboxes::new();
        let mut resp_outbox = Vec::new();
        let mut resp_flat = FlatInboxes::new();
        while !(requests.is_empty() && responses.is_empty()) {
            if !requests.is_empty() {
                requests.take_round(cap, &mut req_outbox);
                net.exchange_into(&req_phase, &mut req_outbox, &mut req_flat)?;
                stores.answer(&req_flat, &mut responses)?;
            }
            if !responses.is_empty() {
                responses.take_round(cap, &mut resp_outbox);
                net.exchange_into(&resp_phase, &mut resp_outbox, &mut resp_flat)?;
                resp_flat.drain_into(|_, (_, t)| {
                    let r = t.label.r.index();
                    slots[fill[r] as usize] = Some(t);
                    fill[r] += 1;
                });
            }
        }

        // Final step: receivers collect from their helpers via local flooding
        // over the receiver clusters (free when every receiver is its own
        // helper).
        if self.hr.radius > 0 {
            net.charge_local((2 * self.hr.radius) as u64, &format!("{phase}:collect"));
        }
        // Completeness guard.
        for r in 0..n {
            let (want, got) = (starts[r + 1] - starts[r], fill[r] - starts[r]);
            if got < want {
                let filled = &slots[starts[r] as usize..fill[r] as usize];
                let local = filled.iter().flatten().filter(|t| t.label.s == t.label.r).count();
                return Err(HybridError::MissingTokens {
                    receiver: NodeId::new(r),
                    expected: want as usize - local,
                    got: got as usize - local,
                });
            }
        }
        Ok(self.delivered(slots, starts, net.rounds() - start_rounds))
    }

    /// Packs a complete delivery arena into [`RoutedTokens`], each receiver's
    /// tokens sorted by label.
    fn delivered<T>(
        &self,
        slots: Vec<Option<Token<T>>>,
        starts: Vec<u32>,
        rounds: u64,
    ) -> RoutedTokens<T> {
        let mut tokens: Vec<Token<T>> =
            slots.into_iter().map(|t| t.expect("every slot is delivered")).collect();
        for w in starts.windows(2) {
            tokens[w[0] as usize..w[1] as usize].sort_unstable_by_key(|t| t.label);
        }
        RoutedTokens { tokens, starts, mu_s: self.mu_s, mu_r: self.mu_r, rounds }
    }

    /// The sender population of the session.
    pub fn senders(&self) -> &[NodeId] {
        &self.senders
    }

    /// The receiver population of the session.
    pub fn receivers(&self) -> &[NodeId] {
        &self.receivers
    }
}

/// Runs the token routing protocol end to end (Algorithm 2): establishes a
/// one-shot [`RoutingSession`] sized for this batch's workload and routes it.
///
/// `senders` / `receivers` must cover all token endpoints. Tokens with
/// `s == r` are delivered for free (no communication needed).
///
/// # Errors
///
/// * [`HybridError::DuplicateTokenLabel`] for non-unique labels.
/// * [`HybridError::MissingTokens`] if delivery is incomplete (protocol-bug
///   guard).
/// * Simulator errors (congestion under the strict policy).
pub fn route_tokens<T: Clone + Send + 'static>(
    net: &mut HybridNet<'_>,
    tokens: Vec<Token<T>>,
    senders: &[NodeId],
    receivers: &[NodeId],
    rates: RoutingRates,
    seed: u64,
    phase: &str,
) -> Result<RoutedTokens<T>, HybridError> {
    let start_rounds = net.rounds();
    let n = net.n();
    let mut per_sender: Vec<u32> = vec![0; n];
    let mut per_receiver: Vec<u32> = vec![0; n];
    for t in &tokens {
        if t.label.s != t.label.r {
            per_sender[t.label.s.index()] += 1;
            per_receiver[t.label.r.index()] += 1;
        }
    }
    let k_s = per_sender.iter().copied().max().unwrap_or(0) as usize;
    let k_r = per_receiver.iter().copied().max().unwrap_or(0) as usize;
    if k_s == 0 {
        // Nothing to route globally (possibly self-addressed tokens only).
        let session = RoutingSession {
            senders: senders.to_vec(),
            receivers: receivers.to_vec(),
            hs: HelperSets::trivial(senders, net.n()),
            hr: HelperSets::trivial(receivers, net.n()),
            hash: KWiseHash::from_seed_words(vec![1], net.n() as u64),
            mu_s: 1,
            mu_r: 1,
        };
        return session.route(net, tokens, phase);
    }
    let session = RoutingSession::establish(net, senders, receivers, rates, k_s, k_r, seed, phase)?;
    let mut routed = session.route(net, tokens, phase)?;
    routed.rounds = net.rounds() - start_rounds;
    Ok(routed)
}

/// Algorithm 3's balanced assignment: walking `owners` (each owner's items
/// consecutive), the `j`-th item of owner `w` goes to helper
/// `sets[w][j mod |H_w|]`.
fn round_robin(sets: &HelperSets, owners: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(owners.size_hint().0);
    let mut prev = None;
    let mut j = 0;
    for w in owners {
        if prev != Some(w) {
            prev = Some(w);
            j = 0;
        }
        let h = sets.helpers(w);
        out.push(h[j % h.len()]);
        j += 1;
    }
    out
}

/// A stable counting sort of the indices `0..` of `keys` by node: the
/// `n + 1` group boundaries and the indices in group order.
fn group_by_node(n: usize, keys: impl Iterator<Item = NodeId> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; n + 1];
    for k in keys.clone() {
        starts[k.index() + 1] += 1;
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut next = starts[..n].to_vec();
    let mut order = vec![0u32; starts[n] as usize];
    for (j, k) in keys.enumerate() {
        order[next[k.index()] as usize] = j as u32;
        next[k.index()] += 1;
    }
    (starts, order)
}

/// The intermediate stores of Algorithm 4 in one arena: intermediate `x`
/// expects the labels `labels[starts[x]..starts[x + 1]]` (sorted), each with
/// a payload slot that fills when the token lands and empties when its
/// request is answered.
struct IntermediateStores<T> {
    starts: Vec<u32>,
    labels: Vec<TokenLabel>,
    payloads: Vec<Option<T>>,
}

impl<T> IntermediateStores<T> {
    /// Groups the label-ordered batch by intermediate (each group stays
    /// label-sorted).
    fn new(n: usize, labels: &[TokenLabel], mids: &[NodeId]) -> Self {
        let (starts, order) = group_by_node(n, mids.iter().copied());
        let grouped = order.iter().map(|&j| labels[j as usize]).collect();
        let mut payloads = Vec::with_capacity(order.len());
        payloads.resize_with(order.len(), || None);
        IntermediateStores { starts, labels: grouped, payloads }
    }

    /// Arena slot of `label` at intermediate `x`.
    fn slot(&self, x: usize, label: TokenLabel) -> Option<usize> {
        let (a, b) = (self.starts[x] as usize, self.starts[x + 1] as usize);
        self.labels[a..b].binary_search(&label).ok().map(|i| a + i)
    }

    /// Algorithm 4's answer step: every intermediate, in ID order, takes the
    /// payload of each label requested of it and queues the token back to
    /// the requester. On a lossless channel a request always finds its token
    /// (both went to the same hash-chosen intermediate, and requests are
    /// never duplicated); if the token was lost en route (fault injection),
    /// surface a structured error instead of corrupting the protocol.
    fn answer(
        &mut self,
        requests: &FlatInboxes<TokenLabel>,
        responses: &mut SendQueues<Token<T>>,
    ) -> Result<(), HybridError> {
        for (x, reqs) in requests.iter() {
            for &(requester, label) in reqs {
                let payload =
                    self.slot(x, label).and_then(|i| self.payloads[i].take()).ok_or_else(|| {
                        HybridError::InvariantViolation(format!(
                            "request from {requester} reached intermediate {x} \
                             but the matching token never did (message lost?)"
                        ))
                    })?;
                responses
                    .push(x, Envelope::new(NodeId::new(x), requester, Token { label, payload }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use hybrid_graph::generators::{erdos_renyi_connected, grid, path};
    use hybrid_graph::Graph;
    use hybrid_sim::HybridConfig;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Builds a random routing instance: `ns` senders, `nr` receivers, `per`
    /// tokens from each sender to random receivers.
    fn instance(
        g: &Graph,
        ns: usize,
        nr: usize,
        per: usize,
        seed: u64,
    ) -> (Vec<Token<u64>>, Vec<NodeId>, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.shuffle(&mut rng);
        let senders: Vec<NodeId> = nodes[..ns].to_vec();
        let receivers: Vec<NodeId> = nodes[ns..ns + nr].to_vec();
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..per {
                let r = receivers[rng.gen_range(0..nr)];
                tokens.push(Token::new(
                    s,
                    r,
                    (s.raw() << 8) + i as u32,
                    s.raw() as u64 * 1000 + i as u64,
                ));
            }
        }
        (tokens, senders, receivers)
    }

    fn verify_delivery(tokens: &[Token<u64>], routed: &RoutedTokens<u64>) {
        let mut expected: HashMap<NodeId, Vec<&Token<u64>>> = HashMap::new();
        for t in tokens {
            expected.entry(t.label.r).or_default().push(t);
        }
        for (r, exp) in expected {
            let got = routed.for_receiver(r);
            assert_eq!(got.len(), exp.len(), "receiver {r}");
            for t in exp {
                assert!(
                    got.iter().any(|g| g.label == t.label && g.payload == t.payload),
                    "token {:?} missing at {r}",
                    t.label
                );
            }
        }
        assert_eq!(routed.len(), tokens.len());
    }

    #[test]
    fn routes_small_instance_strict() {
        let g = path(60, 1).unwrap();
        let (tokens, s, r) = instance(&g, 6, 6, 3, 1);
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let routed = route_tokens(
            &mut net,
            tokens.clone(),
            &s,
            &r,
            RoutingRates { p_s: 0.1, p_r: 0.1 },
            42,
            "tr",
        )
        .unwrap();
        verify_delivery(&tokens, &routed);
        assert_eq!(routed.rounds, net.rounds());
    }

    #[test]
    fn routes_on_grid() {
        let g = grid(8, 8, 1).unwrap();
        let (tokens, s, r) = instance(&g, 10, 8, 4, 2);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let routed = route_tokens(
            &mut net,
            tokens.clone(),
            &s,
            &r,
            RoutingRates { p_s: 0.15, p_r: 0.12 },
            7,
            "tr",
        )
        .unwrap();
        verify_delivery(&tokens, &routed);
    }

    #[test]
    fn routes_heavy_instance_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_connected(120, 0.05, 1, &mut rng).unwrap();
        let (tokens, s, r) = instance(&g, 20, 15, 12, 3);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let routed = route_tokens(
            &mut net,
            tokens.clone(),
            &s,
            &r,
            RoutingRates { p_s: 20.0 / 120.0, p_r: 15.0 / 120.0 },
            9,
            "tr",
        )
        .unwrap();
        verify_delivery(&tokens, &routed);
        assert!(routed.mu_s >= 1 && routed.mu_r >= 1);
    }

    #[test]
    fn self_addressed_tokens_are_free() {
        let g = path(10, 1).unwrap();
        let tokens = vec![Token::new(NodeId::new(3), NodeId::new(3), 0, 99u64)];
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let routed = route_tokens(
            &mut net,
            tokens,
            &[NodeId::new(3)],
            &[NodeId::new(3)],
            RoutingRates::dense(),
            1,
            "tr",
        )
        .unwrap();
        assert_eq!(net.rounds(), 0);
        assert_eq!(routed.for_receiver(NodeId::new(3)).len(), 1);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let g = path(10, 1).unwrap();
        let tokens = vec![
            Token::new(NodeId::new(0), NodeId::new(5), 1, 1u64),
            Token::new(NodeId::new(0), NodeId::new(5), 1, 2u64),
        ];
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let err = route_tokens(
            &mut net,
            tokens,
            &[NodeId::new(0)],
            &[NodeId::new(5)],
            RoutingRates::dense(),
            1,
            "tr",
        )
        .unwrap_err();
        assert!(matches!(err, HybridError::DuplicateTokenLabel { .. }));
    }

    #[test]
    fn empty_instance_is_free() {
        let g = path(10, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        let routed = route_tokens::<u64>(
            &mut net,
            vec![],
            &[NodeId::new(0)],
            &[NodeId::new(1)],
            RoutingRates::dense(),
            1,
            "tr",
        )
        .unwrap();
        assert!(routed.is_empty());
        assert_eq!(net.rounds(), 0);
    }

    #[test]
    fn mu_formula() {
        // µ = min(√k, 1/p), rebalanced by ⌈log₂ n⌉ and clamped to [1, µ].
        assert_eq!(mu_for(100, 0.01, 4), 5); // min(10, 100) / 2
        assert_eq!(mu_for(100, 0.5, 4), 1); // min(10, 2) / 2, clamped up
        assert_eq!(mu_for(0, 0.5, 1024), 1); // clamped
        assert_eq!(mu_for(10_000, 1.0, 16), 1); // dense sets: no helpers
        assert_eq!(mu_for(1 << 20, 0.0001, 4), 512); // min(1024, 10⁴) / 2
    }

    #[test]
    fn session_reuse_is_cheaper_than_reestablish() {
        // The CLIQUE simulation's access pattern: many batches between the
        // same populations. Reusing the session must skip the setup cost.
        let mut rng = StdRng::seed_from_u64(8);
        let g = erdos_renyi_connected(120, 0.05, 1, &mut rng).unwrap();
        let (tokens, s, r) = instance(&g, 10, 10, 8, 4);
        let rates = RoutingRates { p_s: 10.0 / 120.0, p_r: 10.0 / 120.0 };

        let mut net = HybridNet::new(&g, HybridConfig::default());
        let session = RoutingSession::establish(&mut net, &s, &r, rates, 8, 10, 3, "tr").unwrap();
        let setup = net.rounds();
        let first = session.route(&mut net, tokens.clone(), "tr").unwrap();
        verify_delivery(&tokens, &first);
        let second = session.route(&mut net, tokens.clone(), "tr").unwrap();
        verify_delivery(&tokens, &second);
        // The second batch pays no setup: strictly less than setup + route.
        assert!(second.rounds <= first.rounds);
        assert!(net.rounds() == setup + first.rounds + second.rounds);
    }

    #[test]
    fn session_with_explicit_budgets() {
        let g = grid(10, 10, 1).unwrap();
        let (tokens, s, r) = instance(&g, 8, 8, 5, 9);
        for mu in [1usize, 2, 5] {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let session =
                RoutingSession::establish_with_budgets(&mut net, &s, &r, mu, mu, 11, "tr").unwrap();
            assert_eq!(session.budgets(), (mu, mu));
            let routed = session.route(&mut net, tokens.clone(), "tr").unwrap();
            verify_delivery(&tokens, &routed);
        }
    }

    #[test]
    fn congestion_stays_logarithmic() {
        // Lemma D.2 / Lemma 2.3: max receive load O(log n) — verified by the
        // strict config (which fails the run otherwise) plus an explicit check.
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_connected(150, 0.04, 1, &mut rng).unwrap();
        let (tokens, s, r) = instance(&g, 12, 12, 6, 6);
        let mut net = HybridNet::new(&g, HybridConfig::strict());
        route_tokens(&mut net, tokens, &s, &r, RoutingRates { p_s: 0.08, p_r: 0.08 }, 13, "tr")
            .unwrap();
        assert!(net.metrics().max_recv_load <= net.recv_cap());
    }
}
