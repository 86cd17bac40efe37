//! Message envelopes and inbox containers for the global (NCC) channel.

use hybrid_graph::NodeId;

/// One `O(log n)`-bit message in flight over the global network.
///
/// The payload type `M` must itself fit the model's `O(log n)`-bit budget — in
/// this codebase every payload is a small tuple of node IDs and distances, which
/// (weights being polynomial in `n`, §1.3) is `O(log n)` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node (any node — the global mode is a clique).
    pub dst: NodeId,
    /// Message payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(src: NodeId, dst: NodeId, msg: M) -> Self {
        Envelope { src, dst, msg }
    }
}

/// Per-node inboxes produced by an exchange: `inboxes[v]` holds the
/// `(sender, message)` pairs delivered to node `v`, in deterministic order
/// (sorted by sender, then arrival order).
pub type Inboxes<M> = Vec<Vec<(NodeId, M)>>;

/// Arena-style inboxes: all delivered messages of one exchange in a single
/// contiguous buffer, grouped by destination, plus the destinations that
/// received anything and their boundaries.
///
/// This is the allocation-free counterpart of [`Inboxes`]: the buffer is owned
/// by the caller and reused across exchanges ([`FlatInboxes::clear`] keeps
/// capacity), so a steady-state [`crate::HybridNet::exchange_into`] performs no
/// heap allocation at all. The ordering contract is identical: within each
/// destination, messages are sorted by `(sender, insertion order)`.
///
/// The container is sparse in the destinations: it keeps only the nodes that
/// received messages (in ascending ID order), so [`FlatInboxes::iter`] and
/// [`FlatInboxes::drain_into`] cost time in the messages delivered, not in
/// the network size, and [`FlatInboxes::node`] is a binary search.
#[derive(Debug, Clone, Default)]
pub struct FlatInboxes<M> {
    /// All `(sender, message)` pairs, grouped by destination in ascending
    /// destination order.
    msgs: Vec<(NodeId, M)>,
    /// The destinations that received messages, ascending.
    dsts: Vec<u32>,
    /// `starts[k]..starts[k + 1]` delimits `dsts[k]`'s slice of `msgs`
    /// (`dsts.len() + 1` entries once populated; empty before the first
    /// exchange).
    starts: Vec<u32>,
    /// Network size of the last exchange (0 before the first).
    n: usize,
}

impl<M> FlatInboxes<M> {
    /// Creates an empty container (no capacity reserved yet).
    pub fn new() -> Self {
        FlatInboxes { msgs: Vec::new(), dsts: Vec::new(), starts: Vec::new(), n: 0 }
    }

    /// Network size of the last exchange; 0 before the first exchange and
    /// once the container is cleared or drained.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total delivered messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no message was delivered.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The messages delivered to node `v`, sorted by `(sender, insertion
    /// order)`. Empty for nodes that received nothing, including nodes beyond
    /// the last exchange's network size.
    pub fn node(&self, v: usize) -> &[(NodeId, M)] {
        match u32::try_from(v).map(|v| self.dsts.binary_search(&v)) {
            Ok(Ok(k)) => &self.msgs[self.starts[k] as usize..self.starts[k + 1] as usize],
            _ => &[],
        }
    }

    /// The messages delivered to `v` (see [`FlatInboxes::node`]).
    pub fn for_node(&self, v: NodeId) -> &[(NodeId, M)] {
        self.node(v.index())
    }

    /// Iterates `(destination, &[messages])` over all non-empty destinations,
    /// in ascending destination order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(NodeId, M)])> {
        self.dsts
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&v, w)| (v as usize, &self.msgs[w[0] as usize..w[1] as usize]))
    }

    /// Empties the container, keeping the buffers' capacity for reuse.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.dsts.clear();
        self.starts.clear();
        self.n = 0;
    }

    /// Drains every message, invoking `f(destination, (sender, message))` in
    /// delivery order. Keeps capacity (the container is empty afterwards).
    pub fn drain_into(&mut self, mut f: impl FnMut(usize, (NodeId, M))) {
        let FlatInboxes { msgs, dsts, starts, .. } = self;
        let mut pairs = msgs.drain(..);
        for (&v, w) in dsts.iter().zip(starts.windows(2)) {
            for pair in pairs.by_ref().take((w[1] - w[0]) as usize) {
                f(v as usize, pair);
            }
        }
        drop(pairs);
        self.clear();
    }

    /// Converts into the nested [`Inboxes`] representation (allocates — the
    /// compatibility path used by [`crate::HybridNet::exchange`]).
    pub fn into_inboxes(mut self) -> Inboxes<M> {
        let mut out: Inboxes<M> = (0..self.n).map(|_| Vec::new()).collect();
        self.drain_into(|dst, pair| out[dst].push(pair));
        out
    }

    /// Internal: records the network size and hands the exchange engine the
    /// three buffers `(msgs, dsts, starts)`, which it fills together.
    pub(crate) fn parts_mut(
        &mut self,
        n: usize,
    ) -> (&mut Vec<(NodeId, M)>, &mut Vec<u32>, &mut Vec<u32>) {
        self.n = n;
        (&mut self.msgs, &mut self.dsts, &mut self.starts)
    }
}

/// Per-node FIFO send queues in one arena — the input of
/// [`crate::HybridNet::drain_queues_into`], and of protocols that ship up to
/// `cap` messages per queue per round ([`SendQueues::take_round`]).
///
/// Queue `v` owns the fixed slot range `starts[v]..starts[v + 1]`, sized by
/// [`SendQueues::reset`] to every message it will ever hold: messages are
/// appended at its tail and leave from its head. The non-empty queues are
/// kept in an ID-ordered list, so a round visits only those.
#[derive(Debug, Clone)]
pub struct SendQueues<M> {
    slots: Vec<Option<Envelope<M>>>,
    /// `n + 1` slot-range boundaries.
    starts: Vec<u32>,
    /// Next slot to send, per queue.
    heads: Vec<u32>,
    /// Next slot to fill, per queue.
    tails: Vec<u32>,
    /// IDs of the non-empty queues (ascending once `sorted` holds).
    live: Vec<u32>,
    sorted: bool,
}

impl<M> Default for SendQueues<M> {
    fn default() -> Self {
        SendQueues::new()
    }
}

impl<M> SendQueues<M> {
    /// Creates an empty container (no queues, no capacity reserved yet).
    pub fn new() -> Self {
        SendQueues {
            slots: Vec::new(),
            starts: Vec::new(),
            heads: Vec::new(),
            tails: Vec::new(),
            live: Vec::new(),
            sorted: true,
        }
    }

    /// Lays out `queues` empty queues, sizing queue `v` for one message per
    /// occurrence of `v` in `keys` (a counting sort). Keeps the buffers'
    /// capacity.
    pub fn reset(&mut self, queues: usize, keys: impl IntoIterator<Item = usize>) {
        self.starts.clear();
        self.starts.resize(queues + 1, 0);
        for k in keys {
            self.starts[k + 1] += 1;
        }
        for v in 0..queues {
            self.starts[v + 1] += self.starts[v];
        }
        self.heads.clear();
        self.heads.extend_from_slice(&self.starts[..queues]);
        self.tails.clear();
        self.tails.extend_from_slice(&self.starts[..queues]);
        self.slots.clear();
        self.slots.resize_with(self.starts[queues] as usize, || None);
        self.live.clear();
        self.sorted = true;
    }

    /// Number of queues laid out by the last [`SendQueues::reset`].
    pub(crate) fn num_queues(&self) -> usize {
        self.heads.len()
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Appends `e` to queue `v`.
    ///
    /// # Panics
    ///
    /// Panics if queue `v` already took every message [`SendQueues::reset`]
    /// sized it for.
    pub fn push(&mut self, v: usize, e: Envelope<M>) {
        let tail = self.tails[v];
        assert!(tail < self.starts[v + 1], "send queue {v} is full");
        if self.heads[v] == tail {
            self.sorted &= self.live.last().is_none_or(|&last| (last as usize) < v);
            self.live.push(v as u32);
        }
        self.slots[tail as usize] = Some(e);
        self.tails[v] = tail + 1;
    }

    /// Moves up to `cap` messages from the head of every non-empty queue into
    /// `outbox`, queue by queue in ID order.
    pub fn take_round(&mut self, cap: usize, outbox: &mut Vec<Envelope<M>>) {
        let Ok(()) = self.take_paced(0, cap, outbox, |_| Ok::<_, std::convert::Infallible>(true));
    }

    /// One paced round: visits the non-empty queues in ID order starting at
    /// queue `first` and wrapping around, moving up to `cap` head messages of
    /// each into `outbox` while `admit` accepts the head. A refused head
    /// blocks the rest of its queue for this round (per-queue FIFO order).
    pub(crate) fn take_paced<E>(
        &mut self,
        first: usize,
        cap: usize,
        outbox: &mut Vec<Envelope<M>>,
        mut admit: impl FnMut(&Envelope<M>) -> Result<bool, E>,
    ) -> Result<(), E> {
        if !self.sorted {
            self.live.sort_unstable();
            self.sorted = true;
        }
        let SendQueues { slots, heads, tails, live, .. } = self;
        let split = live.partition_point(|&v| (v as usize) < first);
        for &v in live[split..].iter().chain(&live[..split]) {
            let v = v as usize;
            let mut taken = 0;
            while taken < cap && heads[v] < tails[v] {
                let slot = &mut slots[heads[v] as usize];
                if !admit(slot.as_ref().expect("queued slot is filled"))? {
                    break;
                }
                outbox.push(slot.take().expect("queued slot is filled"));
                heads[v] += 1;
                taken += 1;
            }
        }
        live.retain(|&v| heads[v as usize] < tails[v as usize]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_construction() {
        let e = Envelope::new(NodeId::new(1), NodeId::new(2), "hi");
        assert_eq!(e.src, NodeId::new(1));
        assert_eq!(e.dst, NodeId::new(2));
        assert_eq!(e.msg, "hi");
    }

    #[test]
    fn flat_inboxes_roundtrip() {
        let mut f = FlatInboxes::new();
        {
            let (msgs, dsts, starts) = f.parts_mut(4);
            msgs.push((NodeId::new(2), 'a'));
            msgs.push((NodeId::new(5), 'b'));
            msgs.push((NodeId::new(0), 'c'));
            dsts.extend_from_slice(&[1, 2]);
            starts.extend_from_slice(&[0, 2, 3]);
        }
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.len(), 3);
        assert_eq!(f.node(0), &[]);
        assert_eq!(f.node(1), &[(NodeId::new(2), 'a'), (NodeId::new(5), 'b')]);
        assert_eq!(f.for_node(NodeId::new(2)), &[(NodeId::new(0), 'c')]);
        assert_eq!(f.node(99), &[]);
        let pairs: Vec<(usize, usize)> = f.iter().map(|(v, m)| (v, m.len())).collect();
        assert_eq!(pairs, vec![(1, 2), (2, 1)]);
        let nested = f.into_inboxes();
        assert_eq!(nested.len(), 4);
        assert_eq!(nested[1], vec![(NodeId::new(2), 'a'), (NodeId::new(5), 'b')]);
        assert_eq!(nested[3], vec![]);
    }

    #[test]
    fn drain_into_empties_but_keeps_capacity() {
        let mut f = FlatInboxes::new();
        {
            let (msgs, dsts, starts) = f.parts_mut(2);
            msgs.push((NodeId::new(1), 10u32));
            msgs.push((NodeId::new(2), 20u32));
            dsts.extend_from_slice(&[0, 1]);
            starts.extend_from_slice(&[0, 1, 2]);
        }
        let cap_before = f.msgs.capacity();
        let mut seen = Vec::new();
        f.drain_into(|dst, (src, m)| seen.push((dst, src.index(), m)));
        assert_eq!(seen, vec![(0, 1, 10), (1, 2, 20)]);
        assert!(f.is_empty());
        assert_eq!(f.num_nodes(), 0);
        assert_eq!(f.msgs.capacity(), cap_before);
    }

    #[test]
    fn drain_on_fresh_container_is_noop() {
        let mut f: FlatInboxes<u8> = FlatInboxes::new();
        let mut called = false;
        f.drain_into(|_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn send_queues_are_fifo_per_queue_in_id_order() {
        let mut q = SendQueues::new();
        q.reset(4, [2, 0, 2, 2, 3]);
        assert_eq!(q.num_queues(), 4);
        assert!(q.is_empty());
        let env = |v: usize, m: u32| Envelope::new(NodeId::new(v), NodeId::new(0), m);
        for (v, m) in [(3, 30), (2, 20), (2, 21), (0, 1)] {
            q.push(v, env(v, m));
        }
        let mut out = Vec::new();
        q.take_round(1, &mut out);
        let msgs: Vec<u32> = out.drain(..).map(|e| e.msg).collect();
        assert_eq!(msgs, vec![1, 20, 30]);
        q.push(2, env(2, 22));
        q.take_round(5, &mut out);
        let msgs: Vec<u32> = out.drain(..).map(|e| e.msg).collect();
        assert_eq!(msgs, vec![21, 22]);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "send queue 1 is full")]
    fn send_queue_overflow_panics() {
        let mut q = SendQueues::new();
        q.reset(2, [1]);
        q.push(1, Envelope::new(NodeId::new(1), NodeId::new(0), ()));
        q.push(1, Envelope::new(NodeId::new(1), NodeId::new(0), ()));
    }
}
