//! Proves the acceptance criterion of the hot-path overhaul: a steady-state
//! `exchange_into` performs **zero heap allocations** per call.
//!
//! A counting global allocator tallies every `alloc`/`realloc`; after a warm-up
//! call (which sizes the scratch arenas, the inbox arena, and interns the phase
//! label) repeated exchanges with the same shape must not allocate at all.
//!
//! The tally is per thread and armed only on the thread that measures, so
//! allocations on the harness's other threads (tests running in parallel)
//! never leak into a measured window. The round engine runs every exchange
//! on the calling thread, so the per-thread tally sees all of its
//! allocations.

// Per-node `for v in 0..n` index loops mirror the message-passing idiom of
// the simulator (v *is* the node).
#![allow(clippy::needless_range_loop)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hybrid_graph::generators::path;
use hybrid_graph::NodeId;
use hybrid_sim::{Envelope, FlatInboxes, HybridConfig, HybridNet};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread while armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if the calling thread is armed. The thread-locals
/// are const-initialised and need no destructor, so touching them from
/// inside the allocator never allocates; `try_with` covers threads that are
/// already tearing down.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the counting
// beside it touches only const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread while it was armed.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Arms the calling thread's counter for the rest of the test: only this
/// thread's allocations count, wherever the harness runs the test.
fn measure_this_thread() {
    ARMED.with(|armed| armed.set(true));
}

/// Refills `outbox` with a fixed all-to-some pattern (stays within existing
/// capacity after the first fill).
fn fill_outbox(outbox: &mut Vec<Envelope<u64>>, n: usize, round: u64) {
    for s in 0..n {
        for j in 0..3 {
            let d = (s * 5 + j * 7 + 1) % n;
            outbox.push(Envelope::new(NodeId::new(s), NodeId::new(d), round * 1000 + j as u64));
        }
    }
}

#[test]
fn steady_state_exchange_into_is_allocation_free() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut inbox: FlatInboxes<u64> = FlatInboxes::new();

    // Warm-up: grows outbox/arena capacity, sizes the permutation scratch,
    // interns the phase label, and sizes the receive-load histogram.
    for round in 0..3 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
    }

    let before = allocations();
    for round in 3..103 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
        assert_eq!(inbox.len(), 64 * 3);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state exchange_into must not allocate (got {} allocations over 100 calls)",
        after - before
    );
    assert_eq!(net.rounds(), 103);
}

/// A *trivial* fault plan (no drops, no crashes) plus an enabled reliable
/// layer must leave the hot path untouched: the trivial plan installs no
/// fault state, the reliable mode stays inert, and steady-state exchanges
/// stay allocation-free — the reliability scratch lives on the net, sized
/// once, never re-allocated per call.
#[test]
fn trivial_plan_with_reliable_mode_stays_allocation_free() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    net.inject_faults(&hybrid_sim::FaultPlan::default()).expect("trivial plan is valid");
    net.set_reliable(true);
    assert!(!net.has_faults(), "a trivial plan installs no fault state");
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut inbox: FlatInboxes<u64> = FlatInboxes::new();

    for round in 0..3 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
    }

    let before = allocations();
    for round in 3..103 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
        assert_eq!(inbox.len(), 64 * 3);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "trivial-plan reliable-mode exchange must not allocate (got {} over 100 calls)",
        after - before
    );
    assert_eq!(net.rounds(), 103);
    assert_eq!(net.metrics().retransmissions, 0, "reliable mode stays inert without faults");
}

/// The k-SSP framework spends its simulated-CLIQUE rounds in token routing's
/// Algorithm 4 loop: a *request* exchange answered by a *response* exchange,
/// both paced to the send cap, round after round. This test drives that exact
/// ping-pong shape on the raw engine — two phase labels, two outbox/arena
/// pairs, per-round response construction from the delivered requests — and
/// pins it allocation-free in steady state.
#[test]
fn steady_state_ksssp_request_response_round_is_allocation_free() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut req_outbox: Vec<Envelope<u32>> = Vec::new();
    let mut req_flat: FlatInboxes<u32> = FlatInboxes::new();
    let mut resp_outbox: Vec<Envelope<(u32, u64)>> = Vec::new();
    let mut resp_flat: FlatInboxes<(u32, u64)> = FlatInboxes::new();
    let mut received: Vec<(usize, u64)> = Vec::with_capacity(64 * 4);

    let mut round_trip = |round: u64, net: &mut HybridNet<'_>| {
        // Requests: every node asks a pseudo-random intermediate for a label.
        for v in 0..64usize {
            for j in 0..3u32 {
                let mid = (v * 11 + j as usize * 17 + round as usize) % 64;
                req_outbox.push(Envelope::new(NodeId::new(v), NodeId::new(mid), j));
            }
        }
        net.exchange_into("kssp:requests", &mut req_outbox, &mut req_flat).expect("requests");
        // Responses: intermediates answer each request in the next exchange.
        for (mid, msgs) in req_flat.iter() {
            for &(requester, lab) in msgs {
                resp_outbox.push(Envelope::new(
                    NodeId::new(mid),
                    requester,
                    (lab, (mid as u64) << 8 | lab as u64),
                ));
            }
        }
        net.exchange_into("kssp:responses", &mut resp_outbox, &mut resp_flat).expect("responses");
        received.clear();
        resp_flat.drain_into(|dst, (_, (_, payload))| received.push((dst, payload)));
        assert_eq!(received.len(), 64 * 3);
    };

    for round in 0..3 {
        round_trip(round, &mut net);
    }
    let before = allocations();
    for round in 3..53 {
        round_trip(round, &mut net);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "steady-state request/response round must not allocate");
    assert_eq!(net.rounds(), 2 * 53);
}

/// The diameter framework's global rounds are tree traffic: convergecast up a
/// binary tree over node IDs, then broadcast back down (Lemma B.2), plus the
/// dissemination tree phases — every round each node talks to its parent or
/// children. This test drives repeated up/down sweeps over a reused outbox
/// and arena and pins the steady-state rounds allocation-free.
#[test]
fn steady_state_diameter_tree_round_is_allocation_free() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut flat: FlatInboxes<u64> = FlatInboxes::new();
    let mut acc: Vec<u64> = (0..64).map(|v| v as u64).collect();

    let mut sweep = |net: &mut HybridNet<'_>| {
        // Convergecast: children send their running values to their parents.
        for v in 1..64usize {
            outbox.push(Envelope::new(NodeId::new(v), NodeId::new((v - 1) / 2), acc[v]));
        }
        net.exchange_into("diam:aggregate-up", &mut outbox, &mut flat).expect("up");
        flat.drain_into(|dst, (_, val)| acc[dst] = acc[dst].max(val));
        // Broadcast: parents push the maximum back down.
        for v in 0..64usize {
            for c in [2 * v + 1, 2 * v + 2] {
                if c < 64 {
                    outbox.push(Envelope::new(NodeId::new(v), NodeId::new(c), acc[v]));
                }
            }
        }
        net.exchange_into("diam:aggregate-down", &mut outbox, &mut flat).expect("down");
        flat.drain_into(|dst, (_, val)| acc[dst] = acc[dst].max(val));
    };

    for _ in 0..3 {
        sweep(&mut net);
    }
    let before = allocations();
    for _ in 0..50 {
        sweep(&mut net);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "steady-state tree round must not allocate");
    assert_eq!(acc[63], 63, "aggregate reached every node");
}

/// Tracing must be pay-for-what-you-use: with no sink installed the per-site
/// cost is one `Option` branch, and a past `set_trace`/`take_trace` cycle
/// must leave no residue — steady-state exchanges stay allocation-free both
/// before any tracing and after tracing has been switched off again.
#[test]
fn exchange_with_tracing_disabled_stays_allocation_free() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut inbox: FlatInboxes<u64> = FlatInboxes::new();

    for round in 0..3 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
    }

    // Trace a few exchanges, then detach the recorder again.
    net.set_trace(hybrid_sim::Recorder::new());
    for round in 3..6 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
    }
    let rec = net.take_trace().expect("recorder was installed");
    assert_eq!(rec.events().len(), 3, "one Exchange event per traced call");
    assert!(!net.tracing());

    let before = allocations();
    for round in 6..106 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("steady", &mut outbox, &mut inbox).expect("exchange");
        assert_eq!(inbox.len(), 64 * 3);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "exchange with tracing disabled must not allocate (got {} over 100 calls)",
        after - before
    );
    assert_eq!(net.rounds(), 106);
}

/// At n = 2400 a round costs time in its messages and allocates nothing
/// once warm: neither a 16-message exchange, which touches a few nodes out
/// of 2,400, nor a 6,000-message tree round already in `(dst, src)` order
/// (the seed broadcast's shape), which moves in one pass.
#[test]
fn sparse_and_ordered_rounds_at_n_2400_are_allocation_free() {
    measure_this_thread();
    let n = 2400;
    let g = path(n, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut inbox: FlatInboxes<u64> = FlatInboxes::new();
    // 16 distinct senders and 16 distinct receivers, moving every round,
    // in descending destination order so every round takes the counting
    // sort.
    let sparse = |outbox: &mut Vec<Envelope<u64>>, round: usize| {
        for j in (0..16).rev() {
            let s = (round * 131 + j * 149) % n;
            let d = (round * 37 + j * 151 + 1) % n;
            outbox.push(Envelope::new(NodeId::new(s), NodeId::new(d), j as u64));
        }
    };
    // Nodes 1..=1000 each hear 6 words from their tree parent.
    let tree = |outbox: &mut Vec<Envelope<u64>>, round: usize| {
        for c in 1..=1000 {
            for w in 0..6 {
                let word = (round * 8 + w) as u64;
                outbox.push(Envelope::new(NodeId::new((c - 1) / 2), NodeId::new(c), word));
            }
        }
    };

    for round in 0..3 {
        sparse(&mut outbox, round);
        net.exchange_into("sparse", &mut outbox, &mut inbox).expect("sparse");
        tree(&mut outbox, round);
        net.exchange_into("tree", &mut outbox, &mut inbox).expect("tree");
    }
    let before = allocations();
    for round in 3..103 {
        sparse(&mut outbox, round);
        net.exchange_into("sparse", &mut outbox, &mut inbox).expect("sparse");
        assert_eq!(inbox.iter().count(), 16);
    }
    let sparse_allocs = allocations() - before;
    let before = allocations();
    for round in 3..23 {
        tree(&mut outbox, round);
        net.exchange_into("tree", &mut outbox, &mut inbox).expect("tree");
        assert_eq!(inbox.node(1000).len(), 6);
    }
    let tree_allocs = allocations() - before;
    assert_eq!(
        (sparse_allocs, tree_allocs),
        (0, 0),
        "warm sparse and ordered rounds at n = 2400 must not allocate"
    );
    assert_eq!(net.rounds(), 126, "every round fits the caps");
}

/// `drain_queues` pools its pacing scratch (outbox + inbox arena) on the net
/// per payload type: a repeat drain of the same shape must allocate strictly
/// less than the cold first call — only the caller-visible queue and result
/// vectors remain.
#[test]
fn drain_queues_repeat_calls_reuse_pooled_scratch() {
    measure_this_thread();
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mk_queues = || -> Vec<Vec<Envelope<u64>>> {
        let mut queues: Vec<Vec<Envelope<u64>>> = vec![Vec::new(); 64];
        for v in 0..64usize {
            for j in 0..20u64 {
                queues[v].push(Envelope::new(NodeId::new(v), NodeId::new((v * 7 + 3) % 64), j));
            }
        }
        queues
    };
    let queues = mk_queues();
    let before = allocations();
    net.drain_queues("drain", queues).expect("cold");
    let cold = allocations() - before;
    let queues = mk_queues();
    let before = allocations();
    net.drain_queues("drain", queues).expect("warm");
    let warm = allocations() - before;
    assert!(
        warm < cold,
        "pooled pacing scratch must shrink repeat-call allocations (cold {cold}, warm {warm})"
    );
}

#[test]
fn steady_state_drain_round_is_allocation_free() {
    measure_this_thread();
    // The drain loop's per-round work (pacing bookkeeping + exchange_into +
    // arena drain) must also be allocation-free; the nested-Vec result of the
    // public `drain_queues` is the only allocating part, so this test drives
    // the same building blocks the way `drain_queues`'s inner loop does.
    let g = path(64, 1).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    let mut inbox: FlatInboxes<u64> = FlatInboxes::new();
    let mut sink: Vec<(usize, NodeId, u64)> = Vec::with_capacity(64 * 4);

    for round in 0..3 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("drain", &mut outbox, &mut inbox).expect("exchange");
        sink.clear();
        inbox.drain_into(|dst, (src, msg)| sink.push((dst, src, msg)));
    }

    let before = allocations();
    for round in 3..53 {
        fill_outbox(&mut outbox, 64, round);
        net.exchange_into("drain", &mut outbox, &mut inbox).expect("exchange");
        sink.clear();
        inbox.drain_into(|dst, (src, msg)| sink.push((dst, src, msg)));
        assert_eq!(sink.len(), 64 * 3);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "steady-state drain round must not allocate");
}
