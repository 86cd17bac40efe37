//! Token routing and the hash-seed broadcast run on flat arenas: one full
//! CLIQUE round routed over a skeleton-sized node set, and one seed
//! broadcast, each make a bounded number of heap allocations that does not
//! grow with the network size.
//!
//! A counting global allocator tallies every `alloc`/`realloc` on the
//! measuring thread only (the harness's other threads never leak into a
//! window). The round engine runs every exchange on the calling thread, so
//! every allocation of the measured calls happens on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hybrid_core::aggregate::broadcast_words;
use hybrid_core::token_routing::{RoutingRates, RoutingSession, Token};
use hybrid_graph::generators::cycle;
use hybrid_graph::NodeId;
use hybrid_sim::{HybridConfig, HybridNet};

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

/// Allocations `f` makes on the calling thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ARMED.with(|armed| armed.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    ARMED.with(|armed| armed.set(false));
    (out, made)
}

/// Allocation bound of one routed CLIQUE round and of one seed broadcast —
/// a constant, where the per-node tables they replaced made ≈17k and ≈38.6k
/// allocations at n = 2400.
const MAX_ALLOCATIONS: u64 = 256;

/// `(route, broadcast)` allocations on a weighted `n`-cycle whose every
/// 23rd node stands in for the skeleton (|V_S| = 105 at n = 2400).
fn measure(n: usize) -> (u64, u64) {
    let g = cycle(n, 3).expect("graph");
    let mut net = HybridNet::new(&g, HybridConfig::default());
    let members: Vec<NodeId> = (0..n).step_by(23).map(NodeId::new).collect();
    let k = members.len();
    let p = k as f64 / n as f64;
    let rates = RoutingRates { p_s: p, p_r: p };
    let session = RoutingSession::establish(&mut net, &members, &members, rates, k, k, 7, "clique")
        .expect("establish");
    let mut tokens = Vec::with_capacity(k * k);
    for &s in &members {
        for &r in &members {
            if s != r {
                tokens.push(Token::new(s, r, 0, ()));
            }
        }
    }
    let (routed, route) = allocations_of(|| session.route(&mut net, tokens, "clique"));
    let routed = routed.expect("route");
    assert_eq!(routed.len(), k * (k - 1));
    assert!(members.iter().all(|&r| routed.for_receiver(r).len() == k - 1));
    let words: Vec<u64> = (0..48).collect();
    let src = members[members.len() / 2];
    let (sent, broadcast) = allocations_of(|| broadcast_words(&mut net, src, &words, "seed"));
    sent.expect("broadcast");
    (route, broadcast)
}

#[test]
fn full_clique_round_and_seed_broadcast_allocate_a_constant() {
    for n in [600, 2400] {
        let (route, broadcast) = measure(n);
        assert!(
            route <= MAX_ALLOCATIONS,
            "n = {n}: one routed CLIQUE round made {route} allocations"
        );
        assert!(
            broadcast <= MAX_ALLOCATIONS,
            "n = {n}: one seed broadcast made {broadcast} allocations"
        );
        eprintln!("n = {n}: route {route}, broadcast {broadcast} allocations");
    }
}
