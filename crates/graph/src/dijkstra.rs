//! Dijkstra's algorithm — the sequential ground truth for every distance the
//! distributed algorithms of the paper compute.
//!
//! Besides plain single-source shortest paths this module provides the
//! lexicographic `(distance, hops)` variant needed for the *shortest path diameter*
//! `SPD(G)` (the paper compares its SSSP algorithm against the `Õ(√SPD)` algorithm
//! of \[3\], so experiments need `SPD` as a workload parameter).
//!
//! # Hot path
//!
//! Multi-source consumers (reference APSP, eccentricities, `SPD(G)`, the
//! skeleton fallback of `hybrid-core`) run one Dijkstra per source. Two layers
//! make that fast:
//!
//! * [`DijkstraWorkspace`] — a reusable arena (recycled distance/hop/
//!   predecessor arrays and binary heap) that eliminates all per-run
//!   allocation. Reset is a bulk `fill` of the distance row: measured against
//!   an epoch-tagged visited array, the bulk reset wins because it keeps the
//!   per-edge relaxation free of an extra mark load and branch.
//! * [`par_map_rows`] / [`par_dist_rows`] / [`par_lex_rows_with`] — a
//!   multi-source driver that partitions the sources across OS threads
//!   (`std::thread::scope`; one workspace per worker) and writes rows straight
//!   into caller-provided flat buffers. The thread count is
//!   [`crate::workers`]. Outputs are exact distances, so results are
//!   bit-identical regardless of parallelism.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dist::{dist_add, Distance, INFINITY};
use crate::graph::Graph;
use crate::ids::NodeId;

/// Shortest-path distances (and predecessors) from one source.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Distance>,
    pred: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The source of the computation.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// `d(source, v)`, or [`INFINITY`] if unreachable.
    pub fn dist(&self, v: NodeId) -> Distance {
        self.dist[v.index()]
    }

    /// The raw distance array indexed by node.
    pub fn as_slice(&self) -> &[Distance] {
        &self.dist
    }

    /// Predecessor of `v` on a shortest path from the source.
    pub fn predecessor(&self, v: NodeId) -> Option<NodeId> {
        self.pred[v.index()]
    }

    /// Reconstructs a shortest path `source -> v` (inclusive), if `v` is reachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] == INFINITY {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Largest finite distance from the source (weighted eccentricity).
    pub fn eccentricity(&self) -> Distance {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }
}

/// Reusable state for repeated Dijkstra runs on graphs of (up to) a fixed
/// size: recycled distance/hop/predecessor arrays and a recycled heap — no
/// allocation per run. Predecessors are validated through the distance row
/// (`dist[v] == INFINITY` ⇒ `pred[v]` is stale), so only the touched arrays
/// are reset per run.
///
/// Two relaxations share the workspace: the plain distance-only run (SSSP
/// rows, eccentricities, truncated searches) and the lexicographic
/// `(distance, hops)` run (`dijkstra_lex`, `SPD`) — the hop tie-break is kept
/// out of the plain path because it forces extra equal-distance relaxations
/// on tie-heavy graphs.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<Distance>,
    hops: Vec<Distance>,
    pred: Vec<u32>,
    /// Heap for the plain run (compact 16-byte entries).
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
    /// Heap for the lexicographic run (carries the hop count).
    heap_lex: BinaryHeap<Reverse<(Distance, Distance, u32)>>,
    /// Circular buckets for Dial's queue (plain runs on graphs with small
    /// maximum edge weight).
    buckets: Vec<Vec<u32>>,
}

/// Largest maximum edge weight for which the plain run uses Dial's bucket
/// queue (`W + 1` circular buckets, `O(m + D)`) instead of a binary heap.
const DIAL_MAX_WEIGHT: u64 = 64;

/// Largest *transformed* edge weight (`w · K + 1` in the packed lexicographic
/// encoding) for which the lex run uses Dial's bucket queue. The bucket array
/// has this many entries, so the bound also caps the memory of the queue.
const LEX_DIAL_MAX_WEIGHT: u64 = 1 << 14;

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays are sized lazily on first use.
    pub fn new() -> Self {
        DijkstraWorkspace::default()
    }

    /// Starts a new run: sizes the arrays for `n` nodes and resets the
    /// distance row (`hops` is reset by the lexicographic run only).
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.hops.resize(n, INFINITY);
            self.pred.resize(n, u32::MAX);
        }
        self.dist[..n].fill(INFINITY);
        self.heap.clear();
        self.heap_lex.clear();
    }

    /// Core plain run: distance-only Dijkstra from `source`, truncated at
    /// weighted radius `max_dist` ([`INFINITY`] for unbounded). Leaves `hops`
    /// untouched (consumers of the plain run never read it) — skipping the
    /// hop tie-break avoids the extra relaxations the lexicographic variant
    /// performs on tie-heavy graphs.
    fn run_plain(&mut self, g: &Graph, source: NodeId, max_dist: Distance) {
        if g.max_weight() <= DIAL_MAX_WEIGHT && g.len() > 1 {
            self.run_dial(g, source, max_dist);
            return;
        }
        self.begin(g.len());
        let s = source.index();
        self.dist[s] = 0;
        self.pred[s] = u32::MAX;
        self.heap.push(Reverse((0, source.raw())));
        while let Some(Reverse((d, v_raw))) = self.heap.pop() {
            let v = v_raw as usize;
            if d > self.dist[v] {
                continue; // stale entry
            }
            for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                let nd = dist_add(d, w);
                if nd > max_dist {
                    continue;
                }
                let ui = u.index();
                if nd < self.dist[ui] {
                    self.dist[ui] = nd;
                    self.pred[ui] = v_raw;
                    self.heap.push(Reverse((nd, u.raw())));
                }
            }
        }
    }

    /// Dial's algorithm: plain Dijkstra with a circular bucket queue of
    /// `W + 1` buckets — `O(m + D)` and heap-free for the small integer
    /// weights every generator in this workspace produces. Stale bucket
    /// entries are skipped via the `dist` check; since `w ≥ 1`, a relaxation
    /// never lands in the bucket currently being drained.
    fn run_dial(&mut self, g: &Graph, source: NodeId, max_dist: Distance) {
        // W ≤ DIAL_MAX_WEIGHT keeps the key span ≤ 64n, so the plain run
        // never needs the cursor budget.
        self.run_dial_core(g, source, max_dist, 1, 0, INFINITY);
    }

    /// Shared Dial core over *affinely transformed* weights: every edge weight
    /// `w` is relaxed as `w · wmul + wadd`. `(1, 0)` is the plain run;
    /// `(K, 1)` is the packed lexicographic run (key `dist · K + hops`, see
    /// [`DijkstraWorkspace::run_lex`]). The circular queue has
    /// `W · wmul + wadd + 1` buckets; the bucket cursor and relaxation targets
    /// are maintained incrementally (no division on the hot path).
    ///
    /// The cursor sweeps every key value up to the largest settled key, so
    /// Dial's total cost is `O(m + span)` where `span` is the weighted
    /// eccentricity times `wmul` — unknowable up front. `cursor_budget` caps
    /// the sweep: when `cur` exceeds it the run bails out (returns `false`,
    /// with the touched buckets cleared for reuse) so the caller can fall
    /// back to the heap. The bail decision depends only on the graph and
    /// source, keeping results deterministic.
    fn run_dial_core(
        &mut self,
        g: &Graph,
        source: NodeId,
        max_dist: Distance,
        wmul: u64,
        wadd: u64,
        cursor_budget: Distance,
    ) -> bool {
        self.begin(g.len());
        let nb = (g.max_weight() * wmul + wadd) as usize + 1;
        if self.buckets.len() < nb {
            self.buckets.resize(nb, Vec::new());
        }
        let s = source.index();
        self.dist[s] = 0;
        self.pred[s] = u32::MAX;
        self.buckets[0].push(source.raw());
        let mut remaining = 1usize;
        let mut cur: Distance = 0;
        let mut cb = 0usize; // cur % nb, maintained incrementally
        while remaining > 0 {
            if cur > cursor_budget {
                for b in self.buckets[..nb].iter_mut() {
                    b.clear();
                }
                return false;
            }
            while let Some(v_raw) = self.buckets[cb].pop() {
                remaining -= 1;
                let v = v_raw as usize;
                if self.dist[v] != cur {
                    continue; // stale entry
                }
                for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                    let nd = cur + w * wmul + wadd;
                    if nd > max_dist {
                        continue;
                    }
                    let ui = u.index();
                    if nd < self.dist[ui] {
                        self.dist[ui] = nd;
                        self.pred[ui] = v_raw;
                        // nd - cur ≤ W · wmul + wadd < nb: one wrap suffices.
                        let mut target = cb + (nd - cur) as usize;
                        if target >= nb {
                            target -= nb;
                        }
                        self.buckets[target].push(u.raw());
                        remaining += 1;
                    }
                }
            }
            cur += 1;
            cb += 1;
            if cb == nb {
                cb = 0;
            }
        }
        true
    }

    /// The key factor `K` for the packed lexicographic run, if the graph's
    /// weights permit it: every *relaxation candidate* `key + w · K + 1` must
    /// stay below [`INFINITY`] without wrapping. Weights are ≥ 1, so paths are
    /// simple and `hops ≤ n − 1 < K = n`; the largest settled key is at most
    /// `(n − 1) · W · K + (n − 1)`, and one further relaxation adds at most
    /// `W · K + 1` — so the guard bounds `n · W · K + n`, the worst candidate,
    /// not just the worst settled key.
    fn lex_pack_factor(g: &Graph) -> Option<u64> {
        let n = g.len() as u64;
        if n < 2 {
            return Some(2);
        }
        let k = n;
        let max_cand_dist = n.checked_mul(g.max_weight())?;
        let max_cand_key = max_cand_dist.checked_mul(k)?.checked_add(n)?;
        (max_cand_key < INFINITY).then_some(k)
    }

    /// Core lexicographic run: `(dist, hops)` Dijkstra from `source`.
    ///
    /// Fast path (taken whenever `(n − 1) · W · n` fits below [`INFINITY`],
    /// i.e. for every polynomially-weighted graph the paper considers): pack
    /// the pair into the single key `dist · K + hops` with `K = n > max hops`
    /// — key order is exactly the lexicographic order, so the run degenerates
    /// to a plain Dijkstra over transformed edge weights `w · K + 1`, halving
    /// heap-entry traffic and tuple comparisons. `self.dist` holds packed
    /// keys afterwards; [`DijkstraWorkspace::lex_into`] decodes. The general
    /// two-key loop remains as fallback for extreme weights.
    fn run_lex(&mut self, g: &Graph, source: NodeId) -> Option<u64> {
        if let Some(k) = Self::lex_pack_factor(g) {
            // Dial fast path on the packed keys: the transformed weights
            // `w · K + 1` are still small integers for every generator-scale
            // graph, so the bucket queue replaces the binary heap here too
            // (identical exact results, no `O(log n)` heap traffic). The
            // cursor budget keeps high-diameter graphs (key span ≈ weighted
            // eccentricity × K, e.g. long cycles) off this path: once the
            // sweep exceeds roughly what a heap run would cost, Dial bails
            // and the heap path below runs instead.
            if g.max_weight() * k < LEX_DIAL_MAX_WEIGHT && g.len() > 1 {
                let budget = 32 * (g.len() as u64 + g.num_edges() as u64);
                if self.run_dial_core(g, source, INFINITY, k, 1, budget) {
                    return Some(k);
                }
            }
            self.begin(g.len());
            let s = source.index();
            self.dist[s] = 0;
            self.pred[s] = u32::MAX;
            self.heap.push(Reverse((0, source.raw())));
            while let Some(Reverse((key, v_raw))) = self.heap.pop() {
                let v = v_raw as usize;
                if key > self.dist[v] {
                    continue; // stale entry
                }
                for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                    let nk = key + w * k + 1;
                    let ui = u.index();
                    if nk < self.dist[ui] {
                        self.dist[ui] = nk;
                        self.pred[ui] = v_raw;
                        self.heap.push(Reverse((nk, u.raw())));
                    }
                }
            }
            return Some(k);
        }
        self.begin(g.len());
        let n = g.len();
        self.hops[..n].fill(INFINITY);
        let s = source.index();
        self.dist[s] = 0;
        self.hops[s] = 0;
        self.pred[s] = u32::MAX;
        self.heap_lex.push(Reverse((0, 0, source.raw())));
        while let Some(Reverse((d, h, v_raw))) = self.heap_lex.pop() {
            let v = v_raw as usize;
            if (d, h) > (self.dist[v], self.hops[v]) {
                continue; // stale entry
            }
            for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                let nd = dist_add(d, w);
                let nh = h + 1;
                let ui = u.index();
                if (nd, nh) < (self.dist[ui], self.hops[ui]) {
                    self.dist[ui] = nd;
                    self.hops[ui] = nh;
                    self.pred[ui] = v_raw;
                    self.heap_lex.push(Reverse((nd, nh, u.raw())));
                }
            }
        }
        None
    }

    /// Runs from `source` and writes the distance row into `out`
    /// (`out.len() == g.len()`; unreachable nodes get [`INFINITY`]).
    pub fn dist_into(&mut self, g: &Graph, source: NodeId, out: &mut [Distance]) {
        assert_eq!(out.len(), g.len(), "output row must have one slot per node");
        self.run_plain(g, source, INFINITY);
        out.copy_from_slice(&self.dist[..g.len()]);
    }

    /// Runs from `source` and writes both the distance and the minimum-hop
    /// rows (the [`dijkstra_lex`] relaxation) into `dist_out` / `hops_out`.
    pub fn lex_into(
        &mut self,
        g: &Graph,
        source: NodeId,
        dist_out: &mut [Distance],
        hops_out: &mut [Distance],
    ) {
        assert_eq!(dist_out.len(), g.len(), "output row must have one slot per node");
        assert_eq!(hops_out.len(), g.len(), "output row must have one slot per node");
        match self.run_lex(g, source) {
            Some(k) => {
                for v in 0..g.len() {
                    let key = self.dist[v];
                    if key == INFINITY {
                        dist_out[v] = INFINITY;
                        hops_out[v] = INFINITY;
                    } else {
                        dist_out[v] = key / k;
                        hops_out[v] = key % k;
                    }
                }
            }
            None => {
                dist_out.copy_from_slice(&self.dist[..g.len()]);
                hops_out.copy_from_slice(&self.hops[..g.len()]);
            }
        }
    }

    /// Weighted eccentricity of `source` ([`INFINITY`] if `source` does not
    /// reach every node), without materializing a row.
    pub fn eccentricity(&mut self, g: &Graph, source: NodeId) -> Distance {
        self.run_plain(g, source, INFINITY);
        let mut ecc = 0;
        for &d in &self.dist[..g.len()] {
            if d == INFINITY {
                return INFINITY;
            }
            ecc = ecc.max(d);
        }
        ecc
    }

    fn extract(&self, g: &Graph, source: NodeId) -> ShortestPaths {
        let n = g.len();
        let dist = self.dist[..n].to_vec();
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        for v in 0..n {
            // `pred` entries are only meaningful where this run settled the
            // node; stale values from earlier runs hide behind INFINITY.
            if dist[v] != INFINITY && self.pred[v] != u32::MAX {
                pred[v] = Some(NodeId::from(self.pred[v]));
            }
        }
        ShortestPaths { source, dist, pred }
    }
}

/// Single-source shortest paths in `O((n + m) log n)`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    let mut ws = DijkstraWorkspace::new();
    ws.run_plain(g, source, INFINITY);
    ws.extract(g, source)
}

/// Dijkstra truncated at weighted radius `max_dist`: nodes with `d(source, v) >
/// max_dist` keep [`INFINITY`].
pub fn dijkstra_within(g: &Graph, source: NodeId, max_dist: Distance) -> ShortestPaths {
    let mut ws = DijkstraWorkspace::new();
    ws.run_plain(g, source, max_dist);
    ws.extract(g, source)
}

/// Lexicographic shortest paths: minimizes `(w(P), |P|)`, i.e. among all shortest
/// paths prefers one with the fewest hops.
///
/// Returns `(dist, hops)` per node where `hops[v]` is the minimum hop count over all
/// minimum-weight `source`–`v` paths. `hops` is [`INFINITY`] iff `dist` is.
pub fn dijkstra_lex(g: &Graph, source: NodeId) -> (Vec<Distance>, Vec<Distance>) {
    let n = g.len();
    let mut dist = vec![INFINITY; n];
    let mut hops = vec![INFINITY; n];
    let mut ws = DijkstraWorkspace::new();
    ws.lex_into(g, source, &mut dist, &mut hops);
    (dist, hops)
}

/// Runs one lexicographic Dijkstra per source — in parallel across OS threads,
/// one reusable [`DijkstraWorkspace`] per worker — and maps each `(dist, hops)`
/// row pair through `f`, returning the results in source order.
///
/// `f` receives `(source index, source, dist row, hops row)`; the rows are
/// worker-local buffers overwritten by the next source, so `f` must extract
/// what it needs. Exact distances make the output independent of the thread
/// count.
pub fn par_map_rows<T, F>(g: &Graph, sources: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, NodeId, &[Distance], &[Distance]) -> T + Sync,
{
    let n = g.len();
    let k = sources.len();
    if k == 0 {
        return Vec::new();
    }
    let threads = crate::workers(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        let mut hops = vec![INFINITY; n];
        return sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                ws.lex_into(g, s, &mut dist, &mut hops);
                f(i, s, &dist, &hops)
            })
            .collect();
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .enumerate()
            .map(|(ci, srcs)| {
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    let mut dist = vec![INFINITY; n];
                    let mut hops = vec![INFINITY; n];
                    srcs.iter()
                        .enumerate()
                        .map(|(j, &s)| {
                            ws.lex_into(g, s, &mut dist, &mut hops);
                            f(ci * chunk + j, s, &dist, &hops)
                        })
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("dijkstra worker panicked")).collect()
    })
}

/// Runs one lexicographic Dijkstra per source in parallel, splitting `out`
/// into `sources.len()` rows of `g.len()` entries and invoking
/// `f(source index, source, dist row, hops row, out row)` to fill each one.
///
/// This is the direct-write driver behind [`par_dist_rows`] and the
/// `hybrid-core` APSP assembly: rows land in the final flat matrix without an
/// intermediate copy.
pub fn par_lex_rows_with<F>(g: &Graph, sources: &[NodeId], out: &mut [Distance], f: F)
where
    F: Fn(usize, NodeId, &[Distance], &[Distance], &mut [Distance]) + Sync,
{
    let n = g.len();
    let k = sources.len();
    assert_eq!(out.len(), n * k, "output must hold one row per source");
    if k == 0 {
        return;
    }
    let threads = crate::workers(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        let mut hops = vec![INFINITY; n];
        for (i, (&s, row)) in sources.iter().zip(out.chunks_mut(n)).enumerate() {
            ws.lex_into(g, s, &mut dist, &mut hops);
            f(i, s, &dist, &hops, row);
        }
        return;
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for ((ci, srcs), rows) in sources.chunks(chunk).enumerate().zip(out.chunks_mut(chunk * n)) {
            scope.spawn(move || {
                let mut ws = DijkstraWorkspace::new();
                let mut dist = vec![INFINITY; n];
                let mut hops = vec![INFINITY; n];
                for (j, (&s, row)) in srcs.iter().zip(rows.chunks_mut(n)).enumerate() {
                    ws.lex_into(g, s, &mut dist, &mut hops);
                    f(ci * chunk + j, s, &dist, &hops, row);
                }
            });
        }
    });
}

/// Fills `out` (row-major, one row of `g.len()` distances per source) with
/// exact single-source distances, one parallel Dijkstra per source.
///
/// Uses the plain (distance-only) relaxation — cheaper than the lexicographic
/// drivers on tie-heavy graphs since no equal-distance re-relaxations occur.
pub fn par_dist_rows(g: &Graph, sources: &[NodeId], out: &mut [Distance]) {
    let n = g.len();
    let k = sources.len();
    assert_eq!(out.len(), n * k, "output must hold one row per source");
    if k == 0 {
        return;
    }
    let threads = crate::workers(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        for (&s, row) in sources.iter().zip(out.chunks_mut(n)) {
            ws.dist_into(g, s, row);
        }
        return;
    }
    let chunk = k.div_ceil(threads);
    std::thread::scope(|scope| {
        for (srcs, rows) in sources.chunks(chunk).zip(out.chunks_mut(chunk * n)) {
            scope.spawn(move || {
                let mut ws = DijkstraWorkspace::new();
                for (&s, row) in srcs.iter().zip(rows.chunks_mut(n)) {
                    ws.dist_into(g, s, row);
                }
            });
        }
    });
}

/// Like [`par_map_rows`] but with the plain (distance-only) relaxation: maps
/// each source's distance row through `f` without computing hop counts.
pub fn par_map_dist_rows<T, F>(g: &Graph, sources: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, NodeId, &[Distance]) -> T + Sync,
{
    let n = g.len();
    let k = sources.len();
    if k == 0 {
        return Vec::new();
    }
    let threads = crate::workers(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        return sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                ws.dist_into(g, s, &mut dist);
                f(i, s, &dist)
            })
            .collect();
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .enumerate()
            .map(|(ci, srcs)| {
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    let mut dist = vec![INFINITY; n];
                    srcs.iter()
                        .enumerate()
                        .map(|(j, &s)| {
                            ws.dist_into(g, s, &mut dist);
                            f(ci * chunk + j, s, &dist)
                        })
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("dijkstra worker panicked")).collect()
    })
}

/// The *shortest path diameter* `SPD(G)`: the maximum, over all pairs `u, v`, of the
/// minimum hop length of a minimum-weight `u`–`v` path.
///
/// For unweighted graphs `SPD(G) = D(G)`. Returns [`INFINITY`] for disconnected
/// graphs. Cost: `n` lexicographic Dijkstra runs, parallelized across cores.
pub fn shortest_path_diameter(g: &Graph) -> Distance {
    let sources: Vec<NodeId> = g.nodes().collect();
    let per_source = par_map_rows(g, &sources, |_, _, dist, hops| {
        let mut worst = 0;
        for v in 0..dist.len() {
            if dist[v] == INFINITY {
                return INFINITY; // disconnected: propagate
            }
            worst = worst.max(hops[v]);
        }
        worst
    });
    per_source.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, erdos_renyi_connected, grid, path, weighted_cycle_with_chord};
    use crate::graph::GraphBuilder;
    use rand::SeedableRng;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3   and   0 -3- 2 -3- 3 ; plus heavy direct edge 0-3.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(3), 1).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(2), 3).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 3).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3), 10).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_light_path() {
        let g = diamond();
        let sp = dijkstra(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(3)), 2);
        assert_eq!(
            sp.path_to(NodeId::new(3)).unwrap(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        let g = b.build().unwrap();
        let sp = dijkstra(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(2)), INFINITY);
        assert!(sp.path_to(NodeId::new(2)).is_none());
    }

    #[test]
    fn truncated_respects_radius() {
        let g = path(6, 2).unwrap(); // weights 2, distances 0,2,4,...
        let sp = dijkstra_within(&g, NodeId::new(0), 5);
        assert_eq!(sp.dist(NodeId::new(2)), 4);
        assert_eq!(sp.dist(NodeId::new(3)), INFINITY);
    }

    #[test]
    fn lex_prefers_fewer_hops() {
        // Two shortest paths of weight 4: 0-1-2-3 (3 hops) and the direct edge.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 2).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3), 4).unwrap();
        let g = b.build().unwrap();
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        assert_eq!(dist[3], 4);
        assert_eq!(hops[3], 1); // prefers the direct edge
    }

    #[test]
    fn spd_exceeds_diameter_on_weighted_cycle() {
        // A cycle with a heavy chord: shortest paths go the long way around, so SPD
        // is much larger than the hop diameter.
        let g = weighted_cycle_with_chord(12, 1, 100).unwrap();
        let spd = shortest_path_diameter(&g);
        assert!(spd >= 6, "spd = {spd}");
    }

    #[test]
    fn spd_equals_diameter_unweighted() {
        let g = path(7, 1).unwrap();
        assert_eq!(shortest_path_diameter(&g), 6);
    }

    #[test]
    fn spd_disconnected_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(shortest_path_diameter(&g), INFINITY);
    }

    #[test]
    fn eccentricity_on_path() {
        let g = path(5, 3).unwrap();
        assert_eq!(dijkstra(&g, NodeId::new(0)).eccentricity(), 12);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // One workspace across many sources (and two graphs of different
        // sizes) must reproduce fresh per-source runs exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let big = erdos_renyi_connected(60, 0.08, 7, &mut rng).unwrap();
        let small = grid(4, 4, 2).unwrap();
        let mut ws = DijkstraWorkspace::new();
        for g in [&big, &small, &big] {
            let n = g.len();
            let mut dist = vec![0; n];
            let mut hops = vec![0; n];
            for v in g.nodes() {
                ws.lex_into(g, v, &mut dist, &mut hops);
                let (fresh_d, fresh_h) = dijkstra_lex(g, v);
                assert_eq!(dist, fresh_d, "dist from {v}");
                assert_eq!(hops, fresh_h, "hops from {v}");
                assert_eq!(ws.eccentricity(g, v), dijkstra(g, v).eccentricity());
            }
        }
    }

    #[test]
    fn par_rows_match_sequential_dijkstra() {
        // Driver equivalence on the three workload families named by the
        // acceptance criteria: seeded Erdős–Rényi, grid, and path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let families = vec![
            erdos_renyi_connected(72, 0.07, 9, &mut rng).unwrap(),
            grid(8, 7, 3).unwrap(),
            path(50, 2).unwrap(),
        ];
        for g in &families {
            let n = g.len();
            let sources: Vec<NodeId> = g.nodes().collect();
            let mut rows = vec![0; n * n];
            par_dist_rows(g, &sources, &mut rows);
            let mapped =
                par_map_rows(g, &sources, |_, _, dist, hops| (dist.to_vec(), hops.to_vec()));
            for (i, &s) in sources.iter().enumerate() {
                let (exact_d, exact_h) = dijkstra_lex(g, s);
                assert_eq!(&rows[i * n..(i + 1) * n], &exact_d[..], "row {s}");
                assert_eq!(mapped[i].0, exact_d, "mapped dist {s}");
                assert_eq!(mapped[i].1, exact_h, "mapped hops {s}");
            }
        }
    }

    #[test]
    fn lex_fallback_on_huge_weights_matches_packed_semantics() {
        // Weights near u64::MAX/2 make the packed key overflow, forcing the
        // general two-key loop; the lexicographic contract must be identical.
        let big = u64::MAX / 4;
        {
            // Boundary audit: a graph whose worst *settled* key fits but whose
            // worst relaxation candidate would wrap must be rejected too.
            let n = 16u64;
            // In the window where the worst settled key (240·w) fits but the
            // worst relaxation candidate (256·w) wraps:
            let w = u64::MAX / 250;
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..(n as usize - 1) {
                b.add_edge(NodeId::new(i), NodeId::new(i + 1), w).unwrap();
            }
            let g = b.build().unwrap();
            assert!(
                DijkstraWorkspace::lex_pack_factor(&g).is_none(),
                "candidate-overflow graphs must use the fallback"
            );
            // And the fallback still computes correct saturating distances.
            let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
            assert_eq!(dist[1], w);
            assert_eq!(hops[15], 15);
        }
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), big).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(2), big + 1).unwrap(); // same total, 1 hop
        let g = b.build().unwrap();
        assert!(DijkstraWorkspace::lex_pack_factor(&g).is_none(), "must take the fallback");
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        assert_eq!(dist[2], big + 1);
        assert_eq!(hops[2], 1, "lex prefers the 1-hop path of equal weight");
        assert_eq!(dist[3], INFINITY);
        assert_eq!(hops[3], INFINITY);
    }

    #[test]
    fn heap_path_matches_dial_path() {
        // The same graph shape with weights just beyond the Dial threshold
        // must produce identical distances via the binary-heap plain run.
        let scale = super::DIAL_MAX_WEIGHT + 1; // pushes max weight past Dial
        let small = path(12, 3).unwrap();
        let mut b = GraphBuilder::new(12);
        for e in small.edges() {
            b.add_edge(e.u, e.v, e.w * scale).unwrap();
        }
        let heavy = b.build().unwrap();
        for v in small.nodes() {
            let d_small = dijkstra(&small, v);
            let d_heavy = dijkstra(&heavy, v);
            for u in small.nodes() {
                assert_eq!(d_small.dist(u) * scale, d_heavy.dist(u));
            }
        }
    }

    #[test]
    fn lex_dial_matches_heap_packed_path() {
        // Same topology, weights scaled so the packed key still fits but the
        // transformed weight W·K+1 exceeds the Dial bucket bound: the heap
        // path must agree with the Dial path up to the uniform weight scale
        // (identical hop tie-breaks, scaled distances).
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let small = erdos_renyi_connected(40, 0.12, 8, &mut rng).unwrap();
        assert!(small.max_weight() * (small.len() as u64) < super::LEX_DIAL_MAX_WEIGHT);
        let scale = 520u64;
        let mut b = GraphBuilder::new(small.len());
        for e in small.edges() {
            b.add_edge(e.u, e.v, e.w * scale).unwrap();
        }
        let heavy = b.build().unwrap();
        assert!(
            heavy.max_weight() * heavy.len() as u64 + 1 > super::LEX_DIAL_MAX_WEIGHT,
            "heavy graph must take the heap path"
        );
        assert!(DijkstraWorkspace::lex_pack_factor(&heavy).is_some(), "still packable");
        for v in small.nodes() {
            let (d_small, h_small) = dijkstra_lex(&small, v);
            let (d_heavy, h_heavy) = dijkstra_lex(&heavy, v);
            for u in small.nodes() {
                assert_eq!(d_small[u.index()] * scale, d_heavy[u.index()]);
                assert_eq!(h_small[u.index()], h_heavy[u.index()]);
            }
        }
    }

    #[test]
    fn lex_dial_bails_to_heap_on_high_diameter() {
        // A long unit cycle: Dial would sweep ≈ (n/2)·n key values, far past
        // the cursor budget, so the run must bail to the heap path — and the
        // closed-form cycle distances pin that the fallback is correct.
        let n = 2000usize;
        let g = cycle(n, 1).unwrap();
        assert!(
            g.max_weight() * (g.len() as u64) < super::LEX_DIAL_MAX_WEIGHT,
            "cycle is Dial-eligible by the weight guard alone"
        );
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        for v in [1usize, 7, n / 2, n - 3] {
            let expect = v.min(n - v) as u64;
            assert_eq!(dist[v], expect, "node {v}");
            assert_eq!(hops[v], expect, "node {v}");
        }
    }

    #[test]
    fn par_map_rows_preserves_source_order() {
        let g = path(20, 1).unwrap();
        let sources: Vec<NodeId> = vec![NodeId::new(3), NodeId::new(17), NodeId::new(0)];
        let ids = par_map_rows(&g, &sources, |i, s, _, _| (i, s));
        assert_eq!(ids, vec![(0, NodeId::new(3)), (1, NodeId::new(17)), (2, NodeId::new(0))]);
    }

    #[test]
    fn par_rows_empty_sources() {
        let g = path(5, 1).unwrap();
        let mut out: Vec<Distance> = Vec::new();
        par_dist_rows(&g, &[], &mut out);
        assert!(par_map_rows(&g, &[], |_, _, _, _| 0u8).is_empty());
    }
}
