//! Shared preprocessing phases and their session cache.
//!
//! Every paper algorithm opens with the same preamble: sample a skeleton
//! (Algorithm 6), derive per-node nearby-skeleton knowledge, and (for APSP)
//! solve the skeleton graph exactly. A fresh [`crate::solver::solve`] call
//! recomputes all of it; a [`crate::session::Session`] runs each phase once
//! per *skeleton key* `(x, ξ, forced nodes, seed)` and serves every later
//! query from the immutable [`Prepared`] artifact, charging only the
//! simulated rounds the phase would have cost (the protocol's round bill is
//! replayed, the wall-clock recomputation is not).
//!
//! The phases here are the single implementation used by both paths: the
//! algorithm modules call them with [`Prep::Cold`] (fresh solve — compute,
//! don't cache) or [`Prep::Warm`] (session solve — serve from / fill the
//! cache). Results are bit-identical by construction: each phase is a pure
//! function of `(graph, key)` plus a deterministic round charge.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hybrid_graph::apsp::DistanceMatrix;
use hybrid_graph::dijkstra::par_map_rows;
use hybrid_graph::skeleton::Skeleton;
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};
use hybrid_sim::HybridNet;

use crate::error::HybridError;
use crate::skeleton_ops::compute_skeleton;

/// How an algorithm wants its preprocessing served.
#[derive(Clone, Copy)]
pub(crate) enum Prep<'a> {
    /// Fresh solve: compute every phase on the spot, cache nothing.
    Cold,
    /// Session solve: serve phases from (and insert them into) the cache.
    Warm(&'a Prepared),
}

/// Cache key of one skeleton preamble: the sampling exponent, the radius
/// constant ξ, the forced members (the single source of Lemma 4.5), and the
/// root seed — everything `compute_skeleton` draws on besides the graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SkeletonKey {
    x_exp_bits: u64,
    xi_bits: u64,
    forced: Vec<NodeId>,
    seed: u64,
}

impl SkeletonKey {
    fn new(x_exp: f64, xi: f64, forced: &[NodeId], seed: u64) -> Self {
        SkeletonKey {
            x_exp_bits: x_exp.to_bits(),
            xi_bits: xi.to_bits(),
            forced: forced.to_vec(),
            seed,
        }
    }

    /// The sampling exponent the key was built from.
    pub(crate) fn x_exp(&self) -> f64 {
        f64::from_bits(self.x_exp_bits)
    }

    /// The radius constant ξ the key was built from.
    pub(crate) fn xi(&self) -> f64 {
        f64::from_bits(self.xi_bits)
    }

    /// The forced member set.
    pub(crate) fn forced(&self) -> &[NodeId] {
        &self.forced
    }

    /// The root seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }
}

/// Tie-break used when a node has no skeleton within `h` hops and the
/// exploration is adaptively deepened. The two framework families resolve the
/// fallback differently (and the difference is pinned by their tests), so the
/// flavors are cached separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NearTie {
    /// APSP (Theorem 1.1 / SODA'20): nearest by `(distance, hops, index)`,
    /// charging the extra exploration rounds beyond `h`.
    HopThenIndex,
    /// k-SSP framework (Theorem 4.1): nearest by `(distance, index)`; the
    /// `ηh` exploration already paid for the deepening.
    IndexOnly,
}

/// Per-node nearby-skeleton lists in one compact flat arena: `starts` offsets
/// into parallel `idx`/`dist` arrays (u32 skeleton-local indices — half the
/// footprint of the former per-node `Vec<(usize, Distance)>` lists, and one
/// allocation instead of `n`).
#[derive(Debug)]
pub(crate) struct NearData {
    starts: Vec<u32>,
    idx: Vec<u32>,
    dist: Vec<Distance>,
    /// Nodes that needed the adaptive exploration fallback (Lemma C.1
    /// failure events).
    pub fallbacks: usize,
    /// Extra exploration rounds beyond `h` the fallbacks cost (charged by
    /// [`near_phase`] under the caller's phase label).
    pub extra_rounds: u64,
}

impl NearData {
    /// The `(skeleton-local index, d_h(v, s))` pairs of node `v`, ascending
    /// by index.
    pub fn node(&self, v: usize) -> impl Iterator<Item = (usize, Distance)> + '_ {
        let (lo, hi) = (self.starts[v] as usize, self.starts[v + 1] as usize);
        self.idx[lo..hi].iter().zip(&self.dist[lo..hi]).map(|(&i, &d)| (i as usize, d))
    }

    /// Number of per-node entry runs (= `n`).
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Rebuilds the arena with the runs of `dirty` nodes replaced by their
    /// fresh runs `fresh[fresh_starts[v]..fresh_starts[v + 1]]` and every
    /// clean run copied verbatim — the repair path's
    /// single-pass equivalent of expanding to per-node lists, editing the
    /// dirty ones, and re-flattening through [`NearData::from_lists`]
    /// (bit-identical to that construction, without `n` intermediate
    /// allocations). The caller guarantees `self.fallbacks == 0` and a
    /// non-empty fresh run for every dirty node, so the spliced arena is a
    /// fallback-free cold value.
    pub(crate) fn splice_rows(
        &self,
        dirty: &[bool],
        fresh_starts: &[u32],
        fresh: &[(u32, Distance)],
    ) -> NearData {
        let n = self.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut idx = Vec::with_capacity(self.idx.len());
        let mut dist = Vec::with_capacity(self.dist.len());
        starts.push(0u32);
        for v in 0..n {
            if dirty[v] {
                for &(i, d) in &fresh[fresh_starts[v] as usize..fresh_starts[v + 1] as usize] {
                    idx.push(i);
                    dist.push(d);
                }
            } else {
                let (lo, hi) = (self.starts[v] as usize, self.starts[v + 1] as usize);
                idx.extend_from_slice(&self.idx[lo..hi]);
                dist.extend_from_slice(&self.dist[lo..hi]);
            }
            starts.push(idx.len() as u32);
        }
        NearData { starts, idx, dist, fallbacks: 0, extra_rounds: 0 }
    }

    /// Flattens per-node lists into the compact arena — the single
    /// construction path, so equal lists yield a bit-identical arena.
    pub(crate) fn from_lists(
        lists: &[Vec<(usize, Distance)>],
        fallbacks: usize,
        extra_rounds: u64,
    ) -> NearData {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut starts = Vec::with_capacity(lists.len() + 1);
        let mut idx = Vec::with_capacity(total);
        let mut dist = Vec::with_capacity(total);
        starts.push(0u32);
        for list in lists {
            for &(i, d) in list {
                idx.push(i as u32);
                dist.push(d);
            }
            starts.push(idx.len() as u32);
        }
        NearData { starts, idx, dist, fallbacks, extra_rounds }
    }

    /// `d_h(v, s)` if skeleton node `s` is near `v` (binary search over the
    /// node's sorted index run).
    pub fn dist_to(&self, v: usize, s: usize) -> Option<Distance> {
        let (lo, hi) = (self.starts[v] as usize, self.starts[v + 1] as usize);
        self.idx[lo..hi].binary_search(&(s as u32)).ok().map(|k| self.dist[lo + k])
    }

    /// Approximate heap footprint of the arena in bytes.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.starts.len() * size_of::<u32>()
            + self.idx.len() * size_of::<u32>()
            + self.dist.len() * size_of::<Distance>()
    }
}

/// Everything derived from one skeleton preamble, computed lazily and at most
/// once per session. The skeleton itself is eager (it *is* the phase); the
/// derived tables fill on first use by an algorithm that needs them.
#[derive(Debug)]
pub(crate) struct SkeletonArtifacts {
    /// The constructed skeleton (Algorithm 6's output, post-remediation).
    pub skeleton: Skeleton,
    d_s: OnceLock<Arc<DistanceMatrix>>,
    near_hop: OnceLock<Arc<NearData>>,
    near_plain: OnceLock<Arc<NearData>>,
}

impl SkeletonArtifacts {
    fn new(skeleton: Skeleton) -> Self {
        SkeletonArtifacts {
            skeleton,
            d_s: OnceLock::new(),
            near_hop: OnceLock::new(),
            near_plain: OnceLock::new(),
        }
    }

    /// Artifacts with some derived tables pre-seeded — the repair path's
    /// constructor, carrying over tables proven unchanged by damage analysis
    /// (a `None` slot refills lazily, recomputing the bit-identical value).
    pub(crate) fn with_tables(
        skeleton: Skeleton,
        d_s: Option<Arc<DistanceMatrix>>,
        near_hop: Option<Arc<NearData>>,
        near_plain: Option<Arc<NearData>>,
    ) -> Self {
        let art = SkeletonArtifacts::new(skeleton);
        if let Some(m) = d_s {
            let _ = art.d_s.set(m);
        }
        if let Some(nd) = near_hop {
            let _ = art.near_hop.set(nd);
        }
        if let Some(nd) = near_plain {
            let _ = art.near_plain.set(nd);
        }
        art
    }

    /// The memoized skeleton APSP, if an algorithm has derived it already.
    pub(crate) fn d_s_built(&self) -> Option<Arc<DistanceMatrix>> {
        self.d_s.get().cloned()
    }

    /// The memoized near-list flavor, if built.
    pub(crate) fn near_built(&self, tie: NearTie) -> Option<Arc<NearData>> {
        match tie {
            NearTie::HopThenIndex => self.near_hop.get().cloned(),
            NearTie::IndexOnly => self.near_plain.get().cloned(),
        }
    }

    /// Approximate heap bytes of the skeleton and every derived table built
    /// so far (unbuilt lazy tables cost nothing yet).
    fn bytes(&self) -> usize {
        let mut total = self.skeleton.approx_heap_bytes();
        if let Some(m) = self.d_s.get() {
            total += std::mem::size_of_val(m.as_flat());
        }
        for slot in [&self.near_hop, &self.near_plain] {
            if let Some(near) = slot.get() {
                total += near.bytes();
            }
        }
        total
    }
}

/// The immutable preprocessing artifact of a session: skeleton preambles
/// keyed by `(x, ξ, forced, seed)`, each with its lazily derived tables.
/// Logically immutable — every entry is a pure function of the session's
/// graph and its key — with interior mutability only for memoization, so a
/// `&Prepared` can be shared across the batch workers.
///
/// Each key owns a per-key cell (`Mutex<Option<…>>`): the first worker to
/// reach a key computes the artifacts while holding the cell lock, and
/// concurrent workers on the same key *block and reuse* instead of
/// duplicating the preprocessing — the map lock itself is only held for the
/// entry lookup, so distinct keys still prepare in parallel.
#[derive(Debug, Default)]
pub struct Prepared {
    skeletons: Mutex<HashMap<SkeletonKey, PreambleCell>>,
}

/// One key's construction slot: empty while unbuilt (or after a failed
/// build), then the canonical artifacts. Workers lock the cell for the
/// duration of a build, so racers wait instead of duplicating it.
type PreambleCell = Arc<Mutex<Option<Arc<SkeletonArtifacts>>>>;

impl Prepared {
    /// Number of distinct skeleton preambles prepared so far (in-flight or
    /// failed constructions do not count).
    pub fn skeletons(&self) -> usize {
        let cells: Vec<PreambleCell> =
            self.skeletons.lock().expect("prepared cache lock").values().cloned().collect();
        cells.iter().filter(|c| c.lock().expect("prepared cell lock").is_some()).count()
    }

    /// Approximate heap bytes of every prepared artifact: skeletons plus the
    /// derived tables built so far. Grows as queries prepare and derive —
    /// the sizing input for byte-budgeted session caches (surfaced as
    /// `prepared_bytes` on [`crate::session::SessionStats`]).
    pub fn bytes(&self) -> usize {
        let cells: Vec<PreambleCell> =
            self.skeletons.lock().expect("prepared cache lock").values().cloned().collect();
        cells
            .iter()
            .filter_map(|c| c.lock().expect("prepared cell lock").as_ref().map(|a| a.bytes()))
            .sum()
    }

    /// The per-key cell, created empty on first access.
    fn cell(&self, key: SkeletonKey) -> PreambleCell {
        self.skeletons.lock().expect("prepared cache lock").entry(key).or_default().clone()
    }

    /// Snapshot of every *built* preamble — the migration set of incremental
    /// re-preparation after a topology delta.
    pub(crate) fn built_entries(&self) -> Vec<(SkeletonKey, Arc<SkeletonArtifacts>)> {
        let cells: Vec<(SkeletonKey, PreambleCell)> = self
            .skeletons
            .lock()
            .expect("prepared cache lock")
            .iter()
            .map(|(k, c)| (k.clone(), c.clone()))
            .collect();
        let mut entries: Vec<(SkeletonKey, Arc<SkeletonArtifacts>)> = cells
            .into_iter()
            .filter_map(|(k, c)| c.lock().expect("prepared cell lock").clone().map(|a| (k, a)))
            .collect();
        // Deterministic migration order, independent of hash-map iteration.
        entries.sort_by(|(a, _), (b, _)| {
            (a.x_exp_bits, a.xi_bits, &a.forced, a.seed).cmp(&(
                b.x_exp_bits,
                b.xi_bits,
                &b.forced,
                b.seed,
            ))
        });
        entries
    }

    /// Installs a pre-built preamble under `key` (the repair path's insert).
    pub(crate) fn insert_built(&self, key: SkeletonKey, art: Arc<SkeletonArtifacts>) {
        let cell = self.cell(key);
        let mut slot = cell.lock().expect("prepared cell lock");
        *slot = Some(art);
    }
}

/// Algorithm 6 as a reusable phase: returns the skeleton artifacts for
/// `(x_exp, xi, forced, seed)`, charging the `h` rounds of local edge
/// discovery exactly as a fresh `compute_skeleton` would — on a cache hit the
/// charge is replayed without recomputation.
pub(crate) fn skeleton_phase(
    net: &mut HybridNet<'_>,
    x_exp: f64,
    xi: f64,
    forced: &[NodeId],
    seed: u64,
    phase: &str,
    prep: Prep<'_>,
) -> Result<Arc<SkeletonArtifacts>, HybridError> {
    if net.tracing() {
        net.trace_span_begin(&format!("prepare:{phase}"));
    }
    let out = skeleton_phase_impl(net, x_exp, xi, forced, seed, phase, prep);
    if net.tracing() {
        net.trace_span_end(&format!("prepare:{phase}"));
    }
    out
}

fn skeleton_phase_impl(
    net: &mut HybridNet<'_>,
    x_exp: f64,
    xi: f64,
    forced: &[NodeId],
    seed: u64,
    phase: &str,
    prep: Prep<'_>,
) -> Result<Arc<SkeletonArtifacts>, HybridError> {
    let Prep::Warm(prepared) = prep else {
        let skeleton = compute_skeleton(net, x_exp, xi, forced, seed, phase)?;
        return Ok(Arc::new(SkeletonArtifacts::new(skeleton)));
    };
    let key = SkeletonKey::new(x_exp, xi, forced, seed);
    let cell = prepared.cell(key);
    let mut slot = cell.lock().expect("prepared cell lock");
    if let Some(art) = slot.as_ref() {
        // Replay Algorithm 6's round bill: `h` rounds of local discovery at
        // the (post-remediation) radius the cached construction settled on.
        let art = art.clone();
        net.trace_cache(phase, true);
        net.charge_local(art.skeleton.h() as u64, phase);
        return Ok(art);
    }
    // First worker on this key: compute while holding the cell lock so
    // concurrent workers block (and then replay) instead of recomputing. On
    // error the slot stays empty and the next caller retries.
    net.trace_cache(phase, false);
    let skeleton = compute_skeleton(net, x_exp, xi, forced, seed, phase)?;
    let art = Arc::new(SkeletonArtifacts::new(skeleton));
    *slot = Some(art.clone());
    Ok(art)
}

/// Exact APSP on the skeleton graph (`d_S`), memoized per skeleton. A pure
/// local computation — no rounds to charge.
pub(crate) fn skeleton_apsp(art: &SkeletonArtifacts) -> Arc<DistanceMatrix> {
    art.d_s.get_or_init(|| Arc::new(art.skeleton.apsp())).clone()
}

/// Per-node nearby-skeleton lists with the adaptive Lemma C.1 fallback,
/// memoized per `(skeleton, tie)`. The fallback's extra exploration rounds
/// are charged under `phase` on every call (hit or miss) for the
/// [`NearTie::HopThenIndex`] flavor — exactly the fresh algorithms' behavior.
pub(crate) fn near_phase(
    net: &mut HybridNet<'_>,
    art: &SkeletonArtifacts,
    tie: NearTie,
    phase: &str,
) -> Arc<NearData> {
    let g = net.graph();
    let slot = match tie {
        NearTie::HopThenIndex => &art.near_hop,
        NearTie::IndexOnly => &art.near_plain,
    };
    let data = slot.get_or_init(|| Arc::new(compute_near(g, &art.skeleton, tie))).clone();
    if tie == NearTie::HopThenIndex && data.extra_rounds > 0 {
        net.charge_local(data.extra_rounds, phase);
    }
    data
}

/// Computes the nearby-skeleton arena: per-node lists from the skeleton's
/// `d_h` table, then one parallel lexicographic Dijkstra per uncovered node.
pub(crate) fn compute_near(g: &Graph, skeleton: &Skeleton, tie: NearTie) -> NearData {
    let n = g.len();
    let ns = skeleton.len();
    let mut lists: Vec<Vec<(usize, Distance)>> =
        g.nodes().map(|v| skeleton.skeletons_near(v)).collect();
    let uncovered: Vec<NodeId> = (0..n).filter(|&v| lists[v].is_empty()).map(NodeId::new).collect();
    let fallbacks = uncovered.len();
    let mut extra_rounds = 0u64;
    if fallbacks > 0 {
        match tie {
            NearTie::HopThenIndex => {
                let resolved = par_map_rows(g, &uncovered, |_, _, dist, hops| {
                    (0..ns)
                        .filter_map(|i| {
                            let t = skeleton.global(i);
                            (dist[t.index()] != INFINITY).then_some((
                                dist[t.index()],
                                hops[t.index()],
                                i,
                            ))
                        })
                        .min()
                });
                for (&v, best) in uncovered.iter().zip(resolved) {
                    if let Some((d, hop, i)) = best {
                        extra_rounds = extra_rounds.max(hop.saturating_sub(skeleton.h() as u64));
                        lists[v.index()] = vec![(i, d)];
                    }
                }
            }
            NearTie::IndexOnly => {
                let resolved = par_map_rows(g, &uncovered, |_, _, dist, _| {
                    (0..ns)
                        .filter_map(|i| {
                            let t = skeleton.global(i);
                            (dist[t.index()] != INFINITY).then_some((dist[t.index()], i))
                        })
                        .min()
                });
                for (&v, best) in uncovered.iter().zip(resolved) {
                    lists[v.index()] = best.map(|(d, i)| vec![(i, d)]).unwrap_or_default();
                }
            }
        }
    }
    NearData::from_lists(&lists, fallbacks, extra_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::{erdos_renyi_connected, path};
    use hybrid_sim::HybridConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn near_data_matches_per_node_lists() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_connected(60, 0.08, 3, &mut rng).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let art = skeleton_phase(&mut net, 0.5, 1.5, &[], 9, "t", Prep::Cold).unwrap();
        let near = near_phase(&mut net, &art, NearTie::HopThenIndex, "t");
        for v in 0..g.len() {
            let expected = art.skeleton.skeletons_near(NodeId::new(v));
            let got: Vec<(usize, Distance)> = near.node(v).collect();
            assert_eq!(got, expected, "node {v}");
            for &(s, d) in &expected {
                assert_eq!(near.dist_to(v, s), Some(d));
            }
            assert_eq!(near.dist_to(v, art.skeleton.len() + 1), None);
        }
    }

    #[test]
    fn warm_phase_replays_the_same_round_bill() {
        let g = path(40, 1).unwrap();
        let prepared = Prepared::default();
        let mut cold_net = HybridNet::new(&g, HybridConfig::default());
        let cold = skeleton_phase(&mut cold_net, 0.5, 1.0, &[], 3, "t", Prep::Cold).unwrap();
        // First warm call computes and caches; second replays the charge.
        let mut warm1 = HybridNet::new(&g, HybridConfig::default());
        let a = skeleton_phase(&mut warm1, 0.5, 1.0, &[], 3, "t", Prep::Warm(&prepared)).unwrap();
        let mut warm2 = HybridNet::new(&g, HybridConfig::default());
        let b = skeleton_phase(&mut warm2, 0.5, 1.0, &[], 3, "t", Prep::Warm(&prepared)).unwrap();
        assert_eq!(prepared.skeletons(), 1);
        assert!(Arc::ptr_eq(&a, &b), "hit serves the canonical artifact");
        assert_eq!(a.skeleton.nodes(), cold.skeleton.nodes());
        assert_eq!(warm1.rounds(), cold_net.rounds());
        assert_eq!(warm2.rounds(), cold_net.rounds(), "hit charges the identical bill");
        // Distinct keys prepare distinct skeletons.
        let mut warm3 = HybridNet::new(&g, HybridConfig::default());
        skeleton_phase(&mut warm3, 0.5, 1.0, &[], 4, "t", Prep::Warm(&prepared)).unwrap();
        assert_eq!(prepared.skeletons(), 2);
    }

    #[test]
    fn d_s_is_memoized_per_skeleton() {
        let g = path(30, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let art = skeleton_phase(&mut net, 0.5, 1.0, &[], 7, "t", Prep::Cold).unwrap();
        let a = skeleton_apsp(&art);
        let b = skeleton_apsp(&art);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.get(NodeId::new(0), NodeId::new(0)), 0);
    }
}
