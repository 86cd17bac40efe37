//! Incremental re-preparation after topology deltas.
//!
//! A [`crate::session::Session`]'s [`Prepared`] artifact is exactly the state
//! churn damages: per-skeleton-node `d_h` rows, the skeleton graph, the
//! skeleton APSP `d_S`, and the per-node near-lists. This module migrates a
//! prepared artifact across a [`DeltaBatch`] under one hard contract — the
//! migrated artifact is **bit-identical** to what a cold
//! `Session::new(post-delta graph)` would prepare for the same keys — by
//! choosing per preamble between two paths:
//!
//! * **Patch** — damage analysis: a `d_h(s, ·)` row depends only on `s`'s
//!   `h`-hop ball, so only skeleton nodes within `h` hops of an edited edge
//!   endpoint (in the old *or* new graph) are dirty. Their rows are
//!   recomputed, the skeleton graph is rebuilt from the patched table, and
//!   derived tables (`d_S`, near-lists) are carried over or patched where the
//!   analysis proves them unchanged.
//! * **Full re-prepare** — the verified fallback: re-run Algorithm 6 from the
//!   key. Taken whenever patching cannot *prove* bit-identity: the dirtied
//!   fraction exceeds the configured damage threshold, the cached skeleton
//!   was remediated (its `h` is not the cold starting radius), or the patched
//!   skeleton graph is disconnected (a cold build would remediate).
//!
//! Both paths migrate at **table parity**: every derived table the old
//! artifact had built (`d_S`, either near-list flavor) comes back built —
//! carried or patched where the damage analysis proves the cold value,
//! recomputed cold otherwise. Parity keeps the two paths comparable on the
//! wall clock and moves the whole re-preparation cost into the repair instead
//! of leaking it into the first post-churn query as a lazy-fill latency
//! spike.
//!
//! Repair work is billed on the simulated round clock like PR 6's recovery:
//! a patch charges the `h` rounds of local re-exploration around the damage,
//! a full re-prepare charges what Algorithm 6 charges.

use std::sync::Arc;

use hybrid_graph::limited::mark_within_hops;
use hybrid_graph::{DeltaBatch, Distance, Graph, INFINITY};
use hybrid_sim::HybridNet;

use crate::error::HybridError;
use crate::prepare::{compute_near, NearData, NearTie, Prepared, SkeletonArtifacts};
use crate::session::SessionConfig;
use crate::skeleton_ops::{compute_skeleton, initial_h};

/// Which route one preamble's migration took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPath {
    /// Damage analysis held: only dirtied `d_h` rows were recomputed.
    Patched,
    /// The verified fallback: a full Algorithm 6 re-prepare.
    Full,
}

/// Outcome of one [`crate::session::Session::apply_delta`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Epoch of the new session (predecessor's epoch + 1).
    pub epoch: u64,
    /// Operations in the applied batch.
    pub ops: usize,
    /// Prepared preambles migrated (0 for a session that never prepared).
    pub preambles: usize,
    /// Preambles repaired incrementally.
    pub patched: usize,
    /// Preambles that took the full re-prepare fallback.
    pub full: usize,
    /// `d_h` rows recomputed across all patched preambles.
    pub rows_patched: usize,
    /// Largest dirtied-node fraction observed across preambles (0.0 when
    /// nothing was prepared).
    pub dirty_fraction: f64,
    /// Simulated rounds the repair cost on the round clock.
    pub rounds: u64,
}

impl RepairReport {
    /// The overall path: [`RepairPath::Full`] if any preamble fell back.
    pub fn path(&self) -> RepairPath {
        if self.full > 0 {
            RepairPath::Full
        } else {
            RepairPath::Patched
        }
    }
}

/// Migrates every built preamble of `old` onto `new_graph`, producing a fresh
/// [`Prepared`] bit-identical to what a cold session on `new_graph` would
/// build for the same keys.
pub(crate) fn repair_prepared(
    old_graph: &Graph,
    new_graph: &Graph,
    batch: &DeltaBatch,
    old: &Prepared,
    cfg: &SessionConfig,
) -> Result<(Prepared, RepairReport), HybridError> {
    let n = new_graph.len();
    let touched = batch.touched_nodes();
    let mut net = HybridNet::new(new_graph, cfg.net);
    let prepared = Prepared::default();
    let mut report = RepairReport {
        epoch: 0,
        ops: batch.len(),
        preambles: 0,
        patched: 0,
        full: 0,
        rows_patched: 0,
        dirty_fraction: 0.0,
        rounds: 0,
    };
    for (key, art) in old.built_entries() {
        report.preambles += 1;
        let h = art.skeleton.h();
        // Remediated skeletons (h above the cold starting radius) can't be
        // patched: a cold rebuild may settle at a different radius.
        let patchable = h == initial_h(n, key.x_exp(), key.xi());
        let mut dirty = mark_within_hops(old_graph, &touched, h);
        for (slot, m) in dirty.iter_mut().zip(mark_within_hops(new_graph, &touched, h)) {
            *slot = *slot || m;
        }
        let dirty_nodes = dirty.iter().filter(|&&d| d).count();
        let fraction = dirty_nodes as f64 / n as f64;
        report.dirty_fraction = report.dirty_fraction.max(fraction);
        let migrated = if patchable && fraction <= cfg.damage_threshold {
            match patch_preamble(&art, &dirty, new_graph, &mut net)? {
                Some((patched_art, rows)) => {
                    // Bill the ≤h-hop local re-exploration around the damage.
                    net.charge_local(h as u64, "repair:patch");
                    report.patched += 1;
                    report.rows_patched += rows;
                    Some(patched_art)
                }
                None => None,
            }
        } else {
            None
        };
        let migrated = match migrated {
            Some(m) => m,
            None => {
                report.full += 1;
                let skeleton = compute_skeleton(
                    &mut net,
                    key.x_exp(),
                    key.xi(),
                    key.forced(),
                    key.seed(),
                    "repair:full",
                )?;
                Arc::new(rebuild_tables(&art, skeleton, new_graph, &mut net))
            }
        };
        prepared.insert_built(key, migrated);
    }
    report.rounds = net.rounds();
    Ok((prepared, report))
}

/// The patch path for one preamble. Returns `None` when the analysis cannot
/// prove bit-identity and the caller must fall back to a full re-prepare.
#[allow(clippy::type_complexity)]
fn patch_preamble(
    art: &SkeletonArtifacts,
    dirty: &[bool],
    new_graph: &Graph,
    net: &mut HybridNet<'_>,
) -> Result<Option<(Arc<SkeletonArtifacts>, usize)>, HybridError> {
    let (skeleton, rows) = art.skeleton.repair(new_graph, dirty)?;
    // A cold build on the new graph would remediate a disconnected skeleton
    // by doubling h — outside what a patch can reproduce.
    if skeleton.len() > 1 && !skeleton.graph().is_connected() {
        return Ok(None);
    }
    // Derived tables at parity with the old artifact: carry what the
    // analysis proves unchanged, patch what it localizes, recompute the rest
    // cold (the bit-identical value the lazy path would fill in).
    let dh_unchanged = skeleton.dh_flat() == art.skeleton.dh_flat();
    let d_s = match art.d_s_built() {
        Some(old) if skeleton.graph() == art.skeleton.graph() => Some(old),
        Some(_) => Some(Arc::new(skeleton.apsp())),
        None => None,
    };
    // Fresh near runs of the dirty nodes, derived from the patched table in
    // two row-major sweeps (cache-friendly, and tie-flavor independent so one
    // build serves both flavors): the first sizes each dirty node's run, the
    // second fills one flat arena, `fresh[starts[v]..starts[v + 1]]`. A `d_h`
    // column can only change if the column's node is dirty, so clean runs are
    // proven unchanged.
    let n = new_graph.len();
    let any_near = art.near_built(NearTie::HopThenIndex).is_some()
        || art.near_built(NearTie::IndexOnly).is_some();
    let mut starts = vec![0u32; n + 1];
    let mut fresh: Vec<(u32, Distance)> = Vec::new();
    let mut covered = true;
    if any_near && !dh_unchanged {
        let dirty_nodes: Vec<usize> =
            dirty.iter().enumerate().filter_map(|(v, &dv)| dv.then_some(v)).collect();
        let rows = skeleton.dh_flat().chunks_exact(n);
        for row in rows.clone() {
            for &v in &dirty_nodes {
                starts[v + 1] += u32::from(row[v] != INFINITY);
            }
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut next = starts[..n].to_vec();
        fresh = vec![(0, 0); starts[n] as usize];
        for (i, row) in rows.enumerate() {
            for &v in &dirty_nodes {
                if row[v] != INFINITY {
                    fresh[next[v] as usize] = (i as u32, row[v]);
                    next[v] += 1;
                }
            }
        }
        covered = dirty_nodes.iter().all(|&v| starts[v] < starts[v + 1]);
    }
    let mut migrate = |tie: NearTie| -> Option<Arc<NearData>> {
        let old = art.near_built(tie)?;
        if old.fallbacks == 0 {
            if dh_unchanged {
                return Some(old);
            }
            if covered {
                return Some(Arc::new(old.splice_rows(dirty, &starts, &fresh)));
            }
        }
        // Lemma C.1 fallback rows come from *full-graph* Dijkstras (or a
        // dirty node lost coverage and the cold path would run the adaptive
        // fallback) — no locality argument survives, so this flavor rebuilds
        // cold.
        Some(Arc::new(near_cold(new_graph, &skeleton, tie, net)))
    };
    let near_hop = migrate(NearTie::HopThenIndex);
    let near_plain = migrate(NearTie::IndexOnly);
    Ok(Some((Arc::new(SkeletonArtifacts::with_tables(skeleton, d_s, near_hop, near_plain)), rows)))
}

/// Cold near-list build at repair time, with the Lemma C.1 fallback's extra
/// exploration rounds billed to the repair (mirroring what `near_phase`
/// charges the algorithms).
fn near_cold(
    g: &Graph,
    skeleton: &hybrid_graph::skeleton::Skeleton,
    tie: NearTie,
    net: &mut HybridNet<'_>,
) -> NearData {
    let data = compute_near(g, skeleton, tie);
    if tie == NearTie::HopThenIndex && data.extra_rounds > 0 {
        net.charge_local(data.extra_rounds, "repair:near");
    }
    data
}

/// Rebuilds, cold, every derived table the old artifact had built, so the
/// full fallback hands back an artifact at table parity with the patch path
/// (and the first post-churn query pays no lazy-fill spike). Each table
/// refills with the bit-identical value the lazy path would compute.
fn rebuild_tables(
    old: &SkeletonArtifacts,
    skeleton: hybrid_graph::skeleton::Skeleton,
    new_graph: &Graph,
    net: &mut HybridNet<'_>,
) -> SkeletonArtifacts {
    let d_s = old.d_s_built().map(|_| Arc::new(skeleton.apsp()));
    let near_hop = old
        .near_built(NearTie::HopThenIndex)
        .map(|_| Arc::new(near_cold(new_graph, &skeleton, NearTie::HopThenIndex, net)));
    let near_plain = old
        .near_built(NearTie::IndexOnly)
        .map(|_| Arc::new(near_cold(new_graph, &skeleton, NearTie::IndexOnly, net)));
    SkeletonArtifacts::with_tables(skeleton, d_s, near_hop, near_plain)
}
