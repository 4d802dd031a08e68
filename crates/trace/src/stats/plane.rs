//! [`StatsPlane`]: the per-job runtime container the engine folds
//! finished bins into.

use super::lineage::{
    sample_hit, HopKind, LineageHop, LineageSample, MAX_LINEAGE_HOPS, MAX_LINEAGE_SAMPLES,
};
use super::sketch::{SketchSet, KEY_SAMPLE_BYTES};
use super::{StatsMode, StatsSnapshot};
use crate::lock;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Mutex;

/// Per-job runtime stats container: one [`SketchSet`] per (sketched
/// edge, destination partition), plus the lineage sample map. Shared
/// `Arc` across every node's workers; each slot has its own mutex, so
/// contention is per-(edge, dst), and each bin close locks exactly
/// once.
pub struct StatsPlane {
    mode: StatsMode,
    parts: usize,
    /// The job edges this plane sketches, as the engine's plan chose
    /// them (its shuffle edges); slot `i * parts + dst` is `edges[i]`'s.
    edges: Vec<u32>,
    slots: Vec<Mutex<SketchSet>>,
    lineage: Mutex<BTreeMap<u64, LineageSample>>,
}

impl StatsPlane {
    /// One sketch set per (edge, destination partition) for each of
    /// `edges`. Bins on any other edge are neither folded nor traced.
    pub fn new(edges: Vec<u32>, parts: usize, mode: StatsMode) -> Self {
        let parts = parts.max(1);
        StatsPlane {
            mode,
            parts,
            slots: (0..edges.len() * parts)
                .map(|_| Mutex::new(SketchSet::default()))
                .collect(),
            edges,
            lineage: Mutex::new(BTreeMap::new()),
        }
    }

    /// The (edge, dst) slot; `None` on an edge the plane does not
    /// sketch.
    fn slot(&self, edge: u32, dst: u32) -> Option<&Mutex<SketchSet>> {
        let i = self.edges.iter().position(|&e| e == edge)?;
        Some(&self.slots[i * self.parts + dst as usize % self.parts])
    }

    /// Fold one finished bin into the (edge, dst) sketch slot and, when
    /// lineage is on, append an emit hop for every sampled key in the
    /// bin. `iter` yields `(hash, key-bytes, value-len)`: entries from the
    /// frame, each with its hash from the builder's column — the one
    /// computed at emit, never recomputed.
    pub fn fold_bin<'a>(
        &self,
        edge: u32,
        dst: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        iter: impl Iterator<Item = (u64, &'a [u8], usize)>,
    ) {
        let Some(slot) = self.slot(edge, dst) else {
            return;
        };
        let one_in = self.mode.lineage_one_in();
        let mut sampled = Vec::new();
        {
            let mut set = lock(slot);
            for (hash, key, vlen) in iter {
                set.observe(hash, key, vlen);
                if one_in.is_some_and(|n| sample_hit(hash, n)) {
                    tally(&mut sampled, hash, key);
                }
            }
        }
        if !sampled.is_empty() {
            let name = flowlet_name.to_string();
            self.record_hops(HopKind::Emit, (flowlet, name, edge, src, dst), sampled);
        }
    }

    /// Record a reduce-ingest hop for every already-sampled hash in a
    /// bin of a sketched edge; `hashes` is not touched otherwise.
    pub fn consume_bin(
        &self,
        edge: u32,
        node: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        hashes: impl Iterator<Item = u64>,
    ) {
        let on_edge = |_: &u64| self.edges.contains(&edge);
        let Some(n) = self.mode.lineage_one_in().filter(on_edge) else {
            return;
        };
        let mut hits = Vec::new();
        for h in hashes.filter(|&h| sample_hit(h, n)) {
            tally(&mut hits, h, &[]);
        }
        if !hits.is_empty() {
            let name = flowlet_name.to_string();
            self.record_hops(HopKind::Reduce, (flowlet, name, edge, src, node), hits);
        }
    }

    /// Append a `kind` hop at `(flowlet, name, edge, src, dst)` to the
    /// sample of every `(hash, key, records)` hit. Only an emit opens a
    /// sample, while the budget lasts: emit hops always precede
    /// consumption, so a reduce hop extends a known one.
    fn record_hops(
        &self,
        kind: HopKind,
        (flowlet, flowlet_name, edge, src, dst): (u32, String, u32, u32, u32),
        hits: Vec<(u64, Vec<u8>, u32)>,
    ) {
        let mut lineage = lock(&self.lineage);
        for (hash, key, records) in hits {
            let open = kind == HopKind::Emit && lineage.len() < MAX_LINEAGE_SAMPLES;
            let entry = match lineage.entry(hash) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) if open => v.insert(LineageSample {
                    hash,
                    key,
                    hops: Vec::new(),
                }),
                Entry::Vacant(_) => continue,
            };
            if entry.hops.len() < MAX_LINEAGE_HOPS {
                entry.hops.push(LineageHop {
                    kind,
                    flowlet,
                    flowlet_name: flowlet_name.clone(),
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
    }

    /// Per-(edge, dst) numbers for gauge publication, touched slots
    /// only: `(edge, dst, distinct, hot_share)`.
    pub fn dst_stats(&self) -> Vec<(u32, u32, u64, f64)> {
        let mut out = Vec::new();
        for (i, &edge) in self.edges.iter().enumerate() {
            for dst in 0..self.parts {
                let set = lock(&self.slots[i * self.parts + dst]);
                if set.records > 0 {
                    out.push((edge, dst as u32, set.distinct(), set.hot_share()));
                }
            }
        }
        out
    }

    /// Merge every destination's sketches per edge and build the
    /// serializable snapshot.
    pub fn snapshot(&self, job: &str, engine: &str) -> StatsSnapshot {
        let mut edges = Vec::new();
        for (i, &edge) in self.edges.iter().enumerate() {
            let mut merged = SketchSet::default();
            for set in &self.slots[i * self.parts..(i + 1) * self.parts] {
                let set = lock(set);
                if set.records > 0 {
                    merged.merge(&set);
                }
            }
            if merged.records > 0 {
                edges.push(merged.summary(edge));
            }
        }
        let samples = lock(&self.lineage).values().cloned().collect();
        StatsSnapshot {
            job: job.to_string(),
            engine: engine.to_string(),
            edges,
            samples,
        }
    }
}

impl std::fmt::Debug for StatsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsPlane")
            .field("mode", &self.mode)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// Count one occurrence of `hash` among a bin's `(hash, key, records)`
/// hits, keeping a sample of its key bytes.
fn tally(hits: &mut Vec<(u64, Vec<u8>, u32)>, hash: u64, key: &[u8]) {
    match hits.iter_mut().find(|(h, _, _)| *h == hash) {
        Some((_, _, c)) => *c += 1,
        None => hits.push((hash, key[..key.len().min(KEY_SAMPLE_BYTES)].to_vec(), 1)),
    }
}
