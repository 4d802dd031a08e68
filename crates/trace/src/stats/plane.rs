//! [`StatsPlane`]: the per-job runtime container the engine folds
//! finished bins into.

use super::lineage::{
    sample_hit, HopKind, LineageHop, LineageSample, MAX_LINEAGE_HOPS, MAX_LINEAGE_SAMPLES,
};
use super::sketch::{SketchSet, KEY_SAMPLE_BYTES};
use super::{StatsMode, StatsSnapshot};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-job runtime stats container: one [`SketchSet`] per
/// (edge, destination partition), plus the lineage sample map. Shared
/// `Arc` across every node's workers; each slot has its own mutex, so
/// contention is per-(edge, dst), and each bin close locks exactly
/// once.
pub struct StatsPlane {
    mode: StatsMode,
    parts: usize,
    slots: Vec<Mutex<SketchSet>>,
    /// Per edge: is it a hash-exchange (shuffle) edge? Only those are
    /// eligible for lineage sampling — loader edges carry synthetic
    /// line-offset keys that would otherwise fill the sample budget
    /// before any shuffle key arrives — and only their cardinality is
    /// comparable across engines.
    shuffle_edges: Vec<bool>,
    lineage: Mutex<BTreeMap<u64, LineageSample>>,
}

impl StatsPlane {
    /// One sketch set per (edge, destination partition) of a job with
    /// `shuffle_edges.len()` edges.
    pub fn new(shuffle_edges: Vec<bool>, parts: usize, mode: StatsMode) -> Self {
        let parts = parts.max(1);
        let n = shuffle_edges.len().max(1) * parts;
        StatsPlane {
            mode,
            parts,
            slots: (0..n).map(|_| Mutex::new(SketchSet::default())).collect(),
            shuffle_edges,
            lineage: Mutex::new(BTreeMap::new()),
        }
    }

    fn is_shuffle(&self, edge: usize) -> bool {
        self.shuffle_edges.get(edge).copied().unwrap_or(false)
    }

    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    pub fn lineage_on(&self) -> bool {
        self.mode.lineage_one_in().is_some()
    }

    fn slot(&self, edge: u32, dst: u32) -> &Mutex<SketchSet> {
        let i = edge as usize * self.parts + (dst as usize % self.parts);
        &self.slots[i.min(self.slots.len() - 1)]
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
        let one_in = self
            .mode
            .lineage_one_in()
            .filter(|_| self.is_shuffle(edge as usize));
        // (hash, key, occurrences) for sampled keys in this bin.
        let mut sampled: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        {
            let mut set = lock(self.slot(edge, dst));
            for (hash, key, vlen) in iter {
                set.observe(hash, key, vlen);
                if let Some(n) = one_in {
                    if sample_hit(hash, n) {
                        match sampled.iter_mut().find(|(h, _, _)| *h == hash) {
                            Some((_, _, c)) => *c += 1,
                            None => sampled.push((
                                hash,
                                key[..key.len().min(KEY_SAMPLE_BYTES)].to_vec(),
                                1,
                            )),
                        }
                    }
                }
            }
        }
        if sampled.is_empty() {
            return;
        }
        let mut lineage = lock(&self.lineage);
        for (hash, key, records) in sampled {
            let entry = match lineage.get_mut(&hash) {
                Some(e) => e,
                None => {
                    if lineage.len() >= MAX_LINEAGE_SAMPLES {
                        continue;
                    }
                    lineage.entry(hash).or_insert(LineageSample {
                        hash,
                        key,
                        hops: Vec::new(),
                    })
                }
            };
            if entry.hops.len() < MAX_LINEAGE_HOPS {
                entry.hops.push(LineageHop {
                    kind: HopKind::Emit,
                    flowlet,
                    flowlet_name: flowlet_name.to_string(),
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
    }

    /// Record a reduce-ingest hop for every already-sampled hash in the
    /// bin. Emit hops always precede consumption, so only known hashes
    /// are updated — no new samples originate here.
    pub fn consume_bin(
        &self,
        edge: u32,
        node: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        hashes: impl Iterator<Item = u64>,
    ) {
        let Some(n) = self.mode.lineage_one_in() else {
            return;
        };
        let mut hits: Vec<(u64, u32)> = Vec::new();
        for h in hashes {
            if sample_hit(h, n) {
                match hits.iter_mut().find(|(x, _)| *x == h) {
                    Some((_, c)) => *c += 1,
                    None => hits.push((h, 1)),
                }
            }
        }
        if hits.is_empty() {
            return;
        }
        let mut lineage = lock(&self.lineage);
        for (hash, records) in hits {
            if let Some(entry) = lineage.get_mut(&hash) {
                if entry.hops.len() < MAX_LINEAGE_HOPS {
                    entry.hops.push(LineageHop {
                        kind: HopKind::Reduce,
                        flowlet,
                        flowlet_name: flowlet_name.to_string(),
                        edge,
                        src,
                        dst: node,
                        records,
                    });
                }
            }
        }
    }

    /// Per-(edge, dst) summary numbers for gauge publication:
    /// `(records, distinct, hot_share)`; `None` for untouched slots.
    pub fn slot_stats(&self, edge: u32, dst: u32) -> Option<(u64, u64, f64)> {
        let set = lock(self.slot(edge, dst));
        if set.records == 0 {
            return None;
        }
        Some((set.records, set.distinct(), set.hot_share()))
    }

    /// Merge every destination's sketches per edge and build the
    /// serializable snapshot.
    pub fn snapshot(&self, job: &str, engine: &str) -> StatsSnapshot {
        let edges_n = self.slots.len() / self.parts;
        let mut edges = Vec::new();
        for e in 0..edges_n {
            let mut merged = SketchSet::default();
            for d in 0..self.parts {
                let set = lock(&self.slots[e * self.parts + d]);
                if set.records > 0 {
                    merged.merge(&set);
                }
            }
            if merged.records == 0 {
                continue;
            }
            edges.push(merged.summary(e as u32, self.is_shuffle(e)));
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
