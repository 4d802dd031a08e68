//! Adaptive skew mitigation (ROADMAP item 1, paper §5.2).
//!
//! The paper's one inversion — mapred beating HAMR 4x on skewed
//! HistogramRatings — is a hot reduce partition: every record of the
//! two hot movie keys funnels through one node's shuffle edge while
//! mapred's map-side combiner collapses them before they ship. The
//! causal profiler (PR 4) diagnosed it; two composable mechanisms close
//! the loop, each independently toggleable via
//! [`SkewConfig`](crate::SkewConfig) / `HAMR_SKEW` so `table2` can
//! ablate them:
//!
//! 1. **In-node combiners** — a per-edge associative [`Combiner`]
//!    (registered with `JobBuilder::connect_combined`) pre-aggregates
//!    duplicate keys inside `TaskOutput` before bins ship, so the hot
//!    edge carries partials instead of raw records (after "Hadoop
//!    MapReduce Performance Enhancement Using In-node Combiners").
//! 2. **Dynamic hot-key splitting** — a cheap per-task key sketch at
//!    emit flags keys that cross `split_threshold`; their records
//!    scatter round-robin across *all* nodes instead of hashing to one
//!    home. Receivers fold scattered records into a per-edge
//!    [`SkewAbsorber`](crate::reduce_state::SkewAbsorber) and, once
//!    the edge completes, re-emit one merged partial per key to the
//!    key's home node — so reduce semantics (all values of a key meet
//!    on one node) are preserved and checksums are unchanged.
//!
//! Which edges each mechanism touches is decided once per job, in
//! `ExecPlan::compile` (`crate::plan`): both need an associative
//! combiner on a `Hash` exchange into a `Reduce`/`PartialReduce`, and
//! splitting additionally needs a batch job (a stream never completes,
//! so the re-emit barrier would never fire). A third mechanism, an
//! OS4M-style planner thread migrating whole reduce partitions mid-job,
//! was removed: see DESIGN.md "Adaptive skew mitigation".

use std::fmt;

/// An associative, commutative merge of two encoded values for one
/// key. The combiner contract mirrors Hadoop's: its output must be a
/// valid input for the downstream reducer, so applying it zero or more
/// times at any grouping must not change the final result.
pub trait Combiner: Send + Sync {
    /// Merge encoded values `a` and `b` for `key` into `out`
    /// (`out` arrives empty).
    fn combine(&self, key: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>);
}

impl fmt::Debug for dyn Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Combiner")
    }
}

/// A cheap per-task top-key sketch, backed by the shared
/// [`SpaceSaving`](hamr_trace::SpaceSaving) heavy-hitter summary from
/// `hamr_trace::stats`. A key becomes *hot* the moment its guaranteed
/// in-task count — the portion of its SpaceSaving count observed since
/// insertion, which never over-counts — crosses `threshold`. While a
/// task sees at most `CAP` distinct hashes the sketch is exact and
/// behaves identically to a plain counter table; past that, evictions
/// can only delay a hot flag (under-split), never fabricate one.
///
/// One emit costs one index probe and one add; an emit that evicts
/// also pays a heap sift of O(log `CAP`). Nothing allocates: a worker
/// keeps its sketches and [`clear`](Self::clear)s them between tasks.
#[derive(Debug)]
pub struct KeySketch {
    sketch: hamr_trace::SpaceSaving,
    hot: Vec<u64>,
    threshold: u32,
}

impl KeySketch {
    pub const CAP: usize = 1024;

    pub fn new(threshold: u32) -> Self {
        KeySketch {
            sketch: hamr_trace::SpaceSaving::new(Self::CAP),
            hot: Vec::new(),
            threshold: threshold.max(1),
        }
    }

    /// Count one emission of `hash`; returns true exactly once per
    /// hash, when its guaranteed count crosses the hot threshold.
    #[inline]
    pub fn observe(&mut self, hash: u64) -> bool {
        let guaranteed = self.sketch.observe(hash, None, 1);
        if guaranteed >= self.threshold as u64 && !self.hot.contains(&hash) {
            self.hot.push(hash);
            return true;
        }
        false
    }

    #[inline]
    pub fn is_hot(&self, hash: u64) -> bool {
        // Hot sets are tiny (a handful of keys); a linear scan beats a
        // second hash lookup.
        self.hot.contains(&hash)
    }

    pub fn hot_count(&self) -> usize {
        self.hot.len()
    }

    /// Forget the finished task's stream; the next task starts from an
    /// empty sketch, as a fresh one would.
    pub fn clear(&mut self) {
        self.sketch.clear();
        self.hot.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_flags_hot_key_once_at_threshold() {
        let mut s = KeySketch::new(3);
        assert!(!s.observe(7));
        assert!(!s.observe(7));
        assert!(s.observe(7), "third observation crosses the threshold");
        assert!(!s.observe(7), "only flagged once");
        assert!(s.is_hot(7));
        assert!(!s.is_hot(8));
        assert_eq!(s.hot_count(), 1);
    }
}
