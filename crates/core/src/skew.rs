//! Skew mitigation (paper §5.2): in-node combining.
//!
//! The paper's one inversion — mapred beating HAMR 4x on skewed
//! HistogramRatings — is a hot reduce partition: every record of the
//! two hot movie keys funnels through one node's shuffle edge while
//! mapred's map-side combiner collapses them before they ship. There is
//! one mechanism against it, switchable via
//! [`SkewConfig`](crate::SkewConfig) / `HAMR_SKEW` so `table2` can
//! ablate it: a per-edge associative [`Combiner`] (registered with
//! `JobBuilder::connect_combined`) pre-aggregates duplicate keys on the
//! producer node before bins ship, so the hot edge carries a handful of
//! partials instead of raw records (after "Hadoop MapReduce Performance
//! Enhancement Using In-node Combiners"). The buffers it folds into are
//! a worker's, not a task's: see `crate::outbuf`.
//!
//! Which edges combine is decided once per job, in `ExecPlan::compile`
//! (`crate::plan`): an associative combiner on a `Hash` exchange into a
//! `Reduce`/`PartialReduce`. Two further mechanisms — dynamic hot-key
//! splitting and an OS4M-style planner thread migrating whole reduce
//! partitions mid-job — were removed: see DESIGN.md "Skew mitigation".

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
