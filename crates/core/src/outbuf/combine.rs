//! In-node combining (paper §5.2): the [`Combiner`] contract, the
//! buffers of native partials a worker folds into, and the node's shelf
//! of them.
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
//! a worker's, not a task's: [`CombineBuf`], lent off the [`CombineShelf`].
//! Per destination a buffer holds the [`Partials`] table its combiner
//! made, one partial per key as the combiner's native value — the way
//! a partial reduce holds its accumulators — so a fold decodes the
//! incoming value once and merges it in place, and a partial is encoded
//! once, when it drains.
//!
//! Which edges combine is decided once per job, in `ExecPlan::compile`
//! (`crate::plan`): an associative combiner on a `Hash` exchange into a
//! `Reduce`/`PartialReduce`. Two further mechanisms — dynamic hot-key
//! splitting and an OS4M-style planner thread migrating whole reduce
//! partitions mid-job — were removed: see DESIGN.md "Skew mitigation".

use crate::graph::EdgeId;
use crate::NodeId;
use hamr_trace::{Gauge, Labels, Observe};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;

/// An associative, commutative merge of an edge's values for one key,
/// in the shape of the tables that hold its partials: the engine asks
/// it for one per destination node and folds records into it.
/// [`crate::typed::combine_fn`] and [`crate::typed::sum_combiner`] make
/// one. The contract mirrors Hadoop's: its output must be a valid input
/// for the downstream reducer, so applying it zero or more times at any
/// grouping must not change the final result.
pub trait Combiner: Send + Sync {
    /// A fresh, empty table of partials.
    fn table(&self) -> Box<dyn Partials>;
}

impl fmt::Debug for dyn Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Combiner")
    }
}

/// One destination's partials, opaque to the engine: whatever
/// [`Combiner::table`] made — for a typed combiner a
/// `hamr_codec::slots::Accs` of native values, each beside the hash its
/// key was emitted with.
pub trait Partials: Send {
    /// Merge `value` into `key`'s partial, or start one with it.
    /// `None` if one was held: a merge leaves the footprint as it was.
    /// Otherwise how far the new partial moved the footprint (a new key
    /// may grow the table, or compact it smaller). `hash` is the key's
    /// `stable_hash`, handed back by the drain.
    fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> Option<isize>;

    /// Partials held.
    fn entries(&self) -> usize;

    /// Bytes held, as [`COMBINE_BUDGET`] counts them.
    fn footprint(&self) -> usize;

    /// Encode the `n` oldest partials, hand each to `each` as `(hash,
    /// key, value)`, oldest first, and forget them. Returns how many
    /// there were.
    #[allow(clippy::type_complexity)]
    fn drain(&mut self, n: usize, each: &mut dyn FnMut(u64, &[u8], &[u8])) -> usize;
}

/// Unacknowledged bins on an (edge, destination) at or above which a
/// task's end leaves its combine buffers' partials for that destination
/// where they are (never more than the window itself). Low, and the
/// link idles between task ends; high, and every task ships its keys
/// again instead of folding the next task's into them. The issue's
/// prototype swept it on `wordcount_shuffle` (fastest / median ms of
/// eight): 2 → 531 / 606, 4 → 515 / 524, 8 → 460 / 479, 16 → 468 / 476,
/// 32 → 471 / 487, and on `wordcount_cpu` 8 → 162 / 211, 32 → 244 / 305;
/// this code's own two passes (EXPERIMENTS.md "Node-level combining")
/// put 32 last on both workloads and 8 first or within noise of it.
pub(super) const COMBINE_LOW_WATER: usize = 8;

/// Bytes one combine buffer may hold before a fold sheds its older
/// half: its tables' key arenas, entries and slot words, drained
/// entries not yet compacted included. A partial that owns heap (a
/// NaiveBayes term vector) is charged its inline size only; the
/// consumer's partial-reduce table holds the same accumulators,
/// unbudgeted. With the low-water drain, on `wordcount_shuffle`
/// (fastest / median ms of four): 256 KiB folds too little (527 / 577),
/// 4 MiB holds a drain the flush then has to push through the window
/// at once (534 / 542), 1 MiB gave 477–483 / 508–514.
pub(super) const COMBINE_BUDGET: usize = 1 << 20;

/// One worker's in-node combine buffer for one edge: a partial per
/// distinct key, folded in place as duplicates arrive, held per
/// destination node. It belongs to the worker, not to a task — the
/// executing task borrows it from the node's [`CombineShelf`] and puts
/// it back, so duplicates fold across all the tasks a worker runs — and
/// what decides when partials leave is the destination's flow-control
/// window (see [`super::TaskOutput::into_parts`]), not a count.
pub(super) struct CombineBuf {
    /// Indexed by the key's hash home.
    pub(super) held: Vec<Box<dyn Partials>>,
    /// Footprint of all destinations.
    pub(super) bytes: usize,
    /// What the shelf's gauge currently counts for this buffer.
    pub(super) published: usize,
    /// Records offered, folded into a held partial, and partials
    /// drained since the last [`CombineShelf::put`] — one row of the
    /// audit ledger's combine side-table.
    pub(super) tally: [u64; 3],
}

impl CombineBuf {
    pub(super) fn new(combiner: &dyn Combiner, nodes: usize) -> Self {
        CombineBuf {
            held: (0..nodes).map(|_| combiner.table()).collect(),
            bytes: 0,
            published: 0,
            tally: [0; 3],
        }
    }

    pub(super) fn entries(&self) -> usize {
        self.held.iter().map(|h| h.entries()).sum()
    }

    /// Fold one record; returns true if it merged into an existing key
    /// (one record absorbed) rather than starting a new partial.
    #[inline]
    pub(super) fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> bool {
        let home = (hash % self.held.len() as u64) as usize;
        let grew = self.held[home].fold(hash, key, value);
        if let Some(grew) = grew {
            self.bytes = self
                .bytes
                .checked_add_signed(grew)
                .expect("a footprint below 0");
        }
        let merged = grew.is_none();
        self.tally[0] += 1;
        self.tally[1] += u64::from(merged);
        merged
    }

    /// Drain the `n` oldest partials bound for `dst` into `each`.
    pub(super) fn drain(&mut self, dst: NodeId, n: usize, mut each: impl FnMut(u64, &[u8], &[u8])) {
        let held = &mut self.held[dst];
        let before = held.footprint();
        self.tally[2] += held.drain(n, &mut each) as u64;
        self.bytes = self.bytes - before + held.footprint();
    }
}

/// A node's combine buffers, one per (worker, combining edge), for the
/// life of a job. A task takes its worker's buffer for each combining
/// port it has and puts it back when it ends; the lock is held for the
/// take and the put only. A stolen task folds into the thief's buffer,
/// so a buffer never changes owner; the one thread that touches other
/// workers' buffers is the flush task, which runs when no other task of
/// the flowlet does.
pub(crate) struct CombineShelf {
    edges: usize,
    /// `[worker][edge]`; `None` until first used and while lent.
    slots: Vec<Mutex<Option<CombineBuf>>>,
    audit: hamr_trace::Audit,
    /// Gauge: bytes of partials parked in this node's shelved buffers.
    held_gauge: Gauge,
}

impl CombineShelf {
    pub(crate) fn new(node: NodeId, workers: usize, edges: usize, obs: &Observe) -> Self {
        CombineShelf {
            edges,
            slots: (0..workers * edges).map(|_| Mutex::new(None)).collect(),
            audit: obs.audit.clone(),
            held_gauge: obs.gauge("combine_held_bytes", Labels::new().node(node as u32)),
        }
    }

    pub(super) fn workers(&self) -> usize {
        self.slots.len() / self.edges.max(1)
    }

    fn slot(&self, worker: usize, edge: EdgeId) -> MutexGuard<'_, Option<CombineBuf>> {
        self.slots[worker * self.edges + edge].lock()
    }

    pub(super) fn take(&self, worker: usize, edge: EdgeId) -> Option<CombineBuf> {
        self.slot(worker, edge).take()
    }

    /// Enter what was done with `buf` since it was taken in the ledger
    /// and the gauge — once per task, never per record.
    pub(super) fn settle(&self, edge: EdgeId, buf: &mut CombineBuf) {
        let [offered, folded, drained] = std::mem::take(&mut buf.tally);
        if offered | drained != 0 {
            self.audit.combined(edge as u32, offered, folded, drained);
        }
        self.held_gauge.add(buf.bytes as i64 - buf.published as i64);
        buf.published = buf.bytes;
    }

    /// Settle `buf` and shelve it again.
    pub(super) fn put(&self, worker: usize, edge: EdgeId, mut buf: CombineBuf) {
        self.settle(edge, &mut buf);
        *self.slot(worker, edge) = Some(buf);
    }

    /// Partials shelved for `edge` over all workers. Exact while no
    /// task of the edge's producer runs (its buffers are all here).
    pub(crate) fn held_entries(&self, edge: EdgeId) -> usize {
        (0..self.workers())
            .map(|w| self.slot(w, edge).as_ref().map_or(0, CombineBuf::entries))
            .sum()
    }

    /// The job is over, however it ended: nothing is held any more.
    pub(crate) fn retire(&self) {
        self.held_gauge.set(0);
    }
}
