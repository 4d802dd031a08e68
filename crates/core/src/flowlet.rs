//! Flowlet traits: the user-facing computation hooks.
//!
//! These are the erased (byte-level) interfaces the runtime drives.
//! Most users write typed closures via [`crate::typed`] instead of
//! implementing these directly.

use crate::outbuf::TaskOutput;
use crate::NodeId;
use hamr_codec::{write_str, Codec};
use hamr_dfs::Dfs;
use hamr_kvstore::Shard;
use hamr_simdisk::Disk;
use std::sync::Arc;
use std::time::Instant;

/// Everything a flowlet task may touch besides its records.
///
/// Cheap to clone: all fields are shared handles. `disk` is the node's
/// local disk (the paper's locality feature: flowlets may read/write
/// node-local files directly and pass only indices downstream); `kv`
/// is the node's shard of the distributed key-value store.
#[derive(Clone)]
pub struct TaskContext {
    pub node: NodeId,
    pub nodes: usize,
    pub disk: Disk,
    pub dfs: Dfs,
    pub kv: Arc<Shard>,
}

/// Collects a task's emissions, routing each record to an output port.
///
/// Port `p` is the flowlet's `p`-th outgoing connection, in
/// [`crate::JobBuilder::connect`] call order. [`Emitter::output`] sends
/// to the job's captured output for this flowlet (enabled with
/// [`crate::JobBuilder::capture_output`]).
pub struct Emitter<'a> {
    out: &'a mut TaskOutput,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(out: &'a mut TaskOutput) -> Self {
        Emitter { out }
    }

    /// Emit a record on output port `port`. The key and value are
    /// copied straight into the port's open frame — no per-record
    /// allocation — and the key is hashed exactly once for routing.
    ///
    /// # Panics
    /// Panics if `port` is not a connected output of this flowlet —
    /// that is a wiring bug in the job graph, not a data condition.
    #[inline]
    pub fn emit(&mut self, port: usize, key: &[u8], value: &[u8]) {
        self.out.emit(port, key, value);
    }

    /// Emit a record into the job's captured output for this flowlet.
    /// The key and value are written as one entry of the task's open
    /// capture frame; the job's [`Captured`](crate::Captured) output
    /// is those frames.
    #[inline]
    pub fn output(&mut self, key: &[u8], value: &[u8]) {
        self.out.capture(key, value);
    }

    /// Number of connected output ports.
    pub fn ports(&self) -> usize {
        self.out.ports()
    }

    /// Typed emit: encode `key`/`value` with [`Codec`] and send on
    /// `port`. Encodes into a scratch buffer reused across emissions,
    /// so steady-state typed emits allocate nothing.
    #[inline]
    pub fn emit_t<K: Codec, V: Codec>(&mut self, port: usize, key: &K, value: &V) {
        self.out.emit_encoded(port, key, value);
    }

    /// Emit one record to *every* connected output port — the
    /// data-reuse pattern where one loaded dataset feeds several
    /// downstream flowlets (paper §3.2).
    #[inline]
    pub fn emit_all(&mut self, key: &[u8], value: &[u8]) {
        for port in 0..self.ports() {
            self.emit(port, key, value);
        }
    }

    /// Typed [`Emitter::emit_all`]: encodes once, emits everywhere.
    #[inline]
    pub fn emit_all_t<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        self.out
            .emit_all_with(|buf| key.encode(buf), |buf| value.encode(buf));
    }

    /// [`Emitter::emit_all_t`] of a borrowed text value, written with
    /// the bytes a `String` value's codec writes.
    #[inline]
    pub(crate) fn emit_all_str<K: Codec>(&mut self, key: &K, value: &str) {
        self.out
            .emit_all_with(|buf| key.encode(buf), |buf| write_str(value, buf));
    }

    /// Typed captured-output emit: encodes through the same scratch
    /// buffer as [`Emitter::emit_t`], straight into the output arena.
    #[inline]
    pub fn output_t<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        self.out.capture_encoded(key, value);
    }
}

/// A source flowlet: pulls records from storage or a generator.
///
/// The runtime asks each node how many split tasks it should run
/// (`split_count`), then schedules `load` once per split, subject to
/// the loader-concurrency throttle.
pub trait Loader: Send + Sync {
    /// Number of split tasks to run on `ctx.node`.
    fn split_count(&self, ctx: &TaskContext) -> usize;

    /// When will split `index`'s input be in memory? Start whatever IO
    /// `load` will wait for, without blocking, and return the instant
    /// the device will have finished it; `None` means now. Called on
    /// the node's runtime thread, once per split and in order, for the
    /// next split to fire and the one after it. The runtime dispatches
    /// `load(index)` only once that instant has passed, so no worker
    /// sleeps on a device: a split fires when its input has arrived,
    /// like any other flowlet task fires when its bin has. The answer
    /// is advice, not a contract — a `load` dispatched early (or never
    /// prepared) just waits inside its own read. A loader that reads
    /// nothing from a device keeps this default.
    fn prepare(&self, _ctx: &TaskContext, _index: usize) -> Option<Instant> {
        None
    }

    /// Produce the records of split `index` (node-local numbering).
    fn load(&self, ctx: &TaskContext, index: usize, out: &mut Emitter);
}

/// A map flowlet: per-record transformation, any fan-out.
pub trait MapFn: Send + Sync {
    fn map(&self, ctx: &TaskContext, key: &[u8], value: &[u8], out: &mut Emitter);
}

/// A reduce flowlet: sees every value for a key, grouped, after all
/// upstream flowlets complete (the one semantic barrier in HAMR). The
/// values are borrowed from the node's grouped state, in no particular
/// order; a reducer need not pull them all.
pub trait ReduceFn: Send + Sync {
    fn reduce(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut Emitter,
    );
}

/// One stripe's table of accumulators, opaque to the engine: whatever
/// [`PartialReduceFn::table`] made. Erased once per stripe, not per key:
/// inside it each accumulator is one native Rust value per key (no
/// serialization round trip per record), because accumulators can be
/// large — a per-label term vector, a member list — and re-encoding
/// them on every fold would be quadratic.
pub type AccTable = Box<dyn std::any::Any + Send>;

/// A partial-reduce flowlet: folds commutative+associative updates into
/// a per-key accumulator as soon as bins arrive. Emits only at upstream
/// completion (batch) or epoch boundary (streaming), per the paper. The
/// node keeps its accumulators in tables this trait makes and reads.
///
/// A reducer whose answer is a fold of its values — a sum, a count, an
/// argmax — is a partial reduce, not a [`ReduceFn`]: it holds one
/// accumulator per key where a reduce holds every value until the
/// barrier.
pub trait PartialReduceFn: Send + Sync {
    /// A fresh, empty table.
    fn table(&self) -> AccTable;

    /// Fold one record into `table`; `hash` is the key's `stable_hash`.
    /// Folds run on any of the node's workers, concurrently, in no
    /// particular order, while upstream tasks still run.
    fn fold(&self, table: &mut AccTable, hash: u64, key: &[u8], value: &[u8]);

    /// True when `table` holds no key.
    fn is_empty(&self, table: &AccTable) -> bool;

    /// Emit the final records for every key of `table` at
    /// completion/epoch flush. A batch finish runs once every in-edge
    /// has completed, so it may also read what the job's upstream
    /// flowlets wrote on this node.
    fn finish(&self, ctx: &TaskContext, table: AccTable, out: &mut Emitter);
}

/// A streaming source: emits one epoch of records per call.
///
/// Returning `false` ends the stream on this node. Downstream partial
/// reduces flush their windows at each epoch boundary, which is how
/// HAMR serves the "speed layer" of a Lambda architecture with the same
/// programming model as batch.
pub trait StreamSource: Send + Sync {
    /// Emit records for `epoch`; return `true` if more epochs follow.
    fn epoch(&self, ctx: &TaskContext, epoch: u64, out: &mut Emitter) -> bool;
}

// Blanket impls so `Arc<dyn ...>` wrappers and plain functions compose.

impl<T: Loader + ?Sized> Loader for Arc<T> {
    fn split_count(&self, ctx: &TaskContext) -> usize {
        (**self).split_count(ctx)
    }
    fn prepare(&self, ctx: &TaskContext, index: usize) -> Option<Instant> {
        (**self).prepare(ctx, index)
    }
    fn load(&self, ctx: &TaskContext, index: usize, out: &mut Emitter) {
        (**self).load(ctx, index, out)
    }
}

impl<T: MapFn + ?Sized> MapFn for Arc<T> {
    fn map(&self, ctx: &TaskContext, key: &[u8], value: &[u8], out: &mut Emitter) {
        (**self).map(ctx, key, value, out)
    }
}
