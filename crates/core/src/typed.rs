//! Typed flowlet constructors over the byte-level engine.
//!
//! Users write closures over [`Codec`] types; these adapters erase them
//! into the runtime's [`MapFn`]/[`ReduceFn`]/[`PartialReduceFn`]/
//! [`Loader`] traits. Decode failures panic: they mean the job graph
//! wired mismatched types together, which is a programming error.

use crate::flowlet::{AccTable, Emitter, Loader, MapFn, PartialReduceFn, ReduceFn, TaskContext};
use crate::outbuf::{Combiner, Partials};
use crate::NodeId;
use hamr_codec::slots::Accs;
use hamr_codec::Codec;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

fn dec<T: Codec>(what: &str, bytes: &[u8]) -> T {
    T::from_bytes(bytes).unwrap_or_else(|e| {
        panic!(
            "typed flowlet: {what} failed to decode ({e}); wrong Exchange wiring or type mismatch"
        )
    })
}

// ---------------------------------------------------------------- map

/// A [`MapFn`] from a typed closure `(ctx, key, value, emitter)`: the
/// [`TaskContext`] is there for node-local disk, DFS and KV-store
/// access — the locality feature.
pub struct TypedMap<K, V, F> {
    f: F,
    _pd: PhantomData<fn(K, V)>,
}

impl<K, V, F> MapFn for TypedMap<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(&TaskContext, K, V, &mut Emitter) + Send + Sync,
{
    fn map(&self, ctx: &TaskContext, key: &[u8], value: &[u8], out: &mut Emitter) {
        (self.f)(ctx, dec("map key", key), dec("map value", value), out);
    }
}

/// Build a map flowlet from `Fn(K, V, &mut Emitter)`.
#[allow(clippy::type_complexity)]
pub fn map_fn<K, V, F>(
    f: F,
) -> TypedMap<K, V, impl Fn(&TaskContext, K, V, &mut Emitter) + Send + Sync>
where
    K: Codec,
    V: Codec,
    F: Fn(K, V, &mut Emitter) + Send + Sync,
{
    map_ctx_fn(move |_: &TaskContext, key, value, out: &mut Emitter| f(key, value, out))
}

/// Build a context-aware map flowlet.
pub fn map_ctx_fn<K, V, F>(f: F) -> TypedMap<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(&TaskContext, K, V, &mut Emitter) + Send + Sync,
{
    TypedMap {
        f,
        _pd: PhantomData,
    }
}

// ------------------------------------------------------------- reduce

/// A reduce closure's values: decoded one at a time, as the closure
/// pulls them, from bytes borrowed from the node's grouped state. A
/// closure that folds never holds the group; one that needs it whole
/// calls `.collect()`.
pub struct Values<'a, V> {
    raw: &'a mut dyn RawValues<'a>,
    _pd: PhantomData<fn() -> V>,
}

/// The engine's value iterator with its item lifetime shortened to its
/// borrow's, so that [`Values`] needs only one.
trait RawValues<'a> {
    fn next_raw(&mut self) -> Option<&'a [u8]>;
    fn hint(&self) -> (usize, Option<usize>);
}

impl<'a, 'v: 'a, I: Iterator<Item = &'v [u8]>> RawValues<'a> for I {
    fn next_raw(&mut self) -> Option<&'a [u8]> {
        self.next()
    }
    fn hint(&self) -> (usize, Option<usize>) {
        self.size_hint()
    }
}

impl<V: Codec> Iterator for Values<'_, V> {
    type Item = V;

    #[inline]
    fn next(&mut self) -> Option<V> {
        self.raw.next_raw().map(|v| dec("reduce value", v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.raw.hint()
    }
}

/// A [`ReduceFn`] from a typed closure `(ctx, key, values, emitter)`.
pub struct TypedReduce<K, V, F> {
    f: F,
    _pd: PhantomData<fn(K, V)>,
}

impl<K, V, F> ReduceFn for TypedReduce<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(&TaskContext, K, Values<'_, V>, &mut Emitter) + Send + Sync,
{
    fn reduce(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        mut values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut Emitter,
    ) {
        let values = Values {
            raw: &mut values,
            _pd: PhantomData,
        };
        (self.f)(ctx, dec("reduce key", key), values, out);
    }
}

/// Build a reduce flowlet from `Fn(K, Values<V>, &mut Emitter)`.
#[allow(clippy::type_complexity)]
pub fn reduce_fn<K, V, F>(
    f: F,
) -> TypedReduce<K, V, impl Fn(&TaskContext, K, Values<'_, V>, &mut Emitter) + Send + Sync>
where
    K: Codec,
    V: Codec,
    F: Fn(K, Values<'_, V>, &mut Emitter) + Send + Sync,
{
    reduce_ctx_fn(move |_: &TaskContext, key, values, out: &mut Emitter| f(key, values, out))
}

/// Build a context-aware reduce flowlet.
pub fn reduce_ctx_fn<K, V, F>(f: F) -> TypedReduce<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(&TaskContext, K, Values<'_, V>, &mut Emitter) + Send + Sync,
{
    TypedReduce {
        f,
        _pd: PhantomData,
    }
}

// ------------------------------------------------------ partial reduce

/// A [`PartialReduceFn`] assembled from typed init/fold/finish
/// closures over value type `V` and accumulator type `Acc`; `finish` is
/// handed the [`TaskContext`]. Its table is an `Accs<Acc>`: keys stay bytes
/// while folding, and each is decoded once, for `finish`.
pub struct TypedPartial<K, V, Acc, FInit, FFold, FFinish> {
    init: FInit,
    fold: FFold,
    finish: FFinish,
    _pd: PhantomData<fn(K, V, Acc)>,
}

impl<K, V, Acc, FInit, FFold, FFinish> PartialReduceFn
    for TypedPartial<K, V, Acc, FInit, FFold, FFinish>
where
    K: Codec,
    V: Codec,
    Acc: Default + Send + 'static,
    FInit: Fn(V) -> Acc + Send + Sync,
    FFold: Fn(Acc, V) -> Acc + Send + Sync,
    FFinish: Fn(&TaskContext, K, Acc, &mut Emitter) + Send + Sync,
{
    fn table(&self) -> AccTable {
        Box::new(Accs::<Acc>::default())
    }

    fn fold(&self, table: &mut AccTable, hash: u64, key: &[u8], value: &[u8]) {
        let table: &mut Accs<Acc> = table
            .downcast_mut()
            .expect("accumulator table type confusion");
        let v = dec("partial value", value);
        table.fold(hash, key, |acc| match acc {
            None => (self.init)(v),
            Some(acc) => (self.fold)(acc, v),
        });
    }

    fn is_empty(&self, table: &AccTable) -> bool {
        table
            .downcast_ref::<Accs<Acc>>()
            .is_some_and(Accs::is_empty)
    }

    fn finish(&self, ctx: &TaskContext, table: AccTable, out: &mut Emitter) {
        let mut table: Box<Accs<Acc>> = table.downcast().expect("accumulator table type confusion");
        table.drain(usize::MAX, |key, acc| {
            (self.finish)(ctx, dec("partial key", key), acc, out)
        });
    }
}

/// Build a partial reduce from typed closures: `init` seeds a key's
/// accumulator from its first value, `fold` adds each later one (neither
/// sees the key), and `finish` decides where a key's result goes (a
/// port, captured output, disk, KV store...). `Acc: Default` is what
/// lets the table hold each accumulator bare, with no `Option` beside
/// it: a fold moves it out with `mem::take`.
pub fn partial_fn<K, V, Acc, FInit, FFold, FFinish>(
    init: FInit,
    fold: FFold,
    finish: FFinish,
) -> TypedPartial<K, V, Acc, FInit, FFold, FFinish>
where
    K: Codec,
    V: Codec,
    Acc: Default + Send + 'static,
    FInit: Fn(V) -> Acc + Send + Sync,
    FFold: Fn(Acc, V) -> Acc + Send + Sync,
    FFinish: Fn(&TaskContext, K, Acc, &mut Emitter) + Send + Sync,
{
    TypedPartial {
        init,
        fold,
        finish,
        _pd: PhantomData,
    }
}

/// The workhorse: sum `u64` values per key. On finish, emits `(K, sum)`
/// on port 0 when the flowlet has a downstream connection, otherwise
/// into the captured job output.
pub fn sum_reducer<K: Codec>() -> impl PartialReduceFn {
    partial_fn::<K, u64, u64, _, _, _>(
        |v| v,
        |acc, v| acc + v,
        |_ctx, k: K, acc, out: &mut Emitter| {
            if out.ports() > 0 {
                out.emit_t(0, &k, &acc);
            } else {
                out.output_t(&k, &acc);
            }
        },
    )
}

// ----------------------------------------------------------- combiners

/// A [`Combiner`] from a typed merge closure over value type `V`.
struct TypedCombiner<V, F> {
    merge: Arc<F>,
    _pd: PhantomData<fn(V)>,
}

impl<V, F> Combiner for TypedCombiner<V, F>
where
    V: Codec + Default + Send + 'static,
    F: Fn(V, V) -> V + Send + Sync + 'static,
{
    fn table(&self) -> Box<dyn Partials> {
        Box::new(TypedPartials {
            merge: Arc::clone(&self.merge),
            accs: Accs::default(),
            scratch: Vec::new(),
        })
    }
}

/// A [`TypedCombiner`]'s partials for one destination: the value
/// decoded, merged and held as a `V`, beside its key's hash.
struct TypedPartials<V, F> {
    merge: Arc<F>,
    accs: Accs<(u64, V)>,
    /// A draining partial's encoding.
    scratch: Vec<u8>,
}

impl<V, F> Partials for TypedPartials<V, F>
where
    V: Codec + Default + Send,
    F: Fn(V, V) -> V + Send + Sync,
{
    #[inline]
    fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> Option<isize> {
        let value = dec("combine value", value);
        let (merge, before, mut held) = (&*self.merge, self.accs.footprint(), true);
        self.accs.fold(hash, key, |partial| match partial {
            Some((_, partial)) => (hash, merge(partial, value)),
            None => {
                held = false;
                (hash, value)
            }
        });
        (!held).then(|| self.accs.footprint() as isize - before as isize)
    }

    fn entries(&self) -> usize {
        self.accs.len()
    }

    fn footprint(&self) -> usize {
        self.accs.footprint()
    }

    #[allow(clippy::type_complexity)]
    fn drain(&mut self, n: usize, each: &mut dyn FnMut(u64, &[u8], &[u8])) -> usize {
        let scratch = &mut self.scratch;
        self.accs.drain(n, |key, (hash, partial)| {
            scratch.clear();
            partial.encode(scratch);
            each(hash, key, scratch);
        })
    }
}

/// Build an edge [`Combiner`] from an associative, commutative
/// `Fn(V, V) -> V` over the edge's value type (the key is untouched).
/// Register it with `JobBuilder::connect_combined`. Its buffers hold
/// each key's partial as a `V` (`V: Default` lets a fold move it out
/// and back, as [`partial_fn`]'s accumulators are): a record's value is
/// decoded once, when it is folded, and a partial encoded once, when it
/// leaves.
pub fn combine_fn<V, F>(f: F) -> Arc<dyn Combiner>
where
    V: Codec + Default + Send + 'static,
    F: Fn(V, V) -> V + Send + Sync + 'static,
{
    Arc::new(TypedCombiner {
        merge: Arc::new(f),
        _pd: PhantomData,
    })
}

/// The combiner matching [`sum_reducer`]: adds `u64` partial sums.
pub fn sum_combiner() -> Arc<dyn Combiner> {
    combine_fn::<u64, _>(|a, b| a + b)
}

// ------------------------------------------------------------- loaders

/// Loads an in-memory list of records, dealt round-robin across nodes.
/// One split per node. Emits `(index as u64, item)`.
pub struct VecLoader<K, V> {
    items: Vec<(K, V)>,
}

impl<K: Codec + Send + Sync, V: Codec + Send + Sync> Loader for VecLoader<K, V> {
    fn split_count(&self, ctx: &TaskContext) -> usize {
        // One split on every node; empty shares just emit nothing.
        usize::from(ctx.node < ctx.nodes)
    }

    fn load(&self, ctx: &TaskContext, _index: usize, out: &mut Emitter) {
        for (i, (k, v)) in self.items.iter().enumerate() {
            if i % ctx.nodes == ctx.node {
                out.emit_all_t(k, v);
            }
        }
    }
}

/// Loader over explicit `(K, V)` pairs (tests, small examples).
pub fn pairs_loader<K, V>(items: Vec<(K, V)>) -> VecLoader<K, V>
where
    K: Codec + Send + Sync,
    V: Codec + Send + Sync,
{
    VecLoader { items }
}

/// Loader over text lines; emits `(line_number as u64, line)`.
pub fn vec_loader(lines: Vec<String>) -> VecLoader<u64, String> {
    VecLoader {
        items: lines
            .into_iter()
            .enumerate()
            .map(|(i, l)| (i as u64, l))
            .collect(),
    }
}

/// The paper's TextLoader: reads a DFS text file with locality (each
/// node loads the blocks whose primary replica it holds), emitting
/// `(byte offset within file, line)`. A split is one *packet* of a
/// block (see `hamr_dfs::PACKET_SIZE`): it fires when its packet has
/// arrived off the disk, not when its whole block has. Packets end on
/// record boundaries, and a line is a record (`DfsWriter::write_line`),
/// so no line spans two splits.
pub struct DfsLineLoader {
    path: String,
    /// Each node's packets, resolved once per job by `split_count` and
    /// indexed by `prepare` and `load`.
    local: RwLock<HashMap<NodeId, LocalPackets>>,
}

/// One node's packets of a file, in file order.
type LocalPackets = Arc<[Packet]>;

/// One split of a [`DfsLineLoader`].
#[derive(Debug, Clone)]
struct Packet {
    /// The block's index in the file.
    block: usize,
    /// The packet's bytes within the block.
    range: Range<usize>,
    /// Byte offset of the packet's first byte within the file.
    offset: u64,
}

/// Build a [`DfsLineLoader`] for `path`.
pub fn dfs_line_loader(path: impl Into<String>) -> DfsLineLoader {
    DfsLineLoader {
        path: path.into(),
        local: RwLock::new(HashMap::new()),
    }
}

impl DfsLineLoader {
    /// Resolve and remember the packets this node loads: those of the
    /// blocks whose primary replica it holds.
    fn resolve(&self, ctx: &TaskContext) -> LocalPackets {
        let blocks = match ctx.dfs.blocks(&self.path) {
            Ok(b) => b,
            Err(e) => panic!("DfsLineLoader: cannot read {}: {e}", self.path),
        };
        let mut base = 0u64;
        let mut mine: Vec<Packet> = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            if b.replicas.first() == Some(&ctx.node) {
                mine.extend(b.packet_ranges().map(|range| Packet {
                    block: i,
                    offset: base + range.start as u64,
                    range,
                }));
            }
            base += b.len as u64;
        }
        let mine: LocalPackets = mine.into();
        self.local.write().insert(ctx.node, Arc::clone(&mine));
        mine
    }

    /// This node's packets.
    fn local_packets(&self, ctx: &TaskContext) -> LocalPackets {
        let resolved = self.local.read().get(&ctx.node).cloned();
        resolved.unwrap_or_else(|| self.resolve(ctx))
    }
}

impl Loader for DfsLineLoader {
    fn split_count(&self, ctx: &TaskContext) -> usize {
        self.resolve(ctx).len()
    }

    /// Book the packet's block — once: a booked block keeps its booking
    /// — and answer when the packet's last byte will have arrived.
    /// While packets of the block follow this one, book the next block
    /// this node loads as well, so the device is a block ahead of the
    /// loader; at a block's last packet the runtime's one-split
    /// look-ahead books it.
    fn prepare(&self, ctx: &TaskContext, index: usize) -> Option<Instant> {
        let packets = self.local_packets(ctx);
        let packet = packets.get(index)?;
        let node = Some(ctx.node);
        let at = ctx
            .dfs
            .read_ahead_prefix(&self.path, packet.block, node, packet.range.end);
        let mut later = packets[index + 1..].iter();
        if later.next().is_some_and(|p| p.block == packet.block) {
            if let Some(next) = later.find(|p| p.block != packet.block) {
                ctx.dfs.read_ahead(&self.path, next.block, node);
            }
        }
        at
    }

    fn load(&self, ctx: &TaskContext, index: usize, out: &mut Emitter) {
        let packets = self.local_packets(ctx);
        let packet = &packets[index];
        let block = ctx
            .dfs
            .read_range(
                &self.path,
                packet.block,
                Some(ctx.node),
                packet.range.clone(),
            )
            .expect("block readable");
        let mut offset = packet.offset;
        for line in block[packet.range.clone()].split(|&b| b == b'\n') {
            if line.is_empty() {
                offset += 1;
                continue;
            }
            out.emit_all_str(&offset, &String::from_utf8_lossy(line));
            offset += line.len() as u64 + 1;
        }
    }
}

/// A loader driven by a closure: `split_count` per node and a
/// generator per split. The workhorse for synthetic benchmark inputs —
/// data is generated in place instead of materialized, like PUMA's and
/// HiBench's generators feeding the file system.
pub struct GenLoader<FCount, FGen> {
    count: FCount,
    generate: FGen,
}

/// Build a generator loader.
pub fn gen_loader<FCount, FGen>(count: FCount, generate: FGen) -> GenLoader<FCount, FGen>
where
    FCount: Fn(&TaskContext) -> usize + Send + Sync,
    FGen: Fn(&TaskContext, usize, &mut Emitter) + Send + Sync,
{
    GenLoader { count, generate }
}

impl<FCount, FGen> Loader for GenLoader<FCount, FGen>
where
    FCount: Fn(&TaskContext) -> usize + Send + Sync,
    FGen: Fn(&TaskContext, usize, &mut Emitter) + Send + Sync,
{
    fn split_count(&self, ctx: &TaskContext) -> usize {
        (self.count)(ctx)
    }

    fn load(&self, ctx: &TaskContext, index: usize, out: &mut Emitter) {
        (self.generate)(ctx, index, out);
    }
}
