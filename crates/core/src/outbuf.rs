//! Task-side output buffering: partitioning emissions into frame bins.
//!
//! Each running task owns a [`TaskOutput`]. Emissions are routed by the
//! port's [`Exchange`] to destination nodes and appended to a per-slot
//! [`FrameBuilder`] — one contiguous buffer per (port, destination)
//! instead of a `Vec` of per-record allocations. Full frames (at
//! `bin_capacity` records) move to the `finished` list, which the node
//! runtime ships (or defers, under flow control) when the task ends.
//! Buffering per task keeps workers lock-free while they run — the
//! paper's "inside a flowlet task, instructions execute sequentially".
//!
//! A port whose edge combines in-node folds its emissions into a
//! [`CombineBuf`] first. That buffer is the executing *worker's*, on
//! loan from the node's [`CombineShelf`] for the length of the task, so
//! duplicates fold across every task the worker runs; a task's end
//! drains it only as far as the destination's flow-control window has
//! room ([`TaskOutput::into_parts`]), and a flush task empties it before
//! the flowlet completes.
//!
//! The key is hashed once here, at emission, and that hash serves every
//! producer-side use: routing, the combine buffer, and — from the
//! builder's hash column — the statistics fold when the frame closes.
//! It does not ship: the frame carries lengths, keys and values only,
//! and a consumer that shards by key hashes it again.
//! Broadcast ports build one frame and ship cheap clones of it to every
//! node — encode once, refcount per destination.

use crate::graph::{EdgeId, Exchange, FlowletId};
use crate::metrics::FlowletMetrics;
use crate::node::{NetMsg, COMBINE_BUDGET, COMBINE_LOW_WATER};
use crate::plan::{ExecPlan, PortSpec};
use crate::record::{FrameBin, Record};
use crate::skew::Combiner;
use crate::NodeId;
use bytes::Bytes;
use hamr_codec::{stable_hash, Frame, FrameBuilder};
use hamr_simnet::Endpoint;
use hamr_trace::{AuditStage, EventKind, Gauge, Labels, Observe};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A bin held back by flow control, with the time it was parked.
struct Deferred {
    flowlet: FlowletId,
    dst: NodeId,
    bin: FrameBin,
    since: Instant,
}

/// Per-flowlet flow-control counters, updated from any thread.
struct FlowletFlow {
    /// Bins currently parked in the deferred queue for this flowlet.
    /// Gates task admission (a suspended producer gets no new bins) and
    /// completion (EdgeComplete/Marker must stay behind every bin).
    deferred: AtomicUsize,
    bins_out: AtomicU64,
    stalls: AtomicU64,
    stall_us: AtomicU64,
}

/// Shared outbound flow control: the per-(edge, destination) sliding
/// window of unacknowledged bins, plus the deferred queue for bins that
/// found their window full.
///
/// Under the work-stealing scheduler this is called directly from
/// worker threads: a worker finishing a task ships its bins (or defers
/// them) itself, and opportunistically drains the deferred queue, so a
/// flow-control resume no longer round-trips the runtime thread. The
/// runtime thread still calls [`FlowControl::on_ack`] from its ingress
/// pump when acknowledgements arrive.
///
/// Two ordering rules keep the completion protocol sound:
/// * after a defer, the caller immediately drains once — this closes
///   the race where an ack drained an *empty* queue between the
///   caller's window check and its push, which would otherwise strand
///   the bin until the next unrelated ack;
/// * a flowlet's `deferred` count is decremented only *after* the
///   fabric send completes, so when the runtime thread observes zero it
///   knows every bin is already in the per-link FIFO ahead of any
///   EdgeComplete/Marker it is about to send.
pub(crate) struct FlowControl {
    nodes: usize,
    node: NodeId,
    window: usize,
    endpoint: Endpoint<NetMsg>,
    obs: Observe,
    /// In-flight (unacked) bins per (edge, destination node) slot.
    inflight: Vec<AtomicUsize>,
    deferred: Mutex<VecDeque<Deferred>>,
    /// Cached queue length so the hot no-backlog path skips the lock.
    total_deferred: AtomicUsize,
    per_flowlet: Vec<FlowletFlow>,
    /// Gauge: bins parked in the deferred queue.
    deferred_gauge: Gauge,
    /// Gauge: total occupied window slots (unacked bins in flight).
    window_gauge: Gauge,
    /// Gauge: cumulative microseconds bins spent parked behind
    /// full flow-control windows — the live stall-share signal
    /// `hamr top` divides by wall-clock.
    stall_gauge: Gauge,
}

impl FlowControl {
    pub(crate) fn new(
        node: NodeId,
        nodes: usize,
        window: usize,
        edges: usize,
        flowlets: usize,
        endpoint: Endpoint<NetMsg>,
        obs: &Observe,
    ) -> Self {
        let gauge = |name| obs.gauge(name, Labels::new().node(node as u32));
        FlowControl {
            nodes,
            node,
            window,
            endpoint,
            obs: obs.clone(),
            inflight: (0..edges * nodes).map(|_| AtomicUsize::new(0)).collect(),
            deferred: Mutex::new(VecDeque::new()),
            total_deferred: AtomicUsize::new(0),
            per_flowlet: (0..flowlets)
                .map(|_| FlowletFlow {
                    deferred: AtomicUsize::new(0),
                    bins_out: AtomicU64::new(0),
                    stalls: AtomicU64::new(0),
                    stall_us: AtomicU64::new(0),
                })
                .collect(),
            deferred_gauge: gauge("deferred_bins"),
            window_gauge: gauge("window_inflight"),
            stall_gauge: gauge("stall_us_total"),
        }
    }

    /// Claim one window slot for `(edge, dst)` if the window has room.
    fn try_reserve(&self, slot: usize) -> bool {
        let a = &self.inflight[slot];
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            if cur >= self.window {
                return false;
            }
            match a.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Ship `bin` to `dst` if its window has room, else park it in the
    /// deferred queue (suspending the producing flowlet). `lane` is the
    /// trace lane of the calling thread (worker id, or
    /// [`hamr_trace::WORKER_RUNTIME`]).
    pub(crate) fn ship_or_defer(&self, lane: u32, f: FlowletId, dst: NodeId, bin: FrameBin) {
        let slot = bin.edge * self.nodes + dst;
        if self.try_reserve(slot) {
            self.window_gauge.add(1);
            self.per_flowlet[f].bins_out.fetch_add(1, Ordering::Relaxed);
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::BinShipped {
                    flowlet: f as u32,
                    edge: bin.edge as u32,
                    dst: dst as u32,
                    records: bin.len() as u32,
                    bytes: bin.payload_bytes() as u64,
                    span: bin.span,
                },
            );
            self.obs.audit.record(
                AuditStage::Ship,
                bin.edge as u32,
                dst as u32,
                bin.len() as u64,
                bin.payload_bytes() as u64,
            );
            let _ = self.endpoint.send(dst, NetMsg::Bin(bin));
            return;
        }
        self.per_flowlet[f].stalls.fetch_add(1, Ordering::Relaxed);
        self.per_flowlet[f].deferred.fetch_add(1, Ordering::AcqRel);
        self.deferred_gauge.add(1);
        self.obs.tracer.emit(
            self.node as u32,
            lane,
            EventKind::FlowControlStall {
                flowlet: f as u32,
                edge: bin.edge as u32,
                dst: dst as u32,
                span: bin.span,
            },
        );
        {
            let mut q = self.deferred.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(Deferred {
                flowlet: f,
                dst,
                bin,
                since: Instant::now(),
            });
            self.total_deferred.store(q.len(), Ordering::Release);
        }
        // An ack may have drained an (empty) queue between our window
        // check and the push above; drain once so this bin cannot be
        // stranded waiting for a further ack that never comes.
        self.drain(lane);
    }

    /// An acknowledgement from `from` arrived for `edge`: open the
    /// window by one and try to resume deferred bins.
    pub(crate) fn on_ack(&self, edge: EdgeId, from: NodeId, lane: u32) {
        let slot = edge * self.nodes + from;
        let prev = self.inflight[slot].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "ack for edge {edge} without an in-flight bin");
        self.window_gauge.sub(1);
        self.drain(lane);
    }

    /// Ship every deferred bin whose window now has room.
    pub(crate) fn drain(&self, lane: u32) {
        if self.total_deferred.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut q = self.deferred.lock().unwrap_or_else(|p| p.into_inner());
        let mut i = 0;
        while i < q.len() {
            let slot = q[i].bin.edge * self.nodes + q[i].dst;
            if !self.try_reserve(slot) {
                i += 1;
                continue;
            }
            let d = q.remove(i).expect("index in bounds");
            let flow = &self.per_flowlet[d.flowlet];
            let stalled = d.since.elapsed();
            flow.bins_out.fetch_add(1, Ordering::Relaxed);
            flow.stall_us
                .fetch_add(stalled.as_micros() as u64, Ordering::Relaxed);
            self.stall_gauge.add(stalled.as_micros() as i64);
            self.window_gauge.add(1);
            self.deferred_gauge.sub(1);
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::FlowControlResume {
                    flowlet: d.flowlet as u32,
                    edge: d.bin.edge as u32,
                    dst: d.dst as u32,
                    stalled_us: stalled.as_micros() as u64,
                    span: d.bin.span,
                },
            );
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::BinShipped {
                    flowlet: d.flowlet as u32,
                    edge: d.bin.edge as u32,
                    dst: d.dst as u32,
                    records: d.bin.len() as u32,
                    bytes: d.bin.payload_bytes() as u64,
                    span: d.bin.span,
                },
            );
            self.obs.audit.record(
                AuditStage::Ship,
                d.bin.edge as u32,
                d.dst as u32,
                d.bin.len() as u64,
                d.bin.payload_bytes() as u64,
            );
            let flowlet = d.flowlet;
            let _ = self.endpoint.send(d.dst, NetMsg::Bin(d.bin));
            // Decrement only after the send: once the runtime observes
            // zero, the bin is already in the per-link FIFO ahead of
            // any completion message it broadcasts next.
            self.per_flowlet[flowlet]
                .deferred
                .fetch_sub(1, Ordering::AcqRel);
        }
        self.total_deferred.store(q.len(), Ordering::Release);
    }

    /// Bins currently parked for `f` (suspends the producer and holds
    /// back its completion messages).
    pub(crate) fn deferred_for(&self, f: FlowletId) -> usize {
        self.per_flowlet[f].deferred.load(Ordering::Acquire)
    }

    /// Total parked bins on this node (admission high-water check).
    pub(crate) fn total_deferred(&self) -> usize {
        self.total_deferred.load(Ordering::Acquire)
    }

    /// Unacknowledged bins on `(edge, dst)`: what a task end measures
    /// its combine buffers' drain against, and what a stall report
    /// lists.
    pub(crate) fn inflight(&self, edge: EdgeId, dst: NodeId) -> usize {
        self.inflight[edge * self.nodes + dst].load(Ordering::Acquire)
    }

    /// Fold the accumulated per-flowlet counters into the node's
    /// metrics at teardown.
    pub(crate) fn fold_into(&self, fmetrics: &mut [FlowletMetrics]) {
        for (f, flow) in self.per_flowlet.iter().enumerate() {
            let fm = &mut fmetrics[f];
            fm.bins_out += flow.bins_out.load(Ordering::Relaxed);
            fm.flow_control_stalls += flow.stalls.load(Ordering::Relaxed);
            fm.stall_time += Duration::from_micros(flow.stall_us.load(Ordering::Relaxed));
        }
    }
}

/// Bytes of an arena entry's fixed header: `hash u64`, then `klen`,
/// `vlen` and `vcap` as `u32`, all little-endian. The key follows, then
/// `vcap` bytes of which the first `vlen` are the value.
const ENTRY_HEADER: usize = 20;
/// Set in an entry's `klen` word once its partial has been re-appended
/// further on: a drain walks over it.
const ENTRY_DEAD: u32 = 1 << 31;
/// An arena stays far below this (the budget sheds it at a mebibyte);
/// the bound keeps offsets inside a table word and `klen` off
/// [`ENTRY_DEAD`] whatever a single record weighs.
const ARENA_MAX: usize = 1 << 31;
/// A table word is `(low 32 bits of the hash) << 32 | arena offset`;
/// the two largest words are reserved.
const SLOT_EMPTY: u64 = u64::MAX;
const SLOT_TOMB: u64 = u64::MAX - 1;
const TABLE_MIN: usize = 64;

#[inline]
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// An arena entry's header, decoded.
struct Entry {
    hash: u64,
    klen: usize,
    vlen: usize,
    vcap: usize,
    dead: bool,
}

impl Entry {
    fn size(&self) -> usize {
        ENTRY_HEADER + self.klen + self.vcap
    }
}

/// The partials one worker holds for one (edge, destination): entries
/// appended to a byte arena in arrival order and found through an
/// open-addressing table of `(hash tag, offset)` words. A fold
/// overwrites the value where it lies, so a record costs no allocation
/// and the oldest partial is the one at `head`.
#[derive(Default)]
struct Held {
    arena: Vec<u8>,
    /// Offset of the oldest entry not yet drained; what lies before it
    /// is garbage until the next rebuild.
    head: usize,
    /// Arena bytes of dead entries at or after `head`.
    dead: usize,
    /// Linear-probed, a power of two long (or empty while nothing is
    /// held), at most three quarters occupied by words and tombstones.
    table: Vec<u64>,
    live: usize,
    tombs: usize,
}

impl Held {
    fn entry(&self, at: usize) -> Entry {
        let hash = u64::from_le_bytes(self.arena[at..at + 8].try_into().expect("eight bytes"));
        let klen = u32_at(&self.arena, at + 8);
        Entry {
            hash,
            klen: (klen & !ENTRY_DEAD) as usize,
            vlen: u32_at(&self.arena, at + 12) as usize,
            vcap: u32_at(&self.arena, at + 16) as usize,
            dead: klen & ENTRY_DEAD != 0,
        }
    }

    /// Where `hash` starts probing. The low bits chose the destination
    /// (every hash held here has the same ones), so the index takes the
    /// high bits of a multiplicative scramble instead.
    #[inline]
    fn probe_start(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.table.len() - 1)
    }

    #[inline]
    fn word(hash: u64, at: usize) -> u64 {
        (hash << 32) | at as u64
    }

    /// Arena and table bytes this destination occupies, garbage
    /// included; 0 when nothing is held.
    fn footprint(&self) -> usize {
        self.arena.len() + self.table.len() * std::mem::size_of::<u64>()
    }

    /// Bytes reserved for a value of `len`: a little slack, so that a
    /// growing partial (a varint count crossing a width) is usually
    /// rewritten where it lies.
    fn value_capacity(len: usize) -> usize {
        len + len / 4 + 2
    }

    /// Append a fresh entry; returns its offset.
    fn append(&mut self, hash: u64, key: &[u8], value: &[u8]) -> usize {
        let at = self.arena.len();
        let vcap = Self::value_capacity(value.len());
        assert!(
            at + ENTRY_HEADER + key.len() + vcap < ARENA_MAX,
            "combine arena past {ARENA_MAX} bytes"
        );
        self.arena.extend_from_slice(&hash.to_le_bytes());
        for word in [key.len(), value.len(), vcap] {
            self.arena.extend_from_slice(&(word as u32).to_le_bytes());
        }
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.arena.resize(at + ENTRY_HEADER + key.len() + vcap, 0);
        at
    }

    /// Fold one record; true if it merged into a partial already held.
    fn fold(
        &mut self,
        combiner: &dyn Combiner,
        scratch: &mut Vec<u8>,
        hash: u64,
        key: &[u8],
        value: &[u8],
    ) -> bool {
        if (self.live + self.tombs + 1) * 4 > self.table.len() * 3 {
            self.rebuild();
        }
        let mask = self.table.len() - 1;
        let mut slot = self.probe_start(hash);
        let mut reuse = None;
        loop {
            let word = self.table[slot];
            if word == SLOT_EMPTY {
                break;
            }
            if word == SLOT_TOMB {
                reuse.get_or_insert(slot);
            } else if word >> 32 == hash & 0xFFFF_FFFF {
                let at = (word & 0xFFFF_FFFF) as usize;
                let e = self.entry(at);
                let k = at + ENTRY_HEADER;
                if self.arena[k..k + e.klen] == *key {
                    let v = k + e.klen;
                    scratch.clear();
                    combiner.combine(key, &self.arena[v..v + e.vlen], value, scratch);
                    if scratch.len() <= e.vcap {
                        self.arena[v..v + scratch.len()].copy_from_slice(scratch);
                        self.arena[at + 12..at + 16]
                            .copy_from_slice(&(scratch.len() as u32).to_le_bytes());
                    } else {
                        // Outgrown: the partial moves to the tail (and
                        // is the youngest again); the old entry stays
                        // as garbage for a drain to walk over.
                        let dead = (e.klen as u32 | ENTRY_DEAD).to_le_bytes();
                        self.arena[at + 8..at + 12].copy_from_slice(&dead);
                        self.dead += e.size();
                        let moved = self.append(hash, key, scratch);
                        self.table[slot] = Self::word(hash, moved);
                    }
                    return true;
                }
            }
            slot = (slot + 1) & mask;
        }
        if let Some(tomb) = reuse {
            self.tombs -= 1;
            slot = tomb;
        }
        let at = self.append(hash, key, value);
        self.table[slot] = Self::word(hash, at);
        self.live += 1;
        false
    }

    /// Hand the `n` oldest partials to `each` as `(hash, key, value)`,
    /// oldest first, and forget them. Returns how many there were.
    fn drain(&mut self, n: usize, mut each: impl FnMut(u64, &[u8], &[u8])) -> usize {
        // Emptying the arena resets the table whole: no need to unlink
        // entry by entry.
        let all = n >= self.live;
        let mut taken = 0;
        while taken < n && self.live > 0 {
            let at = self.head;
            let e = self.entry(at);
            self.head += e.size();
            if e.dead {
                self.dead -= e.size();
                continue;
            }
            if !all {
                self.unlink(e.hash, at);
            }
            self.live -= 1;
            taken += 1;
            let v = at + ENTRY_HEADER + e.klen;
            each(
                e.hash,
                &self.arena[v - e.klen..v],
                &self.arena[v..v + e.vlen],
            );
        }
        if self.live == 0 {
            // Both keep their capacity: the next fold allocates nothing.
            self.arena.clear();
            self.table.clear();
            (self.head, self.dead, self.tombs) = (0, 0, 0);
        } else if self.head + self.dead > self.arena.len() / 2 || self.tombs > self.table.len() / 2
        {
            self.rebuild();
        }
        taken
    }

    /// Tombstone the table word of the live entry at `at`.
    fn unlink(&mut self, hash: u64, at: usize) {
        let mask = self.table.len() - 1;
        let word = Self::word(hash, at);
        let mut slot = self.probe_start(hash);
        while self.table[slot] != word {
            debug_assert_ne!(self.table[slot], SLOT_EMPTY, "live entry not in the table");
            slot = (slot + 1) & mask;
        }
        self.table[slot] = SLOT_TOMB;
        self.tombs += 1;
    }

    /// Squeeze the garbage out of the arena (the drained prefix, dead
    /// entries) and rebuild the table, without tombstones, at no more
    /// than half full. Linear in what is held; run when the table fills
    /// or garbage passes half, so amortised constant per record.
    fn rebuild(&mut self) {
        if self.head > 0 || self.dead > 0 {
            let (mut from, mut to) = (self.head, 0);
            while from < self.arena.len() {
                let e = self.entry(from);
                if !e.dead {
                    self.arena.copy_within(from..from + e.size(), to);
                    to += e.size();
                }
                from += e.size();
            }
            self.arena.truncate(to);
            (self.head, self.dead) = (0, 0);
        }
        let slots = ((self.live + 1) * 2).next_power_of_two().max(TABLE_MIN);
        self.table.clear();
        self.table.resize(slots, SLOT_EMPTY);
        self.tombs = 0;
        let mask = slots - 1;
        let mut at = 0;
        while at < self.arena.len() {
            let e = self.entry(at);
            let mut slot = self.probe_start(e.hash);
            while self.table[slot] != SLOT_EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = Self::word(e.hash, at);
            at += e.size();
        }
    }
}

/// One worker's in-node combine buffer for one edge: a partial per
/// distinct key, folded in place as duplicates arrive, held per
/// destination node. It belongs to the worker, not to a task — the
/// executing task borrows it from the node's [`CombineShelf`] and puts
/// it back, so duplicates fold across all the tasks a worker runs — and
/// what decides when partials leave is the destination's flow-control
/// window (see [`TaskOutput::into_parts`]), not a count.
pub(crate) struct CombineBuf {
    combiner: Arc<dyn Combiner>,
    /// Indexed by the key's hash home.
    held: Vec<Held>,
    scratch: Vec<u8>,
    /// Footprint of all destinations.
    bytes: usize,
    /// What the shelf's gauge currently counts for this buffer.
    published: usize,
    /// Records offered, folded into a held partial, and partials
    /// drained since the last [`CombineShelf::put`] — one row of the
    /// audit ledger's combine side-table.
    tally: [u64; 3],
}

impl CombineBuf {
    fn new(combiner: Arc<dyn Combiner>, nodes: usize) -> Self {
        CombineBuf {
            combiner,
            held: (0..nodes).map(|_| Held::default()).collect(),
            scratch: Vec::new(),
            bytes: 0,
            published: 0,
            tally: [0; 3],
        }
    }

    fn entries(&self) -> usize {
        self.held.iter().map(|h| h.live).sum()
    }

    /// Fold one record; returns true if it merged into an existing key
    /// (one record absorbed) rather than starting a new partial.
    fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> bool {
        let home = (hash % self.held.len() as u64) as usize;
        let held = &mut self.held[home];
        let before = held.footprint();
        let merged = held.fold(self.combiner.as_ref(), &mut self.scratch, hash, key, value);
        self.bytes = self.bytes + held.footprint() - before;
        self.tally[0] += 1;
        self.tally[1] += u64::from(merged);
        merged
    }

    /// Drain the `n` oldest partials bound for `dst` into `each`.
    fn drain(&mut self, dst: NodeId, n: usize, each: impl FnMut(u64, &[u8], &[u8])) {
        let held = &mut self.held[dst];
        let before = held.footprint();
        self.tally[2] += held.drain(n, each) as u64;
        self.bytes = self.bytes + held.footprint() - before;
    }

    /// Squeeze out whatever garbage partial drains have left, so that
    /// `bytes` is what the partials held need.
    fn compact(&mut self) {
        for held in self.held.iter_mut().filter(|h| h.head > 0 || h.dead > 0) {
            held.rebuild();
        }
        self.bytes = self.held.iter().map(Held::footprint).sum();
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

    fn workers(&self) -> usize {
        self.slots.len() / self.edges.max(1)
    }

    fn slot(&self, worker: usize, edge: EdgeId) -> std::sync::MutexGuard<'_, Option<CombineBuf>> {
        self.slots[worker * self.edges + edge]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn take(&self, worker: usize, edge: EdgeId) -> Option<CombineBuf> {
        self.slot(worker, edge).take()
    }

    /// Enter what was done with `buf` since it was taken in the ledger
    /// and the gauge — once per task, never per record.
    fn settle(&self, edge: EdgeId, buf: &mut CombineBuf) {
        let [offered, folded, drained] = std::mem::take(&mut buf.tally);
        if offered | drained != 0 {
            self.audit.combined(edge as u32, offered, folded, drained);
        }
        self.held_gauge.add(buf.bytes as i64 - buf.published as i64);
        buf.published = buf.bytes;
    }

    /// Settle `buf` and shelve it again.
    fn put(&self, worker: usize, edge: EdgeId, mut buf: CombineBuf) {
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

/// Per-task skew-mitigation state, attached only when some output
/// port combines.
struct SkewState {
    /// Per-port combine buffer (`PortSpec::combine`), on loan from the
    /// executing worker's shelf.
    combine: Vec<Option<CombineBuf>>,
    /// Bins this task has closed per (port, destination): with the
    /// unacknowledged ones, what the destination's window will hold
    /// once they ship.
    closed: Vec<usize>,
}

/// Everything a finished task hands over.
#[derive(Default)]
pub(crate) struct TaskParts {
    /// Packed bins ready to ship, with their destination.
    pub bins: Vec<(NodeId, FrameBin)>,
    /// Records captured as job output.
    pub captured: Vec<Record>,
    /// Pinned clones of every frame closed on a cache-filling port,
    /// keyed by (edge, destination node). The clone is a refcount bump
    /// on the frame's `Bytes`, taken *after* combining but *before* the
    /// bin ships, so a later serve replays byte-identical post-combine
    /// frames.
    pub fill: Vec<(EdgeId, NodeId, Frame)>,
    /// Records absorbed by in-node combining (each fold merges two
    /// partials into one, absorbing one record).
    pub combined: u64,
}

/// Buffers one task's emissions.
pub(crate) struct TaskOutput {
    /// The flowlet's output ports, resolved once per job and shared by
    /// all of its tasks.
    ports: Arc<[PortSpec]>,
    node: NodeId,
    nodes: usize,
    bin_capacity: usize,
    /// Open (partially filled) frame per (port, destination node).
    /// Broadcast ports use only their first slot: one frame is built
    /// and cloned to every destination when it closes.
    open: Vec<Option<FrameBuilder>>,
    /// Finished bins, captured output and pinned fill frames; the
    /// fold count is filled in at the end.
    done: TaskParts,
    capture_enabled: bool,
    /// Reusable encode buffer for typed emits (see `emit_encoded`).
    scratch: Vec<u8>,
    flowlet_name: Arc<str>,
    /// Producing flowlet id + trace lane of the executing thread: the
    /// provenance stamped on every minted bin span.
    flowlet_id: u32,
    lane: u32,
    /// The job's sinks. Its statistics plane folds closed frames using
    /// the builder's hash column — pure observation, never routing.
    obs: Observe,
    /// Skew-mitigation state; `None` for unaffected flowlets.
    skew: Option<SkewState>,
}

impl TaskOutput {
    /// The output buffer of one task of `flowlet`, run by worker
    /// `lane` on `node`. The executing worker's combine buffers come
    /// off `shelf` and go back in [`Self::into_parts`] with whatever
    /// the windows left in them.
    pub(crate) fn new(
        plan: &ExecPlan,
        flowlet: FlowletId,
        node: NodeId,
        lane: u32,
        obs: &Observe,
        shelf: &CombineShelf,
    ) -> Self {
        let fp = &plan.flowlets[flowlet];
        let slots = fp.ports.len() * plan.nodes;
        let skew = fp.ports.iter().any(|p| p.combine).then(|| SkewState {
            combine: fp
                .ports
                .iter()
                .map(|p| {
                    let combiner = plan.edges[p.edge].combiner.as_ref();
                    combiner.filter(|_| p.combine).map(|c| {
                        shelf
                            .take(lane as usize, p.edge)
                            .unwrap_or_else(|| CombineBuf::new(Arc::clone(c), plan.nodes))
                    })
                })
                .collect(),
            closed: vec![0; slots],
        });
        TaskOutput {
            ports: Arc::clone(&fp.ports),
            node,
            nodes: plan.nodes,
            bin_capacity: plan.bin_capacity,
            open: (0..slots).map(|_| None).collect(),
            done: TaskParts::default(),
            capture_enabled: fp.capture,
            scratch: Vec::new(),
            flowlet_name: Arc::clone(&fp.name),
            flowlet_id: flowlet as u32,
            lane,
            obs: obs.clone(),
            skew,
        }
    }

    /// Freeze a finished builder into a bin for `dst`.
    fn close_bin(&mut self, dst: NodeId, port: usize, builder: FrameBuilder) {
        let (frame, hashes) = builder.finish();
        self.close_frame(dst, port, frame, &hashes);
    }

    /// Close a frozen frame into a bin, minting its lineage span and
    /// emitting `BinEmitted` when tracing is on. Disabled tracing costs
    /// one branch: the bin keeps span 0 and no id is allocated.
    /// `hashes` is the frame's builder column, entry for entry.
    fn close_frame(&mut self, dst: NodeId, port: usize, frame: Frame, hashes: &[u64]) {
        let PortSpec { edge, fill, .. } = self.ports[port];
        if let Some(st) = self.skew.as_mut() {
            st.closed[port * self.nodes + dst] += 1;
        }
        // Pin a clone for the resident store before the frame moves
        // into the bin.
        if fill {
            self.done.fill.push((edge, dst, frame.clone()));
        }
        if let Some(plane) = &self.obs.stats {
            // The frame's entries beside the producer's hashes for them.
            let hashed = hashes.iter().zip(frame.iter());
            plane.fold_bin(
                edge as u32,
                dst as u32,
                self.flowlet_id,
                &self.flowlet_name,
                self.node as u32,
                hashed.map(|(&h, (k, v))| (h, k, v.len())),
            );
        }
        let mut bin = FrameBin::new(edge, frame);
        // Emit custody is tallied regardless of tracing: the audit
        // ledger must balance even when the trace stream is off.
        self.obs.audit.record(
            AuditStage::Emit,
            edge as u32,
            dst as u32,
            bin.len() as u64,
            bin.payload_bytes() as u64,
        );
        if self.obs.tracer.enabled() {
            bin.span = self.obs.tracer.mint_span();
            self.obs.tracer.emit(
                self.node as u32,
                self.lane,
                EventKind::BinEmitted {
                    flowlet: self.flowlet_id,
                    edge: edge as u32,
                    dst: dst as u32,
                    span: bin.span,
                    records: bin.len() as u32,
                },
            );
        }
        self.done.bins.push((dst, bin));
    }

    pub(crate) fn ports(&self) -> usize {
        self.ports.len()
    }

    /// A fresh builder sized for `bin_capacity` small records (24
    /// payload bytes each: two length bytes and a short key and value;
    /// the hash is in the builder's column) without growing, capped so
    /// huge capacities don't pre-commit memory.
    #[inline]
    fn new_builder(bin_capacity: usize) -> FrameBuilder {
        let records = bin_capacity.min(1024);
        FrameBuilder::with_capacity(records, records * 24)
    }

    #[inline]
    fn append(&mut self, port: usize, dst: NodeId, hash: u64, key: &[u8], value: &[u8]) {
        let slot = port * self.nodes + dst;
        let cap = self.bin_capacity;
        let builder = self.open[slot].get_or_insert_with(|| Self::new_builder(cap));
        builder.push(hash, key, value);
        if builder.len() >= self.bin_capacity {
            let full = self.open[slot].take().expect("builder present");
            self.close_bin(dst, port, full);
        }
    }

    /// Route one record out of `port`. The key is hashed here, once;
    /// every producer-side use of the hash takes it from here.
    #[inline]
    pub(crate) fn emit(&mut self, port: usize, key: &[u8], value: &[u8]) {
        let spec = match self.ports.get(port) {
            Some(s) => *s,
            None => panic!(
                "flowlet {} emitted on port {port} but has only {} connected output(s)",
                self.flowlet_name,
                self.ports.len()
            ),
        };
        let hash = stable_hash(key);
        match spec.exchange {
            Exchange::Hash if spec.combine => self.emit_skew(port, hash, key, value),
            Exchange::Hash => {
                let dst = (hash % self.nodes as u64) as usize;
                self.append(port, dst, hash, key, value);
            }
            Exchange::Local => {
                let node = self.node;
                self.append(port, node, hash, key, value);
            }
            Exchange::Broadcast => {
                // Encode once into the port's shared builder; clones go
                // out per destination when the frame closes.
                let slot = port * self.nodes;
                let cap = self.bin_capacity;
                let builder = self.open[slot].get_or_insert_with(|| Self::new_builder(cap));
                builder.push(hash, key, value);
                if builder.len() >= self.bin_capacity {
                    let full = self.open[slot].take().expect("builder present");
                    self.broadcast_frame(port, full);
                }
            }
            Exchange::KeyNode => {
                let mut input = key;
                let node = hamr_codec::read_varint(&mut input)
                    .expect("Exchange::KeyNode requires a u64 node-id key")
                    as usize;
                let dst = node % self.nodes;
                self.append(port, dst, hash, key, value);
            }
        }
    }

    /// Ship one broadcast frame to every node as refcounted clones.
    /// Each destination's clone gets its own lineage span: the copies
    /// travel (and may stall) independently.
    fn broadcast_frame(&mut self, port: usize, builder: FrameBuilder) {
        let (frame, hashes) = builder.finish();
        for dst in 0..self.nodes {
            self.close_frame(dst, port, frame.clone(), &hashes);
        }
    }

    /// Emit on a Hash port that combines: fold the record into the
    /// port's combine buffer.
    fn emit_skew(&mut self, port: usize, hash: u64, key: &[u8], value: &[u8]) {
        let st = self.skew.as_mut().expect("skew state present");
        let buf = st.combine[port].as_mut().expect("combining port");
        buf.fold(hash, key, value);
        if buf.bytes > COMBINE_BUDGET {
            // Shed the older half of every destination's partials (the
            // keys folded longest ago are the least likely to recur)
            // and give their bytes back at once.
            self.drain_port(port, |_, _, held| held.div_ceil(2));
            let st = self.skew.as_mut().expect("skew state present");
            st.combine[port].as_mut().expect("put back").compact();
        }
    }

    /// Route partials out of `port`'s combine buffer, oldest first:
    /// for each destination as many as `quota(self, dst, held there)`
    /// allows. They take the path of any other record — `append`,
    /// `close_frame` — from where the ledger has them.
    fn drain_port(&mut self, port: usize, quota: impl Fn(&Self, NodeId, usize) -> usize) {
        let st = self.skew.as_mut().expect("skew state present");
        let Some(mut buf) = st.combine[port].take() else {
            return;
        };
        self.drain_buf(port, &mut buf, quota);
        self.skew.as_mut().expect("skew state present").combine[port] = Some(buf);
    }

    fn drain_buf(
        &mut self,
        port: usize,
        buf: &mut CombineBuf,
        quota: impl Fn(&Self, NodeId, usize) -> usize,
    ) {
        for dst in 0..self.nodes {
            let n = quota(self, dst, buf.held[dst].live);
            buf.drain(dst, n, |hash, key, value| {
                self.append(port, dst, hash, key, value)
            });
        }
    }

    /// How many more partials `(port, dst)` takes at this task's end:
    /// those that fit in the bins still missing to [`COMBINE_LOW_WATER`]
    /// unacknowledged ones — in flight, or closed by this task and in
    /// flight or deferred the moment it ends. A window that full keeps
    /// its link busy without us; what stays here goes on folding.
    fn window_room(&self, flow: &FlowControl, port: usize, dst: NodeId) -> usize {
        let st = self.skew.as_ref().expect("skew state present");
        let slot = port * self.nodes + dst;
        let unacked = flow.inflight(self.ports[port].edge, dst) + st.closed[slot];
        let bins = COMBINE_LOW_WATER.min(flow.window).saturating_sub(unacked);
        let open = self.open[slot].as_ref().map_or(0, FrameBuilder::len);
        (bins * self.bin_capacity).saturating_sub(open)
    }

    /// Drain every worker's combine buffers for this flowlet, whole.
    /// The body of the flush task: it runs when no other task of the
    /// flowlet does, so every buffer is on the shelf — this task's own
    /// goes back first, to be treated like the rest.
    pub(crate) fn flush_held(&mut self, shelf: &CombineShelf) {
        self.shelve(shelf);
        for port in 0..self.ports.len() {
            let PortSpec { edge, hold, .. } = self.ports[port];
            if !hold {
                continue;
            }
            for worker in 0..shelf.workers() {
                if let Some(mut buf) = shelf.take(worker, edge) {
                    self.drain_buf(port, &mut buf, |_, _, held| held);
                    // Its flowlet runs no further task: dropped here,
                    // the arena is not resident while the consumer fires.
                    shelf.settle(edge, &mut buf);
                }
            }
        }
    }

    /// Put the borrowed combine buffers back on the worker's shelf,
    /// taking the task's fold count from their tallies.
    fn shelve(&mut self, shelf: &CombineShelf) {
        let Some(st) = self.skew.as_mut() else { return };
        for (port, buf) in st.combine.iter_mut().enumerate() {
            if let Some(buf) = buf.take() {
                self.done.combined += buf.tally[1];
                shelf.put(self.lane as usize, self.ports[port].edge, buf);
            }
        }
    }

    /// Encode a typed pair through the reusable scratch buffer and emit
    /// it — zero allocations per record once the scratch has grown.
    #[inline]
    pub(crate) fn emit_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        port: usize,
        key: &K,
        value: &V,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        key.encode(&mut scratch);
        let split = scratch.len();
        value.encode(&mut scratch);
        self.emit(port, &scratch[..split], &scratch[split..]);
        self.scratch = scratch;
    }

    /// Encode a typed pair once and emit it on every port.
    #[inline]
    pub(crate) fn emit_all_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        key: &K,
        value: &V,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        key.encode(&mut scratch);
        let split = scratch.len();
        value.encode(&mut scratch);
        for port in 0..self.ports.len() {
            self.emit(port, &scratch[..split], &scratch[split..]);
        }
        self.scratch = scratch;
    }

    /// Record a captured job-output pair.
    pub(crate) fn capture(&mut self, key: Bytes, value: Bytes) {
        if self.capture_enabled {
            self.done.captured.push(Record::new(key, value));
        }
    }

    /// Finish the task: drain the combine buffers as far as the rule
    /// below says and shelve them, flush partial frames, and hand
    /// everything over with the task's fold count.
    ///
    /// The drain rule. A holding port (`PortSpec::hold`) hands on, per
    /// destination, only the partials that fit under the window's
    /// low-water mark ([`Self::window_room`]): an operator keeps
    /// working on what it holds while its output cannot move, and hands
    /// it on when it can. An idle consumer acknowledges at once, so its
    /// producers drain at every task end; a saturated link leaves the
    /// partials here, where the next task's duplicates fold into them.
    /// A port that does not hold (a streaming job: an epoch's records
    /// must leave ahead of its marker) drains whole.
    pub(crate) fn into_parts(mut self, shelf: &CombineShelf, flow: &FlowControl) -> TaskParts {
        // Combine buffers feed the open frames, so they drain first.
        if self.skew.is_some() {
            for port in 0..self.ports.len() {
                if self.ports[port].hold {
                    self.drain_port(port, |out, dst, _| out.window_room(flow, port, dst));
                } else {
                    self.drain_port(port, |_, _, held| held);
                }
            }
            self.shelve(shelf);
        }
        for slot in 0..self.open.len() {
            if let Some(builder) = self.open[slot].take() {
                if builder.is_empty() {
                    continue;
                }
                let port = slot / self.nodes;
                if matches!(self.ports[port].exchange, Exchange::Broadcast) {
                    self.broadcast_frame(port, builder);
                } else {
                    self.close_bin(slot % self.nodes, port, builder);
                }
            }
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::partition;

    /// The output of one task of a loader named "test" with one port
    /// per entry of `exchanges` (edge id == port), compiled the way a
    /// job's would be.
    fn out_with(
        exchanges: &[Exchange],
        node: NodeId,
        nodes: usize,
        cap: usize,
        capture: bool,
    ) -> TaskOutput {
        let mut b = crate::JobBuilder::new("outbuf");
        let l = b.add_loader("test", crate::typed::pairs_loader(Vec::<(u64, u64)>::new()));
        for (i, &exchange) in exchanges.iter().enumerate() {
            let m = b.add_map(
                format!("m{i}"),
                crate::typed::map_fn(|_: u64, _: u64, _: &mut crate::Emitter| {}),
            );
            b.connect(l, m, exchange);
        }
        if capture {
            b.capture_output(l);
        }
        let cfg = crate::RuntimeConfig {
            bin_capacity: cap,
            ..Default::default()
        };
        let store = crate::ResidentStore::new();
        let plan = ExecPlan::compile(&Arc::new(b.build().unwrap()), &cfg, nodes, &store);
        let obs = Observe::default();
        TaskOutput::new(&plan, l, node, 0, &obs, &shelf(1))
    }

    fn out(exchanges: &[Exchange], node: NodeId, nodes: usize, cap: usize) -> TaskOutput {
        out_with(exchanges, node, nodes, cap, true)
    }

    /// One worker's shelf on node 0.
    fn shelf(edges: usize) -> CombineShelf {
        CombineShelf::new(0, 1, edges, &Observe::default())
    }

    /// Node 0's flow control for one edge and one flowlet, over a
    /// fabric whose inboxes nobody reads.
    fn flow_control(nodes: usize, window: usize) -> FlowControl {
        let fabric = hamr_simnet::Fabric::<NetMsg>::new(nodes, hamr_simnet::NetConfig::instant());
        let endpoint = fabric.endpoint(0).unwrap();
        FlowControl::new(0, nodes, window, 1, 1, endpoint, &Observe::default())
    }

    fn finish(o: TaskOutput) -> (Vec<(NodeId, FrameBin)>, Vec<Record>) {
        let flow = flow_control(o.nodes, 32);
        let parts = o.into_parts(&shelf(1), &flow);
        (parts.bins, parts.captured)
    }

    #[test]
    fn local_exchange_stays_on_node() {
        let mut o = out(&[Exchange::Local], 2, 4, 100);
        o.emit(0, b"k", b"v");
        let (bins, _) = finish(o);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].0, 2);
        assert_eq!(bins[0].1.edge, 0);
        assert_eq!(bins[0].1.len(), 1);
    }

    #[test]
    fn hash_exchange_routes_by_key() {
        let nodes = 4;
        let mut o = out(&[Exchange::Hash], 0, nodes, 1000);
        for i in 0..100u64 {
            o.emit(0, format!("key{i}").as_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // Each key must be in the bin for its partition.
        for (dst, bin) in &bins {
            for (key, _) in bin.frame.iter() {
                assert_eq!(partition(key, nodes), *dst);
            }
        }
        let total: usize = bins.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 100);
        assert!(bins.len() >= 2, "keys should spread over nodes");
    }

    #[test]
    fn key_node_routes_to_named_node() {
        let nodes = 4;
        let mut o = out(&[Exchange::KeyNode], 0, nodes, 100);
        for node in 0..6u64 {
            o.emit(0, &hamr_codec::Codec::to_bytes(&node), b"v");
        }
        let (bins, _) = finish(o);
        for (dst, bin) in &bins {
            for (key, _) in bin.frame.iter() {
                let mut input = key;
                let node = hamr_codec::read_varint(&mut input).unwrap() as usize;
                assert_eq!(node % nodes, *dst);
            }
        }
        let total: usize = bins.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn broadcast_reaches_every_node() {
        let mut o = out(&[Exchange::Broadcast], 0, 3, 10);
        o.emit(0, b"k", b"v");
        let (bins, _) = finish(o);
        let mut dsts: Vec<_> = bins.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_encodes_once_and_clones() {
        let mut o = out(&[Exchange::Broadcast], 0, 3, 10);
        o.emit(0, b"key", b"value");
        o.emit(0, b"key2", b"value2");
        let (bins, _) = finish(o);
        assert_eq!(bins.len(), 3);
        // All three destinations share one payload allocation.
        let first = bins[0].1.frame.data().as_ptr();
        for (_, bin) in &bins {
            assert_eq!(bin.frame.data().as_ptr(), first);
            assert_eq!(bin.len(), 2);
        }
    }

    #[test]
    fn broadcast_closes_full_frames_per_capacity() {
        let nodes = 2;
        let mut o = out(&[Exchange::Broadcast], 0, nodes, 3);
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // 7 records at capacity 3 -> frames of 3, 3, 1, each cloned to
        // both nodes.
        assert_eq!(bins.len(), 3 * nodes);
        for dst in 0..nodes {
            let sizes: Vec<_> = bins
                .iter()
                .filter(|(d, _)| *d == dst)
                .map(|(_, b)| b.len())
                .collect();
            assert_eq!(sizes, vec![3, 3, 1]);
        }
    }

    #[test]
    fn full_bins_close_at_capacity() {
        let mut o = out(&[Exchange::Local], 0, 1, 3);
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // 7 records at capacity 3 -> bins of 3, 3, 1.
        let sizes: Vec<_> = bins.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn emit_encoded_round_trips_typed_pairs() {
        let mut o = out(&[Exchange::Local], 0, 1, 10);
        o.emit_encoded(0, &"word".to_string(), &7u64);
        let (bins, _) = finish(o);
        let (key, value) = bins[0].1.frame.iter().next().unwrap();
        let k: String = hamr_codec::Codec::from_bytes(key).unwrap();
        let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
        assert_eq!((k.as_str(), v), ("word", 7));
    }

    #[test]
    fn capture_collects_when_enabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = out(&[], 0, 1, 10);
        o.capture(b("k"), b("v"));
        let (bins, captured) = finish(o);
        assert!(bins.is_empty());
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].key, b("k"));
    }

    #[test]
    fn capture_ignored_when_disabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = out_with(&[], 0, 1, 10, false);
        o.capture(b("k"), b("v"));
        let (_, captured) = finish(o);
        assert!(captured.is_empty());
    }

    #[test]
    #[should_panic(expected = "port 1")]
    fn emitting_on_unconnected_port_panics() {
        let mut o = out(&[Exchange::Local], 0, 1, 10);
        o.emit(1, b"k", b"v");
    }

    #[test]
    fn multiple_ports_route_independently() {
        let mut o = out(&[Exchange::Local, Exchange::Broadcast], 1, 2, 100);
        o.emit(0, b"a", b"1");
        o.emit(1, b"b", b"2");
        let (bins, _) = finish(o);
        let edges: std::collections::BTreeSet<_> = bins.iter().map(|(_, b)| b.edge).collect();
        assert_eq!(edges.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let port1_count: usize = bins
            .iter()
            .filter(|(_, b)| b.edge == 1)
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(port1_count, 2, "broadcast to both nodes");
    }

    // ------------------------------------------------ combine buffers

    use crate::typed::sum_combiner;
    use hamr_codec::Codec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(id: u64) -> Vec<u8> {
        format!("k{id}").into_bytes()
    }

    fn fold(buf: &mut CombineBuf, id: u64, add: u64) -> bool {
        let k = key(id);
        buf.fold(stable_hash(&k), &k, &add.to_bytes())
    }

    /// Drain `n` partials bound for `dst`, decoded, in the order given.
    fn drain(buf: &mut CombineBuf, dst: NodeId, n: usize) -> Vec<(Vec<u8>, u64)> {
        let mut got = Vec::new();
        buf.drain(dst, n, |hash, k, v| {
            assert_eq!(hash, stable_hash(k), "the arena keeps the emitter's hash");
            got.push((k.to_vec(), u64::from_bytes(v).unwrap()));
        });
        got
    }

    #[test]
    fn duplicates_fold_in_place_and_partials_leave_oldest_first() {
        let mut buf = CombineBuf::new(sum_combiner(), 1);
        for round in 0..3 {
            for id in 0..5 {
                assert_eq!(fold(&mut buf, id, 1), round > 0);
            }
        }
        assert_eq!(buf.entries(), 5);
        assert_eq!(buf.tally, [15, 10, 0]);
        assert_eq!(drain(&mut buf, 0, 2), vec![(key(0), 3), (key(1), 3)]);
        // A drained key starts a fresh partial, behind the ones held.
        assert!(!fold(&mut buf, 0, 7));
        assert_eq!(
            drain(&mut buf, 0, usize::MAX),
            vec![(key(2), 3), (key(3), 3), (key(4), 3), (key(0), 7)]
        );
        assert_eq!(buf.tally, [16, 10, 6]);
        assert_eq!((buf.entries(), buf.bytes), (0, 0));
    }

    #[test]
    fn an_outgrown_partial_moves_to_the_tail_and_is_emitted_once() {
        let mut buf = CombineBuf::new(sum_combiner(), 1);
        fold(&mut buf, 0, 1);
        fold(&mut buf, 1, 1);
        // One varint byte, two of slack: a five-byte sum does not fit.
        assert!(fold(&mut buf, 0, 1 << 30));
        assert_eq!(buf.held[0].dead, ENTRY_HEADER + 2 + Held::value_capacity(1));
        assert_eq!(buf.entries(), 2);
        assert!(fold(&mut buf, 0, 1), "found where it moved to");
        assert_eq!(
            drain(&mut buf, 0, usize::MAX),
            vec![(key(1), 1), (key(0), (1 << 30) + 2)]
        );
        assert_eq!(buf.bytes, 0);
    }

    #[test]
    fn the_table_grows_and_partial_drains_rebuild_it() {
        let mut buf = CombineBuf::new(sum_combiner(), 1);
        let keys = 10 * TABLE_MIN as u64;
        for id in 0..keys {
            assert!(!fold(&mut buf, id, id));
        }
        assert!(buf.held[0].table.len() >= 3 * TABLE_MIN);
        // Drain from the head in small bites, refolding survivors in
        // between: tombstones and the dead prefix force rebuilds.
        let mut next = 0;
        while buf.entries() > 0 {
            let got = drain(&mut buf, 0, 37);
            for (k, v) in got {
                assert_eq!((k, v), (key(next), next));
                next += 1;
            }
            if next < keys {
                assert!(fold(&mut buf, keys - 1, 0), "the youngest is still found");
                let held = &buf.held[0];
                assert!(held.head + held.dead <= held.arena.len() / 2 + 1);
                assert!(held.tombs <= held.table.len() / 2);
            }
        }
        assert_eq!(next, keys);
        assert_eq!(buf.bytes, 0);
    }

    /// One destination's partials as the model keeps them: arena order,
    /// each with its sum and the capacity of the slot it lies in.
    #[derive(Default)]
    struct ModelHeld {
        order: Vec<(u64, usize)>,
        sums: BTreeMap<u64, u64>,
    }

    impl ModelHeld {
        fn fold(&mut self, id: u64, add: u64) {
            let len = |v: u64| v.to_bytes().len();
            match self.sums.get_mut(&id) {
                Some(sum) => {
                    *sum += add;
                    let at = self.order.iter().position(|(k, _)| *k == id).unwrap();
                    if len(*sum) > self.order[at].1 {
                        self.order.remove(at);
                        self.order.push((id, Held::value_capacity(len(*sum))));
                    }
                }
                None => {
                    self.sums.insert(id, add);
                    self.order.push((id, Held::value_capacity(len(add))));
                }
            }
        }

        fn drain(&mut self, n: usize) -> Vec<(Vec<u8>, u64)> {
            let n = n.min(self.order.len());
            let gone = self.order.drain(..n);
            gone.map(|(id, _)| (key(id), self.sums.remove(&id).unwrap()))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random folds, partial drains and sheds against a
        /// `BTreeMap<key, sum>` model that also keeps arena order: what
        /// a drain hands over is exactly the model's oldest partials
        /// with the model's sums — nothing lost, nothing twice, a
        /// partial that outgrew its slot at its new place — and an
        /// emptied buffer accounts for 0 bytes.
        #[test]
        fn combine_buf_matches_a_model(
            ops in prop::collection::vec((0u8..10, 0u64..500, 0u32..6), 0..2500),
        ) {
            let nodes = 2;
            let mut buf = CombineBuf::new(sum_combiner(), nodes);
            let mut model: Vec<ModelHeld> = (0..nodes).map(|_| ModelHeld::default()).collect();
            // Start full, so that what follows rebuilds a grown table.
            let ramp = (1000..1400u64).map(|id| (0, id, 0));
            let mut widest = 0;
            for (op, id, size) in ramp.chain(ops) {
                let dst = partition(&key(id), nodes);
                match op {
                    // Additions that carry a sum across varint widths.
                    0..=6 => {
                        let add = 1u64 << (7 * size);
                        let merged = fold(&mut buf, id, add);
                        prop_assert_eq!(merged, model[dst].sums.contains_key(&id));
                        model[dst].fold(id, add);
                    }
                    // A partial drain, as a task end's.
                    7 => {
                        let n = size as usize * 9;
                        prop_assert_eq!(drain(&mut buf, dst, n), model[dst].drain(n));
                    }
                    // A shed: the older half of every destination.
                    8 => {
                        for (dst, m) in model.iter_mut().enumerate() {
                            let half = m.order.len().div_ceil(2);
                            prop_assert_eq!(drain(&mut buf, dst, half), m.drain(half));
                        }
                    }
                    // A flush.
                    _ => prop_assert_eq!(drain(&mut buf, dst, usize::MAX), model[dst].drain(usize::MAX)),
                }
                let held: usize = model.iter().map(|m| m.order.len()).sum();
                prop_assert_eq!(buf.entries(), held);
                prop_assert_eq!(buf.bytes, buf.held.iter().map(Held::footprint).sum::<usize>());
                widest = widest.max(buf.held[0].table.len());
            }
            for (dst, m) in model.iter_mut().enumerate() {
                prop_assert_eq!(drain(&mut buf, dst, usize::MAX), m.drain(usize::MAX));
            }
            prop_assert_eq!((buf.entries(), buf.bytes), (0, 0));
            let [offered, folded, drained] = buf.tally;
            prop_assert_eq!(offered, folded + drained);
            prop_assert!(widest >= 3 * TABLE_MIN, "{}", widest);
        }
    }

    // --------------------------------------------------- the drain rule

    /// A combiner over opaque values: the partial held stays.
    struct KeepFirst;

    impl Combiner for KeepFirst {
        fn combine(&self, _key: &[u8], a: &[u8], _b: &[u8], out: &mut Vec<u8>) {
            out.extend_from_slice(a);
        }
    }

    /// loader -Hash+combiner-> reduce on node 0 of `nodes`: the plan,
    /// whose loader (flowlet 0) has the one combining port.
    fn combining_plan(nodes: usize, cap: usize, combiner: Arc<dyn Combiner>) -> Arc<ExecPlan> {
        let mut b = crate::JobBuilder::new("outbuf-combine");
        let l = b.add_loader("test", crate::typed::pairs_loader(Vec::<(u64, u64)>::new()));
        let r = b.add_reduce(
            "sum",
            crate::typed::reduce_fn(|_: u64, _: Vec<u64>, _: &mut crate::Emitter| {}),
        );
        b.connect_combined(l, r, Exchange::Hash, combiner);
        let cfg = crate::RuntimeConfig {
            bin_capacity: cap,
            // Pinned, so an ambient HAMR_SKEW cannot take the buffers away.
            skew: crate::SkewConfig::default(),
            ..Default::default()
        };
        ExecPlan::compile(
            &Arc::new(b.build().unwrap()),
            &cfg,
            nodes,
            &crate::ResidentStore::new(),
        )
    }

    fn task(plan: &ExecPlan, shelf: &CombineShelf) -> TaskOutput {
        TaskOutput::new(plan, 0, 0, 0, &Observe::default(), shelf)
    }

    /// The ids 0.. whose keys hash home to `dst`, `n` of them.
    fn ids_homed_at(dst: NodeId, nodes: usize, n: usize) -> Vec<u64> {
        let homed = (0..).filter(|&id| partition(&id.to_bytes(), nodes) == dst);
        homed.take(n).collect()
    }

    fn ids_in(bin: &FrameBin) -> Vec<u64> {
        let keys = bin.frame.iter().map(|(k, _)| u64::from_bytes(k).unwrap());
        keys.collect()
    }

    #[test]
    fn a_window_at_the_low_water_mark_keeps_every_partial_held() {
        let (nodes, cap) = (2, 10);
        let plan = combining_plan(nodes, cap, sum_combiner());
        let (shelf, flow) = (shelf(1), flow_control(nodes, 32));
        for dst in 0..nodes {
            for _ in 0..COMBINE_LOW_WATER {
                assert!(flow.try_reserve(dst));
            }
        }
        let mut out = task(&plan, &shelf);
        for id in 0..100u64 {
            out.emit_encoded(0, &id, &1u64);
            out.emit_encoded(0, &id, &1u64);
        }
        let parts = out.into_parts(&shelf, &flow);
        assert!(parts.bins.is_empty(), "nothing ships into a busy window");
        assert_eq!(parts.combined, 100);
        assert_eq!(shelf.held_entries(0), 100);

        // The next task finds them: its duplicates fold into partials
        // an earlier task started, and with k slots under the mark on
        // one destination it closes at most k bins, oldest keys first.
        let k = 2;
        for _ in 0..k {
            flow.inflight[1].fetch_sub(1, Ordering::AcqRel);
        }
        let mut out = task(&plan, &shelf);
        for id in 0..100u64 {
            out.emit_encoded(0, &id, &1u64);
        }
        let parts = out.into_parts(&shelf, &flow);
        assert_eq!(parts.combined, 100, "every record met a held partial");
        assert_eq!(parts.bins.len(), k);
        let oldest = ids_homed_at(1, nodes, k * cap);
        for (i, (dst, bin)) in parts.bins.iter().enumerate() {
            assert_eq!(*dst, 1);
            assert_eq!(ids_in(bin), oldest[i * cap..(i + 1) * cap]);
            for (_, v) in bin.frame.iter() {
                assert_eq!(u64::from_bytes(v).unwrap(), 3);
            }
        }
        assert_eq!(shelf.held_entries(0), 100 - k * cap);
    }

    #[test]
    fn an_idle_window_drains_every_task_and_a_small_one_lowers_the_mark() {
        let (nodes, cap) = (2, 10);
        let plan = combining_plan(nodes, cap, sum_combiner());
        // Nothing in flight: 8 bins of room take all 50 partials a
        // destination has, as the per-task flush did.
        let (shelf_idle, flow) = (shelf(1), flow_control(nodes, 32));
        let mut out = task(&plan, &shelf_idle);
        for id in 0..100u64 {
            out.emit_encoded(0, &id, &1u64);
        }
        let parts = out.into_parts(&shelf_idle, &flow);
        assert_eq!(parts.bins.iter().map(|(_, b)| b.len()).sum::<usize>(), 100);
        assert_eq!(shelf_idle.held_entries(0), 0);
        // A window of 3 is a mark of 3: bins beyond it would only park
        // in the deferred queue and suspend the producer.
        let (shelf_small, flow) = (shelf(1), flow_control(nodes, 3));
        let mut out = task(&plan, &shelf_small);
        for id in 0..200u64 {
            out.emit_encoded(0, &id, &1u64);
        }
        let parts = out.into_parts(&shelf_small, &flow);
        for dst in 0..nodes {
            assert_eq!(parts.bins.iter().filter(|(d, _)| *d == dst).count(), 3);
        }
        assert_eq!(shelf_small.held_entries(0), 200 - 2 * 3 * cap);
    }

    #[test]
    fn a_buffer_over_budget_sheds_its_older_half() {
        let (nodes, cap) = (1, 16);
        let plan = combining_plan(nodes, cap, Arc::new(KeepFirst));
        let (shelf, flow) = (shelf(1), flow_control(nodes, 32));
        for _ in 0..COMBINE_LOW_WATER {
            assert!(flow.try_reserve(0));
        }
        // 4 KiB values: the 1 MiB budget is passed once, near key 250.
        let value = vec![7u8; 4096];
        let keys = 300u64;
        let mut out = task(&plan, &shelf);
        for id in 0..keys {
            out.emit(0, &id.to_bytes(), &value);
        }
        let parts = out.into_parts(&shelf, &flow);
        let shed: Vec<u64> = parts.bins.iter().flat_map(|(_, b)| ids_in(b)).collect();
        let held = shelf.held_entries(0);
        assert_eq!(shed.len() + held, keys as usize);
        assert!((100..=140).contains(&shed.len()), "{} shed", shed.len());
        assert_eq!(
            shed,
            (0..shed.len() as u64).collect::<Vec<_>>(),
            "oldest first"
        );
        let buf = shelf.take(0, 0).unwrap();
        assert!(buf.bytes <= COMBINE_BUDGET);
        assert_eq!(buf.bytes, buf.published);
    }

    #[test]
    fn the_flush_drains_every_workers_buffer_and_the_ledger_balances() {
        let (nodes, cap, workers) = (2, 10, 3);
        let plan = combining_plan(nodes, cap, sum_combiner());
        let audit = hamr_trace::Audit::new(1, nodes as u32);
        let obs = Observe {
            audit: audit.clone(),
            ..Default::default()
        };
        let shelf = CombineShelf::new(0, workers, 1, &obs);
        let flow = flow_control(nodes, 32);
        for dst in 0..nodes {
            for _ in 0..COMBINE_LOW_WATER {
                assert!(flow.try_reserve(dst));
            }
        }
        // Each worker runs a task over the same 40 keys and holds them.
        for lane in 0..workers as u32 {
            let mut out = TaskOutput::new(&plan, 0, 0, lane, &obs, &shelf);
            for id in 0..40u64 {
                out.emit_encoded(0, &id, &1u64);
                out.emit_encoded(0, &id, &1u64);
            }
            assert!(out.into_parts(&shelf, &flow).bins.is_empty());
        }
        assert_eq!(shelf.held_entries(0), workers * 40);
        let open = audit.report();
        assert_eq!(open.check().unwrap_err()[0].field, "combined");
        // The flush task, on worker 1, whatever the windows hold.
        let mut out = TaskOutput::new(&plan, 0, 0, 1, &obs, &shelf);
        out.flush_held(&shelf);
        let parts = out.into_parts(&shelf, &flow);
        let shipped: usize = parts.bins.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(shipped, workers * 40);
        assert_eq!(shelf.held_entries(0), 0);
        let row = audit.report().combines[0];
        assert_eq!(
            (row.records_in, row.folded, row.records_out),
            (240, 120, 120)
        );
        // Emit custody was tallied bin by bin as the frames closed.
        assert_eq!(audit.report().total(AuditStage::Emit).records, 120);
    }
}
