use super::combine::*;
use super::flow::*;
use super::output::*;
use crate::graph::Exchange;
use crate::node::NetMsg;
use crate::plan::ExecPlan;
use crate::record::FrameBin;
use crate::NodeId;
use crossbeam::channel::Receiver;
use hamr_codec::slots::TABLE_MIN;
use hamr_codec::stable_hash;
use hamr_codec::{partition, Frame};
use hamr_simnet::Envelope;
use hamr_trace::{AuditStage, Observe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The output of one task of a loader named "test" with one port
/// per entry of `exchanges` (edge id == port), compiled the way a
/// job's would be, beside the network its bins leave through under a
/// flow-control window of `window` bins.
fn out_with(
    exchanges: &[Exchange],
    node: NodeId,
    nodes: usize,
    cap: usize,
    capture: bool,
    window: usize,
) -> (TaskOutput, Net) {
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
    let store = crate::ResidentStore::new(&Default::default());
    let plan = ExecPlan::compile(&Arc::new(b.build().unwrap()), &cfg, nodes, &store);
    let obs = Observe::default();
    let net = Net::new(nodes, window);
    (
        TaskOutput::new(&plan, l, node, 0, &obs, &shelf(1), &net.flow),
        net,
    )
}

fn out(exchanges: &[Exchange], node: NodeId, nodes: usize, cap: usize) -> (TaskOutput, Net) {
    out_with(exchanges, node, nodes, cap, true, 32)
}

/// One worker's shelf on node 0.
fn shelf(edges: usize) -> CombineShelf {
    CombineShelf::new(0, 1, edges, &Observe::default())
}

/// Node 0's flow control for one flowlet's ports (up to four edges),
/// over an instant fabric whose inboxes the test reads.
struct Net {
    flow: Arc<FlowControl>,
    inboxes: Vec<Receiver<Envelope<NetMsg>>>,
}

impl Net {
    fn new(nodes: usize, window: usize) -> Net {
        let fabric = hamr_simnet::Fabric::<NetMsg>::new(nodes, hamr_simnet::NetConfig::instant());
        let endpoint = fabric.endpoint(0).unwrap();
        let flow = FlowControl::new(0, nodes, window, 4, 1, endpoint, &Observe::default());
        Net {
            flow: Arc::new(flow),
            inboxes: (0..nodes).map(|n| fabric.receiver(n).unwrap()).collect(),
        }
    }

    /// The bins that have arrived since the last call, decoded, with
    /// their destinations: destination by destination, each in the
    /// order they were shipped.
    fn shipped(&self) -> Vec<(NodeId, FrameBin)> {
        let mut bins = Vec::new();
        for (dst, inbox) in self.inboxes.iter().enumerate() {
            while let Ok(env) = inbox.try_recv() {
                let bin = match env.msg {
                    NetMsg::Bin(bin) => bin,
                    NetMsg::Coded(coded) => coded.decode().unwrap(),
                    _ => continue,
                };
                bins.push((dst, bin));
            }
        }
        bins
    }
}

/// End the task: what it shipped, and its captured frames.
fn finish(o: TaskOutput, net: &Net) -> (Vec<(NodeId, FrameBin)>, Vec<Frame>) {
    let parts = o.into_parts(&shelf(1));
    (net.shipped(), parts.captured)
}

#[test]
fn local_exchange_stays_on_node() {
    let (mut o, net) = out(&[Exchange::Local], 2, 4, 100);
    o.emit(0, b"k", b"v");
    let (bins, _) = finish(o, &net);
    assert_eq!(bins.len(), 1);
    assert_eq!(bins[0].0, 2);
    assert_eq!(bins[0].1.edge, 0);
    assert_eq!(bins[0].1.len(), 1);
}

#[test]
fn hash_exchange_routes_by_key() {
    let nodes = 4;
    let (mut o, net) = out(&[Exchange::Hash], 0, nodes, 1000);
    for i in 0..100u64 {
        o.emit(0, format!("key{i}").as_bytes(), b"v");
    }
    let (bins, _) = finish(o, &net);
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
    let (mut o, net) = out(&[Exchange::KeyNode], 0, nodes, 100);
    for node in 0..6u64 {
        o.emit(0, &hamr_codec::Codec::to_bytes(&node), b"v");
    }
    let (bins, _) = finish(o, &net);
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
    let (mut o, net) = out(&[Exchange::Broadcast], 0, 3, 10);
    o.emit(0, b"k", b"v");
    let (bins, _) = finish(o, &net);
    let mut dsts: Vec<_> = bins.iter().map(|(d, _)| *d).collect();
    dsts.sort_unstable();
    assert_eq!(dsts, vec![0, 1, 2]);
}

#[test]
fn broadcast_encodes_once_and_clones() {
    // A window of zero parks every bin as it closes, uncoded, so the
    // frames the destinations were handed are still in view.
    let (mut o, net) = out_with(&[Exchange::Broadcast], 0, 3, 10, true, 0);
    o.emit(0, b"key", b"value");
    o.emit(0, b"key2", b"value2");
    let (shipped, _) = finish(o, &net);
    assert!(shipped.is_empty());
    let parked = net.flow.deferred_payloads();
    let mut dsts: Vec<_> = parked.iter().map(|&(d, _)| d).collect();
    dsts.sort_unstable();
    assert_eq!(dsts, vec![0, 1, 2]);
    // All three destinations share one payload allocation.
    let first = parked[0].1;
    assert!(parked.iter().all(|&(_, ptr)| ptr == first));
}

#[test]
fn broadcast_closes_full_frames_per_capacity() {
    let nodes = 2;
    let (mut o, net) = out(&[Exchange::Broadcast], 0, nodes, 3);
    for i in 0..7u64 {
        o.emit(0, &i.to_le_bytes(), b"v");
    }
    let (bins, _) = finish(o, &net);
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
    let (mut o, net) = out(&[Exchange::Local], 0, 1, 3);
    for i in 0..7u64 {
        o.emit(0, &i.to_le_bytes(), b"v");
    }
    let (bins, _) = finish(o, &net);
    // 7 records at capacity 3 -> bins of 3, 3, 1.
    let sizes: Vec<_> = bins.iter().map(|(_, b)| b.len()).collect();
    assert_eq!(sizes, vec![3, 3, 1]);
}

#[test]
fn emit_encoded_round_trips_typed_pairs() {
    let (mut o, net) = out(&[Exchange::Local], 0, 1, 10);
    o.emit_encoded(0, &"word".to_string(), &7u64);
    let (bins, _) = finish(o, &net);
    let (key, value) = bins[0].1.frame.iter().next().unwrap();
    let k: String = hamr_codec::Codec::from_bytes(key).unwrap();
    let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
    assert_eq!((k.as_str(), v), ("word", 7));
}

/// Captured pairs land in frames that close every `bin_capacity`
/// entries, like a port's bins, and once more at the task's end.
#[test]
fn capture_collects_when_enabled() {
    let (mut o, net) = out(&[], 0, 1, 10);
    for i in 0..24u64 {
        o.capture_encoded(&i, &i);
    }
    o.capture(b"k", b"v");
    let (bins, captured) = finish(o, &net);
    assert!(bins.is_empty());
    let sizes: Vec<usize> = captured.iter().map(Frame::entries).collect();
    assert_eq!(sizes, [10, 10, 5]);
    let mut pairs = captured.iter().flat_map(Frame::iter);
    assert!((0..24u64).all(|i| pairs.next() == Some((&i.to_bytes()[..], &i.to_bytes()[..]))));
    assert_eq!(pairs.next(), Some((&b"k"[..], &b"v"[..])));
}

#[test]
fn capture_ignored_when_disabled() {
    let (mut o, net) = out_with(&[], 0, 1, 10, false, 32);
    o.capture(b"k", b"v");
    o.capture_encoded(&1u64, &2u64);
    let (_, captured) = finish(o, &net);
    assert!(captured.is_empty());
}

/// Fewer than `bin_capacity` pairs: one frame, so one allocation,
/// holding every pair in capture order, empty ones included.
#[test]
fn a_tasks_captured_pairs_are_views_of_one_arena() {
    const N: u64 = 200;
    let (mut o, net) = out(&[], 0, 1, 1000);
    for i in 0..N {
        o.capture_encoded(&i, &(i * 3));
    }
    o.capture(b"", b"");
    let (_, captured) = finish(o, &net);
    assert_eq!(captured.len(), 1);
    let frame = &captured[0];
    assert_eq!(frame.entries(), N as usize + 1);
    let typed: Vec<(u64, u64)> = (frame.iter().take(N as usize))
        .map(|(k, v)| (u64::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
        .collect();
    assert_eq!(typed, (0..N).map(|i| (i, i * 3)).collect::<Vec<_>>());
    assert_eq!(frame.iter().last(), Some((&b""[..], &b""[..])));
}

#[test]
#[should_panic(expected = "port 1")]
fn emitting_on_unconnected_port_panics() {
    let (mut o, _net) = out(&[Exchange::Local], 0, 1, 10);
    o.emit(1, b"k", b"v");
}

#[test]
fn multiple_ports_route_independently() {
    let (mut o, net) = out(&[Exchange::Local, Exchange::Broadcast], 1, 2, 100);
    o.emit(0, b"a", b"1");
    o.emit(1, b"b", b"2");
    let (bins, _) = finish(o, &net);
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

/// A buffer of `u64` sums for `nodes` destinations.
fn sums(nodes: usize) -> CombineBuf {
    CombineBuf::new(sum_combiner().as_ref(), nodes)
}

#[test]
fn duplicates_fold_in_place_and_partials_leave_oldest_first() {
    let mut buf = sums(1);
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
fn the_table_grows_and_partial_drains_rebuild_it() {
    let mut buf = sums(1);
    let keys = 10 * TABLE_MIN as u64;
    for id in 0..keys {
        assert!(!fold(&mut buf, id, id));
    }
    // Past three quarters of the first table's words, it grew.
    let entries: usize = (0..keys).map(|id| key(id).len() + 24).sum();
    assert!(
        buf.bytes - entries >= 8 * 2 * TABLE_MIN,
        "{} bytes",
        buf.bytes
    );
    // Drain from the head in small bites, refolding the youngest in
    // between: a table more than half drained compacts, so it never
    // holds more than a few times what the live partials alone need.
    let mut next = 0;
    while buf.entries() > 0 {
        let got = drain(&mut buf, 0, 37);
        for (k, v) in got {
            assert_eq!((k, v), (key(next), next));
            next += 1;
        }
        if next < keys {
            assert!(fold(&mut buf, keys - 1, 0), "the youngest is still found");
            let mut live = sums(1);
            for id in next..keys {
                fold(&mut live, id, id);
            }
            assert!(
                buf.bytes <= 6 * live.bytes,
                "{} bytes held for {} live partials ({} bytes alone)",
                buf.bytes,
                keys - next,
                live.bytes
            );
        }
    }
    assert_eq!(next, keys);
    assert_eq!(buf.bytes, 0);
}

#[test]
fn only_a_new_key_moves_the_footprint() {
    let mut buf = sums(1);
    // Three quarters of the first table's words: the next new key
    // grows it, a merge does not.
    let full = TABLE_MIN as u64 * 3 / 4;
    for id in 0..full {
        fold(&mut buf, id, 1);
    }
    let before = buf.held[0].footprint();
    assert!(fold(&mut buf, 0, 1));
    assert_eq!((buf.bytes, buf.held[0].footprint()), (before, before));
    assert!(!fold(&mut buf, full, 1));
    assert!(buf.bytes > before + 8 * TABLE_MIN, "the table grew");
    assert_eq!(buf.bytes, buf.held[0].footprint());
}

#[test]
fn a_new_key_that_fills_a_partly_drained_table_compacts_it() {
    let mut buf = sums(1);
    for id in 0..96 {
        fold(&mut buf, id, 1);
    }
    // Under half drained: no compaction yet.
    let before = buf.bytes;
    assert_eq!(drain(&mut buf, 0, 40).len(), 40);
    assert_eq!(buf.bytes, before);
    // New keys fill the table's words, drained ones included, until a
    // fold compacts: the footprint falls, and is still exact.
    let mut id = 96;
    while buf.bytes >= before {
        assert!(!fold(&mut buf, id, 1));
        assert_eq!(buf.bytes, buf.held[0].footprint());
        id += 1;
    }
    for live in 40..id {
        assert!(fold(&mut buf, live, 1), "key {live} lost");
    }
    let left = drain(&mut buf, 0, usize::MAX);
    assert_eq!(left.first(), Some(&(key(40), 2)), "oldest first");
    assert_eq!(left.len() as u64, id - 40);
}

/// One destination's partials as the model keeps them: first-seen
/// order and each key's sum.
#[derive(Default)]
struct ModelHeld {
    order: Vec<u64>,
    sums: BTreeMap<u64, u64>,
}

impl ModelHeld {
    fn fold(&mut self, id: u64, add: u64) {
        match self.sums.get_mut(&id) {
            Some(sum) => *sum += add,
            None => {
                self.sums.insert(id, add);
                self.order.push(id);
            }
        }
    }

    fn drain(&mut self, n: usize) -> Vec<(Vec<u8>, u64)> {
        let n = n.min(self.order.len());
        let gone = self.order.drain(..n);
        gone.map(|id| (key(id), self.sums.remove(&id).unwrap()))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random folds, partial drains and sheds against a
    /// `BTreeMap<key, sum>` model that also keeps first-seen order:
    /// what a drain hands over is exactly the model's oldest partials
    /// with the model's sums — nothing lost, nothing twice, a drained
    /// key folded again at the tail — `bytes` is the tables' footprint
    /// throughout, and an emptied buffer accounts for 0 bytes.
    #[test]
    fn combine_buf_matches_a_model(
        ops in prop::collection::vec((0u8..10, 0u64..500, 0u32..6), 0..2500),
    ) {
        let nodes = 2;
        let mut buf = sums(nodes);
        let mut model: Vec<ModelHeld> = (0..nodes).map(|_| ModelHeld::default()).collect();
        // Start full, so that what follows compacts a grown table.
        let ramp = (1000..1400u64).map(|id| (0, id, 0));
        let mut most = 0;
        for (op, id, size) in ramp.chain(ops) {
            let dst = partition(&key(id), nodes);
            match op {
                // Additions of every varint width.
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
            prop_assert_eq!(buf.bytes, buf.held.iter().map(|h| h.footprint()).sum::<usize>());
            most = most.max(buf.held[0].entries());
        }
        for (dst, m) in model.iter_mut().enumerate() {
            prop_assert_eq!(drain(&mut buf, dst, usize::MAX), m.drain(usize::MAX));
        }
        prop_assert_eq!((buf.entries(), buf.bytes), (0, 0));
        let [offered, folded, drained] = buf.tally;
        prop_assert_eq!(offered, folded + drained);
        prop_assert!(most > TABLE_MIN, "{}", most);
    }
}

// --------------------------------------------------- the drain rule

/// loader -Hash+combiner-> reduce on node 0 of `nodes`: the plan,
/// whose loader (flowlet 0) has the one combining port.
fn combining_plan(nodes: usize, cap: usize, combiner: Arc<dyn Combiner>) -> Arc<ExecPlan> {
    let mut b = crate::JobBuilder::new("outbuf-combine");
    let l = b.add_loader("test", crate::typed::pairs_loader(Vec::<(u64, u64)>::new()));
    let r = b.add_reduce(
        "sum",
        crate::typed::reduce_fn(|_: u64, _: crate::typed::Values<u64>, _: &mut crate::Emitter| {}),
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
        &crate::ResidentStore::new(&Default::default()),
    )
}

fn task(plan: &ExecPlan, shelf: &CombineShelf, net: &Net) -> TaskOutput {
    TaskOutput::new(plan, 0, 0, 0, &Observe::default(), shelf, &net.flow)
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
    let (shelf, net) = (shelf(1), Net::new(nodes, 32));
    for dst in 0..nodes {
        for _ in 0..COMBINE_LOW_WATER {
            assert!(net.flow.try_reserve(dst));
        }
    }
    let mut out = task(&plan, &shelf, &net);
    for id in 0..100u64 {
        out.emit_encoded(0, &id, &1u64);
        out.emit_encoded(0, &id, &1u64);
    }
    let parts = out.into_parts(&shelf);
    assert!(net.shipped().is_empty(), "nothing ships into a busy window");
    assert_eq!(parts.combined, 100);
    assert_eq!(shelf.held_entries(0), 100);

    // The next task finds them: its duplicates fold into partials
    // an earlier task started, and with k slots under the mark on
    // one destination it closes at most k bins, oldest keys first.
    let k = 2;
    for _ in 0..k {
        net.flow.inflight[1].fetch_sub(1, Ordering::AcqRel);
    }
    let mut out = task(&plan, &shelf, &net);
    for id in 0..100u64 {
        out.emit_encoded(0, &id, &1u64);
    }
    let parts = out.into_parts(&shelf);
    assert_eq!(parts.combined, 100, "every record met a held partial");
    let bins = net.shipped();
    assert_eq!(bins.len(), k);
    let oldest = ids_homed_at(1, nodes, k * cap);
    for (i, (dst, bin)) in bins.iter().enumerate() {
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
    let (shelf_idle, net) = (shelf(1), Net::new(nodes, 32));
    let mut out = task(&plan, &shelf_idle, &net);
    for id in 0..100u64 {
        out.emit_encoded(0, &id, &1u64);
    }
    out.into_parts(&shelf_idle);
    let shipped = net.shipped().iter().map(|(_, b)| b.len()).sum::<usize>();
    assert_eq!(shipped, 100);
    assert_eq!(shelf_idle.held_entries(0), 0);
    // A window of 3 is a mark of 3: bins beyond it would only park
    // in the deferred queue and suspend the producer.
    let (shelf_small, net) = (shelf(1), Net::new(nodes, 3));
    let mut out = task(&plan, &shelf_small, &net);
    for id in 0..200u64 {
        out.emit_encoded(0, &id, &1u64);
    }
    out.into_parts(&shelf_small);
    let bins = net.shipped();
    for dst in 0..nodes {
        assert_eq!(bins.iter().filter(|(d, _)| *d == dst).count(), 3);
    }
    assert_eq!(shelf_small.held_entries(0), 200 - 2 * 3 * cap);
}

#[test]
fn a_buffer_over_budget_sheds_its_older_half() {
    let (nodes, cap) = (1, 16);
    let plan = combining_plan(nodes, cap, sum_combiner());
    let (shelf, net) = (shelf(1), Net::new(nodes, 32));
    for _ in 0..COMBINE_LOW_WATER {
        assert!(net.flow.try_reserve(0));
    }
    // 4 KiB keys: the 1 MiB budget is passed once, near key 250.
    let big = |id: u64| format!("{id:04096}");
    let keys = 300u64;
    let mut out = task(&plan, &shelf, &net);
    for id in 0..keys {
        out.emit_encoded(0, &big(id), &1u64);
    }
    out.into_parts(&shelf);
    let bins = net.shipped();
    let shed: Vec<u64> = bins
        .iter()
        .flat_map(|(_, b)| b.frame.iter())
        .map(|(k, _)| String::from_bytes(k).unwrap().parse().unwrap())
        .collect();
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
    let net = Net::new(nodes, 32);
    for dst in 0..nodes {
        for _ in 0..COMBINE_LOW_WATER {
            assert!(net.flow.try_reserve(dst));
        }
    }
    // Each worker runs a task over the same 40 keys and holds them.
    for lane in 0..workers as u32 {
        let mut out = TaskOutput::new(&plan, 0, 0, lane, &obs, &shelf, &net.flow);
        for id in 0..40u64 {
            out.emit_encoded(0, &id, &1u64);
            out.emit_encoded(0, &id, &1u64);
        }
        out.into_parts(&shelf);
        assert!(net.shipped().is_empty());
    }
    assert_eq!(shelf.held_entries(0), workers * 40);
    let open = audit.report();
    assert_eq!(open.check().unwrap_err()[0].field, "combined");
    // The flush task, on worker 1, whatever the windows hold.
    let mut out = TaskOutput::new(&plan, 0, 0, 1, &obs, &shelf, &net.flow);
    out.flush_held(&shelf);
    out.into_parts(&shelf);
    let shipped: usize = net.shipped().iter().map(|(_, b)| b.len()).sum();
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
