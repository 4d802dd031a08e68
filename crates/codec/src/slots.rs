//! The open-addressing table behind every byte arena in the workspace:
//! `hamr-core`'s reduce sub-shard groups (`reduce_state::Groups`) and
//! its tables of native accumulators ([`Accs`]: the partial-reduce
//! stripes and the combine buffers' partials), and `hamr-kvstore`'s
//! shard stripes. A word is `(low 32 bits of the key's hash) << 32 |
//! offset`: a probe compares that tag before it touches the arena, and
//! the table regrows from its own words, without reading a key. The
//! hash is the caller's [`crate::stable_hash`] of the key, the one that
//! already routed it.

/// An arena stays below this, which keeps every offset inside a word's
/// low half and off the two reserved words.
pub const ARENA_MAX: usize = 1 << 31;
pub const TABLE_MIN: usize = 64;
const SLOT_EMPTY: u64 = u64::MAX;
const SLOT_TOMB: u64 = u64::MAX - 1;

/// The little-endian `u32` at `at`: arena headers are made of these.
#[inline]
pub fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// Linear-probed, a power of two long (or empty while nothing is held),
/// at most three quarters occupied by words and tombstones.
#[derive(Default)]
pub struct Slots {
    words: Vec<u64>,
    /// Words in use, tombstones included.
    used: usize,
    tombs: usize,
}

impl Slots {
    /// Where a tag starts probing: the high bits of a multiplicative
    /// scramble, because the tag's low bits may be the ones that chose
    /// the destination node, which every key held here shares.
    #[inline]
    fn start(&self, hash: u64) -> usize {
        ((hash & 0xFFFF_FFFF).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
            & (self.words.len() - 1)
    }

    #[inline]
    fn word(hash: u64, at: usize) -> u64 {
        (hash << 32) | at as u64
    }

    /// Words in the table, live or not.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True while the table has no words: nothing was placed since it
    /// was built or [`Slots::clear`]ed, and a probe needs a grow first.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// True when one more word would pass three quarters: grow (or
    /// rebuild) before the next probe that may insert.
    #[inline]
    pub fn is_full(&self) -> bool {
        (self.used + 1) * 4 > self.words.len() * 3
    }

    /// `Ok` with the slot of the entry whose offset `is_key` accepts
    /// among those tagged like `hash`, else `Err` with the slot (the
    /// first tombstone passed, or the empty one) a new entry takes — the
    /// shape of `slice::binary_search`'s answer.
    #[inline]
    pub fn probe(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.words.len() - 1;
        let mut slot = self.start(hash);
        let mut reuse = None;
        loop {
            match self.words[slot] {
                SLOT_EMPTY => return Err(reuse.unwrap_or(slot)),
                SLOT_TOMB => {
                    reuse.get_or_insert(slot);
                }
                word if word >> 32 == hash & 0xFFFF_FFFF && is_key(self.offset(slot)) => {
                    return Ok(slot)
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The arena offset a live slot points at.
    #[inline]
    pub fn offset(&self, slot: usize) -> usize {
        (self.words[slot] & 0xFFFF_FFFF) as usize
    }

    /// Point `slot` (a probe's answer) at the entry at `at`.
    #[inline]
    pub fn set(&mut self, slot: usize, hash: u64, at: usize) {
        match self.words[slot] {
            SLOT_EMPTY => self.used += 1,
            SLOT_TOMB => self.tombs -= 1,
            _ => {}
        }
        self.words[slot] = Self::word(hash, at);
    }

    /// Tombstone the word of the live entry at `at`.
    pub fn unlink(&mut self, hash: u64, at: usize) {
        let slot = self
            .probe(hash, |a| a == at)
            .expect("live entry in the table");
        self.words[slot] = SLOT_TOMB;
        self.tombs += 1;
    }

    /// Empty, sized for `live` entries at no more than half full; refill
    /// with [`Slots::place`].
    fn reset(&mut self, live: usize) {
        let len = ((live + 1) * 2).next_power_of_two().max(TABLE_MIN);
        self.words.clear();
        self.words.resize(len, SLOT_EMPTY);
        (self.used, self.tombs) = (0, 0);
    }

    /// Insert a word known not to be held.
    fn place(&mut self, hash: u64, at: usize) {
        let slot = self.probe(hash, |_| false).unwrap_err();
        self.set(slot, hash, at);
    }

    /// Rebuild at no more than half full, without tombstones: the
    /// offsets do not move, so the words re-place themselves.
    pub fn grow(&mut self) {
        let old = std::mem::take(&mut self.words);
        self.reset(self.used - self.tombs);
        for word in old.into_iter().filter(|&w| w < SLOT_TOMB) {
            self.place(word >> 32, (word & 0xFFFF_FFFF) as usize);
        }
    }

    /// Forget every word; the capacity stays for the next fill.
    pub fn clear(&mut self) {
        self.words.clear();
        (self.used, self.tombs) = (0, 0);
    }

    /// Forget every word but keep the table's length, so a refill of as
    /// many entries neither grows nor allocates.
    pub fn wipe(&mut self) {
        self.words.fill(SLOT_EMPTY);
        (self.used, self.tombs) = (0, 0);
    }

    /// Tombstone every live word whose offset `keep` rejects; returns
    /// how many went.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) -> usize {
        let mut gone = 0;
        for word in self.words.iter_mut().filter(|w| **w < SLOT_TOMB) {
            if !keep((*word & 0xFFFF_FFFF) as usize) {
                *word = SLOT_TOMB;
                gone += 1;
            }
        }
        self.tombs += gone;
        gone
    }

    /// Point every live word at `to` of its offset, in table order: an
    /// arena compaction moves its entries without a re-probe, because
    /// no tag changes.
    pub fn remap(&mut self, mut to: impl FnMut(usize) -> usize) {
        for word in self.words.iter_mut().filter(|w| **w < SLOT_TOMB) {
            let at = to((*word & 0xFFFF_FFFF) as usize);
            *word = (*word & !0xFFFF_FFFF) | at as u64;
        }
    }

    /// The offsets of the live entries, in table order.
    pub fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len())
            .filter(|&s| self.words[s] < SLOT_TOMB)
            .map(|s| self.offset(s))
    }
}

/// A table of native accumulators: each key copied once into an arena,
/// found through a [`Slots`] table whose offsets index `accs`, beside
/// the key's accumulator. The key is never decoded here, and a fold
/// allocates nothing once the key is held. One partial-reduce stripe
/// is one (`Accs<Acc>`); so is one destination of a combine buffer
/// (`Accs<(hash, V)>`), which drains its oldest partials a few at a
/// time and folds on.
pub struct Accs<A> {
    keys: Vec<u8>,
    slots: Slots,
    /// `(key offset, key length, accumulator)`, in first-seen order: 16
    /// bytes for a `u64` sum. A fold moves the value out with `mem::take`.
    accs: Vec<(u32, u32, A)>,
    /// Entries before this one were drained. Their words stay in the
    /// table, which a probe skips, and their keys in the arena, until
    /// the next compaction.
    head: usize,
}

impl<A> Default for Accs<A> {
    fn default() -> Self {
        Accs {
            keys: Vec::new(),
            slots: Slots::default(),
            accs: Vec::new(),
            head: 0,
        }
    }
}

impl<A: Default> Accs<A> {
    /// Keys held, drained ones not counted.
    pub fn len(&self) -> usize {
        self.accs.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of key arena, entries and table, drained entries not yet
    /// compacted away included. An accumulator that owns heap counts
    /// its inline size only.
    pub fn footprint(&self) -> usize {
        self.keys.len()
            + self.accs.len() * std::mem::size_of::<(u32, u32, A)>()
            + self.slots.bytes()
    }

    /// Replace `key`'s accumulator with `f` of it — `None` on first
    /// sight, and on the first sight after the key was drained, which
    /// starts a fresh entry at the tail. `hash` is the key's
    /// `stable_hash`, the one that routed it. Only a new key moves the
    /// footprint: the table grows, or compacts, before it takes one
    /// word too many.
    #[inline]
    pub fn fold(&mut self, hash: u64, key: &[u8], f: impl FnOnce(Option<A>) -> A) {
        if self.slots.is_empty() {
            self.slots.grow();
        }
        match self.probe(hash, key) {
            Ok(slot) => {
                let acc = &mut self.accs[self.slots.offset(slot)].2;
                *acc = f(Some(std::mem::take(acc)));
            }
            Err(mut slot) => {
                if self.slots.is_full() {
                    if self.head == 0 {
                        self.slots.grow();
                    } else {
                        self.compact();
                    }
                    slot = self.probe(hash, key).expect_err("a new key");
                }
                let at = self.keys.len();
                assert!(
                    at + key.len() < ARENA_MAX,
                    "key arena past {ARENA_MAX} bytes"
                );
                self.slots.set(slot, hash, self.accs.len());
                self.keys.extend_from_slice(key);
                self.accs.push((at as u32, key.len() as u32, f(None)));
            }
        }
    }

    /// [`Slots::probe`] for `key`, skipping the drained entries.
    #[inline]
    fn probe(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        let (keys, accs, head) = (&self.keys, &self.accs, self.head);
        self.slots.probe(hash, |i| {
            let (at, len, _) = accs[i];
            i >= head && keys[at as usize..(at + len) as usize] == *key
        })
    }

    /// Hand the `n` oldest keys and their accumulators to `each`, in
    /// first-seen order, and forget them; returns how many there were.
    /// An emptied table keeps its allocations for the next fill; one
    /// left at least half drained is compacted, so a drain of the older
    /// half gives its bytes back at once.
    pub fn drain(&mut self, n: usize, mut each: impl FnMut(&[u8], A)) -> usize {
        let (from, keys) = (self.head, &self.keys);
        let to = self.accs.len().min(from.saturating_add(n));
        for (at, len, acc) in &mut self.accs[from..to] {
            each(
                &keys[*at as usize..(*at + *len) as usize],
                std::mem::take(acc),
            );
        }
        self.head = to;
        if to == self.accs.len() {
            self.keys.clear();
            self.accs.clear();
            self.slots.clear();
            self.head = 0;
        } else if to * 2 >= self.accs.len() {
            self.compact();
        }
        to - from
    }

    /// Squeeze the drained entries and their keys out, and rebuild the
    /// table without their words, at no more than half full. Linear in
    /// what is held; run when the table fills or drains reach half, so
    /// amortised constant per key. Nothing to do while none is drained.
    fn compact(&mut self) {
        let head = std::mem::take(&mut self.head);
        if head == 0 {
            return;
        }
        let cut = self
            .accs
            .get(head)
            .map_or(self.keys.len(), |e| e.0 as usize);
        self.keys.drain(..cut);
        self.accs.drain(..head);
        for (at, _, _) in &mut self.accs {
            *at -= cut as u32;
        }
        self.slots.retain(|i| i >= head);
        self.slots.remap(|i| i - head);
        self.slots.grow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable_hash;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What an [`Accs`] must hold: each key's accumulator beside its
    /// place in first-seen order, and the keys in that order.
    struct Model<A> {
        accs: BTreeMap<Vec<u8>, (u64, A)>,
        order: BTreeMap<u64, Vec<u8>>,
        seen: u64,
    }

    impl<A> Default for Model<A> {
        fn default() -> Self {
            Model {
                accs: BTreeMap::new(),
                order: BTreeMap::new(),
                seen: 0,
            }
        }
    }

    impl<A> Model<A> {
        fn fold(&mut self, key: &[u8], f: impl FnOnce(Option<A>) -> A) {
            match self.accs.remove(key) {
                Some((at, acc)) => {
                    self.accs.insert(key.to_vec(), (at, f(Some(acc))));
                }
                None => {
                    self.seen += 1;
                    self.order.insert(self.seen, key.to_vec());
                    self.accs.insert(key.to_vec(), (self.seen, f(None)));
                }
            }
        }

        fn drain(&mut self, n: usize) -> Vec<(Vec<u8>, A)> {
            let mut out = Vec::new();
            while out.len() < n {
                let Some((_, key)) = self.order.pop_first() else {
                    break;
                };
                let (_, acc) = self.accs.remove(&key).expect("ordered key held");
                out.push((key, acc));
            }
            out
        }
    }

    fn drained<A: Default>(accs: &mut Accs<A>, n: usize) -> Vec<(Vec<u8>, A)> {
        let mut out = Vec::new();
        let taken = accs.drain(n, |key, acc| out.push((key.to_vec(), acc)));
        assert_eq!(taken, out.len());
        out
    }

    /// Run `ops` through `accs` and the model it must match, both
    /// folding through `add`, checking every drain and, after each
    /// step, the count and the compaction bound; then drain it whole.
    /// `(id, v, 0)` drains the `v % 40` oldest keys, any other op folds
    /// `v` into key `id`. Key 0 is empty; `tagged` gives the keys five
    /// hash tags in all.
    fn check<A: Default + PartialEq + std::fmt::Debug>(
        accs: &mut Accs<A>,
        ops: &[(u16, u64, u8)],
        tagged: bool,
        add: impl Fn(Option<A>, u64) -> A,
    ) -> Result<(), String> {
        let mut model = Model::default();
        for &(id, v, op) in ops {
            if op == 0 {
                let n = (v % 40) as usize;
                prop_assert_eq!(drained(accs, n), model.drain(n));
            } else {
                let key = format!("k{id}").into_bytes();
                let key = if id == 0 { &[][..] } else { &key };
                let hash = if tagged {
                    u64::from(id % 5)
                } else {
                    stable_hash(key)
                };
                accs.fold(hash, key, |acc| add(acc, v));
                model.fold(key, |acc| add(acc, v));
            }
            prop_assert_eq!(accs.len(), model.accs.len());
            prop_assert!(
                accs.head * 2 <= accs.accs.len(),
                "drained entries past half"
            );
        }
        prop_assert_eq!(drained(accs, usize::MAX), model.drain(usize::MAX));
        prop_assert_eq!(accs.footprint(), 0);
        Ok(())
    }

    #[test]
    fn map_bits_are_not_the_routing_bits() {
        // Keys that all route to node 1 of 4 and stripe 2 of 4 (the
        // population of one KV stripe or reduce sub-shard) must still
        // spread over the slots their probes start at.
        let mut slots = Slots::default();
        slots.reset(0);
        let mut buckets = [0usize; 16];
        let mut found = 0;
        for i in 0..200_000u64 {
            let h = stable_hash(format!("w{i}").as_bytes());
            if h % 4 == 1 && (h >> 32) % 4 == 2 {
                buckets[slots.start(h) % 16] += 1;
                found += 1;
            }
        }
        let expect = found / 16;
        for (b, &c) in buckets.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "bucket {b} got {c} of {found}: {buckets:?}"
            );
        }
    }

    #[test]
    fn a_partial_drain_compacts_at_half_and_keeps_the_rest_findable() {
        let mut accs = Accs::<u64>::default();
        for id in 0..1000u64 {
            accs.fold(id, &id.to_le_bytes(), |_| id);
        }
        let full = accs.footprint();
        assert_eq!(accs.drain(400, |_, _| {}), 400);
        assert_eq!((accs.head, accs.footprint()), (400, full), "not yet");
        assert_eq!(accs.drain(100, |_, _| {}), 100);
        assert_eq!(accs.head, 0, "compacted");
        assert!(accs.footprint() < full / 2 + 8 * TABLE_MIN);
        for id in 0..1000u64 {
            let mut held = true;
            accs.fold(id, &id.to_le_bytes(), |acc| {
                held = acc.is_some();
                acc.unwrap_or_default()
            });
            assert_eq!(held, id >= 500, "key {id}");
        }
        // The drained keys came back at the tail.
        let mut order = Vec::new();
        accs.drain(usize::MAX, |key, _| {
            order.push(u64::from_le_bytes(key.try_into().unwrap()))
        });
        assert_eq!(order, (500..1000).chain(0..500).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A table folds like a first-seen-ordered `BTreeMap`: the empty
        /// key included, keys whose hashes share a tag (up to 300 keys
        /// over five tags, through every growth of the table) told
        /// apart by their bytes, oldest-first partial drains between
        /// the folds handing over exactly the model's oldest keys, a
        /// drained key folded again starting fresh at the tail, and a
        /// table emptied by a drain (an epoch flush) refilled with the
        /// second epoch's keys only.
        #[test]
        fn accs_match_a_btreemap(
            first in prop::collection::vec((0u16..300, 1u64..1000, 0u8..12), 0..800),
            second in prop::collection::vec((0u16..300, 1u64..1000, 0u8..12), 0..200),
            tagged in any::<bool>(),
        ) {
            let (mut sums, mut lists) = (Accs::default(), Accs::default());
            for ops in [&first, &second] {
                check(&mut sums, ops, tagged, |acc, v| acc.unwrap_or(0) + v)?;
                // A non-`Copy` accumulator, moved out of its entry and
                // back by every fold: each key's values, in order.
                let push = |acc: Option<Vec<u64>>, v| [acc.unwrap_or_default(), vec![v]].concat();
                check(&mut lists, ops, tagged, push)?;
            }
        }
    }
}
