//! The open-addressing table behind every byte arena in the workspace:
//! `hamr-core`'s combine-buffer partials (`outbuf::combine::Held`),
//! reduce sub-shard groups (`reduce_state::Groups`) and partial-reduce
//! accumulators ([`Accs`]), and `hamr-kvstore`'s shard stripes. A word
//! is `(low 32 bits of the key's hash) << 32 | offset`: a probe compares
//! that tag before it touches the arena, and the table regrows from its
//! own words, without reading a key. The hash is the caller's
//! [`crate::stable_hash`] of the key, the one that already routed it.

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

    /// Tombstones in the table.
    pub fn tombs(&self) -> usize {
        self.tombs
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
    pub fn reset(&mut self, live: usize) {
        let len = ((live + 1) * 2).next_power_of_two().max(TABLE_MIN);
        self.words.clear();
        self.words.resize(len, SLOT_EMPTY);
        (self.used, self.tombs) = (0, 0);
    }

    /// Insert a word known not to be held.
    pub fn place(&mut self, hash: u64, at: usize) {
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

/// One partial-reduce stripe: each key copied once into an arena, found
/// through a [`Slots`] table whose offsets index `accs`, beside the
/// key's native accumulator. The key is never decoded here, and a fold
/// allocates nothing once the key is held.
pub struct Accs<A> {
    keys: Vec<u8>,
    slots: Slots,
    /// `(key offset, key length, accumulator)`, in first-seen order: 16
    /// bytes for a `u64` sum. A fold moves the value out with `mem::take`.
    accs: Vec<(u32, u32, A)>,
}

impl<A> Default for Accs<A> {
    fn default() -> Self {
        Accs {
            keys: Vec::new(),
            slots: Slots::default(),
            accs: Vec::new(),
        }
    }
}

impl<A: Default> Accs<A> {
    pub fn len(&self) -> usize {
        self.accs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.accs.is_empty()
    }

    /// Replace `key`'s accumulator with `f` of it — `None` on first
    /// sight. `hash` is the key's `stable_hash`, the one that chose the
    /// stripe.
    #[inline]
    pub fn fold(&mut self, hash: u64, key: &[u8], f: impl FnOnce(Option<A>) -> A) {
        if self.slots.is_full() {
            self.slots.grow();
        }
        let (keys, accs) = (&self.keys, &self.accs);
        let is_key = |i: usize| {
            let (at, len, _) = accs[i];
            keys[at as usize..(at + len) as usize] == *key
        };
        match self.slots.probe(hash, is_key) {
            Ok(slot) => {
                let acc = &mut self.accs[self.slots.offset(slot)].2;
                *acc = f(Some(std::mem::take(acc)));
            }
            Err(slot) => {
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

    /// Hand every key and its accumulator to `each`, in first-seen
    /// order.
    pub fn drain(self, mut each: impl FnMut(&[u8], A)) {
        for (at, len, acc) in self.accs {
            let key = &self.keys[at as usize..(at + len) as usize];
            each(key, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable_hash;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Model<A> = BTreeMap<Vec<u8>, A>;

    /// Fold `records` into `accs` and into the `BTreeMap` it must match,
    /// both through `add`. Key 0 is empty; `tagged` gives the keys five
    /// hash tags in all.
    fn fill<A: Default>(
        accs: &mut Accs<A>,
        records: &[(u16, u64)],
        tagged: bool,
        add: impl Fn(Option<A>, u64) -> A,
    ) -> Model<A> {
        let mut reference = Model::new();
        for &(id, v) in records {
            let key = format!("k{id}").into_bytes();
            let key = if id == 0 { &[][..] } else { &key };
            let hash = if tagged {
                u64::from(id % 5)
            } else {
                stable_hash(key)
            };
            accs.fold(hash, key, |acc| add(acc, v));
            let held = reference.remove(key);
            reference.insert(key.to_vec(), add(held, v));
        }
        reference
    }

    fn drained<A: Default>(accs: Accs<A>) -> Model<A> {
        let mut out = Model::new();
        accs.drain(|key, acc| assert!(out.insert(key.to_vec(), acc).is_none(), "a key twice"));
        out
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A stripe's table sums like a `BTreeMap`: the empty key
        /// included, keys whose hashes share a tag (up to 300 keys over
        /// five tags, through every growth of the table) told apart by
        /// their bytes, and a stripe refilled after its drain (an epoch
        /// flush) holding only the second epoch's keys.
        #[test]
        fn accs_match_a_btreemap(
            first in prop::collection::vec((0u16..300, 1u64..1000), 0..600),
            second in prop::collection::vec((0u16..300, 1u64..1000), 0..200),
            tagged in any::<bool>(),
        ) {
            let (mut sums, mut lists) = (Accs::default(), Accs::default());
            for records in [&first, &second] {
                let want = fill(&mut sums, records, tagged, |acc, v| acc.unwrap_or(0) + v);
                prop_assert_eq!(sums.len(), want.len());
                prop_assert_eq!(drained(std::mem::take(&mut sums)), want);
                // A non-`Copy` accumulator, moved out of its entry and
                // back by every fold: each key's values, in order.
                let push = |acc: Option<Vec<u64>>, v| [acc.unwrap_or_default(), vec![v]].concat();
                let want = fill(&mut lists, records, tagged, push);
                prop_assert_eq!(drained(std::mem::take(&mut lists)), want);
            }
        }
    }
}
