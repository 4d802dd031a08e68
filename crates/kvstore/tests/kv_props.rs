//! Differential test: a KV shard — 16 lock stripes, each a byte arena
//! found through the engine's probing table — against a `BTreeMap`
//! model, under puts that replace in place and by append (with
//! compactions), removes that leave tombstones, namespace removals that
//! empty stripes, clears, and enough keys to grow every stripe's table.

use hamr_codec::stable_hash;
use hamr_kvstore::{KvStore, Shard};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Key pairs whose `stable_hash`es agree on their low 36 bits: the
/// 32-bit tag a probe compares and the four bits above it that pick the
/// stripe. Each pair shares a stripe and a tag, so only the key bytes
/// tell its two keys apart.
const TWINS: [(&str, &str); 8] = [
    ("c250922", "c5089051"),
    ("c2942499", "c7217237"),
    ("c2615653", "c5478652"),
    ("c1646642", "c6753583"),
    ("c6756", "c2085930"),
    ("c52721", "c5359325"),
    ("c243718", "c384850"),
    ("c2182633", "c2209448"),
];

/// Keys `0..16` are the twins, 16 is the empty key, the rest spread
/// over the namespaces `a/`, `b/` and `c/`.
const KEYS: usize = 1_217;

fn key(id: usize) -> Vec<u8> {
    match id {
        0..=15 => {
            let (a, b) = TWINS[id / 2];
            [a, b][id % 2].as_bytes().to_vec()
        }
        16 => Vec::new(),
        _ => format!("{}/{}", ["a", "b", "c"][id % 3], id / 3).into_bytes(),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Put a value of this length and fill byte.
    Put(usize, usize, u8),
    /// Put `n` consecutive keys from `first`: tables grow.
    Fill(usize, usize, usize),
    Remove(usize),
    RemovePrefix(&'static str),
    Clear,
    /// Compare every observable against the model.
    Check,
}

/// Half the picks land on the twins and the empty key.
fn id() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..17, 17usize..KEYS]
}

/// Mostly short values, so replaces often keep the length and write in
/// place; now and then a long one, which piles up dead bytes.
fn put() -> impl Strategy<Value = Op> {
    let vlen = prop_oneof![0usize..4, 0usize..40, Just(300usize)];
    (id(), vlen, any::<u8>()).prop_map(|(k, n, b)| Op::Put(k, n, b))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let prefix = prop::sample::select(vec!["a/", "b/", "c", "a/1", ""]);
    prop_oneof![
        put(),
        put(),
        (17usize..KEYS, 1usize..300, 0usize..12).prop_map(|(k, n, v)| Op::Fill(k, n, v)),
        id().prop_map(Op::Remove),
        prefix.prop_map(Op::RemovePrefix),
        prop_oneof![Just(Op::Clear), Just(Op::Check)],
    ]
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn check(shard: &Shard, model: &Model) -> Result<(), String> {
    let mut seen = Model::new();
    shard.for_each(|k, v| {
        assert!(seen.insert(k.to_vec(), v.to_vec()).is_none(), "{k:?} twice");
    });
    prop_assert_eq!(&seen, model);
    prop_assert_eq!(shard.len(), model.len());
    prop_assert_eq!(shard.is_empty(), model.is_empty());
    let bytes: usize = model.iter().map(|(k, v)| k.len() + v.len()).sum();
    prop_assert_eq!(shard.resident_bytes(), bytes as u64);
    for id in 0..17 {
        let k = key(id);
        prop_assert_eq!(shard.get(&k).map(|v| v.to_vec()), model.get(&k).cloned());
    }
    Ok(())
}

#[test]
fn twins_share_a_tag_and_a_stripe() {
    for (a, b) in TWINS {
        let mask = (1 << 36) - 1;
        assert_eq!(
            stable_hash(a.as_bytes()) & mask,
            stable_hash(b.as_bytes()) & mask
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operation leaves the shard equal to the model: the value a
    /// key reads, what `for_each` visits (each entry once), `len` and
    /// `resident_bytes`.
    #[test]
    fn arena_table_matches_a_btreemap(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let store = KvStore::new(1);
        let shard = store.shard(0);
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Put(id, n, fill) => {
                    let (k, v) = (key(id), vec![fill; n]);
                    shard.put(&k, &v);
                    prop_assert_eq!(shard.get_with(&k, |got| got == v), Some(true));
                    model.insert(k, v);
                }
                Op::Fill(first, n, vlen) => {
                    for id in (first..first + n).map(|i| 17 + i % (KEYS - 17)) {
                        let (k, v) = (key(id), vec![id as u8; vlen]);
                        shard.put(&k, &v);
                        model.insert(k, v);
                    }
                }
                Op::Remove(id) => {
                    let k = key(id);
                    prop_assert_eq!(shard.remove(&k).map(|v| v.to_vec()), model.remove(&k));
                    prop_assert!(shard.get(&k).is_none());
                }
                Op::RemovePrefix(prefix) => {
                    let before = model.len();
                    model.retain(|k, _| !k.starts_with(prefix.as_bytes()));
                    prop_assert_eq!(shard.remove_prefix(prefix.as_bytes()), before - model.len());
                }
                Op::Clear => {
                    shard.clear();
                    model.clear();
                }
                Op::Check => check(&shard, &model)?,
            }
        }
        check(&shard, &model)?;
    }
}
