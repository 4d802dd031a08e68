//! Property tests: the KV store behaves like a model HashMap under
//! arbitrary operation sequences, and ownership routing is total.

use hamr_kvstore::KvStore;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::collection::vec(any::<u8>(), 0..6);
    let value = prop::collection::vec(any::<u8>(), 0..10);
    prop_oneof![
        (key.clone(), value).prop_map(|(k, v)| Op::Put(k, v)),
        key.clone().prop_map(Op::Remove),
        key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shard-level semantics match a HashMap exactly.
    #[test]
    fn shard_matches_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let store = KvStore::new(1);
        let shard = store.shard(0);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    shard.put(&k, &v);
                    model.insert(k.clone(), v);
                    prop_assert_eq!(shard.get(&k).map(|b| b.to_vec()), model.get(&k).cloned());
                }
                Op::Remove(k) => {
                    let prev = shard.remove(&k);
                    prop_assert_eq!(prev.map(|b| b.to_vec()), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(
                        shard.get(&k).map(|b| b.to_vec()),
                        model.get(&k).cloned()
                    );
                }
            }
        }
        prop_assert_eq!(shard.len(), model.len());
        let expected_bytes: usize = model.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(shard.resident_bytes() as usize, expected_bytes);
    }

    /// Store-level routing: every key lands only on its owner, and the
    /// owner is stable.
    #[test]
    fn routing_is_total_and_stable(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..8), 1..60),
        nodes in 1usize..6,
    ) {
        let store = KvStore::new(nodes);
        for k in &keys {
            store.put(k, b"v");
        }
        for k in &keys {
            let owner = store.owner(k);
            prop_assert!(owner < nodes);
            prop_assert_eq!(store.owner(k), owner, "owner must be stable");
            prop_assert!(store.shard(owner).get(k).is_some());
            for n in 0..nodes {
                if n != owner {
                    prop_assert!(store.shard(n).get(k).is_none());
                }
            }
        }
    }
}
