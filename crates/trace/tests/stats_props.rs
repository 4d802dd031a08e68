//! Property tests for the data-plane statistics sketches.
//!
//! The contracts the rest of the system leans on:
//!
//! - the HLL distinct estimate stays inside its 3-sigma error band
//!   (sigma = 1.04/sqrt(2^12) ~ 1.63%) on random, skewed, and
//!   adversarially ordered streams — duplicates and ordering must not
//!   move the estimate at all, since the register fold is a pure max;
//! - SpaceSaving never under-reports a tracked key (`count` is an
//!   upper bound on the true count) and never over-reports its
//!   guaranteed floor (`count - err` is a lower bound) — the reported
//!   hot-key share rides on that floor;
//! - size quantiles are monotone in `q` and bounded by the observed
//!   extremes;
//! - sketch merge is associative and commutative, so partition-level
//!   sketches can be folded in any order the teardown happens to run.
//!
//! Streams are generated as *keys* and hashed with a splitmix64
//! finalizer — the sketches' accuracy contract assumes uniform hashes
//! (production feeds them `stable_hash` output), so adversarial here
//! means adversarial key patterns and orderings, not broken hashes.

use hamr_trace::stats::{Hll, SsEntry, KEY_SAMPLE_BYTES};
use hamr_trace::{Log2Hist, SketchSet, SpaceSaving};
use proptest::prelude::*;
use std::collections::HashMap;

/// splitmix64 finalizer: the uniform hash the sketches assume.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn assert_hll_in_band(hll: &Hll, truth: u64) {
    let band = 3.0 * Hll::standard_error() * truth as f64 + 1.0;
    let est = hll.estimate();
    assert!(
        (est - truth as f64).abs() <= band,
        "HLL estimate {est:.1} outside 3-sigma band of true {truth} (+/-{band:.1})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random stream of distinct keys: estimate within 3 sigma.
    #[test]
    fn hll_random_stream_within_band(n in 1u64..20_000, seed in any::<u64>()) {
        let mut hll = Hll::new();
        for i in 0..n {
            hll.insert(mix(seed ^ i));
        }
        assert_hll_in_band(&hll, n);
    }

    /// Skewed stream: heavy duplication must not move the estimate —
    /// the register fold only sees the set of hashes.
    #[test]
    fn hll_skewed_stream_counts_distinct_only(
        n in 1u64..5_000,
        seed in any::<u64>(),
        reps in 1u64..8,
    ) {
        let mut hll = Hll::new();
        for i in 0..n {
            // Key i appears 1 + (i % reps^2) times: a deterministic
            // skew ramp with a handful of very hot keys.
            for _ in 0..=(i % (reps * reps)) {
                hll.insert(mix(seed ^ i));
            }
        }
        let mut once = Hll::new();
        for i in 0..n {
            once.insert(mix(seed ^ i));
        }
        prop_assert_eq!(hll.distinct(), once.distinct());
        assert_hll_in_band(&hll, n);
    }

    /// Adversarial ordering: reversed, interleaved, and shard-merged
    /// presentations of the same key set agree exactly.
    #[test]
    fn hll_order_and_merge_invariant(n in 1u64..8_000, seed in any::<u64>()) {
        let mut fwd = Hll::new();
        let mut rev = Hll::new();
        let mut shards = [Hll::new(), Hll::new(), Hll::new()];
        for i in 0..n {
            fwd.insert(mix(seed ^ i));
        }
        for i in (0..n).rev() {
            rev.insert(mix(seed ^ i));
        }
        for i in 0..n {
            shards[(i % 3) as usize].insert(mix(seed ^ i));
        }
        let mut merged = Hll::new();
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(fwd.distinct(), rev.distinct());
        prop_assert_eq!(fwd.distinct(), merged.distinct());
        assert_hll_in_band(&fwd, n);
    }

    /// SpaceSaving bracketing invariant under eviction pressure: for
    /// every tracked key, `count - err <= true <= count`, and the
    /// sketch's total equals the stream's total weight.
    #[test]
    fn space_saving_brackets_true_counts(
        stream in prop::collection::vec((0u64..64, 1u64..16), 1..2_000),
        cap in 4usize..24,
    ) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        for (key, w) in &stream {
            let h = mix(*key);
            ss.observe(h, &key.to_le_bytes(), *w);
            *truth.entry(h).or_insert(0) += *w;
            total += *w;
        }
        prop_assert_eq!(ss.total(), total);
        for e in ss.top() {
            let t = truth[&e.hash];
            prop_assert!(e.count >= t, "count {} under-reports true {}", e.count, t);
            prop_assert!(
                e.count - e.err <= t,
                "guaranteed {} over-reports true {}", e.count - e.err, t
            );
            prop_assert_eq!(ss.guaranteed(e.hash), e.count - e.err);
        }
    }

    /// With fewer distinct keys than capacity nothing is ever evicted:
    /// counts are exact and the guaranteed floor equals the count.
    #[test]
    fn space_saving_exact_below_capacity(
        stream in prop::collection::vec((0u64..16, 1u64..16), 1..1_000),
    ) {
        let mut ss = SpaceSaving::new(16);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (key, w) in &stream {
            let h = mix(*key);
            ss.observe(h, &key.to_le_bytes(), *w);
            *truth.entry(h).or_insert(0) += *w;
        }
        for (h, t) in &truth {
            prop_assert_eq!(ss.get(*h), Some((*t, 0)));
            prop_assert_eq!(ss.guaranteed(*h), *t);
        }
    }

    /// Quantiles are monotone in q and bounded by the observed extremes.
    #[test]
    fn size_quantiles_monotone_and_bounded(
        sizes in prop::collection::vec(0u64..1_000_000, 1..500),
    ) {
        let mut hist = Log2Hist::new();
        for s in &sizes {
            hist.record(*s);
        }
        let qs: Vec<u64> = [0.0, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|q| hist.quantile(*q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
        // Log2 buckets round up to the bucket's upper bound: the p100
        // answer may exceed the true max by at most 2x (next power of
        // two), and can never fall below the true minimum's bucket.
        let max = *sizes.iter().max().unwrap();
        prop_assert!(qs[4] >= max, "p100 {} below true max {max}", qs[4]);
        prop_assert!(qs[4] <= max.next_power_of_two().max(1) * 2);
        prop_assert_eq!(hist.count(), sizes.len() as u64);
        prop_assert_eq!(hist.sum(), sizes.iter().sum::<u64>());
    }

    /// Sketch merge is associative and commutative. Top-K stays in the
    /// no-eviction regime (key space <= K) where SpaceSaving merge is
    /// exact; HLL and size-histogram merges are exact in any regime.
    #[test]
    fn sketch_merge_assoc_comm(
        a in prop::collection::vec((0u64..32, 0usize..4_000), 0..300),
        b in prop::collection::vec((0u64..32, 0usize..4_000), 0..300),
        c in prop::collection::vec((0u64..32, 0usize..4_000), 0..300),
    ) {
        let build = |stream: &[(u64, usize)]| {
            let mut s = SketchSet::new(32);
            for (key, len) in stream {
                s.observe(mix(*key), &key.to_le_bytes(), *len);
            }
            s
        };
        let fold = |parts: &[&[(u64, usize)]]| {
            let mut acc = SketchSet::new(32);
            for p in parts {
                acc.merge(&build(p));
            }
            acc
        };
        let fingerprint = |s: &SketchSet| {
            let mut top: Vec<(u64, u64, u64)> =
                s.topk.top().iter().map(|e| (e.hash, e.count, e.err)).collect();
            top.sort_unstable();
            (
                s.records,
                s.bytes,
                s.distinct(),
                s.sizes.quantile(0.5),
                s.sizes.quantile(0.99),
                top,
            )
        };
        let ab_c = fingerprint(&fold(&[&a, &b, &c]));
        let c_ba = fingerprint(&fold(&[&c, &b, &a]));
        let b_ac = fingerprint(&fold(&[&b, &a, &c]));
        prop_assert_eq!(&ab_c, &c_ba);
        prop_assert_eq!(&ab_c, &b_ac);
    }
}

// --------------------------------------------------------------------------
// Differential test against the algorithm `SpaceSaving` used to be
// --------------------------------------------------------------------------

/// The reference model: SpaceSaving as a plain vector, a linear search
/// for the hash and a linear scan for the least `(count, hash)` on
/// every eviction. The production sketch must agree with it exactly.
struct RefSpaceSaving {
    cap: usize,
    entries: Vec<SsEntry>,
}

fn sample(key: &[u8]) -> Box<[u8]> {
    key[..key.len().min(KEY_SAMPLE_BYTES)].into()
}

impl RefSpaceSaving {
    fn new(cap: usize) -> Self {
        RefSpaceSaving {
            cap,
            entries: Vec::new(),
        }
    }

    fn position(&self, hash: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.hash == hash)
    }

    fn observe(&mut self, hash: u64, key: &[u8], w: u64) {
        if let Some(i) = self.position(hash) {
            self.entries[i].count += w;
        } else if self.entries.len() < self.cap {
            self.entries.push(SsEntry {
                hash,
                count: w,
                err: 0,
                key: sample(key),
            });
        } else {
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|e| (e.count, e.hash))
                .expect("cap > 0");
            *victim = SsEntry {
                hash,
                count: victim.count + w,
                err: victim.count,
                key: sample(key),
            };
        }
    }

    fn get(&self, hash: u64) -> Option<(u64, u64)> {
        self.position(hash)
            .map(|i| (self.entries[i].count, self.entries[i].err))
    }

    fn top(&self) -> Vec<SsEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        v
    }

    fn slack(&self) -> u64 {
        if self.entries.len() < self.cap {
            return 0;
        }
        self.entries.iter().map(|e| e.count).min().unwrap_or(0)
    }

    fn merge(&mut self, other: &RefSpaceSaving) {
        let (slack_self, slack_other) = (self.slack(), other.slack());
        for e in &mut self.entries {
            match other.position(e.hash) {
                Some(j) => {
                    e.count += other.entries[j].count;
                    e.err += other.entries[j].err;
                }
                None => {
                    e.count += slack_other;
                    e.err += slack_other;
                }
            }
        }
        let own = self.entries.len();
        for e in &other.entries {
            if self.entries[..own].iter().all(|m| m.hash != e.hash) {
                let mut n = e.clone();
                n.count += slack_self;
                n.err += slack_self;
                self.entries.push(n);
            }
        }
        self.entries = self.top();
        self.entries.truncate(self.cap);
    }
}

/// One step of a skewed stream: squaring a uniform draw piles the mass
/// on the low keys while the tail keeps the sketch evicting. Some keys
/// outgrow the sample.
fn skewed_step(rng: &mut u64, space: u64) -> (u64, Vec<u8>, u64) {
    *rng = mix(*rng);
    let u = (*rng >> 11) as f64 / (1u64 << 53) as f64;
    let key = (u * u * space as f64) as u64;
    let w = 1 + (*rng >> 3) % 15;
    let mut bytes = key.to_le_bytes().to_vec();
    bytes.resize(8 + (key % 7) as usize * 9, key as u8);
    (mix(key), bytes, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The heap-and-index sketch and the linear-scan model agree on
    /// every answer after every step, and after a merge of two evicting
    /// sketches, at capacities from degenerate to 1,024.
    #[test]
    fn space_saving_matches_linear_scan_model(seed in any::<u64>()) {
        for cap in [1usize, 2, 16, 32, 1024] {
            let space = 3 * cap as u64 + 5;
            let steps = (6 * cap).clamp(200, 4_000);
            let mut rng = seed ^ cap as u64;
            let mut halves = Vec::new();
            for _ in 0..2 {
                let mut ss = SpaceSaving::new(cap);
                let mut model = RefSpaceSaving::new(cap);
                for step in 0..steps {
                    let (h, key, w) = skewed_step(&mut rng, space);
                    ss.observe(h, &key, w);
                    model.observe(h, &key, w);
                    let (count, err) = model.get(h).expect("just observed");
                    prop_assert_eq!(ss.get(h), Some((count, err)));
                    prop_assert_eq!(ss.guaranteed(h), count - err);
                    let (other, _, _) = skewed_step(&mut rng, space);
                    prop_assert_eq!(ss.get(other), model.get(other));
                    if cap <= 32 || step % 128 == 0 || step + 1 == steps {
                        prop_assert_eq!(ss.top(), model.top(), "cap {} step {}", cap, step);
                    }
                }
                prop_assert_eq!(ss.len(), model.entries.len());
                halves.push((ss, model));
            }
            let (b, model_b) = halves.pop().unwrap();
            let (mut a, mut model_a) = halves.pop().unwrap();
            a.merge(&b);
            model_a.merge(&model_b);
            prop_assert_eq!(a.top(), model_a.top(), "cap {} after merge", cap);
            // A merged sketch keeps evicting like the model does.
            for _ in 0..steps {
                let (h, key, w) = skewed_step(&mut rng, space);
                a.observe(h, &key, w);
                model_a.observe(h, &key, w);
                prop_assert_eq!(a.get(h), model_a.get(h));
            }
            prop_assert_eq!(a.top(), model_a.top(), "cap {} after merge and refill", cap);
        }
    }
}
