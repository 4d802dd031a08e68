//! Unit tests of the statistics plane, kept in one module
//! (`stats::tests`) across the sketch / lineage / plane split.

use super::*;

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer — the tests' stand-in for stable_hash.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn hll_small_cardinalities_are_exact() {
    let mut h = Hll::new();
    for i in 0..5u64 {
        for _ in 0..100 {
            h.insert(mix(i));
        }
    }
    assert_eq!(h.distinct(), 5);
}

#[test]
fn hll_large_cardinality_within_three_sigma() {
    let mut h = Hll::new();
    let n = 100_000u64;
    for i in 0..n {
        h.insert(mix(i));
    }
    let est = h.estimate();
    let bound = 3.0 * Hll::standard_error() * n as f64;
    assert!(
        (est - n as f64).abs() <= bound,
        "estimate {est} off from {n} by more than {bound}"
    );
}

#[test]
fn hll_merge_is_register_max() {
    let mut a = Hll::new();
    let mut b = Hll::new();
    for i in 0..1000u64 {
        a.insert(mix(i));
        b.insert(mix(i + 500));
    }
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.registers(), ba.registers());
    let est = ab.estimate();
    assert!((est - 1500.0).abs() < 1500.0 * 0.05, "union estimate {est}");
}

#[test]
fn spacesaving_tracks_heavy_hitter_exactly_under_capacity() {
    let mut s = SpaceSaving::new(8);
    for _ in 0..100 {
        s.observe(1, b"hot", 1);
    }
    for i in 2..6u64 {
        s.observe(i, b"cold", 1);
    }
    assert_eq!(s.get(1), Some((100, 0)));
    assert_eq!(s.guaranteed(1), 100);
    let top = s.top();
    assert_eq!(top[0].hash, 1);
    assert_eq!(&*top[0].key, b"hot");
}

#[test]
fn spacesaving_invariant_survives_eviction() {
    let mut s = SpaceSaving::new(4);
    let mut truth = std::collections::HashMap::new();
    for i in 0..1000u64 {
        let k = i % 13;
        s.observe(k, &k.to_le_bytes(), 1);
        *truth.entry(k).or_insert(0u64) += 1;
    }
    for e in s.top() {
        let t = truth[&e.hash];
        assert!(e.count >= t, "count {} < true {t}", e.count);
        assert!(
            e.count - e.err <= t,
            "guaranteed {} > true {t}",
            e.count - e.err
        );
    }
}

#[test]
fn size_hist_quantiles_are_monotone_and_bracketing() {
    let mut h = crate::Log2Hist::new();
    for s in [0u64, 1, 7, 8, 100, 1000, 5000] {
        h.record(s);
    }
    let mut prev = 0;
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let v = h.quantile(q);
        assert!(v >= prev, "quantile({q}) = {v} < {prev}");
        prev = v;
    }
    assert!(h.quantile(1.0) >= 5000);
    assert!(h.quantile(0.0) <= 1);
}

#[test]
fn stats_env_strings_parse() {
    assert_eq!(StatsMode::from_env_str("off"), Ok(StatsMode::Off));
    assert_eq!(StatsMode::from_env_str("edges"), Ok(StatsMode::Edges));
    assert_eq!(
        StatsMode::from_env_str("full"),
        Ok(StatsMode::Full {
            sample_one_in: DEFAULT_SAMPLE_ONE_IN
        })
    );
    assert_eq!(
        StatsMode::from_env_str("full:0"),
        Ok(StatsMode::Full { sample_one_in: 1 })
    );
    for typo in ["ful", "full:abc", "full:", "edge"] {
        assert_eq!(
            StatsMode::from_env_str(typo),
            Err("off|edges|full[:N]".to_string())
        );
    }
}

#[test]
fn sample_gate_is_deterministic() {
    for h in 0..1000u64 {
        assert_eq!(sample_hit(h, 7), sample_hit(h, 7));
        assert!(sample_hit(h, 1));
    }
}

#[test]
fn plane_folds_bins_and_records_lineage() {
    // A plane over edge 1 only: edge 0's bins are neither folded nor
    // traced.
    let plane = StatsPlane::new(vec![1], 4, StatsMode::Full { sample_one_in: 1 });
    let key = b"k1".to_vec();
    let h = mix(1);
    let bin = || vec![(h, &key[..], 10), (h, &key[..], 12)].into_iter();
    plane.fold_bin(0, 2, 0, "loader", 0, bin());
    plane.fold_bin(1, 2, 0, "mapper", 0, bin());
    plane.consume_bin(0, 2, 1, "reducer", 0, vec![h].into_iter());
    plane.consume_bin(1, 2, 1, "reducer", 0, vec![h].into_iter());
    let snap = plane.snapshot("job", "hamr");
    assert_eq!(snap.edges.len(), 1);
    assert_eq!(snap.edges[0].edge, 1);
    assert_eq!(snap.edges[0].records, 2);
    assert_eq!(plane.dst_stats(), [(1, 2, 1, 1.0)]);
    assert_eq!(snap.edges[0].distinct, 1);
    assert_eq!(snap.samples.len(), 1);
    let s = &snap.samples[0];
    assert_eq!(s.key, key);
    assert_eq!(s.hops.len(), 2);
    assert_eq!(s.hops[0].kind, HopKind::Emit);
    assert_eq!(s.hops[0].records, 2);
    assert_eq!(s.hops[1].kind, HopKind::Reduce);
    let text = render_explain("job", s);
    assert!(text.contains("reduce"), "{text}");
}

#[test]
fn key_queries_cover_codec_encodings() {
    let enc = key_query_encodings("5");
    assert!(enc.contains(&b"5".to_vec()));
    assert!(enc.contains(&5u32.to_le_bytes().to_vec()));
    assert!(enc.contains(&5u64.to_le_bytes().to_vec()));
    assert!(key_query_encodings("0x0102").contains(&vec![1u8, 2]));
}
