//! Property tests for the unified metrics registry: hand-rolled
//! generators (an LCG, not a proptest dependency) driving many random
//! rounds per property.

use hamr_trace::{Labels, MetricsRegistry, SampleValue, Snapshot};

/// Deterministic pseudo-random stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Racing registrations of the same (name, labels) from many threads
/// must converge on ONE shared cell: no increment may be lost to a
/// stale duplicate handle, and exactly one series may exist.
#[test]
fn concurrent_registration_shares_one_cell() {
    for round in 0..16u32 {
        let registry = MetricsRegistry::new();
        let threads = 8u64;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = &registry;
                scope.spawn(move || {
                    // Register *inside* the thread so registrations race.
                    let c = registry
                        .counter("race_hits_total", Labels::new().engine("hamr").node(round));
                    let h = registry
                        .histogram("race_latency_us", Labels::new().engine("hamr").node(round));
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("race_hits_total"), threads * per_thread);
        let hist = snap
            .get("race_latency_us", &Labels::new().engine("hamr").node(round))
            .expect("histogram series exists");
        match hist {
            SampleValue::Histogram(h) => assert_eq!(h.count, threads * per_thread),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(registry.series_count(), 2, "one series per kind");
        assert_eq!(registry.dropped_series(), 0);
    }
}

/// Racing gauge registrations converge on one cell too, and a level
/// every thread raises and lowers by the same amounts nets zero: no
/// update lands on a stale duplicate. The gauge-only view reads the
/// same cells `snapshot()` does.
#[test]
fn concurrent_gauge_updates_net_zero_on_one_cell() {
    for round in 0..16u32 {
        let registry = MetricsRegistry::new();
        let labels = || Labels::new().engine("hamr").node(round);
        let (threads, per_thread) = (8i64, 500i64);
        // Everyone has raised the level before anyone lowers it, so the
        // peak is known; then everyone lowers it back.
        let raised = std::sync::Barrier::new(threads as usize + 1);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (registry, raised) = (&registry, &raised);
                scope.spawn(move || {
                    let g = registry.gauge("race_depth", labels());
                    for i in 0..per_thread {
                        g.add(i + t);
                    }
                    raised.wait();
                    raised.wait();
                    for i in 0..per_thread {
                        g.sub(i + t);
                    }
                });
            }
            raised.wait();
            let peak = threads * per_thread * (per_thread - 1) / 2
                + per_thread * threads * (threads - 1) / 2;
            assert_eq!(registry.gauge("race_depth", labels()).get(), peak);
            raised.wait();
        });
        // Not levels of this engine: another engine's gauge, a fact
        // published under a job label, a counter.
        registry
            .gauge("other_engine_depth", Labels::new().engine("mapred"))
            .set(5);
        registry.gauge("stats_records", labels().job("wc")).set(7);
        registry.counter("race_hits_total", labels()).inc();
        assert_eq!(registry.series_count(), 4);
        assert_eq!(registry.dropped_series(), 0);
        let view = registry.live_gauges("hamr");
        assert_eq!(view.len(), 1, "one cell, one engine's levels: {view:?}");
        assert_eq!((view[0].name.as_str(), view[0].value), ("race_depth", 0));
        let snap = registry.snapshot();
        for g in registry
            .live_gauges("hamr")
            .iter()
            .chain(&registry.live_gauges("mapred"))
        {
            assert_eq!(
                snap.get(&g.name, &g.labels),
                Some(&SampleValue::Gauge(g.value)),
                "the view and the snapshot read one store"
            );
        }
    }
}

/// Snapshot deltas must tile the counter's history exactly: each
/// delta between neighbouring snapshots equals what was added between
/// them, and the deltas sum to the final total (no loss, no double
/// counting, regardless of the increment pattern) — how the benchmark
/// attributes counters to one job and the timeline to one span.
#[test]
fn epoch_deltas_tile_counter_history() {
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..10 {
        let registry = MetricsRegistry::new();
        let c = registry.counter("delta_bytes_total", Labels::new().engine("hamr"));
        let mut prev = Snapshot::default();
        let mut sum = 0u64;
        for e in 0..3 + lcg(&mut state) % 70 {
            let mut added = 0u64;
            for _ in 0..lcg(&mut state) % 50 {
                let x = lcg(&mut state) % 1000;
                c.add(x);
                added += x;
            }
            let now = registry.snapshot();
            let got = now.delta(&prev).counter_total("delta_bytes_total");
            assert_eq!(got, added, "epoch {e} delta");
            sum += got;
            prev = now;
        }
        assert_eq!(sum, c.get(), "deltas tile the history");
    }
}

/// The registry must hold its cardinality bound under label floods:
/// series_count stays <= the cap, every rejected registration is
/// tallied, overflow handles are inert (no panic, no phantom series),
/// and already-admitted series keep working.
#[test]
fn label_cardinality_stays_bounded() {
    let cap = 32usize;
    let flood = 100u32;
    let registry = MetricsRegistry::with_capacity(cap);
    for i in 0..flood {
        let c = registry.counter("flood_total", Labels::new().engine("hamr").flowlet(i));
        c.inc(); // inert for the overflow handles
    }
    assert_eq!(registry.series_count(), cap);
    assert_eq!(registry.dropped_series(), flood as u64 - cap as u64);
    assert_eq!(registry.snapshot().counter_total("flood_total"), cap as u64);
    // Admitted series still accept both re-registration and traffic.
    let again = registry.counter("flood_total", Labels::new().engine("hamr").flowlet(0));
    assert!(again.enabled());
    again.add(9);
    assert_eq!(
        registry.snapshot().counter_total("flood_total"),
        cap as u64 + 9
    );
    // A kind clash neither replaces the series nor panics.
    let clash = registry.histogram("flood_total", Labels::new().engine("hamr").flowlet(0));
    clash.record(5);
    assert_eq!(
        registry.snapshot().counter_total("flood_total"),
        cap as u64 + 9
    );
}
