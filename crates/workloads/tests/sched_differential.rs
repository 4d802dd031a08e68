//! Cross-scheduler differential: every workload must compute the same
//! answer under work stealing, which moves tasks between workers
//! mid-flight, as under the deterministic scheduler — the oracle —
//! which replays them in a seed-fixed order, for three seeds, and as
//! the MapReduce baseline on the same input.
//!
//! Each mode is pinned in the environment's `RuntimeConfig`, so these
//! tests hold regardless of any `HAMR_SCHED` environment override.

use hamr_core::{RunOptions, RuntimeConfig, SchedMode, SkewConfig, Supervision, WatchdogConfig};
use hamr_workloads::{all_benchmarks, skewed_variants, Benchmark, Env, SimParams};

const MODES: [SchedMode; 4] = [
    SchedMode::Deterministic { seed: 7 },
    SchedMode::WorkStealing,
    SchedMode::Deterministic { seed: 2015 },
    SchedMode::Deterministic { seed: 3 },
];

/// Run one benchmark under every scheduler mode with the combiner as
/// `skew` says (fresh environment per mode; the generators are
/// seed-deterministic, so each environment holds a bit-identical
/// input) and demand the MapReduce baseline's result from each.
fn check(bench: &dyn Benchmark, skew: &SkewConfig) {
    let mut baseline: Option<(u64, u64)> = None;
    for mode in MODES {
        let runtime = RuntimeConfig {
            sched: mode,
            skew: skew.clone(),
            ..Default::default()
        };
        let env = Env::with_hamr_runtime(SimParams::test(3, 2), runtime);
        bench.seed(&env).expect("seed");
        // Every mode runs supervised: the custody ledger must balance
        // and the watchdog must stay silent regardless of how the
        // scheduler shuffles tasks between workers.
        env.hamr.set_run_options(RunOptions {
            supervision: Some(Supervision {
                watchdog: WatchdogConfig::default(),
                doctor_dir: None,
            }),
            ..Default::default()
        });
        let out = bench.run_hamr(&env).expect("hamr run");
        env.hamr
            .last_audit()
            .expect("audit ran")
            .check()
            .unwrap_or_else(|v| {
                panic!(
                    "{}: {mode:?} {skew:?}: bin custody violated: {v:?}",
                    bench.name()
                )
            });
        let events = env.hamr.watchdog_events();
        assert!(
            events.is_empty(),
            "{}: {mode:?} {skew:?}: clean workload raised watchdog events: {events:?}",
            bench.name()
        );
        assert!(
            out.records > 0,
            "{} produced no output under {mode:?} {skew:?}",
            bench.name()
        );
        let want = *baseline.get_or_insert_with(|| {
            let mr = bench.run_mapred(&env).expect("mapred run");
            (mr.checksum, mr.records)
        });
        assert_eq!(
            (out.checksum, out.records),
            want,
            "{}: {mode:?} {skew:?} disagrees with mapred",
            bench.name()
        );
    }
}

/// Chain mode: the PageRank session chain serves its resident
/// partition under every scheduler — partition-stable ownership is
/// asserted against the scheduler, so a steal or a replay must never
/// change which frames are pinned where — and the served answer must
/// match both a cache-off chain and the other modes bit-for-bit.
#[test]
fn pagerank_chain_cache_agrees_across_schedulers() {
    use hamr_workloads::pagerank::PageRank;
    let mut baseline: Option<(u64, u64)> = None;
    for mode in MODES {
        let env = Env::with_hamr_sched(SimParams::test(3, 2), mode);
        let on = PageRank::default();
        on.seed(&env).expect("seed");
        let served = on.run_hamr(&env).expect("cache-on run");
        let hits: u64 = served.iters.iter().map(|i| i.cache_hits).sum();
        assert!(
            hits >= 2,
            "{mode:?}: iterations >=2 must serve the resident partition (hits={hits})"
        );
        let off = PageRank {
            resident: false,
            ..Default::default()
        };
        let recomputed = off.run_hamr(&env).expect("cache-off run");
        assert_eq!(
            (served.checksum, served.records),
            (recomputed.checksum, recomputed.records),
            "{mode:?}: resident serving changed the answer"
        );
        match baseline {
            None => baseline = Some((served.checksum, served.records)),
            Some(want) => assert_eq!(
                (served.checksum, served.records),
                want,
                "{mode:?} disagrees with {:?} in chain mode",
                MODES[0]
            ),
        }
    }
}

#[test]
fn default_workloads_agree_across_schedulers() {
    for bench in all_benchmarks() {
        check(bench.as_ref(), &SkewConfig::default());
    }
}

/// Every scheduler × the combiner on and off: combining pre-folds
/// records in ways that interact with task ordering (which worker's
/// buffer a record meets, what the flush finds), so each scheduler gets
/// both, supervised — against mapred's answer, with a balanced ledger
/// and a silent watchdog.
#[test]
fn skewed_workloads_agree_across_schedulers_and_mitigations() {
    for bench in skewed_variants() {
        for skew in [SkewConfig::off(), SkewConfig::default()] {
            check(bench.as_ref(), &skew);
        }
    }
}
