//! The run-health watchdog: an epoch thread that watches the audit
//! ledger and the engine's live gauges for signs that a job has stopped
//! making progress, classifies *why*, and (optionally) aborts the job
//! with a diagnosis instead of letting it hang forever.
//!
//! Classification vocabulary (shared with the trace stream and the
//! flight recorder through [`WatchdogClass`]; an incident is a
//! [`WatchdogTrip`] from the monitor to the dump):
//!
//! * **Backpressure** — no deliveries or consumes for `patience`
//!   epochs while bins sit in flow-control deferred queues: the
//!   sliding windows are full and nothing drains them.
//! * **Hang** — no deliveries, no consumes, no busy workers, and no
//!   deferred bins, yet the job never completes: a completion signal
//!   was lost.
//! * **Straggler** — the cluster *is* progressing, but per-node
//!   consume counts are badly skewed. Warn-only: skew is a
//!   performance smell, not a liveness failure, so the watchdog never
//!   aborts for it.
//!
//! The monitor itself ([`Monitor`]) is a pure state machine over
//! [`EpochSnapshot`]s so the classification rules are unit-testable
//! without threads, clocks, or a cluster.

use hamr_trace::{AuditStage, EventKind, Observe, WatchdogClass, WatchdogTrip, WORKER_RUNTIME};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the watchdog does when it classifies an incident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WatchdogAction {
    /// Do not monitor at all.
    Off,
    /// Log and trace incidents but let the job keep running.
    #[default]
    Warn,
    /// Broadcast an abort so the job fails with a diagnosis instead of
    /// hanging. Straggler incidents still only warn.
    Abort,
}

/// Watchdog tuning. The defaults are deliberately roomy — a healthy
/// job must never trip, so the watchdog waits for `patience`
/// *consecutive* no-progress epochs (~1 s at the defaults) before it
/// classifies anything.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Monitoring epoch length.
    pub epoch: Duration,
    /// Consecutive no-progress epochs before the watchdog trips.
    pub patience: u32,
    /// What to do on an incident.
    pub action: WatchdogAction,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            epoch: Duration::from_millis(100),
            patience: 10,
            action: WatchdogAction::Warn,
        }
    }
}

/// Coefficient-of-variation threshold over per-node consume counts
/// above which progressing-but-skewed runs warn as stragglers.
const STRAGGLER_CV: f64 = 1.0;

/// What the watchdog sees at the end of one epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochSnapshot {
    /// Cumulative bins past the fabric's deliver custody point.
    pub delivered: u64,
    /// Cumulative bins past the consume custody point.
    pub consumed: u64,
    /// Cumulative consumed bins per destination node.
    pub consumed_by_node: Vec<u64>,
    /// Bins parked in flow-control deferred queues, cluster-wide.
    pub deferred: i64,
    /// Workers currently executing a task, plus node runtimes waiting
    /// for a device read they submitted to complete, cluster-wide.
    pub busy: i64,
    /// Bins sitting in ingress queues, cluster-wide.
    pub queued: i64,
    /// Ingress-queued bins per node (straggler population filter).
    pub queued_by_node: Vec<i64>,
}

impl EpochSnapshot {
    fn capture(obs: &Observe, nodes: usize) -> Self {
        let mut snap = EpochSnapshot {
            delivered: obs.audit.stage_bins(AuditStage::Deliver),
            consumed: obs.audit.stage_bins(AuditStage::Consume),
            consumed_by_node: obs.audit.consumed_bins_by_node(),
            queued_by_node: vec![0; nodes],
            ..Default::default()
        };
        for gauge in obs.live_gauges() {
            match gauge.name.as_str() {
                "deferred_bins" => snap.deferred += gauge.value,
                "workers_busy" | "splits_awaiting_read" => snap.busy += gauge.value,
                "queue_depth" => {
                    snap.queued += gauge.value;
                    let node = gauge.labels.node.map(|n| n as usize);
                    if let Some(queued) = node.and_then(|n| snap.queued_by_node.get_mut(n)) {
                        *queued += gauge.value;
                    }
                }
                _ => {}
            }
        }
        snap
    }
}

/// The pure classification state machine: feed it one snapshot per
/// epoch, it occasionally returns an incident.
pub(crate) struct Monitor {
    cfg: WatchdogConfig,
    prev: Option<EpochSnapshot>,
    idle_epochs: u32,
    epoch: u64,
    straggler_warned: bool,
}

impl Monitor {
    pub(crate) fn new(cfg: WatchdogConfig) -> Self {
        Monitor {
            cfg,
            prev: None,
            idle_epochs: 0,
            epoch: 0,
            straggler_warned: false,
        }
    }

    pub(crate) fn observe(&mut self, snap: EpochSnapshot) -> Option<WatchdogTrip> {
        self.epoch += 1;
        // Busy workers count as progress: a long-running task moves no
        // bins through custody points but is not stuck. So does a
        // runtime waiting for a read it submitted (`busy` holds both):
        // the device is working, and the gauge drops when it is done.
        let moved = match &self.prev {
            Some(p) => snap.delivered + snap.consumed > p.delivered + p.consumed,
            None => snap.delivered + snap.consumed > 0,
        };
        let progressed = moved || snap.busy > 0;
        let event = if progressed {
            self.idle_epochs = 0;
            self.straggler_check(&snap)
        } else {
            self.idle_epochs += 1;
            if self.idle_epochs >= self.cfg.patience {
                // Re-arm so warn-only runs report again if the stall
                // persists, instead of once and never more.
                self.idle_epochs = 0;
                Some(self.classify_stall(&snap))
            } else {
                None
            }
        };
        self.prev = Some(snap);
        event
    }

    fn classify_stall(&self, snap: &EpochSnapshot) -> WatchdogTrip {
        if snap.deferred > 0 {
            let worst = snap
                .queued_by_node
                .iter()
                .enumerate()
                .max_by_key(|(_, q)| **q)
                .map(|(n, _)| n)
                .unwrap_or(0);
            WatchdogTrip {
                class: WatchdogClass::Backpressure,
                epoch: self.epoch,
                detail: format!(
                    "no deliveries or consumes for {} epochs with {} deferred bin(s) \
                     parked behind full flow-control windows; deepest ingress queue \
                     on node {worst}",
                    self.cfg.patience, snap.deferred
                ),
            }
        } else {
            WatchdogTrip {
                class: WatchdogClass::Hang,
                epoch: self.epoch,
                detail: format!(
                    "no deliveries, consumes, or busy workers for {} epochs and no \
                     deferred bins ({} bin(s) queued at ingress): a completion \
                     signal appears lost",
                    self.cfg.patience, snap.queued
                ),
            }
        }
    }

    /// Straggler detection, evaluated every `patience`-th progressing
    /// epoch. The population is restricted to nodes that have consumed
    /// something or have work queued — on legitimately skewed
    /// workloads, a node the partitioner sent nothing to is not a
    /// straggler.
    fn straggler_check(&mut self, snap: &EpochSnapshot) -> Option<WatchdogTrip> {
        if self.straggler_warned
            || self.cfg.patience == 0
            || !self.epoch.is_multiple_of(u64::from(self.cfg.patience))
        {
            return None;
        }
        let active: Vec<(usize, u64)> = snap
            .consumed_by_node
            .iter()
            .enumerate()
            .filter(|&(n, &c)| c > 0 || snap.queued_by_node.get(n).copied().unwrap_or(0) > 0)
            .map(|(n, &c)| (n, c))
            .collect();
        // Too little signal to call skew: need several nodes and a
        // non-trivial amount of consumed work.
        let total: u64 = active.iter().map(|&(_, c)| c).sum();
        if active.len() < 2 || total < 64 {
            return None;
        }
        let mean = total as f64 / active.len() as f64;
        let var = active
            .iter()
            .map(|&(_, c)| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / active.len() as f64;
        let cv = var.sqrt() / mean;
        if cv <= STRAGGLER_CV {
            return None;
        }
        self.straggler_warned = true;
        let (slowest, slow_count) = active
            .iter()
            .min_by_key(|&&(_, c)| c)
            .copied()
            .expect("non-empty");
        Some(WatchdogTrip {
            class: WatchdogClass::Straggler,
            epoch: self.epoch,
            detail: format!(
                "per-node progress skew: node {slowest} consumed {slow_count} bin(s) \
                 vs a mean of {mean:.1} across {} active node(s) (cv {cv:.2} > {STRAGGLER_CV:.2})",
                active.len(),
            ),
        })
    }
}

struct WdShared {
    stop: Mutex<bool>,
    cv: Condvar,
    events: Mutex<Vec<WatchdogTrip>>,
    trip: Mutex<Option<WatchdogTrip>>,
}

/// The background epoch thread wrapping a [`Monitor`].
pub(crate) struct Watchdog {
    shared: Arc<WdShared>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start monitoring the run behind `obs`: its ledger and its
    /// engine's live gauges.
    /// `notify` fires on *every* classified incident (the cluster posts
    /// it into `/healthz` state); `abort` is invoked (once) when an
    /// abort-worthy incident fires under [`WatchdogAction::Abort`].
    pub(crate) fn spawn(
        cfg: WatchdogConfig,
        obs: Observe,
        nodes: usize,
        notify: Box<dyn Fn(&WatchdogTrip) + Send>,
        abort: Box<dyn Fn(&WatchdogTrip) + Send>,
    ) -> Self {
        let shared = Arc::new(WdShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
            events: Mutex::new(Vec::new()),
            trip: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hamr-watchdog".into())
            .spawn(move || run_watchdog(thread_shared, cfg, obs, nodes, notify, abort))
            .expect("spawn watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Stop the thread and return everything it classified: all
    /// incidents in order, plus the one (if any) it aborted the job on.
    pub(crate) fn stop(mut self) -> (Vec<WatchdogTrip>, Option<WatchdogTrip>) {
        {
            let mut stop = self.shared.stop.lock();
            *stop = true;
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let events = std::mem::take(&mut *self.shared.events.lock());
        let trip = self.shared.trip.lock().take();
        (events, trip)
    }
}

fn run_watchdog(
    shared: Arc<WdShared>,
    cfg: WatchdogConfig,
    obs: Observe,
    nodes: usize,
    notify: Box<dyn Fn(&WatchdogTrip) + Send>,
    abort: Box<dyn Fn(&WatchdogTrip) + Send>,
) {
    let abort_on_trip = cfg.action == WatchdogAction::Abort;
    let mut monitor = Monitor::new(cfg.clone());
    loop {
        {
            let mut stop = shared.stop.lock();
            if *stop {
                return;
            }
            shared.cv.wait_for(&mut stop, cfg.epoch);
            if *stop {
                return;
            }
        }
        let snap = EpochSnapshot::capture(&obs, nodes);
        if let Some(mut event) = monitor.observe(snap) {
            // Localize the diagnosis: the widest emit->consume gap in
            // the ledger names the stuck edge and destination.
            if event.class != WatchdogClass::Straggler {
                let report = obs.audit.report();
                if let Some((row, gap)) = report.stuck_rows().into_iter().next() {
                    event.detail.push_str(&format!(
                        "; most-stuck: edge {} -> node {} ({gap} bin(s) emitted but \
                         never consumed)",
                        row.edge, row.dst
                    ));
                }
            }
            obs.tracer.emit(
                u32::MAX,
                WORKER_RUNTIME,
                EventKind::Watchdog {
                    class: event.class,
                    epoch: event.epoch,
                },
            );
            shared.events.lock().push(event.clone());
            notify(&event);
            if abort_on_trip && event.class != WatchdogClass::Straggler {
                *shared.trip.lock() = Some(event.clone());
                abort(&event);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(patience: u32) -> WatchdogConfig {
        WatchdogConfig {
            patience,
            ..WatchdogConfig::default()
        }
    }

    fn idle(deferred: i64, queued: i64) -> EpochSnapshot {
        EpochSnapshot {
            delivered: 10,
            consumed: 10,
            consumed_by_node: vec![5, 5],
            deferred,
            busy: 0,
            queued,
            queued_by_node: vec![queued, 0],
        }
    }

    #[test]
    fn healthy_progress_never_trips() {
        let mut m = Monitor::new(cfg(3));
        for i in 0..50u64 {
            let snap = EpochSnapshot {
                delivered: i * 2,
                consumed: i * 2,
                consumed_by_node: vec![i, i],
                queued_by_node: vec![0, 0],
                ..Default::default()
            };
            assert!(m.observe(snap).is_none(), "tripped at epoch {i}");
        }
    }

    #[test]
    fn stall_with_deferred_bins_is_backpressure() {
        let mut m = Monitor::new(cfg(3));
        // First observation moves the counters off the zero baseline,
        // so it counts as progress; the stall starts after it.
        let mut event = None;
        for _ in 0..4 {
            event = m.observe(idle(4, 7));
        }
        let event = event.expect("tripped at patience");
        assert_eq!(event.class, WatchdogClass::Backpressure);
        assert!(
            event.detail.contains("4 deferred bin(s)"),
            "{}",
            event.detail
        );
    }

    #[test]
    fn stall_without_deferred_bins_is_hang() {
        let mut m = Monitor::new(cfg(2));
        assert!(m.observe(idle(0, 0)).is_none(), "baseline epoch");
        assert!(m.observe(idle(0, 0)).is_none());
        let event = m.observe(idle(0, 0)).expect("tripped");
        assert_eq!(event.class, WatchdogClass::Hang);
        assert!(
            event.detail.contains("completion signal"),
            "{}",
            event.detail
        );
    }

    #[test]
    fn busy_workers_count_as_progress() {
        let mut m = Monitor::new(cfg(2));
        for _ in 0..20 {
            let snap = EpochSnapshot {
                delivered: 10,
                consumed: 10,
                consumed_by_node: vec![10],
                busy: 1,
                queued_by_node: vec![0],
                ..Default::default()
            };
            assert!(m.observe(snap).is_none());
        }
    }

    #[test]
    fn patience_is_consecutive_not_cumulative() {
        let mut m = Monitor::new(cfg(3));
        let progress = |n: u64| EpochSnapshot {
            delivered: n,
            consumed: n,
            consumed_by_node: vec![n],
            queued_by_node: vec![0],
            ..Default::default()
        };
        // Two idle epochs, then progress, then two idle: never 3 in a
        // row, never trips.
        assert!(m.observe(idle(0, 0)).is_none());
        assert!(m.observe(idle(0, 0)).is_none());
        assert!(m.observe(progress(25)).is_none());
        assert!(m.observe(idle(0, 0)).is_none());
        assert!(m.observe(idle(0, 0)).is_none());
    }

    #[test]
    fn warn_mode_rearms_after_each_trip() {
        let mut m = Monitor::new(cfg(2));
        let mut trips = 0;
        // Epoch 1 is the off-zero baseline; the 6 stalled epochs after
        // it trip once per patience window.
        for _ in 0..7 {
            if m.observe(idle(0, 0)).is_some() {
                trips += 1;
            }
        }
        assert_eq!(trips, 3, "one trip per patience window while stalled");
    }

    #[test]
    fn skewed_progress_warns_straggler_once() {
        let mut m = Monitor::new(cfg(2));
        let mut events = Vec::new();
        for i in 1..=10u64 {
            // Node 0 does nearly all the work; node 2 has queued work
            // it never gets through — a true straggler.
            let snap = EpochSnapshot {
                delivered: i * 42,
                consumed: i * 42,
                consumed_by_node: vec![i * 40, i * 2, 0],
                queued: 8,
                queued_by_node: vec![0, 3, 5],
                ..Default::default()
            };
            events.extend(m.observe(snap));
        }
        assert_eq!(events.len(), 1, "straggler warns exactly once");
        assert_eq!(events[0].class, WatchdogClass::Straggler);
        assert!(events[0].detail.contains("node 2"), "{}", events[0].detail);
    }

    #[test]
    fn all_to_one_skew_without_queued_work_is_not_a_straggler() {
        // The partitioner sent everything to node 0 and nothing is
        // queued elsewhere: the other nodes are idle, not stragglers.
        let mut m = Monitor::new(cfg(2));
        for i in 1..=10u64 {
            let snap = EpochSnapshot {
                delivered: i * 40,
                consumed: i * 40,
                consumed_by_node: vec![i * 40, 0, 0],
                queued_by_node: vec![0, 0, 0],
                ..Default::default()
            };
            assert!(m.observe(snap).is_none());
        }
    }

    #[test]
    fn tiny_runs_never_warn_straggler() {
        let mut m = Monitor::new(cfg(1));
        for i in 1..=10u64 {
            let snap = EpochSnapshot {
                delivered: i,
                consumed: i,
                consumed_by_node: vec![i, 1],
                queued: 1,
                queued_by_node: vec![0, 1],
                ..Default::default()
            };
            assert!(m.observe(snap).is_none(), "under the 64-bin floor");
        }
    }

    /// Both engines publish into one registry (the benchmark `Env`
    /// shares it): a snapshot sums its own engine's gauges by metric
    /// name and attributes queue depth by the `node` label, and neither
    /// the other engine's levels nor job-labeled facts leak in. A node
    /// runtime awaiting its device counts with the busy workers — it
    /// is progress (`busy_workers_count_as_progress`) for its own
    /// engine only.
    #[test]
    fn capture_counts_only_its_own_engines_gauges() {
        use hamr_trace::{Labels, MetricsRegistry};
        let registry = MetricsRegistry::new();
        let obs = |engine| Observe {
            registry: Some(registry.clone()),
            engine,
            ..Default::default()
        };
        let (hamr, mapred) = (obs("hamr"), obs("mapred"));
        let node = |n| Labels::new().node(n);
        hamr.gauge("deferred_bins", node(0)).set(2);
        hamr.gauge("deferred_bins", node(1)).set(3);
        hamr.gauge("workers_busy", node(1)).set(1);
        hamr.gauge("splits_awaiting_read", node(0)).set(1);
        hamr.gauge("queue_depth", node(1).flowlet(0)).set(4);
        hamr.gauge("queue_depth", node(1).flowlet(2)).set(1);
        hamr.gauge("queue_depth", node(7)).set(6); // no such node
        hamr.gauge("window_inflight", node(0)).set(9); // not a watchdog input
        mapred.gauge("workers_busy", node(0)).set(50);
        mapred.gauge("deferred_bins", node(0)).set(50);
        mapred.gauge("queue_depth", node(0)).set(50);
        registry
            .gauge("queue_depth", node(0).engine("hamr").job("earlier"))
            .set(50);
        let snap = EpochSnapshot::capture(&hamr, 2);
        assert_eq!((snap.deferred, snap.busy, snap.queued), (5, 2, 11));
        assert_eq!(snap.queued_by_node, [0, 5]);
        let snap = EpochSnapshot::capture(&mapred, 2);
        assert_eq!((snap.deferred, snap.busy, snap.queued), (50, 50, 50));
        // No registry: nothing to read, nothing counted.
        let snap = EpochSnapshot::capture(&Observe::default(), 2);
        assert_eq!((snap.deferred, snap.busy, snap.queued), (0, 0, 0));
    }
}
