//! Decentralized work-stealing task pool.
//!
//! This module replaces the old "one runtime thread owns every
//! scheduling decision" control plane. Each worker owns a
//! [`WorkerDeque`] (owner pops LIFO for cache warmth, thieves steal
//! FIFO); the runtime thread only *injects* newly-admitted tasks into a
//! node-global [`Injector`], and a worker that finds both its deque and
//! the injector dry sweeps its peers' deques before parking.
//!
//! Fetch policy, in order:
//!   1. own deque (back, LIFO)
//!   2. injector (front, small batch — surplus lands in the own deque)
//!   3. steal sweep over peers starting at a rotating offset, taking up
//!      to half the victim's deque (front, FIFO)
//!   4. park, bounded by [`PARK_TIMEOUT`]
//!
//! The bounded park is the liveness backstop: even if an unpark is lost
//! to a race, a parked worker re-runs the full fetch policy within one
//! timeout, so no worker can starve while a peer's deque holds ready
//! tasks for longer than that window. The scheduler tests assert this
//! bound directly.

mod deque;
mod injector;
mod parker;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use deque::WorkerDeque;
use injector::Injector;
use parker::Parker;

/// Upper bound on a single park. Keeps the starvation window bounded
/// without the complexity of a fully race-free wake protocol.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Where a fetched task came from; used for tracing steals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The worker's own deque.
    Local,
    /// The node-global injector.
    Injector,
    /// Stolen from the named victim's deque.
    Stolen { victim: usize },
}

#[derive(Default)]
struct WorkerStats {
    /// Steal operations that fetched at least one task.
    steals: AtomicU64,
    /// Total tasks moved by this worker's steals.
    stolen_tasks: AtomicU64,
    /// Total time spent parked, in microseconds.
    park_us: AtomicU64,
    /// Tasks fetched (and hence executed) by this worker.
    tasks: AtomicU64,
}

/// Work-stealing pool over `workers` deques plus one injector.
///
/// Generic over the task type so the scheduler can be unit-tested
/// without dragging in the whole node runtime.
pub(crate) struct Pool<T: Send> {
    injector: Injector<T>,
    deques: Vec<WorkerDeque<T>>,
    parkers: Vec<Parker>,
    stats: Vec<WorkerStats>,
    shutdown: AtomicBool,
    /// Round-robin cursor for picking which parked worker to wake.
    wake_rr: AtomicUsize,
}

impl<T: Send> Pool<T> {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        Pool {
            injector: Injector::new(),
            deques: (0..workers).map(|_| WorkerDeque::new()).collect(),
            parkers: (0..workers).map(|_| Parker::new()).collect(),
            stats: (0..workers).map(|_| WorkerStats::default()).collect(),
            shutdown: AtomicBool::new(false),
            wake_rr: AtomicUsize::new(0),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Submit one task from outside the pool (the runtime thread's
    /// ingress pump). Wakes one worker.
    pub(crate) fn submit(&self, t: T) {
        self.injector.push(t);
        self.unpark_one();
    }

    /// Submit a batch (e.g. a reduce fire's sub-shards). Wakes all
    /// workers so the burst spreads immediately.
    pub(crate) fn submit_batch(&self, ts: impl IntoIterator<Item = T>) {
        self.injector.push_batch(ts);
        self.unpark_all();
    }

    /// Push a task straight onto a specific worker's deque without a
    /// wake-up. Test seam: lets the starvation test preload a victim.
    #[cfg(test)]
    pub(crate) fn submit_local(&self, worker: usize, t: T) {
        self.deques[worker].push(t);
    }

    /// Run the fetch policy for `worker`. Returns the task and where it
    /// came from, or `None` if the whole node is drained.
    pub(crate) fn try_fetch(&self, worker: usize) -> Option<(T, Source)> {
        let stats = &self.stats[worker];
        // 1. Own deque, newest first.
        if let Some(t) = self.deques[worker].pop() {
            stats.tasks.fetch_add(1, Ordering::Relaxed);
            return Some((t, Source::Local));
        }
        // 2. Injector, oldest first; surplus goes into the own deque.
        let mut extra = Vec::new();
        if let Some(t) = self.injector.pop_batch(&mut extra) {
            let n = extra.len();
            for x in extra {
                self.deques[worker].push(x);
            }
            if n > 0 {
                // We banked more than we can run right now; let a peer
                // come steal the surplus.
                self.unpark_one();
            }
            stats.tasks.fetch_add(1, Ordering::Relaxed);
            return Some((t, Source::Injector));
        }
        // 3. Steal sweep, starting past ourselves so victims rotate.
        let n = self.deques.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            let mut extra = Vec::new();
            if let Some(t) = self.deques[victim].steal_half(&mut extra) {
                let moved = 1 + extra.len() as u64;
                for x in extra {
                    self.deques[worker].push(x);
                }
                stats.steals.fetch_add(1, Ordering::Relaxed);
                stats.stolen_tasks.fetch_add(moved, Ordering::Relaxed);
                stats.tasks.fetch_add(1, Ordering::Relaxed);
                return Some((t, Source::Stolen { victim }));
            }
        }
        None
    }

    /// Park `worker` until new work is submitted or [`PARK_TIMEOUT`]
    /// elapses. Returns the time actually spent parked.
    pub(crate) fn park(&self, worker: usize) -> Duration {
        let parked = self.parkers[worker].park(PARK_TIMEOUT);
        self.stats[worker]
            .park_us
            .fetch_add(parked.as_micros() as u64, Ordering::Relaxed);
        parked
    }

    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.unpark_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn unpark_one(&self) {
        let n = self.parkers.len();
        let at = self.wake_rr.fetch_add(1, Ordering::Relaxed);
        self.parkers[at % n].unpark();
    }

    fn unpark_all(&self) {
        for p in &self.parkers {
            p.unpark();
        }
    }

    // --- stats accessors (folded into NodeMetrics at teardown) ---

    pub(crate) fn steals(&self, worker: usize) -> u64 {
        self.stats[worker].steals.load(Ordering::Relaxed)
    }

    pub(crate) fn stolen_tasks(&self, worker: usize) -> u64 {
        self.stats[worker].stolen_tasks.load(Ordering::Relaxed)
    }

    pub(crate) fn park_time(&self, worker: usize) -> Duration {
        Duration::from_micros(self.stats[worker].park_us.load(Ordering::Relaxed))
    }

    pub(crate) fn tasks(&self, worker: usize) -> u64 {
        self.stats[worker].tasks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn fetch_prefers_local_then_injector() {
        let pool: Pool<u32> = Pool::new(2);
        pool.submit(10); // injector
        pool.submit_local(0, 20); // worker 0's deque
        let (t, src) = pool.try_fetch(0).unwrap();
        assert_eq!((t, src), (20, Source::Local));
        let (t, src) = pool.try_fetch(0).unwrap();
        assert_eq!((t, src), (10, Source::Injector));
        assert!(pool.try_fetch(0).is_none());
    }

    #[test]
    fn injector_surplus_lands_in_own_deque() {
        let pool: Pool<u32> = Pool::new(2);
        pool.submit_batch(0..6);
        let (t, src) = pool.try_fetch(0).unwrap();
        assert_eq!((t, src), (0, Source::Injector));
        // Batch of 4 pulled: 0 executed, 1..=3 banked locally (LIFO).
        assert_eq!(pool.try_fetch(0), Some((3, Source::Local)));
        assert_eq!(pool.try_fetch(0), Some((2, Source::Local)));
        assert_eq!(pool.try_fetch(0), Some((1, Source::Local)));
        // 4 and 5 still in the injector.
        assert_eq!(pool.try_fetch(0), Some((4, Source::Injector)));
    }

    #[test]
    fn dry_worker_steals_from_peer() {
        let pool: Pool<u32> = Pool::new(2);
        for i in 0..8 {
            pool.submit_local(0, i);
        }
        let (t, src) = pool.try_fetch(1).unwrap();
        assert_eq!(src, Source::Stolen { victim: 0 });
        assert_eq!(t, 0); // thief takes the victim's oldest
        assert_eq!(pool.steals(1), 1);
        assert_eq!(pool.stolen_tasks(1), 4); // half of 8
    }

    /// The headline liveness bound: a worker must not sit parked while
    /// a peer's deque holds ready tasks beyond the bounded park window.
    /// Worker 0 never runs; worker 1 must drain all of worker 0's
    /// preloaded tasks via steals, and quickly.
    #[test]
    fn starvation_window_is_bounded() {
        const TASKS: u64 = 64;
        let pool: Arc<Pool<u64>> = Arc::new(Pool::new(2));
        for i in 0..TASKS {
            pool.submit_local(0, i);
        }
        let thief = Arc::clone(&pool);
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            let mut got = 0u64;
            while got < TASKS {
                match thief.try_fetch(1) {
                    Some(_) => got += 1,
                    None => {
                        thief.park(1);
                    }
                }
            }
            got
        });
        let got = h.join().unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got, TASKS);
        assert!(pool.steals(1) >= 1, "thief never stole");
        // 64 trivial fetches interleaved with at most a handful of
        // 1ms parks must finish well inside a second.
        assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
        assert!(
            pool.park_time(1) < Duration::from_millis(500),
            "parked {:?} while peer held ready tasks",
            pool.park_time(1)
        );
    }

    #[test]
    fn shutdown_unparks_everyone() {
        let pool: Arc<Pool<u32>> = Arc::new(Pool::new(3));
        let mut handles = Vec::new();
        for w in 0..3 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                while !p.is_shutdown() {
                    if p.try_fetch(w).is_none() {
                        p.park(w);
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        pool.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
