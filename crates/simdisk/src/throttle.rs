//! Single-spindle serialization: callers book disk time on one timeline
//! and sleep until their slot has passed.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Serializes charged durations onto one timeline, like a disk spindle:
/// each booking begins when the previous one ends.
pub struct Throttle {
    busy_until: Mutex<Option<Instant>>,
}

impl Throttle {
    pub fn new() -> Self {
        Throttle {
            busy_until: Mutex::new(None),
        }
    }

    /// Book `dur` of device time starting no earlier than now and return
    /// when the booking ends, without blocking: submission. A zero
    /// duration books nothing and is over already.
    pub fn reserve(&self, dur: Duration) -> Instant {
        let now = Instant::now();
        if dur.is_zero() {
            return now;
        }
        let mut busy = self.busy_until.lock();
        let start = match *busy {
            Some(b) if b > now => b,
            _ => now,
        };
        let end = start + dur;
        *busy = Some(end);
        end
    }

    /// [`reserve`](Throttle::reserve) `dur`, then block the caller until
    /// the booking has elapsed: submission and completion in one call.
    pub fn acquire(&self, dur: Duration) {
        // An instant disk charges zero on every IO: not even a clock read.
        if !dur.is_zero() {
            sleep_until(self.reserve(dur));
        }
    }
}

#[cfg(test)]
impl Throttle {
    /// Where the timeline ends: the device-model tests assert on this,
    /// not on wall time.
    pub(crate) fn busy_until(&self) -> Option<Instant> {
        *self.busy_until.lock()
    }
}

/// Block the caller until `at`; returns at once when `at` has passed.
pub fn sleep_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

impl Default for Throttle {
    fn default() -> Self {
        Throttle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_is_free() {
        let t = Throttle::new();
        let start = Instant::now();
        for _ in 0..1000 {
            t.acquire(Duration::ZERO);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn single_acquire_sleeps() {
        let t = Throttle::new();
        let start = Instant::now();
        t.acquire(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn reserve_books_back_to_back_without_sleeping() {
        let t = Throttle::new();
        let start = Instant::now();
        let first = t.reserve(Duration::from_millis(200));
        let second = t.reserve(Duration::from_millis(200));
        assert!(Instant::now() < first, "reserve slept");
        assert!(first >= start + Duration::from_millis(200));
        assert_eq!(second, first + Duration::from_millis(200));
    }

    #[test]
    fn reserve_then_sleep_until_is_acquire() {
        // The same 20 ms booking both ways: each returns no earlier than
        // its slot's end, and both advance the one timeline.
        let t = Throttle::new();
        let start = Instant::now();
        t.acquire(Duration::from_millis(20));
        let after_acquire = Instant::now();
        let end = t.reserve(Duration::from_millis(20));
        sleep_until(end);
        assert!(after_acquire >= start + Duration::from_millis(20));
        assert!(end >= after_acquire + Duration::from_millis(20));
        assert!(Instant::now() >= end);
        // A later booking starts where these two ended.
        assert!(t.reserve(Duration::from_millis(1)) >= end);
    }

    #[test]
    fn concurrent_acquires_serialize() {
        let t = std::sync::Arc::new(Throttle::new());
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || t.acquire(Duration::from_millis(15)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 x 15 ms serialized >= 60 ms total.
        assert!(
            start.elapsed() >= Duration::from_millis(55),
            "elapsed {:?}",
            start.elapsed()
        );
    }
}
