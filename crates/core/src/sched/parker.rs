//! Per-worker parker: a token-passing condvar wrapper.
//!
//! A worker that finds the whole node drained parks here; task
//! submission deposits a token and wakes it. Tokens are capped at one,
//! so spurious unparks cannot accumulate into a busy-spin. Parks are
//! always bounded by a timeout: even if a wake-up is lost to a race
//! (work appeared in a peer's deque without an unpark reaching this
//! worker), the worker re-checks the steal targets within
//! [`super::PARK_TIMEOUT`] — this is what bounds the starvation window
//! the scheduler tests assert on.

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

pub(crate) struct Parker {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            token: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Park until a token arrives or `timeout` elapses. Returns the
    /// time actually spent parked (zero if a token was already
    /// waiting).
    pub(crate) fn park(&self, timeout: Duration) -> Duration {
        let start = Instant::now();
        let mut token = self.token.lock();
        if *token {
            *token = false;
            return Duration::ZERO;
        }
        let deadline = start + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.cv.wait_for(&mut token, deadline - now);
            if *token {
                *token = false;
                break;
            }
        }
        start.elapsed()
    }

    /// Deposit a token (capped at one) and wake the parked worker.
    pub(crate) fn unpark(&self) {
        let mut token = self.token.lock();
        *token = true;
        drop(token);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pre_deposited_token_skips_the_park() {
        let p = Parker::new();
        p.unpark();
        let parked = p.park(Duration::from_secs(5));
        assert!(parked < Duration::from_millis(100), "parked {parked:?}");
    }

    #[test]
    fn tokens_do_not_accumulate() {
        let p = Parker::new();
        p.unpark();
        p.unpark();
        p.unpark();
        assert!(p.park(Duration::from_secs(1)) < Duration::from_millis(100));
        // Only one token was banked: the second park must wait out its
        // (short) timeout.
        let parked = p.park(Duration::from_millis(20));
        assert!(parked >= Duration::from_millis(15), "parked {parked:?}");
    }

    #[test]
    fn unpark_wakes_a_parked_thread() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.park(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(30));
        p.unpark();
        let parked = h.join().unwrap();
        assert!(parked < Duration::from_secs(5), "parked {parked:?}");
    }

    #[test]
    fn park_times_out_without_token() {
        let p = Parker::new();
        let parked = p.park(Duration::from_millis(10));
        assert!(parked >= Duration::from_millis(8), "parked {parked:?}");
    }
}
