//! Minimal offline stand-in for the `crossbeam` crate: an MPMC
//! unbounded channel with crossbeam-compatible disconnect semantics,
//! plus a `select!` macro covering the two-receiver-with-timeout shape
//! the scheduler uses (implemented by polling with a short sleep).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    pub struct Sender<T>(Arc<Inner<T>>);

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender {{ .. }}")
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let last = {
                let mut state = self.0.lock();
                state.senders -= 1;
                state.senders == 0
            };
            if last {
                self.0.ready.notify_all();
            }
        }
    }

    pub struct Receiver<T>(Arc<Inner<T>>);

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver {{ .. }}")
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            if let Some(v) = state.queue.pop_front() {
                Ok(v)
            } else if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (next, _) = self
                    .0
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    // Let call sites spell the macro `crossbeam::channel::select!` like
    // the real crate does.
    pub use crate::select;
}

/// Longest [`select!`] sleeps between two polls of its receivers.
const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_micros(500);

/// How long [`select!`] sleeps before its next poll, `None` once the
/// deadline has come: a poll interval, cut short where the deadline is
/// nearer, so the default arm fires at its deadline and not up to an
/// interval after it.
#[doc(hidden)]
pub fn poll_sleep(
    now: std::time::Instant,
    deadline: std::time::Instant,
) -> Option<std::time::Duration> {
    let left = deadline.saturating_duration_since(now);
    (!left.is_zero()).then(|| left.min(POLL_INTERVAL))
}

/// Polling `select!` over two receivers plus a `default(timeout)` arm.
///
/// Matches crossbeam semantics for this shape: a disconnected receiver
/// counts as ready (its arm fires with `Err(RecvError)`), and the
/// default arm fires once `timeout` elapses with neither ready.
#[macro_export]
macro_rules! select {
    (
        recv($r1:expr) -> $p1:pat => $h1:block
        recv($r2:expr) -> $p2:pat => $h2:block
        default($t:expr) => $hd:block
    ) => {{
        let __deadline = ::std::time::Instant::now() + $t;
        loop {
            match $r1.try_recv() {
                ::std::result::Result::Err($crate::channel::TryRecvError::Empty) => {}
                __r => {
                    let $p1 = __r.map_err(|_| $crate::channel::RecvError);
                    $h1
                    break;
                }
            }
            match $r2.try_recv() {
                ::std::result::Result::Err($crate::channel::TryRecvError::Empty) => {}
                __r => {
                    let $p2 = __r.map_err(|_| $crate::channel::RecvError);
                    $h2
                    break;
                }
            }
            match $crate::poll_sleep(::std::time::Instant::now(), __deadline) {
                ::std::option::Option::Some(__nap) => ::std::thread::sleep(__nap),
                ::std::option::Option::None => {
                    $hd
                    break;
                }
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn mpmc_each_message_delivered_once() {
        let (tx, rx) = unbounded::<u64>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        drop(rx);
        for v in 1..=100u64 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100 * 101 / 2);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u32>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(t.join().unwrap(), Ok(42));
    }

    #[test]
    fn a_poll_never_sleeps_past_the_deadline() {
        use std::time::Instant;
        let now = Instant::now();
        let us = Duration::from_micros;
        assert_eq!(crate::poll_sleep(now, now + us(20_000)), Some(us(500)));
        assert_eq!(crate::poll_sleep(now, now + us(500)), Some(us(500)));
        assert_eq!(crate::poll_sleep(now, now + us(100)), Some(us(100)));
        // At or past the deadline there is nothing to sleep for:
        // `default(Duration::ZERO)` fires on the first pass.
        assert_eq!(crate::poll_sleep(now, now), None);
        assert_eq!(crate::poll_sleep(now + us(1), now), None);
    }

    #[test]
    fn select_prefers_ready_receiver_then_times_out() {
        let (tx1, rx1) = unbounded::<u32>();
        let (_tx2, rx2) = unbounded::<u32>();
        tx1.send(5).unwrap();
        let mut got = None;
        let mut timed_out = false;
        crate::select! {
            recv(rx1) -> v => { if let Ok(v) = v { got = Some(v); } }
            recv(rx2) -> v => { if let Ok(v) = v { got = Some(v + 100); } }
            default(Duration::from_millis(5)) => { timed_out = true; }
        }
        assert_eq!(got, Some(5));
        assert!(!timed_out);

        let mut fired_default = false;
        let mut late = None;
        crate::select! {
            recv(rx1) -> v => { if let Ok(v) = v { late = Some(v); } }
            recv(rx2) -> v => { if let Ok(v) = v { late = Some(v); } }
            default(Duration::from_millis(5)) => { fired_default = true; }
        }
        assert!(fired_default);
        assert_eq!(late, None);
    }
}
