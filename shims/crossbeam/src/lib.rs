//! Minimal offline stand-in for the `crossbeam` crate: an MPMC
//! unbounded channel with crossbeam-compatible disconnect semantics,
//! plus a `select!` macro covering the two-receiver-with-timeout shape
//! the scheduler uses (it blocks until either receiver is ready or the
//! deadline passes, as upstream's does).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// The signals of the threads blocked in `select!` on this
        /// channel: a send or the last sender's drop raises each.
        watchers: Vec<Arc<Signal>>,
    }

    impl<T> State<T> {
        /// Ready for `select!`: a message to take or no sender left.
        fn ready(&self) -> bool {
            !self.queue.is_empty() || self.senders == 0
        }

        fn notify_watchers(&self) {
            for w in &self.watchers {
                w.raise();
            }
        }
    }

    /// One thread's wake-up flag for `select!`, registered on every
    /// receiver it waits on. Lock order: a channel's state, then a
    /// signal; a thread holding its signal's lock takes no channel lock.
    struct Signal {
        raised: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        fn raise(&self) {
            *self.raised.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.cv.notify_one();
        }
    }

    thread_local! {
        // Made once per thread, so a wait allocates nothing.
        static SIGNAL: Arc<Signal> = Arc::new(Signal {
            raised: Mutex::new(false),
            cv: Condvar::new(),
        });
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
                watchers: Vec::new(),
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
            state.notify_watchers();
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
                let last = state.senders == 0;
                if last {
                    state.notify_watchers();
                }
                last
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

        /// Registers `signal` and answers whether the channel is
        /// already ready, both under one lock, so no send between the
        /// check and the wait is missed.
        fn watch(&self, signal: &Arc<Signal>) -> bool {
            let mut state = self.0.lock();
            state.watchers.push(signal.clone());
            state.ready()
        }

        fn unwatch(&self, signal: &Arc<Signal>) {
            let mut state = self.0.lock();
            if let Some(i) = state.watchers.iter().position(|w| Arc::ptr_eq(w, signal)) {
                state.watchers.swap_remove(i);
            }
        }
    }

    /// Blocks the calling thread until `a` or `b` is ready — a message
    /// is queued or its last sender is gone — or `deadline` passes. It
    /// may return early (another receiver took the message); `select!`
    /// checks both receivers again either way. Allocates nothing once
    /// the thread's signal exists and the watcher lists have grown.
    #[doc(hidden)]
    pub fn wait_either<A, B>(a: &Receiver<A>, b: &Receiver<B>, deadline: Instant) {
        SIGNAL.with(|signal| {
            *signal.raised.lock().unwrap_or_else(PoisonError::into_inner) = false;
            let ready = a.watch(signal) | b.watch(signal);
            if !ready {
                let mut raised = signal.raised.lock().unwrap_or_else(PoisonError::into_inner);
                while !*raised {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    raised = signal
                        .cv
                        .wait_timeout(raised, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
            a.unwatch(signal);
            b.unwatch(signal);
        });
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

/// [`select!`] over two receivers plus a `default(timeout)` arm.
///
/// Matches crossbeam semantics for this shape: a disconnected receiver
/// counts as ready (its arm fires with `Err(RecvError)`), a message
/// already queued wins over the default arm, and the default arm fires
/// once `timeout` elapses with neither ready. Between checks the
/// calling thread blocks in [`channel::wait_either`] until a send or a
/// last-sender drop on either receiver, or the deadline.
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
            if ::std::time::Instant::now() >= __deadline {
                $hd
                break;
            }
            $crate::channel::wait_either(&$r1, &$r2, __deadline);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;
    use std::time::{Duration, Instant};

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

    type Fired = (u8, Result<u32, RecvError>);

    /// Runs a `select!` with a 30 s default on a thread, which reports
    /// the arm that fired (1, 2, or 0 for the default) and its value.
    fn blocked_select(
        rx1: Receiver<u32>,
        rx2: Receiver<u32>,
    ) -> (thread::JoinHandle<()>, Receiver<Fired>) {
        let (tx, fired) = unbounded();
        let t = thread::spawn(move || {
            let mut arm = (0, Err(RecvError));
            crate::select! {
                recv(rx1) -> v => { arm = (1, v); }
                recv(rx2) -> v => { arm = (2, v); }
                default(Duration::from_secs(30)) => {}
            }
            tx.send(arm).unwrap();
        });
        (t, fired)
    }

    /// The arm the thread reports, failing after 5 s: a wake lost to a
    /// race would leave it asleep until its 30 s default.
    fn fired_within_5s((t, fired): (thread::JoinHandle<()>, Receiver<Fired>)) -> Fired {
        let arm = fired
            .recv_timeout(Duration::from_secs(5))
            .expect("select! did not wake");
        t.join().unwrap();
        arm
    }

    #[test]
    fn a_blocked_select_wakes_on_a_send_to_either_receiver() {
        for arm in [1, 2] {
            let (tx1, rx1) = unbounded::<u32>();
            let (tx2, rx2) = unbounded::<u32>();
            let waiter = blocked_select(rx1, rx2);
            // Give the thread time to block; a send before it does is
            // found by the check that precedes the wait.
            thread::sleep(Duration::from_millis(20));
            let tx = if arm == 1 { &tx1 } else { &tx2 };
            tx.send(7).unwrap();
            assert_eq!(fired_within_5s(waiter), (arm, Ok(7)));
        }
    }

    #[test]
    fn a_blocked_select_wakes_when_the_last_sender_drops() {
        for arm in [1, 2] {
            let (tx1, rx1) = unbounded::<u32>();
            let (tx2, rx2) = unbounded::<u32>();
            let spare = if arm == 1 { tx1.clone() } else { tx2.clone() };
            let waiter = blocked_select(rx1, rx2);
            thread::sleep(Duration::from_millis(20));
            drop(spare);
            thread::sleep(Duration::from_millis(20));
            assert!(
                waiter.1.try_recv().is_err(),
                "a sender is left: still blocked"
            );
            if arm == 1 {
                drop(tx1);
            } else {
                drop(tx2);
            }
            assert_eq!(fired_within_5s(waiter), (arm, Err(RecvError)));
        }
    }

    #[test]
    fn a_queued_message_beats_a_zero_default() {
        let (_tx1, rx1) = unbounded::<u32>();
        let (tx2, rx2) = unbounded::<u32>();
        tx2.send(3).unwrap();
        let mut arm = 0;
        crate::select! {
            recv(rx1) -> _v => { arm = 1; }
            recv(rx2) -> v => { assert_eq!(v, Ok(3)); arm = 2; }
            default(Duration::ZERO) => {}
        }
        assert_eq!(arm, 2);
    }

    #[test]
    fn a_thousand_round_trips_through_select_take_under_a_quarter_second() {
        // A poll that sleeps 500 µs between checks needs at least 0.5 s
        // for these: every hop finds the other side asleep.
        const TRIPS: u32 = 1_000;
        let (ping_tx, ping_rx) = unbounded::<u32>();
        let (pong_tx, pong_rx) = unbounded::<u32>();
        let (_idle_tx, idle_rx) = unbounded::<u32>();
        let idle = idle_rx.clone();
        let echo = thread::spawn(move || {
            for _ in 0..TRIPS {
                let mut ping = None;
                crate::select! {
                    recv(ping_rx) -> v => { ping = v.ok(); }
                    recv(idle) -> _v => {}
                    default(Duration::from_secs(30)) => {}
                }
                pong_tx.send(ping.expect("a ping")).unwrap();
            }
        });
        let start = Instant::now();
        for i in 0..TRIPS {
            ping_tx.send(i).unwrap();
            let mut pong = None;
            crate::select! {
                recv(pong_rx) -> v => { pong = v.ok(); }
                recv(idle_rx) -> _v => {}
                default(Duration::from_secs(30)) => {}
            }
            assert_eq!(pong, Some(i));
        }
        let took = start.elapsed();
        echo.join().unwrap();
        assert!(
            took < Duration::from_millis(250),
            "{TRIPS} round trips took {took:?}"
        );
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
