//! Per-worker ready-task deque.
//!
//! The owner pushes and pops at the *back* (LIFO): the task it just
//! made ready is the one whose input frames are still warm in cache.
//! Thieves steal from the *front* (FIFO): they take the oldest —
//! coldest — tasks, which the owner would have reached last anyway, so
//! steals minimally disturb the owner's locality.
//!
//! The deque is a mutex around a `VecDeque` rather than a lock-free
//! Chase-Lev array: the workspace runs on in-tree shims (no
//! `crossbeam-deque`), and at simulation scale the lock is uncontended
//! for the owner and briefly contended only while a thief sweeps.

use parking_lot::Mutex;
use std::collections::VecDeque;

pub(crate) struct WorkerDeque<T> {
    q: Mutex<VecDeque<T>>,
}

impl<T> WorkerDeque<T> {
    pub(crate) fn new() -> Self {
        WorkerDeque {
            q: Mutex::new(VecDeque::new()),
        }
    }

    /// Owner-side push (back of the deque).
    pub(crate) fn push(&self, t: T) {
        self.q.lock().push_back(t);
    }

    /// Owner-side pop (back of the deque, LIFO — cache-warm first).
    pub(crate) fn pop(&self) -> Option<T> {
        self.q.lock().pop_back()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// Thief-side steal: take up to half of the victim's tasks (at
    /// least one) from the *front*. The first stolen task is returned
    /// for immediate execution; the rest are handed back in `extra` for
    /// the thief to keep in its own deque.
    pub(crate) fn steal_half(&self, extra: &mut Vec<T>) -> Option<T> {
        let mut q = self.q.lock();
        let n = q.len();
        if n == 0 {
            return None;
        }
        let take = (n / 2).clamp(1, STEAL_CAP);
        let first = q.pop_front();
        for _ in 1..take {
            if let Some(t) = q.pop_front() {
                extra.push(t);
            }
        }
        first
    }
}

/// Upper bound on tasks moved per steal, so one sweep over a huge
/// backlog doesn't just relocate the imbalance.
const STEAL_CAP: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo() {
        let d = WorkerDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn thief_is_fifo_and_takes_half() {
        let d = WorkerDeque::new();
        for i in 0..8 {
            d.push(i);
        }
        let mut extra = Vec::new();
        let first = d.steal_half(&mut extra);
        // Half of 8 = 4 stolen, oldest first.
        assert_eq!(first, Some(0));
        assert_eq!(extra, vec![1, 2, 3]);
        assert_eq!(d.len(), 4);
        // Owner still pops its newest.
        assert_eq!(d.pop(), Some(7));
    }

    #[test]
    fn steal_from_single_task_deque_takes_it() {
        let d = WorkerDeque::new();
        d.push(42);
        let mut extra = Vec::new();
        assert_eq!(d.steal_half(&mut extra), Some(42));
        assert!(extra.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn steal_is_capped() {
        let d = WorkerDeque::new();
        for i in 0..100 {
            d.push(i);
        }
        let mut extra = Vec::new();
        d.steal_half(&mut extra).unwrap();
        assert_eq!(extra.len(), STEAL_CAP - 1);
        assert_eq!(d.len(), 100 - STEAL_CAP);
    }
}
