//! The node-global injector queue.
//!
//! The runtime thread's ingress pump admits work here; workers whose
//! local deque is dry pull a small batch out (front, FIFO) and keep the
//! surplus in their own deque. Batching amortizes the lock, while the
//! small cap keeps one worker from hoarding a fire burst that the rest
//! of the pool could have shared.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Max tasks one injector pull moves into a worker's deque.
pub(crate) const INJECTOR_BATCH: usize = 4;

pub(crate) struct Injector<T> {
    q: Mutex<VecDeque<T>>,
    /// Cached length so idle workers can probe without locking.
    len: AtomicUsize,
}

impl<T> Injector<T> {
    pub(crate) fn new() -> Self {
        Injector {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    pub(crate) fn push(&self, t: T) {
        let mut q = self.q.lock();
        q.push_back(t);
        self.len.store(q.len(), Ordering::Release);
    }

    pub(crate) fn push_batch(&self, ts: impl IntoIterator<Item = T>) {
        let mut q = self.q.lock();
        q.extend(ts);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Take up to [`INJECTOR_BATCH`] tasks; the first is returned for
    /// immediate execution, the rest land in `extra`.
    pub(crate) fn pop_batch(&self, extra: &mut Vec<T>) -> Option<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.q.lock();
        let first = q.pop_front();
        for _ in 1..INJECTOR_BATCH {
            if let Some(t) = q.pop_front() {
                extra.push(t);
            } else {
                break;
            }
        }
        self.len.store(q.len(), Ordering::Release);
        first
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_batched_pop() {
        let inj = Injector::new();
        inj.push_batch(0..10);
        assert_eq!(inj.len(), 10);
        let mut extra = Vec::new();
        let first = inj.pop_batch(&mut extra);
        assert_eq!(first, Some(0));
        assert_eq!(extra, vec![1, 2, 3]);
        assert_eq!(inj.len(), 10 - INJECTOR_BATCH);
    }

    #[test]
    fn empty_pop_is_lock_free_none() {
        let inj: Injector<u32> = Injector::new();
        let mut extra = Vec::new();
        assert_eq!(inj.pop_batch(&mut extra), None);
        assert!(extra.is_empty());
    }
}
