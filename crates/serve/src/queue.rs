//! Bounded multi-producer/multi-consumer submission queue.
//!
//! A deliberately boring `Mutex<VecDeque> + Condvar` queue: the serving
//! hot path is dominated by chip ticks (tens of microseconds to
//! milliseconds per frame), so lock-free cleverness would buy nothing
//! while costing auditability. What matters here is the *shape*:
//!
//! * bounded capacity, so producers feel backpressure instead of growing
//!   an unbounded buffer;
//! * batched consumption ([`BoundedQueue::pop_batch`]), so a worker
//!   drains several requests per lock acquisition (micro-batch
//!   coalescing);
//! * explicit close semantics, so shutdown can drain in-flight work
//!   without racing new submissions.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity (only returned by [`BoundedQueue::try_push`]).
    Full(T),
    /// The queue was closed; no further items are accepted.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        self.push_admitted(item, true, || {})
    }

    /// Push without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both hand the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.push_admitted(item, false, || {})
    }

    /// Push, blocking while full if `block` (else failing with
    /// [`PushError::Full`]), and run `admit` under the queue lock once the
    /// item is accepted, before any consumer can pop it: whatever `admit`
    /// records happens before anything a consumer does with the item.
    pub(crate) fn push_admitted(
        &self,
        item: T,
        block: bool,
        admit: impl FnOnce(),
    ) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().expect("queue lock");
        while block && st.items.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).expect("queue lock");
        }
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        admit();
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pop up to `max` items into `buf` (cleared first), blocking until at
    /// least one item is available. Returns `false` once the queue is
    /// closed *and* fully drained — the consumer's signal to exit.
    pub fn pop_batch(&self, max: usize, buf: &mut Vec<T>) -> bool {
        buf.clear();
        let max = max.max(1);
        let mut st = self.state.lock().expect("queue lock");
        while st.items.is_empty() && !st.closed {
            st = self.not_empty.wait(st).expect("queue lock");
        }
        if st.items.is_empty() {
            return false; // closed and drained
        }
        let take = max.min(st.items.len());
        buf.extend(st.items.drain(..take));
        drop(st);
        // Freed `take` slots; wake blocked producers (and fellow
        // consumers, via notify_all on close only).
        self.not_full.notify_all();
        true
    }

    /// Close the queue: producers are refused from now on, consumers
    /// drain what remains and then observe shutdown.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_single_consumer() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("push");
        }
        let mut buf = Vec::new();
        assert!(q.pop_batch(16, &mut buf));
        assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_push_rejects_when_full() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("ok");
        q.try_push(2).expect("ok");
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_producers_but_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(7).expect("ok");
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.push(9), Err(PushError::Closed(9)));
        let mut buf = Vec::new();
        assert!(q.pop_batch(4, &mut buf), "queued item survives close");
        assert_eq!(buf, vec![7]);
        assert!(!q.pop_batch(4, &mut buf), "then the queue reports closed");
    }

    #[test]
    fn admit_runs_only_for_accepted_items() {
        let q = BoundedQueue::new(1);
        let admitted = std::cell::Cell::new(0);
        let admit = || admitted.set(admitted.get() + 1);
        assert_eq!(q.push_admitted(1, false, admit), Ok(()));
        assert_eq!(q.push_admitted(2, false, admit), Err(PushError::Full(2)));
        q.close();
        assert_eq!(q.push_admitted(3, true, admit), Err(PushError::Closed(3)));
        assert_eq!(admitted.get(), 1);
    }

    #[test]
    fn batch_size_is_capped() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).expect("push");
        }
        let mut buf = Vec::new();
        assert!(q.pop_batch(4, &mut buf));
        assert_eq!(buf.len(), 4);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn blocking_push_resumes_after_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).expect("fill");
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut buf = Vec::new();
        assert!(q.pop_batch(1, &mut buf));
        assert!(producer.join().expect("join"), "producer unblocked");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_unblocks_waiting_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut buf = Vec::new();
            q2.pop_batch(4, &mut buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!consumer.join().expect("join"), "close wakes consumer");
    }
}
