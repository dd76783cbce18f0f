//! A bounded multi-producer job queue with explicit backpressure.
//!
//! The bound covers *outstanding* work — items still queued **plus**
//! items popped but not yet marked done via
//! [`BoundedQueue::task_done`]. That is the quantity a client cares
//! about when the server says `Busy`: "how much work is ahead of me",
//! not "how long is the ready list right now". A submission over the
//! bound is rejected immediately ([`PushError::Full`]); nothing ever
//! blocks on the way in, and nothing queues unboundedly.

use crate::deadline::{deadline_after, remaining};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a push was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The outstanding-work bound is reached; retry after work drains.
    Full {
        /// Outstanding items at rejection time.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The queue was closed; no further work is accepted.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    outstanding: usize,
    closed: bool,
}

/// The bounded queue. `T` is the work token (the server queues
/// [`crate::protocol::JobId`]s, keeping the payload in its own
/// registry).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    // lock:rank(20, serve.queue.state)
    state: Mutex<State<T>>,
    // lock:rank(21, serve.queue.ready)
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounding outstanding work to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (such a queue could accept nothing).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least one job");
        Self {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::new(),
                outstanding: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// A worker panicking while holding the lock must not wedge every
    /// other thread; the state (counters and a token list) stays
    /// consistent under any interleaving, so recover the guard.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accepts `item` unless the queue is full or closed. Never blocks.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] over capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.outstanding >= self.capacity {
            return Err(PushError::Full {
                depth: st.outstanding,
                capacity: self.capacity,
            });
        }
        st.outstanding += 1;
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next item, waiting up to `timeout`. Returns `None` on
    /// timeout or when the queue is closed and empty. A popped item
    /// stays *outstanding* until [`BoundedQueue::task_done`].
    ///
    /// A `timeout` too large to represent as a deadline
    /// (`Duration::MAX` and friends) saturates into "no deadline": the
    /// pop waits until an item arrives or the queue closes, instead of
    /// panicking on `Instant` overflow.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = deadline_after(timeout);
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = match remaining(deadline) {
                Some(Duration::ZERO) => return None,
                Some(left) => {
                    self.ready
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.ready.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Marks one previously popped item as finished, freeing its
    /// capacity slot.
    ///
    /// # Contract
    ///
    /// Every `task_done` must pair with exactly one earlier successful
    /// pop. An unmatched call would silently leak capacity (a slot
    /// freed that was never held corrupts the `Busy{depth, capacity}`
    /// accounting), so debug builds assert; release builds saturate at
    /// zero rather than wrapping, keeping the counter merely stale
    /// instead of catastrophically wrong.
    pub fn task_done(&self) {
        let mut st = self.lock();
        debug_assert!(
            st.outstanding > 0,
            "task_done without a matching pop: outstanding is already 0"
        );
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.ready.notify_all();
    }

    /// Closes the queue: further pushes fail, waiting poppers drain
    /// the remaining items and then receive `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Outstanding items (queued + popped-but-not-done).
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.lock().outstanding
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.lock().outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u64>::new(0);
    }

    #[test]
    fn popped_items_stay_outstanding_until_done() {
        let q = BoundedQueue::new(2);
        q.try_push(1u64).expect("slot 1");
        q.try_push(2u64).expect("slot 2");
        assert_eq!(
            q.try_push(3),
            Err(PushError::Full {
                depth: 2,
                capacity: 2
            })
        );
        // Popping does not free the slot...
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(1));
        assert_eq!(q.depth(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full { .. })));
        // ...task_done does.
        q.task_done();
        assert_eq!(q.depth(), 1);
        q.try_push(3).expect("slot freed");
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(3));
        q.task_done();
        q.task_done();
        assert!(q.is_idle());
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q = BoundedQueue::<u64>::new(1);
        let t0 = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(30)), None);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn close_rejects_pushes_and_drains_poppers() {
        let q = BoundedQueue::new(4);
        q.try_push(7u64).expect("open");
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        // The already-accepted item still drains...
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(7));
        // ...then poppers get None immediately (closed + empty).
        let t0 = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)), None);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn duration_max_pop_does_not_panic_and_still_pops() {
        // Regression: `Instant::now() + Duration::MAX` used to panic on
        // entry; the saturated deadline must behave as "wait forever".
        let q = std::sync::Arc::new(BoundedQueue::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::MAX));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(9u64).expect("slot");
        assert_eq!(h.join().expect("popper thread"), Some(9));
    }

    #[test]
    fn duration_max_pop_unblocks_on_close() {
        // "No deadline" must still honor close: the popper drains out
        // with None instead of waiting forever on a dead queue.
        let q = std::sync::Arc::new(BoundedQueue::<u64>::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::MAX));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("popper thread"), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "task_done without a matching pop")]
    fn unmatched_task_done_is_a_contract_violation() {
        // The contract: every task_done pairs with one successful pop.
        // Debug builds trap the mismatch loudly; release builds
        // saturate at zero (documented on `task_done`).
        let q = BoundedQueue::<u64>::new(1);
        q.task_done();
    }

    #[test]
    fn waiting_popper_wakes_on_push() {
        let q = std::sync::Arc::new(BoundedQueue::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u64).expect("slot");
        assert_eq!(h.join().expect("popper thread"), Some(42));
    }
}
