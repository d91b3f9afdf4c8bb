//! A bounded FIFO with explicit backpressure.
//!
//! The service's event loop is single-threaded by design (determinism
//! lives in *what* each round does, parallelism lives inside the
//! round), so the queue needs no locking — what it needs is a `push`
//! that can *refuse*: a full admission queue defers intake, a full
//! wait queue sheds the tenant. Both behaviours hinge on getting the
//! rejected item back, which is why [`BoundedQueue::push`] returns it
//! instead of growing.

use std::collections::VecDeque;

/// A FIFO that never exceeds its construction-time capacity.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends `item`, or hands it back when the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity; the caller
    /// decides whether that means "defer" or "shed".
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes every item, oldest first.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_refuses_beyond_capacity_and_returns_the_item() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "rejected item comes back");
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_all(), vec![1, 2], "FIFO order");
        assert!(q.push(3).is_ok(), "draining frees the slots");
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut q = BoundedQueue::new(0);
        assert!(q.push('a').is_ok());
        assert_eq!(q.push('b'), Err('b'));
    }

    #[test]
    fn drain_preserves_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.drain_all(), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }
}
