//! The one bounded buffer: a FIFO that keeps the newest `capacity` items,
//! evicting the oldest, and counts what it recorded and evicted.
//!
//! Every telemetry buffer in the workspace that must not grow with the
//! length of a run is a [`Ring`]: flight events, time-series points,
//! spans awaiting collection, the controller's span store and the
//! enclave's punt mailbox. The bound, the eviction and the counters live
//! here once; a consumer reads `evicted` to learn its window was
//! truncated.
//!
//! A ring allocates nothing until its first push and then grows like a
//! `VecDeque` up to its capacity, so thousands of idle rings cost only
//! their headers.

use std::collections::VecDeque;

use crate::json::{Json, ToJson};

/// A bounded FIFO that evicts its oldest item when full.
///
/// Every item ever pushed is either retained, drained, or evicted:
/// `recorded = len + drained + evicted`. A ring of capacity 0 keeps
/// nothing (each push is recorded and evicted at once).
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    recorded: u64,
    evicted: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` items.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Append `item`, evicting the oldest retained item if the ring is full.
    ///
    /// Out of line: pushes sit on the cold branches of hot functions (a
    /// sampled or punted packet), whose code should not carry the ring's.
    #[inline(never)]
    pub fn push(&mut self, item: T) {
        self.recorded += 1;
        if self.items.len() == self.capacity {
            self.evicted += 1;
            if self.items.pop_front().is_none() {
                return;
            }
        }
        self.items.push_back(item);
    }

    /// Remove and yield up to `max` retained items, oldest first.
    pub fn drain(&mut self, max: usize) -> std::collections::vec_deque::Drain<'_, T> {
        let n = max.min(self.items.len());
        self.items.drain(..n)
    }

    /// Items pushed over the ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items evicted to respect the bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The newest retained item.
    pub fn last(&self) -> Option<&T> {
        self.items.back()
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Retained items, oldest first, mutably.
    pub fn iter_mut(&mut self) -> std::collections::vec_deque::IterMut<'_, T> {
        self.items.iter_mut()
    }
}

impl<T> Extend<T> for Ring<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: ToJson> ToJson for Ring<T> {
    /// `{"recorded", "evicted", "items"}`, items oldest first.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("recorded", self.recorded.into()),
            ("evicted", self.evicted.into()),
            (
                "items",
                Json::Arr(self.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_nothing_until_the_first_push() {
        let r: Ring<u64> = Ring::new(1 << 20);
        assert_eq!(r.items.capacity(), 0);
    }
}
