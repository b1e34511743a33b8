//! The event queue: a binary heap of 24-byte keys over a slab of payloads,
//! with deterministic tie-breaking.
//!
//! A sift moves `(time, sequence, slot)` keys only. The payload — for the
//! simulator a whole [`Packet`](crate::Packet) — is written once into its
//! slab slot by [`EventQueue::schedule`] and read once by
//! [`EventQueue::pop`]. Freed slots go on a free list and are reused
//! before the slab grows, so the slab never holds more slots than the most
//! events that were ever pending at once, and a steady-state event costs
//! no allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Heap key of a scheduled entry: due at `at`, ordered by (time, sequence);
/// the payload waits in slab slot `slot`.
#[derive(PartialEq, Eq)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first; ties
        // break by insertion order for determinism. `seq` is unique, so
        // `slot` never decides.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of timed events with stable FIFO ordering among equal times.
pub struct EventQueue<T> {
    heap: BinaryHeap<Key>,
    /// Payloads of the pending events; `None` marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused last-freed first (the warmest line).
    free: Vec<u32>,
    seq: u64,
    now: Time,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — that is always a simulator bug.
    pub fn schedule(&mut self, at: Time, payload: T) {
        assert!(
            at >= self.now,
            "scheduling into the past ({at} < {})",
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot as usize].is_none());
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Some(payload));
                slot
            }
        };
        self.heap.push(Key {
            at,
            seq: self.seq,
            slot,
        });
        self.seq += 1;
    }

    /// Schedule `payload` `delay` after now.
    pub fn schedule_in(&mut self, delay: Time, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let key = self.heap.pop()?;
        debug_assert!(key.at >= self.now);
        self.now = key.at;
        let payload = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns a filled slot");
        self.free.push(key.slot);
        Some((key.at, payload))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Slots the payload slab holds, free ones included: the most events
    /// that were ever pending at once.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        assert_eq!(q.now(), Time(10));
        q.schedule_in(Time(5), ());
        assert_eq!(q.peek_time(), Some(Time(15)));
    }

    #[test]
    fn keys_are_24_bytes_and_slots_are_reused() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..4 {
                q.schedule(Time(round * 10 + i), [round; 32]);
            }
            for _ in 0..4 {
                assert_eq!(q.pop().expect("four scheduled").1, [round; 32]);
            }
        }
        assert_eq!(q.slots(), 4, "the slab stops at the most ever pending");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        q.schedule(Time(5), ());
    }
}
