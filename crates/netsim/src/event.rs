//! The event queue: a binary heap of 16-byte keys over a slab of payloads,
//! with deterministic tie-breaking.
//!
//! A sift moves one-word `time ‖ sequence ‖ slot` keys only, and orders
//! them with one integer compare. The payload — for the simulator a node
//! id and a [`NodeEvent`](crate::NodeEvent), 32 bytes — is written once
//! into its slab slot by [`EventQueue::schedule`] and read once by
//! [`EventQueue::pop`]. Freed slots go on a free list and are reused
//! before the slab grows, so the slab never holds more slots than the most
//! events that were ever pending at once, and a steady-state event costs
//! no allocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Key bits that hold the sequence number: 2^40 events over a queue's
/// life, about 54 hours of `fullstack` at 5.6 M events a second.
const SEQ_BITS: u32 = 40;
/// Key bits that hold the slab slot: 16.7 M events pending at once.
const SLOT_BITS: u32 = 24;
const MAX_SEQ: u64 = (1 << SEQ_BITS) - 1;
const MAX_SLOT: usize = (1 << SLOT_BITS) - 1;

/// Heap key of a scheduled entry: due time, sequence number and the slab
/// slot the payload waits in, packed most significant first. One `u128`
/// compare therefore orders by (time, sequence); the sequence is unique,
/// so the slot never decides. Reversed: `BinaryHeap` is a max-heap, we
/// want earliest first, ties in insertion order for determinism.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key(Reverse<u128>);

impl Key {
    /// # Panics
    /// Panics if `seq` or `slot` does not fit its field: a key never wraps
    /// into its neighbour.
    fn new(at: Time, seq: u64, slot: usize) -> Key {
        assert!(
            seq <= MAX_SEQ,
            "event sequence limit reached: a queue orders 2^{SEQ_BITS} events over its life"
        );
        assert!(
            slot <= MAX_SLOT,
            "event slot limit reached: a queue holds 2^{SLOT_BITS} events pending at once"
        );
        let low = seq << SLOT_BITS | slot as u64;
        Key(Reverse(u128::from(at.as_nanos()) << 64 | u128::from(low)))
    }

    fn at(&self) -> Time {
        Time::from_nanos((self.0 .0 >> 64) as u64)
    }

    fn slot(&self) -> u32 {
        self.0 .0 as u32 & MAX_SLOT as u32
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

    /// A queue that has already handed out `seq` sequence numbers and holds
    /// `slots` slab slots, all taken: where the key's fields run out.
    #[cfg(test)]
    fn starting_at(seq: u64, slots: usize) -> Self {
        EventQueue {
            slab: std::iter::repeat_with(|| None).take(slots).collect(),
            seq,
            ..Self::new()
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
            Some(slot) => slot as usize,
            None => self.slab.len(),
        };
        let key = Key::new(at, self.seq, slot);
        self.seq += 1;
        match self.slab.get_mut(slot) {
            Some(free) => {
                debug_assert!(free.is_none());
                *free = Some(payload);
            }
            None => self.slab.push(Some(payload)),
        }
        self.heap.push(key);
    }

    /// Schedule `payload` `delay` after now.
    pub fn schedule_in(&mut self, delay: Time, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let key = self.heap.pop()?;
        let (at, slot) = (key.at(), key.slot());
        debug_assert!(at >= self.now);
        self.now = at;
        let payload = self.slab[slot as usize]
            .take()
            .expect("a queued key owns a filled slot");
        self.free.push(slot);
        Some((at, payload))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(Key::at)
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
    fn keys_are_16_bytes_and_slots_are_reused() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
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

    /// What the simulator's slab slots hold: a packet by value (208 bytes)
    /// would be copied in and out of one at every hop.
    #[test]
    fn a_node_event_carries_its_packet_by_handle() {
        assert!(std::mem::size_of::<crate::NodeEvent>() <= 32);
    }

    #[test]
    fn keys_order_by_time_then_sequence_and_never_by_slot() {
        // the heap pops the greatest key: greater is earlier
        let earlier = |a: Key, b: Key| a > b;
        assert!(earlier(
            Key::new(Time(9), 7, MAX_SLOT),
            Key::new(Time(9), 8, 0)
        ));
        assert!(earlier(
            Key::new(Time(9), MAX_SEQ, MAX_SLOT),
            Key::new(Time(10), 0, 0)
        ));
        let key = Key::new(Time(u64::MAX), MAX_SEQ, MAX_SLOT);
        assert_eq!((key.at(), key.slot()), (Time(u64::MAX), MAX_SLOT as u32));
        let key = Key::new(Time(3), MAX_SEQ, 5);
        assert_eq!((key.at(), key.slot()), (Time(3), 5), "no field spills");
    }

    #[test]
    #[should_panic(expected = "event sequence limit reached")]
    fn the_sequence_field_never_wraps() {
        let mut q = EventQueue::starting_at(MAX_SEQ, 0);
        q.schedule(Time(1), ());
        assert_eq!(q.len(), 1, "the last sequence number is usable");
        q.schedule(Time(1), ());
    }

    #[test]
    #[should_panic(expected = "event slot limit reached")]
    fn the_slot_field_never_wraps() {
        let mut q = EventQueue::starting_at(0, MAX_SLOT);
        q.schedule(Time(1), ());
        assert_eq!(q.slots(), MAX_SLOT + 1, "the last slot is usable");
        q.schedule(Time(1), ());
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
