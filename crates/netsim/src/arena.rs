//! Recycled packet-batch buffers.
//!
//! The zero-copy data path hands whole batches of [`Packet`]s from the
//! transport [`Stack`](../../transport) through the enclave stages to
//! egress without allocating a batch per call. [`PacketArena`] is a
//! free-list of batch buffers (`Vec<Packet>`): one that has finished its
//! trip through stack → enclave → egress is recycled rather than dropped,
//! so steady-state batches are contiguous reused allocations and the only
//! heap traffic left is growth. Packets themselves are not recycled:
//! `EdenMeta.classes` is cloned per segment from its message and freed
//! with the packet.
//!
//! Invariant ("no reuse before drain"): a buffer handed out by
//! [`PacketArena::take_batch`] is always empty — recycling drops whatever
//! the caller left behind *before* the buffer rejoins the free list, never
//! when it is handed back out.

use crate::packet::Packet;

/// Free-list of batch buffers.
///
/// Not a bump allocator: packets are structured (headers + option fields),
/// so "arena" here means *recycled contiguous batches* — the property the
/// data path actually needs is that a steady-state batch reuses one warm
/// allocation instead of churning `Vec<Packet>` per call.
#[derive(Debug, Default)]
pub struct PacketArena {
    batches: Vec<Vec<Packet>>,
    /// [`take_batch`](Self::take_batch) calls served from the free list.
    hits: u64,
    /// Calls that found it empty and handed out a buffer with no capacity.
    misses: u64,
}

/// Keep at most this many idle batch buffers. The data path needs a
/// handful in flight; anything beyond that is a leak from a burst and is
/// returned to the allocator.
const MAX_FREE_BATCHES: usize = 32;

impl PacketArena {
    /// An arena with an empty free list.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// An empty batch buffer — recycled (warm capacity) when available.
    pub fn take_batch(&mut self) -> Vec<Packet> {
        match self.batches.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "recycled batches are drained on return");
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a batch buffer. Any packets still inside are dropped *now*,
    /// so the buffer rejoins the free list empty.
    pub fn recycle_batch(&mut self, mut batch: Vec<Packet>) {
        batch.clear();
        if self.batches.len() < MAX_FREE_BATCHES {
            self.batches.push(batch);
        }
    }

    /// Number of idle batch buffers (test/telemetry hook).
    pub fn free_batches(&self) -> usize {
        self.batches.len()
    }

    /// `(hits, misses)` of [`take_batch`](Self::take_batch) so far: buffers
    /// that came back warm from the free list, and fresh ones. A steady
    /// data path misses once per buffer it keeps in flight and then never.
    pub fn batch_reuse(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EdenMeta, UdpHeader};

    fn pkt_with_meta(msg_id: u64) -> Packet {
        let mut p = Packet::udp(1, 2, UdpHeader::default(), 64);
        p.meta = Some(EdenMeta {
            classes: vec![1, 2, 3],
            msg_id,
            ..Default::default()
        });
        p
    }

    #[test]
    fn take_batch_is_always_empty() {
        let mut arena = PacketArena::new();
        assert!(arena.take_batch().is_empty());
        let mut batch = arena.take_batch();
        batch.push(pkt_with_meta(1));
        batch.push(pkt_with_meta(2));
        arena.recycle_batch(batch);
        // reuse-before-drain would hand the two packets back here
        let again = arena.take_batch();
        assert!(again.is_empty(), "recycled batch must be drained");
        assert!(again.capacity() >= 2, "capacity survives recycling");
        assert_eq!(arena.batch_reuse(), (1, 2), "two cold takes, one warm");
    }

    #[test]
    fn free_list_is_bounded() {
        let mut arena = PacketArena::new();
        for _ in 0..(MAX_FREE_BATCHES + 10) {
            arena.recycle_batch(vec![pkt_with_meta(1)]);
        }
        assert!(arena.free_batches() <= MAX_FREE_BATCHES);
    }
}
