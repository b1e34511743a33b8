//! Recycled packet-batch buffers and disjoint batch access.
//!
//! The zero-copy data path hands whole batches of [`Packet`]s from the
//! transport [`Stack`](../../transport) through the enclave stages to
//! egress without allocating a batch per call. Three pieces live here:
//!
//! * [`PacketArena`] — a free-list of batch buffers (`Vec<Packet>`). A
//!   `Vec<Packet>` that has finished its trip through stack → enclave →
//!   egress is recycled rather than dropped, so steady-state batches are
//!   contiguous reused allocations and the only heap traffic left is
//!   growth. Packets themselves are not recycled: `EdenMeta.classes` is
//!   cloned per segment from its message and freed with the packet.
//! * [`PacketRef`] — a 32-bit index into the current batch. Enclave lanes
//!   partition a batch by message id and pass *indices*, not packets, so
//!   the batch slab itself never moves or clones.
//! * [`PacketSlab`] — the unsafe-adjacent accessor that turns disjoint
//!   `PacketRef` sets into disjoint `&mut Packet`s across worker lanes.
//!
//! Invariant ("no reuse before drain"): a buffer handed out by
//! [`PacketArena::take_batch`] is always empty — recycling drops whatever
//! the caller left behind *before* the buffer rejoins the free list, never
//! when it is handed back out.

use crate::packet::Packet;

/// Index of a packet within the current batch slab.
///
/// 32 bits bound batches at 4 billion packets, far beyond any batch the
/// data path builds; the narrow index keeps lane work queues dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(pub u32);

impl PacketRef {
    /// The index as a usize, for slab addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Free-list of batch buffers.
///
/// Not a bump allocator: packets are structured (headers + option fields),
/// so "arena" here means *recycled contiguous batches* — the property the
/// data path actually needs is that a steady-state batch reuses one warm
/// allocation instead of churning `Vec<Packet>` per call.
#[derive(Debug, Default)]
pub struct PacketArena {
    batches: Vec<Vec<Packet>>,
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
                buf
            }
            None => Vec::new(),
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
}

/// Raw access to a batch slab for disjoint per-lane mutation.
///
/// Built from one `&mut [Packet]`; worker lanes then resolve their own
/// [`PacketRef`]s to `&mut Packet` concurrently. The borrow checker cannot
/// see that lane index sets are disjoint, so resolution is `unsafe` with
/// the contract spelled out on [`PacketSlab::pkt_mut`].
pub struct PacketSlab<'a> {
    base: *mut Packet,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [Packet]>,
}

// SAFETY: a PacketSlab is only a capability to reach `&mut Packet`s that
// the creating `&mut [Packet]` borrow already made exclusive; sending it
// to lane workers is sound as long as the pkt_mut contract (disjoint
// indices across concurrent users) holds, which the enclave guarantees by
// partitioning indices by `msg_id % lanes`.
unsafe impl Send for PacketSlab<'_> {}
unsafe impl Sync for PacketSlab<'_> {}

impl<'a> PacketSlab<'a> {
    /// Wrap a batch for disjoint lane access. The slab borrows `packets`
    /// mutably for `'a`, so no other access can overlap its lifetime.
    pub fn new(packets: &'a mut [Packet]) -> PacketSlab<'a> {
        PacketSlab {
            base: packets.as_mut_ptr(),
            len: packets.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of packets in the slab.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve `r` to an exclusive packet reference.
    ///
    /// # Safety
    ///
    /// While the returned borrow lives, no other call (on any thread) may
    /// resolve the same index. The enclave upholds this by giving each
    /// lane a disjoint set of `PacketRef`s and joining all lanes before
    /// touching the batch again.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn pkt_mut(&self, r: PacketRef) -> &'a mut Packet {
        debug_assert!(r.index() < self.len, "PacketRef out of slab bounds");
        unsafe { &mut *self.base.add(r.index()) }
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
    }

    #[test]
    fn free_list_is_bounded() {
        let mut arena = PacketArena::new();
        for _ in 0..(MAX_FREE_BATCHES + 10) {
            arena.recycle_batch(vec![pkt_with_meta(1)]);
        }
        assert!(arena.free_batches() <= MAX_FREE_BATCHES);
    }

    #[test]
    fn slab_disjoint_cross_thread_access() {
        let mut batch: Vec<Packet> = (0..64)
            .map(|i| {
                let mut p = pkt_with_meta(i);
                p.id = i;
                p
            })
            .collect();
        let slab = PacketSlab::new(&mut batch);
        // two "lanes" touch disjoint halves concurrently (even/odd ids)
        std::thread::scope(|s| {
            let slab = &slab;
            for lane in 0..2u64 {
                s.spawn(move || {
                    for i in 0..64u32 {
                        if u64::from(i) % 2 == lane {
                            // SAFETY: lanes partition indices by parity,
                            // so no index is resolved by both threads.
                            let p = unsafe { slab.pkt_mut(PacketRef(i)) };
                            p.payload_len += lane as usize + 1;
                        }
                    }
                });
            }
        });
        for (i, p) in batch.iter().enumerate() {
            let expect = 64 + if i % 2 == 0 { 1 } else { 2 };
            assert_eq!(p.payload_len, expect);
        }
    }
}
