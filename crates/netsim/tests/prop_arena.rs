//! Property tests for the packet-batch arena (`netsim::arena`).
//!
//! The invariant under test is "no reuse before drain": whatever a caller
//! leaves in a batch when recycling it, the next [`PacketArena::take_batch`]
//! must hand out an *empty* buffer — stale packets from a previous
//! transmission opportunity must never leak into the next one.

use netsim::{EdenMeta, Packet, PacketArena, UdpHeader};
use proptest::prelude::*;

fn pkt(classes: Vec<u32>, msg_id: u64, payload: usize) -> Packet {
    let mut p = Packet::udp(1, 2, UdpHeader::default(), payload.max(1));
    if !classes.is_empty() {
        p.meta = Some(EdenMeta {
            classes,
            msg_id,
            msg_size: payload as i64,
            ..EdenMeta::default()
        });
    }
    p
}

/// One step of an arena workout: take a batch and fill it with `fills`
/// packets, or recycle the oldest outstanding batch.
#[derive(Debug, Clone)]
enum Op {
    Take { fills: Vec<(Vec<u32>, u64)> },
    RecycleOldest,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let classes = proptest::collection::vec(1u32..100, 0..4);
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec((classes, any::<u64>()), 0..6)
                .prop_map(|fills| Op::Take { fills }),
            Just(Op::RecycleOldest),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary take/fill/recycle interleavings never hand out a buffer
    /// that still holds packets, and the free list stays within its cap
    /// no matter how lopsided the traffic is.
    #[test]
    fn no_reuse_before_drain(ops in ops()) {
        let mut arena = PacketArena::new();
        let mut outstanding: Vec<Vec<Packet>> = Vec::new();
        for op in ops {
            match op {
                Op::Take { fills } => {
                    let mut batch = arena.take_batch();
                    prop_assert!(
                        batch.is_empty(),
                        "take_batch handed out {} stale packets",
                        batch.len()
                    );
                    for (classes, msg_id) in fills {
                        batch.push(pkt(classes, msg_id, 64));
                    }
                    outstanding.push(batch);
                }
                Op::RecycleOldest => {
                    if !outstanding.is_empty() {
                        arena.recycle_batch(outstanding.remove(0));
                    }
                }
            }
            prop_assert!(arena.free_batches() <= 32, "batch free list is bounded");
        }
        // every buffer still out there recycles cleanly and comes back empty
        for batch in outstanding {
            arena.recycle_batch(batch);
        }
        let batch = arena.take_batch();
        prop_assert!(batch.is_empty());
    }
}
