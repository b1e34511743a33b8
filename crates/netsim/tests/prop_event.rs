//! Property tests for the event queue (`netsim::event`).
//!
//! The queue is a heap of keys over a slab of payloads; its contract is
//! the one a `Vec` kept stably sorted by time would give. Random
//! interleavings of `schedule` and `pop` are run against that reference:
//! equal pop order (FIFO among equal times), `len` and `peek_time` agreeing
//! at every step, a clock that never goes back, and a slab that never
//! holds more slots than the most events that were ever pending at once.
//! A second family keeps every event at one timestamp, where only the
//! sequence field of the packed key orders and the slot field beside it
//! takes reused values in no order.

use netsim::{EventQueue, Time};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay`; a small delay range makes ties common.
    Schedule {
        delay: u64,
    },
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // two steps in five pop, so slots are freed and reused all along
    let op = (0u8..5, 0u64..1_000_000).prop_map(|(kind, delay)| match kind {
        0 | 1 => Op::Schedule { delay: delay % 8 },
        2 => Op::Schedule { delay },
        _ => Op::Pop,
    });
    proptest::collection::vec(op, 1..400)
}

/// At least 4,096 events, all due at time zero; after one schedule in
/// three a pop frees a slot that a later event takes.
fn ties() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(0u8..3, 4096..4608).prop_map(|pops| {
        let mut ops = Vec::new();
        for pop in pops {
            ops.push(Op::Schedule { delay: 0 });
            if pop == 0 {
                ops.push(Op::Pop);
            }
        }
        ops
    })
}

fn check_against_sorted_vec(ops: Vec<Op>) -> TestCaseResult {
    let mut q = EventQueue::new();
    // the reference: (time, payload), stably sorted by time
    let mut model: Vec<(Time, usize)> = Vec::new();
    let mut high_water = 0;
    for (id, op) in ops.into_iter().enumerate() {
        let before = q.now();
        match op {
            Op::Schedule { delay } => {
                let at = q.now() + Time::from_nanos(delay);
                q.schedule(at, id);
                let after_ties = model.partition_point(|&(t, _)| t <= at);
                model.insert(after_ties, (at, id));
            }
            Op::Pop => {
                let expect = (!model.is_empty()).then(|| model.remove(0));
                prop_assert_eq!(q.pop(), expect);
                if let Some((at, _)) = expect {
                    prop_assert_eq!(q.now(), at, "the clock reads the popped event's time");
                }
            }
        }
        prop_assert!(q.now() >= before, "the clock went back");
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.is_empty());
        prop_assert_eq!(q.peek_time(), model.first().map(|&(t, _)| t));
        high_water = high_water.max(model.len());
        prop_assert_eq!(
            q.slots(),
            high_water,
            "the slab grows only when every slot is live"
        );
    }
    // drained, the queue still owes the order; the slab stays put
    for expect in model {
        prop_assert_eq!(q.pop(), Some(expect));
    }
    prop_assert_eq!(q.pop(), None);
    prop_assert_eq!(q.slots(), high_water);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn behaves_like_a_stably_sorted_vec(ops in ops()) {
        check_against_sorted_vec(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn thousands_of_ties_pop_in_insertion_order_across_slot_reuse(ops in ties()) {
        check_against_sorted_vec(ops)?;
    }
}
