//! Model-equivalence property test for the flat message-state table
//! (`eden_core::state`).
//!
//! The table replaced a `HashMap<u64, Vec<i64>>` per shard plus a global
//! FIFO `VecDeque`. That store survives here, as the reference model:
//! random touch / lane-touch / `end_message` sequences must leave the
//! table and the model with the same blocks, the same eviction count and
//! the same live count after every step, for every lane count and for
//! caps small enough that most touches evict. The table starts with one
//! shard, as an enclave's does; its first lane touch splits it into one
//! shard per lane mid-sequence, moving whatever the caller's path made
//! before, and the model never notices. Cache hints run in between
//! and the model knows nothing of them: a hint may change no step's
//! outcome, whatever id it names and whatever the FIFO front has just
//! become.

use std::collections::{HashMap, VecDeque};

use eden_core::FunctionState;
use eden_lang::{Access, Schema};
use proptest::prelude::*;

/// The pre-table store, kept verbatim as the oracle.
struct Model {
    shards: Vec<HashMap<u64, Vec<i64>>>,
    order: VecDeque<u64>,
    msg_slots: usize,
    max_messages: usize,
    evictions: u64,
}

impl Model {
    fn new(msg_slots: usize, max_messages: usize, shards: usize) -> Model {
        Model {
            shards: (0..shards).map(|_| HashMap::new()).collect(),
            order: VecDeque::new(),
            msg_slots,
            max_messages,
            evictions: 0,
        }
    }

    fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    fn live(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    fn msg_block(&mut self, id: u64) -> &mut Vec<i64> {
        let shard = self.shard_of(id);
        if !self.shards[shard].contains_key(&id) {
            if self.live() >= self.max_messages {
                if let Some(old) = self.order.pop_front() {
                    let old_shard = self.shard_of(old);
                    self.shards[old_shard].remove(&old);
                    self.evictions += 1;
                }
            }
            self.shards[shard].insert(id, vec![0; self.msg_slots]);
            self.order.push_back(id);
        }
        self.shards[shard].get_mut(&id).expect("inserted above")
    }

    /// What a lane does: create straight in the shard, no eviction; the
    /// FIFO entry is what `note_created` replays.
    fn lane_touch(&mut self, id: u64) -> &mut Vec<i64> {
        let shard = self.shard_of(id);
        if !self.shards[shard].contains_key(&id) {
            self.shards[shard].insert(id, vec![0; self.msg_slots]);
            self.order.push_back(id);
        }
        self.shards[shard].get_mut(&id).expect("inserted above")
    }

    fn end_message(&mut self, id: u64) {
        let shard = self.shard_of(id);
        if self.shards[shard].remove(&id).is_some() {
            self.order.retain(|&m| m != id);
        }
    }

    fn dump(&self) -> Vec<(u64, Vec<i64>)> {
        let mut all: Vec<(u64, Vec<i64>)> = self
            .shards
            .iter()
            .flat_map(|s| s.iter().map(|(&id, b)| (id, b.clone())))
            .collect();
        all.sort_by_key(|&(id, _)| id);
        all
    }
}

/// `2^64 / φ`, the table's hash multiplier, and its inverse mod 2^64: the
/// ids `FIB_INV * i` hash to `i`, whose high bits are all zero — every one
/// of them has home bucket 0 at every table size.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

fn fib_inv() -> u64 {
    let mut x = FIB; // Newton: each round doubles the correct low bits
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(x)));
    }
    assert_eq!(x.wrapping_mul(FIB), 1);
    x
}

/// Ids worth colliding: dense small ids, multiples of every bucket count
/// the table passes through, true same-home colliders, flow ids with the
/// high bit set, and both ends of the key space.
fn key_pool() -> Vec<u64> {
    let inv = fib_inv();
    let mut keys: Vec<u64> = (0..12).collect();
    keys.extend((1..8).map(|k| k * 8));
    keys.extend((1..6).map(|k| k * 64));
    keys.extend((1..10u64).map(|i| inv.wrapping_mul(i)));
    keys.extend((0..6).map(|x| (1 << 63) | x));
    keys.push(u64::MAX);
    keys
}

#[derive(Debug, Clone)]
enum Op {
    /// `msg_block(id)[slot] += delta`.
    Touch(usize, usize, i64),
    /// The same through `split_for`.
    Split(usize, usize, i64),
    /// Lane-side `MsgShard::touch` + `note_created` (skipped without
    /// headroom, as the enclave's eligibility gate does). The first one
    /// splits the table for the lanes.
    Lane(usize, usize, i64),
    End(usize),
    /// `end_message` of the id at the FIFO front: the next creation's
    /// evict-ahead hint reads a front that has just changed.
    EndFront,
    /// `FunctionState::hint(id)`, present or not; the model has no such
    /// step.
    Hint(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let key = 0usize..key_pool().len();
    let slot = 0usize..4;
    let delta = -5i64..6;
    proptest::collection::vec(
        prop_oneof![
            (key.clone(), slot.clone(), delta.clone()).prop_map(|(k, s, d)| Op::Touch(k, s, d)),
            (key.clone(), slot.clone(), delta.clone()).prop_map(|(k, s, d)| Op::Split(k, s, d)),
            (key.clone(), slot, delta).prop_map(|(k, s, d)| Op::Lane(k, s, d)),
            key.clone().prop_map(Op::End),
            Just(Op::EndFront),
            key.prop_map(Op::Hint),
        ],
        1..300,
    )
}

fn schema(msg_slots: usize) -> Schema {
    (0..msg_slots).fold(Schema::new(), |s, i| {
        s.msg_field(&format!("M{i}"), Access::ReadWrite)
    })
}

/// Bump `block[slot]` (if the block has slots at all) and hand back a copy.
fn bump(block: &mut [i64], slot: usize, delta: i64) -> Vec<i64> {
    if !block.is_empty() {
        block[slot % block.len()] += delta;
    }
    block.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_matches_hashmap_model(
        lanes in prop_oneof![Just(1usize), Just(2), Just(4)],
        cap in 1usize..24,
        msg_slots in 0usize..4,
        ops in ops(),
    ) {
        let keys = key_pool();
        let mut table = FunctionState::for_schema(&schema(msg_slots), cap);
        let mut model = Model::new(msg_slots, cap, lanes);
        for op in ops {
            match op {
                Op::Touch(k, slot, delta) => {
                    let got = bump(table.msg_block(keys[k]), slot, delta);
                    let want = bump(model.msg_block(keys[k]), slot, delta);
                    prop_assert_eq!(got, want, "block of {:#x}", keys[k]);
                }
                Op::Split(k, slot, delta) => {
                    let got = bump(table.split_for(keys[k]).0, slot, delta);
                    let want = bump(model.msg_block(keys[k]), slot, delta);
                    prop_assert_eq!(got, want, "block of {:#x}", keys[k]);
                }
                Op::Lane(k, slot, delta) => {
                    if table.headroom() == 0 {
                        continue;
                    }
                    let id = keys[k];
                    let present = model.shards[model.shard_of(id)].contains_key(&id);
                    let (got, created) = {
                        let (shards, _, _) = table.split_shards(lanes);
                        let (block, created) = shards[(id % lanes as u64) as usize].touch(id);
                        (bump(block, slot, delta), created)
                    };
                    prop_assert_eq!(created, !present);
                    if created {
                        table.note_created(id);
                    }
                    let want = bump(model.lane_touch(id), slot, delta);
                    prop_assert_eq!(got, want, "lane block of {:#x}", id);
                }
                Op::End(k) => {
                    table.end_message(keys[k]);
                    model.end_message(keys[k]);
                }
                Op::EndFront => {
                    if let Some(&front) = model.order.front() {
                        table.end_message(front);
                        model.end_message(front);
                    }
                }
                Op::Hint(k) => table.hint(keys[k]),
            }
            prop_assert_eq!(table.msg_dump(), model.dump());
            prop_assert_eq!(table.evictions, model.evictions);
            prop_assert_eq!(table.live_messages(), model.live());
            prop_assert_eq!(table.headroom(), cap.saturating_sub(model.live()));
        }
        // every block sits in the shard its id selects
        let (shards, _, _) = table.split_shards(lanes);
        prop_assert_eq!(shards.len(), lanes);
        for (lane, shard) in shards.iter().enumerate() {
            prop_assert!(shard.iter().all(|(id, _)| id % lanes as u64 == lane as u64));
        }
    }
}
