//! Authoritative enclave state (§3.4.4).
//!
//! "The authoritative state is maintained in the enclave … the enclave
//! creates a consistent copy of the state needed by the program" — per
//! function, the enclave owns:
//!
//! * **global scalars** — live as long as the function is installed;
//! * **global arrays** — flattened struct arrays the controller updates
//!   (`pathMatrix`, `priorityThresholds`, `queueMap`, …);
//! * **message state** — one block per (function, message id), created on
//!   first touch, bounded by FIFO eviction (messages are finite; the paper
//!   keeps state "for the duration of the message").
//!
//! Message blocks live in one shard until the enclave first fans a batch
//! out to its execution lanes. That fan-out splits them, once, into one
//! shard per lane keyed by `msg_id % lanes`, so the lanes each own a
//! disjoint shard — two packets of the same message always land in the
//! same lane, which is what makes the paper's *per-message serial*
//! concurrency level safe to run with lanes in parallel (see
//! `Enclave::process_batch`). An enclave that never fans out keeps one
//! table per function, sized only by what it holds, and picks no shard.
//! The FIFO eviction window stays global across shards: shard count is an
//! execution detail and must not change which message gets evicted.
//!
//! Copy-in/copy-out consistency: the VM works on this state through the
//! host interface during one invocation; the concurrency level (derived
//! from the annotations) dictates how many invocations may overlap.
//!
//! Two cache hints hide the index's memory latency. A full index is tens
//! of megabytes and a new id's home bucket is a line nobody has touched,
//! so a creation at the cap waits on memory twice: once probing for the
//! new id, once in `MsgShard::remove` for the evictee. *Evict-ahead*:
//! when `create` has popped its evictee it asks for the home bucket of the
//! id now at the front of the FIFO — the one the next creation removes.
//! *Lookahead*: [`FunctionState::hint`] asks for the home bucket of an id
//! a caller expects to touch soon (the enclave's burst loop, a few packets
//! ahead). Both end in the index's prefetch, which reads and writes
//! nothing the program can observe: a hint that is wrong, stale or never
//! followed up costs a cache line, not a result.

use std::collections::VecDeque;

use eden_lang::{Schema, Scope};

use crate::index::{FlatIndex, VACANT};

/// One shard of a function's message state: the crate's open-addressing
/// index (`msg_id → slot`) over a slab of fixed-size blocks.
///
/// Slot `s` owns `blocks[s * msg_slots..][..msg_slots]`; freed slots are
/// reused (zeroed) before the slab grows. Index and slab grow on demand
/// from empty (a reshard sizes them once for the blocks it moves in).
#[derive(Debug)]
pub struct MsgShard {
    index: FlatIndex,
    blocks: Vec<i64>,
    /// Slots handed out so far (`blocks.len() / msg_slots`, kept apart
    /// because `msg_slots` may be zero).
    slots: u32,
    free: Vec<u32>,
    msg_slots: usize,
}

impl MsgShard {
    fn new(msg_slots: usize) -> MsgShard {
        MsgShard {
            index: FlatIndex::default(),
            blocks: Vec::new(),
            slots: 0,
            free: Vec::new(),
            msg_slots,
        }
    }

    /// An empty shard with room for `blocks` blocks before either the
    /// index or the slab grows.
    fn with_capacity(msg_slots: usize, blocks: usize) -> MsgShard {
        let mut shard = MsgShard::new(msg_slots);
        if blocks > 0 {
            shard.index.reserve(blocks);
            shard.blocks.reserve_exact(blocks * msg_slots);
        }
        shard
    }

    /// Live blocks in this shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one probe of the hot path: `Ok(slot)` of `id`'s block, or
    /// `Err(bucket)` — the vacant bucket an insert of `id` would take
    /// (valid until the next insert, removal or growth).
    #[inline]
    fn find(&self, id: u64) -> Result<u32, usize> {
        self.index.probe(id).map(|bucket| self.index.value(bucket))
    }

    #[inline]
    fn block_mut(&mut self, slot: u32) -> &mut [i64] {
        let at = slot as usize * self.msg_slots;
        &mut self.blocks[at..at + self.msg_slots]
    }

    /// Insert the absent `id` with a zeroed block; returns its slot.
    /// `vacant` is what [`find`](Self::find) just returned for `id`, or
    /// `None` if the index changed since.
    fn insert(&mut self, id: u64, vacant: Option<usize>) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.block_mut(slot).fill(0);
                slot
            }
            None => {
                let slot = self.slots;
                assert!(slot != VACANT, "message-state slab is full");
                self.slots += 1;
                self.blocks.resize(self.slots as usize * self.msg_slots, 0);
                slot
            }
        };
        self.index.insert(id, slot, vacant);
        slot
    }

    /// Borrow the block of `id`, creating it zeroed if absent; the flag
    /// says whether it was created. One probe when the block exists. Never
    /// evicts: the cap and the FIFO live in [`FunctionState`], so a caller
    /// holding only a shard (an execution lane) must have checked
    /// [`FunctionState::headroom`] and must report creations through
    /// [`FunctionState::note_created`].
    #[inline]
    pub fn touch(&mut self, id: u64) -> (&mut [i64], bool) {
        match self.find(id) {
            Ok(slot) => (self.block_mut(slot), false),
            Err(bucket) => {
                let slot = self.insert(id, Some(bucket));
                (self.block_mut(slot), true)
            }
        }
    }

    /// Drop the block of `id`; `false` if there was none.
    fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.index.remove(id) else {
            return false;
        };
        self.free.push(slot);
        true
    }

    /// Every live `(id, block)`, in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[i64])> {
        self.index.iter().map(|(id, slot)| {
            let at = slot as usize * self.msg_slots;
            (id, &self.blocks[at..at + self.msg_slots])
        })
    }
}

/// Per-function authoritative state.
#[derive(Debug)]
pub struct FunctionState {
    /// Global scalar slots.
    pub global: Vec<i64>,
    /// Global arrays (flattened; element stride per the schema).
    pub arrays: Vec<Vec<i64>>,
    /// Live message state blocks: one shard until the first lane fan-out
    /// ([`split_shards`](Self::split_shards)), then one per lane, keyed by
    /// `msg_id % shards.len()`.
    shards: Vec<MsgShard>,
    /// Live blocks across all shards. Lane-side creations reach it through
    /// [`note_created`](Self::note_created).
    live: usize,
    /// Insertion order for FIFO eviction, global across shards.
    msg_order: VecDeque<u64>,
    /// Maximum live message blocks before eviction.
    max_messages: usize,
    /// Message blocks evicted to stay under the cap.
    pub evictions: u64,
}

impl FunctionState {
    /// Sized from the function's schema, with one message shard.
    pub fn for_schema(schema: &Schema, max_messages: usize) -> FunctionState {
        FunctionState {
            global: vec![0; schema.scope_len(Scope::Global)],
            arrays: schema.arrays().iter().map(|_| Vec::new()).collect(),
            shards: vec![MsgShard::new(schema.scope_len(Scope::Message))],
            live: 0,
            msg_order: VecDeque::new(),
            max_messages,
            evictions: 0,
        }
    }

    /// The shard `msg_id`'s block lives in. No division while there is
    /// one shard: that is every function of an enclave that never fanned
    /// out, on every packet.
    #[inline]
    fn shard_of(&self, msg_id: u64) -> usize {
        match self.shards.len() {
            1 => 0,
            n => (msg_id % n as u64) as usize,
        }
    }

    /// Locate (creating if absent) the block of `msg_id`: its shard and
    /// slot. One probe when the block exists. Always inlined: it is the
    /// per-invocation probe in `Walker::invoke`, and left to `#[inline]`
    /// the compiler kept it as a call there once the index became generic
    /// over its key.
    #[inline(always)]
    fn locate(&mut self, msg_id: u64) -> (usize, u32) {
        let shard = self.shard_of(msg_id);
        match self.shards[shard].find(msg_id) {
            Ok(slot) => (shard, slot),
            Err(bucket) => (shard, self.create(shard, msg_id, bucket)),
        }
    }

    /// The miss path of [`locate`](Self::locate): evict if at the cap,
    /// then insert. `bucket` is the vacant bucket the failed probe found.
    #[cold]
    fn create(&mut self, shard: usize, msg_id: u64, bucket: usize) -> u32 {
        let mut vacant = Some(bucket);
        if self.live >= self.max_messages {
            // FIFO eviction keeps the footprint bounded; a long-lived
            // message that outlives the window simply restarts from
            // zeroed state, which for the paper's functions (byte
            // counters) is a conservative reset.
            if let Some(old) = self.msg_order.pop_front() {
                let old_shard = self.shard_of(old);
                if self.shards[old_shard].remove(old) {
                    self.live -= 1;
                }
                self.evictions += 1;
                if old_shard == shard {
                    vacant = None; // the removal shifted this shard's buckets
                }
                // evict-ahead: the next creation in this function removes
                // the id now at the front
                if let Some(&next) = self.msg_order.front() {
                    self.hint(next);
                }
            }
        }
        self.live += 1;
        self.msg_order.push_back(msg_id);
        self.shards[shard].insert(msg_id, vacant)
    }

    /// Cache hint: `msg_id` is about to be looked up. Asks for the bucket
    /// its probe starts at and changes nothing — not the table, not the
    /// FIFO, not a counter.
    #[inline]
    pub fn hint(&self, msg_id: u64) {
        self.shards[self.shard_of(msg_id)].index.hint(msg_id);
    }

    /// Borrow (creating if absent) the state block of message `msg_id`.
    pub fn msg_block(&mut self, msg_id: u64) -> &mut [i64] {
        let (shard, slot) = self.locate(msg_id);
        self.shards[shard].block_mut(slot)
    }

    /// Borrow the message block of `msg_id` together with the global
    /// scalars and arrays — the three disjoint pieces one invocation needs.
    #[inline]
    pub fn split_for(&mut self, msg_id: u64) -> (&mut [i64], &mut Vec<i64>, &mut Vec<Vec<i64>>) {
        let (shard, slot) = self.locate(msg_id);
        (
            self.shards[shard].block_mut(slot),
            &mut self.global,
            &mut self.arrays,
        )
    }

    /// Split the message state into `lanes` shards apart from the (now
    /// read-only) globals, so each execution lane can own one `&mut` shard
    /// while all lanes share the global scalars and arrays. Lane `l` must
    /// only touch messages with `msg_id % lanes == l` — guaranteed by the
    /// enclave's lane assignment, which uses the same modulus.
    ///
    /// The first call reshards: every live block moves into the shard its
    /// id selects. Later calls with the same `lanes` only borrow.
    pub fn split_shards(&mut self, lanes: usize) -> (&mut [MsgShard], &[i64], &[Vec<i64>]) {
        let lanes = lanes.max(1);
        if self.shards.len() != lanes {
            self.reshard(lanes);
        }
        let FunctionState {
            shards,
            global,
            arrays,
            ..
        } = self;
        (shards, global, arrays)
    }

    /// Move every live `(id, block)` into `lanes` shards by
    /// `id % lanes`, each sized once for what it receives. The FIFO,
    /// `live` and `evictions` stay as they are: which blocks exist and
    /// which one is evicted next do not depend on the shard count.
    #[cold]
    fn reshard(&mut self, lanes: usize) {
        let old = std::mem::take(&mut self.shards);
        let msg_slots = old[0].msg_slots;
        let lane_of = |id: u64| (id % lanes as u64) as usize;
        let mut counts = vec![0; lanes];
        for (id, _) in old.iter().flat_map(MsgShard::iter) {
            counts[lane_of(id)] += 1;
        }
        self.shards = counts
            .into_iter()
            .map(|n| MsgShard::with_capacity(msg_slots, n))
            .collect();
        for (id, block) in old.iter().flat_map(MsgShard::iter) {
            let shard = &mut self.shards[lane_of(id)];
            let slot = shard.insert(id, None);
            shard.block_mut(slot).copy_from_slice(block);
        }
    }

    /// Record a message block created lane-side (by [`MsgShard::touch`],
    /// outside [`msg_block`](Self::msg_block)) into the live count and the
    /// FIFO order. The caller replays creations in packet-arrival order
    /// and must have verified headroom beforehand — lane-side creation
    /// never evicts.
    pub fn note_created(&mut self, msg_id: u64) {
        self.live += 1;
        self.msg_order.push_back(msg_id);
    }

    /// How many more message blocks fit before FIFO eviction starts.
    pub fn headroom(&self) -> usize {
        self.max_messages.saturating_sub(self.live)
    }

    /// Explicitly end a message, reclaiming its state.
    pub fn end_message(&mut self, msg_id: u64) {
        let shard = self.shard_of(msg_id);
        if self.shards[shard].remove(msg_id) {
            self.live -= 1;
            self.msg_order.retain(|&m| m != msg_id);
        }
    }

    /// Live message blocks.
    pub fn live_messages(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.shards.iter().map(MsgShard::len).sum::<usize>(),
            "lane-side creations not reported through note_created"
        );
        self.live
    }

    /// Every live message block, sorted by message id (normalized view for
    /// state-equivalence checks: independent of shard count).
    pub fn msg_dump(&self) -> Vec<(u64, Vec<i64>)> {
        let mut all: Vec<(u64, Vec<i64>)> = self
            .shards
            .iter()
            .flat_map(|s| s.iter().map(|(id, block)| (id, block.to_vec())))
            .collect();
        all.sort_by_key(|&(id, _)| id);
        all
    }

    /// Replace a global array's contents (controller update).
    pub fn set_array(&mut self, id: usize, values: Vec<i64>) {
        self.arrays[id] = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_lang::Access;

    fn schema() -> Schema {
        Schema::new()
            .msg_field("Size", Access::ReadWrite)
            .msg_field("Priority", Access::ReadOnly)
            .global_field("Counter", Access::ReadWrite)
            .global_array("Thresholds", &["Limit", "Prio"], Access::ReadOnly)
    }

    #[test]
    fn blocks_sized_from_schema() {
        let mut st = FunctionState::for_schema(&schema(), 100);
        assert_eq!(st.global.len(), 1);
        assert_eq!(st.arrays.len(), 1);
        assert_eq!(st.msg_block(7).len(), 2);
    }

    #[test]
    fn message_state_persists_across_packets() {
        let mut st = FunctionState::for_schema(&schema(), 100);
        st.msg_block(1)[0] = 1460;
        st.msg_block(2)[0] = 99;
        assert_eq!(st.msg_block(1)[0], 1460, "message 1 unaffected by 2");
    }

    #[test]
    fn fifo_eviction_bounds_memory() {
        let mut st = FunctionState::for_schema(&schema(), 3);
        for id in 0..10 {
            st.msg_block(id)[0] = id as i64;
        }
        assert_eq!(st.live_messages(), 3);
        assert_eq!(st.evictions, 7);
        // oldest evicted; re-touching restarts from zero
        assert_eq!(st.msg_block(0)[0], 0);
    }

    /// `st` after its first fan-out to `lanes` lanes.
    fn split(mut st: FunctionState, lanes: usize) -> FunctionState {
        st.split_shards(lanes);
        st
    }

    #[test]
    fn hints_change_nothing() {
        for lanes in [1, 2] {
            let mut hinted = split(FunctionState::for_schema(&schema(), 3), lanes);
            let mut plain = split(FunctionState::for_schema(&schema(), 3), lanes);
            hinted.hint(7); // an empty index has no bucket to ask for
            for id in [9, 4, 11, 2, 9, 5, 4, 7] {
                hinted.hint(id);
                hinted.msg_block(id)[0] += 1;
                hinted.hint(id + 1); // absent, or about to be evicted
                plain.msg_block(id)[0] += 1;
            }
            assert_eq!(hinted.evictions, plain.evictions);
            assert_eq!(hinted.msg_dump(), plain.msg_dump());
            assert_eq!(hinted.msg_order, plain.msg_order);
        }
    }

    #[test]
    fn fifo_eviction_is_shard_count_independent() {
        // the eviction window is global: the same touch sequence evicts the
        // same messages no matter how the blocks are sharded
        let mut one = FunctionState::for_schema(&schema(), 3);
        let mut four = split(FunctionState::for_schema(&schema(), 3), 4);
        for id in [9, 4, 11, 2, 9, 5, 4, 7] {
            one.msg_block(id)[0] += 1;
            four.msg_block(id)[0] += 1;
        }
        assert_eq!(one.evictions, four.evictions);
        assert_eq!(one.msg_dump(), four.msg_dump());
    }

    /// Everything a reshard must leave as it was.
    #[allow(clippy::type_complexity)]
    fn observables(st: &FunctionState) -> (Vec<(u64, Vec<i64>)>, Vec<u64>, usize, u64, usize) {
        (
            st.msg_dump(),
            st.msg_order.iter().copied().collect(),
            st.live_messages(),
            st.evictions,
            st.headroom(),
        )
    }

    /// Blocks made on the caller's path before the first fan-out are
    /// moved, not lost: after the split the table is indistinguishable
    /// from a twin that had four shards from the start, and stays so.
    #[test]
    fn first_split_reshards_into_the_twin_of_a_table_split_from_the_start() {
        let mut late = FunctionState::for_schema(&schema(), 20);
        let mut early = split(FunctionState::for_schema(&schema(), 20), 4);
        assert_eq!(late.shards.len(), 1, "one shard until the first fan-out");
        let before: Vec<u64> = (0..30).chain([3, 40, 41, 7, 42]).collect();
        for st in [&mut late, &mut early] {
            for &id in &before {
                st.msg_block(id)[0] += id as i64 + 1;
            }
            st.end_message(25);
            st.end_message(12);
        }
        assert_eq!(late.evictions, 15, "the fill went past the cap");
        let (shards, global, arrays) = late.split_shards(4);
        assert_eq!((shards.len(), global.len(), arrays.len()), (4, 1, 1));
        for (lane, shard) in shards.iter().enumerate() {
            assert!(shard.iter().all(|(id, _)| id % 4 == lane as u64));
        }
        assert_eq!(observables(&late), observables(&early));

        // later touches hit the moved blocks, create beside them and
        // evict in the same global order; hints still change nothing
        let after = [13, 14, 40, 99, 7, 100, 101, 13, 102, 5];
        for &id in &after {
            late.hint(id);
            late.hint(id + 1);
            let got = late.msg_block(id)[0];
            assert_eq!(got, early.msg_block(id)[0], "block of {id}");
            late.msg_block(id)[1] += 1;
            early.msg_block(id)[1] += 1;
        }
        assert_eq!(late.msg_block(40)[0], 41, "a moved block kept its value");
        assert_eq!(observables(&late), observables(&early));
        // a second split with the same lane count only borrows
        late.split_shards(4);
        assert_eq!(observables(&late), observables(&early));
    }

    #[test]
    fn explicit_message_end() {
        let mut st = FunctionState::for_schema(&schema(), 100);
        st.msg_block(5)[0] = 42;
        st.end_message(5);
        assert_eq!(st.live_messages(), 0);
        assert_eq!(st.msg_block(5)[0], 0);
    }

    #[test]
    fn lane_side_touch_creates_once_and_is_counted_by_note_created() {
        let mut st = FunctionState::for_schema(&schema(), 100);
        {
            let (shards, _, _) = st.split_shards(2);
            let (block, created) = shards[1].touch(7);
            assert!(created);
            block[0] = 5;
            let (block, created) = shards[1].touch(7);
            assert!(!created, "second touch is a hit");
            assert_eq!(block, [5, 0]);
        }
        st.note_created(7);
        assert_eq!(st.live_messages(), 1);
        assert_eq!(st.headroom(), 99);
        assert_eq!(st.msg_block(7)[0], 5, "serial path finds the lane's block");
    }

    /// PR 11 recorded the hash-map store doubling its buckets after ~10 M
    /// evictions at the cap (tombstones). Backward-shift deletion and slot
    /// reuse mean the footprint is fixed once the cap is reached.
    #[test]
    fn footprint_is_fixed_once_the_cap_is_reached() {
        const CAP: u64 = 300;
        for shards in [1, 4] {
            let mut st = split(FunctionState::for_schema(&schema(), CAP as usize), shards);
            let footprint = |st: &FunctionState| -> Vec<(usize, usize, usize)> {
                st.shards
                    .iter()
                    .map(|s| (s.index.capacity(), s.blocks.len(), s.free.len()))
                    .collect()
            };
            for id in 0..CAP {
                st.msg_block(id)[0] = id as i64;
            }
            let at_cap = footprint(&st);
            // never pre-sized to the cap: power-of-two buckets at <= 50% load
            let buckets: usize = at_cap.iter().map(|f| f.0).sum();
            assert!(
                buckets <= 4 * CAP as usize,
                "{buckets} buckets for {CAP} blocks"
            );
            for id in CAP..10 * CAP {
                st.msg_block(id)[0] = id as i64;
                assert_eq!(st.live_messages(), CAP as usize);
            }
            assert_eq!(st.evictions, 9 * CAP);
            assert_eq!(footprint(&st), at_cap, "{shards} shard(s)");
            assert_eq!(st.msg_order.len(), CAP as usize);
            // the survivors are the last CAP ids, each with its own value
            let dump = st.msg_dump();
            assert_eq!(dump.len(), CAP as usize);
            for (i, (id, block)) in dump.iter().enumerate() {
                assert_eq!(*id, 9 * CAP + i as u64);
                assert_eq!(block[0], *id as i64);
            }
        }
    }
}
