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
//! Message blocks live in `shards` keyed by `msg_id % shards`, so a batch
//! of packets partitions into execution lanes that each own a disjoint
//! shard — two packets of the same message always land in the same lane,
//! which is what makes the paper's *per-message serial* concurrency level
//! safe to run with lanes in parallel (see `Enclave::process_batch`). The
//! FIFO eviction window stays global across shards: shard count is an
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
//! ahead). Both end in `prefetch`, which reads and writes nothing the
//! program can observe: a hint that is wrong, stale or never followed up
//! costs a cache line, not a result.

use std::collections::VecDeque;

use eden_lang::{Schema, Scope};

/// One index bucket: a message id and the slab slot that holds its block.
/// Packed to 12 bytes: the index is most of a full table's footprint
/// (two buckets per live block at least), and padding `slot` out to the
/// id's alignment would make it a third larger.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Bucket {
    id: u64,
    /// [`VACANT`] marks an empty bucket (every `u64` is a valid id, so the
    /// marker cannot live in `id`).
    slot: u32,
}

const VACANT: u32 = u32::MAX;

/// 2^64 / φ — the 64-bit form of [`class::ClassIndex`](crate::class)'s
/// multiplicative hash constant.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Ask for the cache line holding `r` ahead of its use. A request, not an
/// access: nothing is read, nothing can fault, no result depends on it.
/// Compiles to nothing off x86_64 and under miri (which has no shim for
/// the intrinsic, and nothing to check in it).
#[inline(always)]
fn prefetch<T>(r: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is `unsafe` for its raw-pointer argument
        // and its target feature. The pointer comes from a live reference
        // (and `prefetcht0` faults on no address anyway); SSE is part of
        // the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast::<i8>()) }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = r;
}

/// One shard of a function's message state: an open-addressing index
/// (`msg_id → slot`) over a slab of fixed-size blocks.
///
/// Built like [`ClassIndex`](crate::ClassIndex): Fibonacci hash,
/// power-of-two bucket count, linear probe, at most 50% load. The home
/// bucket is the hash's *high* bits: every id in a shard shares its low
/// bits (`id % shards`), and a multiplicative hash only mixes upwards.
/// Deletion shifts the probe run back instead of leaving a tombstone, so
/// a table that evicts as fast as it inserts keeps its bucket count
/// forever. Slot `s` owns `blocks[s * msg_slots..][..msg_slots]`; freed
/// slots are reused (zeroed) before the slab grows. Index and slab grow on
/// demand from empty.
#[derive(Debug)]
pub struct MsgShard {
    buckets: Vec<Bucket>,
    /// `64 - log2(buckets.len())`; meaningless while `buckets` is empty.
    shift: u32,
    blocks: Vec<i64>,
    /// Slots handed out so far (`blocks.len() / msg_slots`, kept apart
    /// because `msg_slots` may be zero).
    slots: u32,
    free: Vec<u32>,
    len: usize,
    msg_slots: usize,
}

impl MsgShard {
    fn new(msg_slots: usize) -> MsgShard {
        MsgShard {
            buckets: Vec::new(),
            shift: 0,
            blocks: Vec::new(),
            slots: 0,
            free: Vec::new(),
            len: 0,
            msg_slots,
        }
    }

    /// Live blocks in this shard.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, id: u64) -> usize {
        (id.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The one probe of the hot path: `Ok(slot)` of `id`'s block, or
    /// `Err(bucket)` — the vacant bucket an insert of `id` would take
    /// (valid until the next insert, removal or growth).
    #[inline]
    fn find(&self, id: u64) -> Result<u32, usize> {
        self.probe(id).map(|bucket| self.buckets[bucket].slot)
    }

    /// Walk `id`'s probe run: `Ok(bucket)` holding it, or `Err(bucket)`,
    /// the vacant bucket that ends the run.
    #[inline]
    fn probe(&self, id: u64) -> Result<usize, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(id);
        loop {
            let b = self.buckets[i];
            if b.slot == VACANT {
                return Err(i);
            }
            if b.id == id {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Ask for `id`'s home bucket, where its probe starts.
    #[inline]
    fn hint(&self, id: u64) {
        // `get`: an empty index has no buckets (and no meaningful `shift`)
        if let Some(b) = self.buckets.get(self.home(id)) {
            prefetch(b);
        }
    }

    #[inline]
    fn block_mut(&mut self, slot: u32) -> &mut [i64] {
        let at = slot as usize * self.msg_slots;
        &mut self.blocks[at..at + self.msg_slots]
    }

    /// Insert the absent `id` with a zeroed block; returns its slot.
    /// `vacant` is what [`find`](Self::find) just returned for `id`, or
    /// `None` if the index changed since (the insert then probes again, as
    /// it does after growing).
    fn insert(&mut self, id: u64, vacant: Option<usize>) -> u32 {
        let grew = (self.len + 1) * 2 > self.buckets.len();
        if grew {
            self.grow();
        }
        let bucket = match vacant {
            Some(b) if !grew => b,
            _ => self.probe(id).expect_err("insert of an absent id"),
        };
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
        self.buckets[bucket] = Bucket { id, slot };
        self.len += 1;
        slot
    }

    fn grow(&mut self) {
        let new_len = (self.buckets.len() * 2).max(8);
        let vacant = Bucket {
            id: 0,
            slot: VACANT,
        };
        let old = std::mem::replace(&mut self.buckets, vec![vacant; new_len]);
        self.shift = 64 - new_len.trailing_zeros();
        for b in old.into_iter().filter(|b| b.slot != VACANT) {
            let i = self.probe(b.id).expect_err("ids in the index are distinct");
            self.buckets[i] = b;
        }
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

    /// Drop the block of `id`; `false` if there was none. The probe run
    /// after the freed bucket is shifted back over it, so no tombstone is
    /// left and lookups stay exact.
    fn remove(&mut self, id: u64) -> bool {
        let Ok(mut hole) = self.probe(id) else {
            return false;
        };
        self.free.push(self.buckets[hole].slot);
        let mask = self.buckets.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.slot == VACANT {
                break;
            }
            // `b` may move back to `hole` unless its home lies cyclically
            // in (hole, j] — moving it before its home would hide it
            let home = self.home(b.id);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole].slot = VACANT;
        self.len -= 1;
        true
    }

    /// Every live `(id, block)`, in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[i64])> {
        self.buckets.iter().filter(|b| b.slot != VACANT).map(|b| {
            let at = b.slot as usize * self.msg_slots;
            (b.id, &self.blocks[at..at + self.msg_slots])
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
    /// Live message state blocks, sharded by `msg_id % shards.len()`.
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
        FunctionState::for_schema_sharded(schema, max_messages, 1)
    }

    /// Sized from the function's schema, with `shards` message shards (one
    /// per enclave execution lane; at least one).
    pub fn for_schema_sharded(
        schema: &Schema,
        max_messages: usize,
        shards: usize,
    ) -> FunctionState {
        let msg_slots = schema.scope_len(Scope::Message);
        FunctionState {
            global: vec![0; schema.scope_len(Scope::Global)],
            arrays: schema.arrays().iter().map(|_| Vec::new()).collect(),
            shards: (0..shards.max(1))
                .map(|_| MsgShard::new(msg_slots))
                .collect(),
            live: 0,
            msg_order: VecDeque::new(),
            max_messages,
            evictions: 0,
        }
    }

    #[inline]
    fn shard_of(&self, msg_id: u64) -> usize {
        (msg_id % self.shards.len() as u64) as usize
    }

    /// Locate (creating if absent) the block of `msg_id`: its shard and
    /// slot. One probe when the block exists.
    #[inline]
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
        self.shards[self.shard_of(msg_id)].hint(msg_id);
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

    /// Split the message shards apart from the (now read-only) globals, so
    /// each execution lane can own one `&mut` shard while all lanes share
    /// the global scalars and arrays. Lane `l` must only touch messages
    /// with `msg_id % lanes == l` — guaranteed by the enclave's lane
    /// assignment, which uses the same modulus.
    pub fn split_shards(&mut self) -> (Vec<&mut MsgShard>, &[i64], &[Vec<i64>]) {
        let FunctionState {
            shards,
            global,
            arrays,
            ..
        } = self;
        (shards.iter_mut().collect(), global, arrays)
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

    #[test]
    fn hints_change_nothing() {
        let mut hinted = FunctionState::for_schema_sharded(&schema(), 3, 2);
        let mut plain = FunctionState::for_schema_sharded(&schema(), 3, 2);
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

    #[test]
    fn fifo_eviction_is_shard_count_independent() {
        // the eviction window is global: the same touch sequence evicts the
        // same messages no matter how the blocks are sharded
        let mut one = FunctionState::for_schema_sharded(&schema(), 3, 1);
        let mut four = FunctionState::for_schema_sharded(&schema(), 3, 4);
        for id in [9, 4, 11, 2, 9, 5, 4, 7] {
            one.msg_block(id)[0] += 1;
            four.msg_block(id)[0] += 1;
        }
        assert_eq!(one.evictions, four.evictions);
        assert_eq!(one.msg_dump(), four.msg_dump());
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
    fn split_shards_partitions_by_modulus() {
        let mut st = FunctionState::for_schema_sharded(&schema(), 100, 4);
        for id in 0..8 {
            st.msg_block(id)[0] = id as i64;
        }
        let (shards, global, arrays) = st.split_shards();
        assert_eq!(shards.len(), 4);
        assert_eq!(global.len(), 1);
        assert_eq!(arrays.len(), 1);
        for (lane, shard) in shards.iter().enumerate() {
            assert_eq!(shard.len(), 2);
            assert!(shard.iter().all(|(id, _)| id % 4 == lane as u64));
        }
    }

    #[test]
    fn lane_side_touch_creates_once_and_is_counted_by_note_created() {
        let mut st = FunctionState::for_schema_sharded(&schema(), 100, 2);
        {
            let (mut shards, _, _) = st.split_shards();
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
            let mut st = FunctionState::for_schema_sharded(&schema(), CAP as usize, shards);
            let footprint = |st: &FunctionState| -> Vec<(usize, usize, usize)> {
                st.shards
                    .iter()
                    .map(|s| (s.buckets.len(), s.blocks.len(), s.free.len()))
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
