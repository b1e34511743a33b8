//! The one open-addressing index behind the enclave's two per-packet
//! lookups: class → rule in the match stage (§3.4) and message id → state
//! block in each message-state shard (§3.4.4).
//!
//! A `HashMap` would pay SipHash plus a pointer-chased bucket per probe.
//! This is a flat power-of-two array of 12-byte buckets probed linearly
//! after a Fibonacci hash: one multiply, one shift and, at no more than
//! 50% load, almost always one cache line. The home bucket is the hash's *high*
//! bits: every id in a message shard shares its low bits (`id % shards`),
//! and a multiplicative hash only mixes upwards. Deletion shifts the probe
//! run back instead of leaving a tombstone, so a table that evicts as fast
//! as it inserts keeps its bucket count forever.
//!
//! The hash is unkeyed: keys crafted to share a home bucket make every
//! probe walk one long run.

/// One bucket: a key and its value, packed to 12 bytes. A full message
/// index is tens of megabytes (two buckets per live block at least), and
/// padding `value` out to the key's alignment would make it a third
/// larger.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Bucket {
    key: u64,
    /// [`VACANT`] marks an empty bucket (every `u64` is a valid key, so
    /// the marker cannot live in `key`).
    value: u32,
}

/// The value no key may map to: it marks a vacant bucket.
pub(crate) const VACANT: u32 = u32::MAX;

/// 2^64 / φ — Knuth's multiplicative hash constant.
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

/// A `u64 → u32` map: open addressing, linear probe, backward-shift
/// delete. Grows on demand from empty, to the smallest power of two (at
/// least 8) that keeps the load at or under one half.
#[derive(Debug, Default)]
pub(crate) struct FlatIndex {
    buckets: Vec<Bucket>,
    /// `64 - log2(buckets.len())`; meaningless while `buckets` is empty.
    shift: u32,
    /// Keys mapped. A `u32` keeps the index at 32 bytes beside its slab
    /// in a message shard; 2^32 keys would need 96 GB of buckets first.
    len: u32,
}

impl FlatIndex {
    /// Keys mapped.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The one probe of the hot path: walk `key`'s probe run to
    /// `Ok(bucket)` holding it, or to `Err(bucket)`, the vacant bucket an
    /// insert of `key` would take (valid until the next insert, removal
    /// or growth).
    #[inline]
    pub(crate) fn probe(&self, key: u64) -> Result<usize, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            let b = self.buckets[i];
            if b.value == VACANT {
                return Err(i);
            }
            if b.key == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The value in `bucket`, which [`probe`](Self::probe) just found.
    #[inline]
    pub(crate) fn value(&self, bucket: usize) -> u32 {
        self.buckets[bucket].value
    }

    /// The value `key` maps to, if any.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        self.probe(key).ok().map(|b| self.value(b))
    }

    /// Overwrite the value in `bucket`, which [`probe`](Self::probe) just
    /// found.
    pub(crate) fn set(&mut self, bucket: usize, value: u32) {
        debug_assert!(value != VACANT, "{VACANT} is the vacant marker");
        self.buckets[bucket].value = value;
    }

    /// Map the absent `key` to `value`. `vacant` is what
    /// [`probe`](Self::probe) just returned for `key`, or `None` if the
    /// index changed since (the insert then probes again, as it does after
    /// growing).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: u32, vacant: Option<usize>) {
        debug_assert!(value != VACANT, "{VACANT} is the vacant marker");
        let grew = (self.len() + 1) * 2 > self.buckets.len();
        if grew {
            self.rehash((self.buckets.len() * 2).max(8));
        }
        let bucket = match vacant {
            Some(b) if !grew => b,
            _ => self.probe(key).expect_err("insert of an absent key"),
        };
        self.buckets[bucket] = Bucket { key, value };
        self.len += 1;
    }

    /// Unmap `key`, returning its value. The probe run after the freed
    /// bucket is shifted back over it, so no tombstone is left and a probe
    /// still stops at the first vacant bucket.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) -> Option<u32> {
        let mut hole = self.probe(key).ok()?;
        let removed = self.buckets[hole].value;
        let mask = self.buckets.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.value == VACANT {
                break;
            }
            // `b` may move back to `hole` unless its home lies cyclically
            // in (hole, j] — moving it before its home would hide it
            let home = self.home(b.key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole].value = VACANT;
        self.len -= 1;
        Some(removed)
    }

    /// Unmap every key, keeping the buckets.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.value = VACANT;
        }
        self.len = 0;
    }

    /// Make room for `additional` more keys without growing again.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = ((self.len() + additional) * 2).next_power_of_two();
        if want > self.buckets.len() {
            self.rehash(want.max(8));
        }
    }

    fn rehash(&mut self, new_len: usize) {
        let vacant = Bucket {
            key: 0,
            value: VACANT,
        };
        let old = std::mem::replace(&mut self.buckets, vec![vacant; new_len]);
        self.shift = 64 - new_len.trailing_zeros();
        for b in old.into_iter().filter(|b| b.value != VACANT) {
            let i = self.probe(b.key).expect_err("the keys are distinct");
            self.buckets[i] = b;
        }
    }

    /// Cache hint: ask for `key`'s home bucket, where its probe starts.
    /// Changes nothing.
    #[inline]
    pub(crate) fn hint(&self, key: u64) {
        // `get`: an empty index has no buckets (and no meaningful `shift`)
        if let Some(b) = self.buckets.get(self.home(key)) {
            prefetch(b);
        }
    }

    /// Every `(key, value)`, in bucket order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.value != VACANT)
            .map(|b| (b.key, b.value))
    }

    /// Buckets allocated: what the index costs, whatever it holds.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Insert `key → value` unless `key` is mapped: the match stage's
    /// first-rule-wins insert.
    fn insert_first(idx: &mut FlatIndex, key: u64, value: u32) {
        if let Err(vacant) = idx.probe(key) {
            idx.insert(key, value, Some(vacant));
        }
    }

    /// Map `key → value`, replacing any mapping it has.
    fn overwrite(idx: &mut FlatIndex, key: u64, value: u32) {
        match idx.probe(key) {
            Ok(bucket) => idx.set(bucket, value),
            Err(vacant) => idx.insert(key, value, Some(vacant)),
        }
    }

    /// Every live key is reachable: no vacant bucket lies between its
    /// home and the bucket that holds it.
    fn assert_reachable(idx: &FlatIndex) {
        let mask = idx.buckets.len().wrapping_sub(1);
        for (at, b) in idx.buckets.iter().enumerate() {
            if b.value == VACANT {
                continue;
            }
            let mut i = idx.home(b.key);
            while i != at {
                assert_ne!(idx.buckets[i].value, VACANT, "hole before {at}");
                i = (i + 1) & mask;
            }
        }
    }

    /// Keys whose hash has the top eight bits all ones (home: the last
    /// bucket, so their runs wrap) or all zeros (home: bucket 0, where the
    /// wrapped runs land), at every table size up to 256 buckets. One
    /// search, 32 keys of the first kind and 16 of the second.
    fn colliding_keys() -> Vec<u64> {
        let top = |k: u64| k.wrapping_mul(FIB) >> 56;
        let high = (0u64..).filter(|&k| top(k) == 0xFF).take(32);
        let low = (0u64..).filter(|&k| top(k) == 0).take(16);
        high.chain(low).collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        InsertFirst(usize, u32),
        Overwrite(usize, u32),
        Remove(usize),
        Clear,
        Reserve(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..48, 0u32..1000).prop_map(|(k, v)| Op::InsertFirst(k, v)),
            (0usize..48, 0u32..1000).prop_map(|(k, v)| Op::Overwrite(k, v)),
            (0usize..48).prop_map(Op::Remove),
            (0usize..48).prop_map(Op::Remove),
            Just(Op::Clear),
            (0usize..64).prop_map(Op::Reserve),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Any mix of first-wins inserts, overwrites, removals, clears and
        /// reservations over keys that collide and wrap maps what a `Vec`
        /// of pairs maps, and leaves every key reachable from its home.
        #[test]
        fn index_matches_a_vec_model(ops in proptest::collection::vec(op(), 1..200)) {
            let keys = colliding_keys();
            let mut idx = FlatIndex::default();
            let mut model: Vec<(u64, u32)> = Vec::new();
            for op in ops {
                match op {
                    Op::InsertFirst(k, v) => {
                        insert_first(&mut idx, keys[k], v);
                        if !model.iter().any(|&(m, _)| m == keys[k]) {
                            model.push((keys[k], v));
                        }
                    }
                    Op::Overwrite(k, v) => {
                        overwrite(&mut idx, keys[k], v);
                        match model.iter_mut().find(|(m, _)| *m == keys[k]) {
                            Some(entry) => entry.1 = v,
                            None => model.push((keys[k], v)),
                        }
                    }
                    Op::Remove(k) => {
                        let at = model.iter().position(|&(m, _)| m == keys[k]);
                        prop_assert_eq!(idx.remove(keys[k]), at.map(|at| model.remove(at).1));
                    }
                    Op::Clear => {
                        idx.clear();
                        model.clear();
                    }
                    Op::Reserve(n) => idx.reserve(n),
                }
                prop_assert_eq!(idx.len(), model.len());
                for &k in &keys {
                    let want = model.iter().find(|&&(m, _)| m == k).map(|&(_, v)| v);
                    prop_assert_eq!(idx.get(k), want, "key {}", k);
                }
                let mut live: Vec<_> = idx.iter().collect();
                live.sort_unstable();
                let mut want = model.clone();
                want.sort_unstable();
                prop_assert_eq!(live, want);
                assert_reachable(&idx);
            }
        }
    }

    #[test]
    fn survives_growth_and_clear() {
        let mut idx = FlatIndex::default();
        assert_eq!(idx.get(0), None);
        assert_eq!(idx.remove(3), None);
        idx.hint(7); // an empty index has no bucket to ask for
        for k in 0..1000u32 {
            insert_first(&mut idx, u64::from(k) * 17, k);
        }
        assert_eq!(idx.len(), 1000);
        assert_eq!(
            idx.capacity(),
            2048,
            "power of two at no more than half load"
        );
        for k in 0..1000u32 {
            assert_eq!(idx.get(u64::from(k) * 17), Some(k));
        }
        assert_eq!(idx.get(1), None);
        idx.clear();
        assert_eq!(
            (idx.len(), idx.capacity()),
            (0, 2048),
            "clear keeps the buckets"
        );
        assert_eq!(idx.get(0), None);
        insert_first(&mut idx, 5, 9);
        assert_eq!(idx.get(5), Some(9));
    }

    #[test]
    fn reserve_grows_once() {
        let mut idx = FlatIndex::default();
        insert_first(&mut idx, 1, 1);
        idx.reserve(256);
        assert_eq!(idx.capacity(), 1024, "257 keys at no more than half load");
        for k in 2..=257u32 {
            insert_first(&mut idx, u64::from(k), k);
        }
        assert_eq!(idx.capacity(), 1024);
        assert_eq!(idx.get(1), Some(1));
        assert_eq!(idx.get(257), Some(257));
    }
}
