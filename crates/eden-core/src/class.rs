//! Classes and messages as first-order network abstractions (§1, §3.3).
//!
//! A *message* is an arbitrary application data unit; a *class* is the set
//! of messages (and their packets) that one action function should treat
//! alike. Externally a class is referred to by its fully qualified name
//! `stage.rule-set.class_name` (e.g. `memcached.r1.GET`); on the data path
//! it travels as an interned 32-bit id so per-packet matching is an integer
//! comparison, never a string one.

use std::collections::HashMap;
use std::fmt;

/// Interned class identifier carried in packet metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// The controller's bidirectional name ↔ id map.
///
/// Ids are dense and allocated in intern order, which keeps enclave-side
/// structures small. Id 0 is reserved for the catch-all "unclassified".
#[derive(Debug, Default)]
pub struct ClassRegistry {
    by_name: HashMap<String, ClassId>,
    names: Vec<String>,
}

impl ClassRegistry {
    /// Registry with the reserved `unclassified` id 0.
    pub fn new() -> ClassRegistry {
        let mut r = ClassRegistry::default();
        r.intern("unclassified");
        r
    }

    /// Intern a fully qualified class name, returning its id (existing id
    /// if already interned).
    pub fn intern(&mut self, fq_name: &str) -> ClassId {
        if let Some(&id) = self.by_name.get(fq_name) {
            return id;
        }
        let id = ClassId(self.names.len() as u32);
        self.names.push(fq_name.to_string());
        self.by_name.insert(fq_name.to_string(), id);
        id
    }

    /// Intern `stage.rule_set.class` from its parts.
    pub fn intern_parts(&mut self, stage: &str, rule_set: &str, class: &str) -> ClassId {
        self.intern(&format!("{stage}.{rule_set}.{class}"))
    }

    /// Resolve a name to an id, if interned.
    pub fn lookup(&self, fq_name: &str) -> Option<ClassId> {
        self.by_name.get(fq_name).copied()
    }

    /// Resolve an id back to its name.
    pub fn name(&self, id: ClassId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of interned classes (including `unclassified`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether only the reserved class exists.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }
}

/// Open-addressing class-id → rule-index map for the match stage.
///
/// The match stage probes this once per class per packet, so it is the
/// hottest lookup in the enclave. `HashMap<u32, usize>` paid SipHash plus
/// a pointer-chased bucket per probe; this table is a flat power-of-two
/// slot array of packed `(class << 32) | rule` words probed linearly
/// after a Fibonacci hash — one multiply, one mask, and (at ≤ 50% load)
/// almost always one cache line.
///
/// Semantics match the rule table's needs: *insert keeps first*, because
/// rule priority is insertion order and `find` wants the lowest-index
/// rule for a class (first-match-wins).
#[derive(Debug, Clone, Default)]
pub struct ClassIndex {
    /// Packed `(key << 32) | value`; `u64::MAX` marks an empty slot.
    slots: Vec<u64>,
    len: usize,
}

const EMPTY_SLOT: u64 = u64::MAX;

/// 2^32 / φ — Knuth's multiplicative hash constant.
const FIB: u32 = 0x9E37_79B9;

impl ClassIndex {
    /// An empty index.
    pub fn new() -> ClassIndex {
        ClassIndex::default()
    }

    /// Number of distinct classes indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no classes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry, keeping capacity.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }

    /// Make room for `additional` more classes without growing again.
    pub fn reserve(&mut self, additional: usize) {
        let want = ((self.len + additional) * 2).next_power_of_two();
        if want > self.slots.len() {
            self.rehash(want.max(8));
        }
    }

    /// Insert `class → rule` unless the class is already mapped (first
    /// insertion wins, mirroring rule priority order).
    pub fn insert_first(&mut self, class: u32, rule: u32) {
        let i = self.slot_for_insert(class, rule);
        if self.slots[i] == EMPTY_SLOT {
            self.slots[i] = (u64::from(class) << 32) | u64::from(rule);
            self.len += 1;
        }
    }

    /// Map `class → rule`, replacing any mapping the class already has —
    /// what a rule removal needs when the class's first rule moves.
    pub fn set(&mut self, class: u32, rule: u32) {
        let i = self.slot_for_insert(class, rule);
        if self.slots[i] == EMPTY_SLOT {
            self.len += 1;
        }
        self.slots[i] = (u64::from(class) << 32) | u64::from(rule);
    }

    /// The slot holding `class`, or the empty slot where it would go
    /// (growing first so that slot exists at ≤ 50% load).
    fn slot_for_insert(&mut self, class: u32, rule: u32) -> usize {
        debug_assert!(rule != u32::MAX, "rule index u32::MAX is reserved");
        if (self.len + 1) * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(8));
        }
        let mask = self.slots.len() - 1;
        let mut i = (class.wrapping_mul(FIB) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT || (slot >> 32) as u32 == class {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Unmap `class`, returning the rule it mapped to. Backward-shift
    /// deletion: every entry of the probe run after the hole moves up if
    /// its home slot allows, so no tombstone is left behind and `get`
    /// keeps stopping at the first empty slot.
    pub fn remove(&mut self, class: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = (class.wrapping_mul(FIB) as usize) & mask;
        loop {
            let slot = self.slots[hole];
            if slot == EMPTY_SLOT {
                return None;
            }
            if (slot >> 32) as u32 == class {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let removed = self.slots[hole] as u32;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let slot = self.slots[next];
            if slot == EMPTY_SLOT {
                break;
            }
            let home = (((slot >> 32) as u32).wrapping_mul(FIB) as usize) & mask;
            // `slot` may fill the hole only if its home is not inside the
            // (cyclic) interval (hole, next].
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = next;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len -= 1;
        Some(removed)
    }

    /// The rule index mapped to `class`, if any.
    #[inline]
    pub fn get(&self, class: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (class.wrapping_mul(FIB) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if (slot >> 32) as u32 == class {
                return Some(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot == EMPTY_SLOT {
                continue;
            }
            let class = (slot >> 32) as u32;
            let mut i = (class.wrapping_mul(FIB) as usize) & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = ClassRegistry::new();
        let a = r.intern("memcached.r1.GET");
        let b = r.intern("memcached.r1.GET");
        assert_eq!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn id_zero_is_unclassified() {
        let r = ClassRegistry::new();
        assert_eq!(r.lookup("unclassified"), Some(ClassId(0)));
    }

    #[test]
    fn parts_compose_fully_qualified_names() {
        let mut r = ClassRegistry::new();
        let id = r.intern_parts("memcached", "r1", "PUT");
        assert_eq!(r.name(id), Some("memcached.r1.PUT"));
        assert_eq!(r.lookup("memcached.r1.PUT"), Some(id));
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let mut r = ClassRegistry::new();
        let a = r.intern("a.r.x");
        let b = r.intern("a.r.y");
        assert_ne!(a, b);
    }

    #[test]
    fn class_index_first_insertion_wins() {
        let mut idx = ClassIndex::new();
        idx.insert_first(7, 3);
        idx.insert_first(7, 1);
        assert_eq!(idx.get(7), Some(3), "earlier rule keeps the slot");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(8), None);
    }

    #[test]
    fn class_index_survives_growth() {
        let mut idx = ClassIndex::new();
        for k in 0..1000u32 {
            idx.insert_first(k * 17, k);
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000u32 {
            assert_eq!(idx.get(k * 17), Some(k));
        }
        assert_eq!(idx.get(1), None);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(0), None);
        idx.insert_first(5, 9);
        assert_eq!(idx.get(5), Some(9));
    }

    #[test]
    fn class_index_remove_leaves_no_tombstone() {
        // a first-wins HashMap is the model; keys collide heavily at the
        // sizes the table passes through (multiples of 8, a small universe)
        let mut idx = ClassIndex::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut x = 0x9E37_79B9u32;
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = (x % 48) * 8;
            match x >> 29 {
                0..=2 => {
                    idx.insert_first(key, step);
                    model.entry(key).or_insert(step);
                }
                3 => {
                    idx.set(key, step);
                    model.insert(key, step);
                }
                _ => assert_eq!(idx.remove(key), model.remove(&key)),
            }
            assert_eq!(idx.len(), model.len());
            for k in (0..48).map(|k| k * 8) {
                assert_eq!(idx.get(k), model.get(&k).copied(), "key {k} at step {step}");
            }
        }
        assert_eq!(ClassIndex::new().remove(3), None);
    }

    #[test]
    fn class_index_reserve_grows_once() {
        let mut idx = ClassIndex::new();
        idx.insert_first(1, 1);
        idx.reserve(256);
        let slots = idx.slots.len();
        assert_eq!(slots, 1024, "257 classes at no more than half load");
        for k in 2..=257 {
            idx.insert_first(k, k);
        }
        assert_eq!(idx.slots.len(), slots);
        assert_eq!(idx.get(1), Some(1));
        assert_eq!(idx.get(257), Some(257));
    }

    #[test]
    fn class_index_handles_colliding_keys() {
        // keys chosen to share low hash bits at small table sizes
        let mut idx = ClassIndex::new();
        for k in [0u32, 8, 16, 24, 32, 40, 48] {
            idx.insert_first(k, k + 100);
        }
        for k in [0u32, 8, 16, 24, 32, 40, 48] {
            assert_eq!(idx.get(k), Some(k + 100));
        }
    }
}
