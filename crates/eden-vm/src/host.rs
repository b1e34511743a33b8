//! The interpreter ↔ enclave boundary.
//!
//! An action function only ever sees three things (§3.4.2): the packet, its
//! message state, and its function-global state — plus builtin randomness
//! and a clock. All of them reach the VM through [`Host`]. The enclave in
//! `eden-core` implements `Host` over its authoritative state tables, which
//! is what gives the paper's guarantee that a program "can read and modify
//! only the state related to that program".
//!
//! [`VecHost`] is a plain vector-backed implementation used by unit tests,
//! property tests, and the interpreter microbenchmarks.
//!
//! Which slots a program touches, and which it writes, is known from its
//! ops alone ([`StateUse`], computed by the verifier). A host answers for
//! all of them once, at admission; the accessors it is then called
//! through carry no per-access slot or permission check.

use crate::error::{StateScope, VmError};

/// Side effects an action function can request (§3.4.2: "control routing
/// decisions for the packet, including dropping it, sending it to a specific
/// queue associated with rate limits, sending it to a specific match-action
/// table or forwarding it to the controller").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Drop the packet.
    Drop,
    /// Direct the packet to rate-limited queue `queue`, charging `charge`
    /// bytes against that queue's budget (may differ from the packet size —
    /// Pulsar's READ-request charging, §2.1.2).
    SetQueue { queue: i64, charge: i64 },
    /// Punt the packet to the controller.
    ToController,
    /// Continue matching in another enclave table.
    GotoTable { table: i64 },
}

/// A set of slot (or array) ids, one bit per possible `u8` operand.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSet([u64; 4]);

impl SlotSet {
    fn insert(&mut self, slot: u8) {
        self.0[slot as usize >> 6] |= 1 << (slot & 63);
    }

    /// Is `slot` in the set?
    pub fn contains(&self, slot: u8) -> bool {
        self.0[slot as usize >> 6] & (1 << (slot & 63)) != 0
    }

    /// No slot at all?
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The slots in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX).filter(|&s| self.contains(s))
    }
}

impl std::fmt::Debug for SlotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// What a program does to one state scope, read off its reachable ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeUse {
    reads: SlotSet,
    writes: SlotSet,
    slots: u16,
}

impl ScopeUse {
    pub(crate) fn read(&mut self, slot: u8) {
        self.reads.insert(slot);
        self.slots = self.slots.max(u16::from(slot) + 1);
    }

    pub(crate) fn write(&mut self, slot: u8) {
        self.writes.insert(slot);
        self.slots = self.slots.max(u16::from(slot) + 1);
    }

    pub(crate) fn merge(&mut self, other: &ScopeUse) {
        for (a, b) in self.reads.0.iter_mut().zip(other.reads.0) {
            *a |= b;
        }
        for (a, b) in self.writes.0.iter_mut().zip(other.writes.0) {
            *a |= b;
        }
        self.slots = self.slots.max(other.slots);
    }

    /// Slots the program loads.
    pub fn reads(&self) -> &SlotSet {
        &self.reads
    }

    /// Slots the program stores to.
    pub fn writes(&self) -> &SlotSet {
        &self.writes
    }

    /// How many slots the scope must hold for every access to land:
    /// the highest slot touched plus one, `0` when none is.
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// The highest slot touched, if a scope of `have` slots does not hold
    /// it: what an admission refusal names.
    pub fn beyond(&self, have: usize) -> Option<u8> {
        (self.slots() > have).then(|| (self.slots - 1) as u8)
    }
}

/// Every state access a program can make, per scope. Part of the
/// verifier's [`Envelope`](crate::Envelope): a host is asked once, before
/// the first instruction, whether it can serve all of it
/// ([`Host::admit`]), and is then accessed without further checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateUse {
    /// Packet fields.
    pub packet: ScopeUse,
    /// Per-message state fields.
    pub message: ScopeUse,
    /// Global scalar fields.
    pub global: ScopeUse,
    /// Global arrays, by array id (`ArrLen` counts as a read).
    pub arrays: ScopeUse,
}

impl StateUse {
    pub(crate) fn merge(&mut self, other: &StateUse) {
        self.packet.merge(&other.packet);
        self.message.merge(&other.message);
        self.global.merge(&other.global);
        self.arrays.merge(&other.arrays);
    }
}

/// Environment an action function executes against.
///
/// Slot numbers are assigned by the `eden-lang` compiler from the state
/// schema; the enclave binds the same schema, so both sides agree on the
/// layout without shipping names to the data plane.
///
/// The interpreter calls [`admit`](Self::admit) once per run, before the
/// first instruction. After it returned `Ok`, the scalar accessors are
/// only ever called with slots `needs` named, and only stores `needs`
/// listed as writes — which is why they return no `Result`. What stays
/// fallible is what depends on run-time values: array indices and the
/// operands of an effect.
pub trait Host {
    /// Can this host serve every access in `needs`? An unknown slot is
    /// [`VmError::BadStateSlot`], a store the host forbids
    /// [`VmError::ReadOnlyViolation`]; either refuses the whole run.
    fn admit(&self, needs: &StateUse) -> Result<(), VmError>;
    /// Read packet field `slot` (HeaderMap-resolved by the enclave).
    fn load_pkt(&mut self, slot: u8) -> i64;
    /// Write packet field `slot`.
    fn store_pkt(&mut self, slot: u8, value: i64);
    /// Read per-message state field `slot`.
    fn load_msg(&mut self, slot: u8) -> i64;
    /// Write per-message state field `slot`.
    fn store_msg(&mut self, slot: u8, value: i64);
    /// Read global state field `slot`.
    fn load_glob(&mut self, slot: u8) -> i64;
    /// Write global state field `slot`.
    fn store_glob(&mut self, slot: u8, value: i64);
    /// Read `array[index]` from global array `array`.
    fn arr_load(&mut self, array: u8, index: i64) -> Result<i64, VmError>;
    /// Write `array[index]` of global array `array`.
    fn arr_store(&mut self, array: u8, index: i64, value: i64) -> Result<(), VmError>;
    /// Element count of global array `array`.
    fn arr_len(&mut self, array: u8) -> i64;
    /// A uniformly distributed non-negative random value.
    fn rand64(&mut self) -> i64;
    /// High-frequency clock in nanoseconds. In the simulator this is virtual
    /// time, which keeps whole experiments deterministic.
    fn now_ns(&mut self) -> i64;
    /// Record a packet-disposition side effect. `Drop`, `ToController` and
    /// `GotoTable` terminate the program; `SetQueue` does not.
    fn effect(&mut self, effect: Effect) -> Result<(), VmError>;
}

/// A vector-backed [`Host`] for tests and microbenchmarks.
///
/// State scopes are plain `Vec<i64>`; a program touching a slot the
/// vectors do not hold is refused at admission, exactly like the real
/// enclave refuses it at install. Randomness is a self-contained
/// SplitMix64 so the crate stays dependency-free; the clock ticks 1 ns
/// per call.
#[derive(Debug, Clone)]
pub struct VecHost {
    /// Packet field values, indexed by slot.
    pub packet: Vec<i64>,
    /// Message state values, indexed by slot.
    pub msg: Vec<i64>,
    /// Global state values, indexed by slot.
    pub global: Vec<i64>,
    /// Global arrays, indexed by array id.
    pub arrays: Vec<Vec<i64>>,
    /// Slots that reject writes, as `(scope, slot)` — mirrors the schema's
    /// ReadOnly annotations for tests.
    pub read_only: Vec<(StateScope, u8)>,
    /// Effects recorded so far, in order.
    pub effects: Vec<Effect>,
    /// Current clock value; incremented on every `now_ns` call.
    pub clock: i64,
    rng_state: u64,
}

impl Default for VecHost {
    fn default() -> Self {
        VecHost {
            packet: Vec::new(),
            msg: Vec::new(),
            global: Vec::new(),
            arrays: Vec::new(),
            read_only: Vec::new(),
            effects: Vec::new(),
            clock: 0,
            rng_state: 0x9E3779B97F4A7C15,
        }
    }
}

impl VecHost {
    /// Create a host with the given number of zeroed slots per scope.
    pub fn with_slots(packet: usize, msg: usize, global: usize) -> Self {
        VecHost {
            packet: vec![0; packet],
            msg: vec![0; msg],
            global: vec![0; global],
            ..Self::default()
        }
    }

    /// Reseed the internal RNG (deterministic sequences in tests).
    pub fn seed(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    fn cell(arr: &mut [i64], array: u8, index: i64) -> Result<&mut i64, VmError> {
        usize::try_from(index)
            .ok()
            .and_then(|i| arr.get_mut(i))
            .ok_or(VmError::BadArrayAccess { array, index })
    }
}

impl Host for VecHost {
    #[inline]
    fn admit(&self, needs: &StateUse) -> Result<(), VmError> {
        for (scope, used, have) in [
            (StateScope::Packet, &needs.packet, self.packet.len()),
            (StateScope::Message, &needs.message, self.msg.len()),
            (StateScope::Global, &needs.global, self.global.len()),
        ] {
            if let Some(slot) = used.beyond(have) {
                return Err(VmError::BadStateSlot { scope, slot });
            }
            if let Some(&(scope, slot)) = self
                .read_only
                .iter()
                .find(|(s, slot)| *s == scope && used.writes().contains(*slot))
            {
                return Err(VmError::ReadOnlyViolation { scope, slot });
            }
        }
        if let Some(array) = needs.arrays.beyond(self.arrays.len()) {
            return Err(VmError::BadArrayAccess { array, index: -1 });
        }
        Ok(())
    }

    fn load_pkt(&mut self, slot: u8) -> i64 {
        self.packet[slot as usize]
    }

    fn store_pkt(&mut self, slot: u8, value: i64) {
        self.packet[slot as usize] = value;
    }

    fn load_msg(&mut self, slot: u8) -> i64 {
        self.msg[slot as usize]
    }

    fn store_msg(&mut self, slot: u8, value: i64) {
        self.msg[slot as usize] = value;
    }

    fn load_glob(&mut self, slot: u8) -> i64 {
        self.global[slot as usize]
    }

    fn store_glob(&mut self, slot: u8, value: i64) {
        self.global[slot as usize] = value;
    }

    fn arr_load(&mut self, array: u8, index: i64) -> Result<i64, VmError> {
        Self::cell(&mut self.arrays[array as usize], array, index).map(|c| *c)
    }

    fn arr_store(&mut self, array: u8, index: i64, value: i64) -> Result<(), VmError> {
        *Self::cell(&mut self.arrays[array as usize], array, index)? = value;
        Ok(())
    }

    fn arr_len(&mut self, array: u8) -> i64 {
        self.arrays[array as usize].len() as i64
    }

    fn rand64(&mut self) -> i64 {
        // SplitMix64, masked to non-negative.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) & (i64::MAX as u64)) as i64
    }

    fn now_ns(&mut self) -> i64 {
        self.clock += 1;
        self.clock
    }

    fn effect(&mut self, effect: Effect) -> Result<(), VmError> {
        if let Effect::SetQueue { queue, .. } = effect {
            if queue < 0 {
                return Err(VmError::BadQueue(queue));
            }
        }
        if let Effect::GotoTable { table } = effect {
            if table < 0 || table > u8::MAX as i64 {
                return Err(VmError::BadTable(table));
            }
        }
        self.effects.push(effect);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn needs(f: impl FnOnce(&mut StateUse)) -> StateUse {
        let mut n = StateUse::default();
        f(&mut n);
        n
    }

    #[test]
    fn unknown_slot_is_refused_at_admission() {
        let h = VecHost::with_slots(1, 0, 0);
        assert_eq!(h.admit(&needs(|n| n.packet.read(0))), Ok(()));
        assert_eq!(
            h.admit(&needs(|n| n.packet.read(1))),
            Err(VmError::BadStateSlot {
                scope: StateScope::Packet,
                slot: 1
            })
        );
        assert_eq!(
            h.admit(&needs(|n| n.message.write(3))),
            Err(VmError::BadStateSlot {
                scope: StateScope::Message,
                slot: 3
            })
        );
        assert_eq!(
            h.admit(&needs(|n| n.arrays.read(0))),
            Err(VmError::BadArrayAccess {
                array: 0,
                index: -1
            })
        );
    }

    #[test]
    fn read_only_slots_refuse_writers() {
        let mut h = VecHost::with_slots(2, 0, 0);
        h.read_only.push((StateScope::Packet, 0));
        assert_eq!(
            h.admit(&needs(|n| {
                n.packet.read(0);
                n.packet.write(1)
            })),
            Ok(())
        );
        assert_eq!(
            h.admit(&needs(|n| n.packet.write(0))),
            Err(VmError::ReadOnlyViolation {
                scope: StateScope::Packet,
                slot: 0
            })
        );
    }

    #[test]
    fn slot_sets_track_membership_and_extent() {
        let mut u = ScopeUse::default();
        assert_eq!(u.slots(), 0);
        assert!(u.reads().is_empty());
        u.read(0);
        u.write(200);
        u.read(63);
        u.read(64);
        assert_eq!(u.slots(), 201);
        assert_eq!(u.reads().iter().collect::<Vec<_>>(), vec![0, 63, 64]);
        assert_eq!(u.writes().iter().collect::<Vec<_>>(), vec![200]);
        assert!(!u.writes().contains(0));
    }

    #[test]
    fn array_bounds() {
        let mut h = VecHost::default();
        h.arrays.push(vec![10, 20, 30]);
        assert_eq!(h.arr_load(0, 2).unwrap(), 30);
        assert!(h.arr_load(0, 3).is_err());
        assert!(h.arr_load(0, -1).is_err());
        assert_eq!(h.arr_len(0), 3);
    }

    #[test]
    fn rand_is_deterministic_under_seed() {
        let mut a = VecHost::default();
        let mut b = VecHost::default();
        a.seed(7);
        b.seed(7);
        let xs: Vec<i64> = (0..4).map(|_| a.rand64()).collect();
        let ys: Vec<i64> = (0..4).map(|_| b.rand64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x >= 0));
    }

    #[test]
    fn bad_queue_and_table_rejected() {
        let mut h = VecHost::default();
        assert_eq!(
            h.effect(Effect::SetQueue {
                queue: -1,
                charge: 0
            }),
            Err(VmError::BadQueue(-1))
        );
        assert_eq!(
            h.effect(Effect::GotoTable { table: 300 }),
            Err(VmError::BadTable(300))
        );
    }
}
