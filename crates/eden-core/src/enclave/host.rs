//! The per-invocation state view an action function runs against:
//! [`InvocationHost`] and the global / replica views it is built from.

use eden_lang::{Access, ReplMode};
use eden_repl::{merged_read, merged_store, HostRepl, ReplSpec};
use eden_vm::{Effect, Host, StateUse, VmError};
use netsim::{Packet, Time};

use super::link::PktSlot;
use super::FlowDirection;

/// Shared read-only replica view for a worker lane: the spec plus the
/// remote-contribution snapshots. Only mutated between batches, so lanes
/// read it without synchronization.
#[derive(Clone, Copy)]
pub(super) struct ReplShared<'a> {
    pub(super) spec: &'a ReplSpec,
    pub(super) remote: &'a [i64],
    pub(super) remote_arrays: &'a [Vec<i64>],
}

/// A function's view of its replication runtime during one invocation.
/// `Off` for non-replicated functions — the common case, one branch on
/// every global access. Writers (always `Serialized`, hence serial-path
/// only) get the exclusive form, which can queue sequenced ops; lanes get
/// the shared read-only form.
pub(super) enum ReplRef<'a> {
    Off,
    Excl(&'a mut HostRepl),
    Shared(ReplShared<'a>),
}

impl ReplRef<'_> {
    /// Effective value of global `slot` given its local contribution.
    #[inline]
    fn read_global(&self, slot: usize, local: i64) -> i64 {
        let (spec, remote) = match self {
            ReplRef::Off => return local,
            ReplRef::Excl(h) => (h.spec(), h.remote_globals()),
            ReplRef::Shared(s) => (s.spec, s.remote),
        };
        match spec.global_mode(slot) {
            Some(mode) => merged_read(mode, remote.get(slot).copied().unwrap_or(0), local),
            None => local,
        }
    }

    /// Effective value of array cell `(id, index)` given its local value.
    #[inline]
    fn read_array(&self, id: usize, index: usize, local: i64) -> i64 {
        let (spec, remote) = match self {
            ReplRef::Off => return local,
            ReplRef::Excl(h) => (h.spec(), h.remote_array(id)),
            ReplRef::Shared(s) => (
                s.spec,
                s.remote_arrays.get(id).map_or(&[][..], Vec::as_slice),
            ),
        };
        match spec.array_mode(id) {
            Some(mode) => merged_read(mode, remote.get(index).copied().unwrap_or(0), local),
            None => local,
        }
    }

    /// Route a store to global `slot`: `Some(new_local)` writes the local
    /// slot, `None` means the write was queued for controller sequencing
    /// (the slot changes only when the ordered entry comes back).
    #[inline]
    fn store_global(&mut self, slot: usize, value: i64) -> Option<i64> {
        match self {
            ReplRef::Off | ReplRef::Shared(_) => Some(value),
            ReplRef::Excl(h) => match h.spec().global_mode(slot) {
                None => Some(value),
                Some(ReplMode::Sequenced) => {
                    h.seq_store_global(slot as u8, value);
                    None
                }
                Some(mode) => Some(merged_store(
                    mode,
                    h.remote_globals().get(slot).copied().unwrap_or(0),
                    value,
                )),
            },
        }
    }

    /// Route a store to array cell `(id, index)`; same contract as
    /// [`store_global`](Self::store_global).
    #[inline]
    fn store_array(&mut self, id: usize, index: usize, value: i64) -> Option<i64> {
        match self {
            ReplRef::Off | ReplRef::Shared(_) => Some(value),
            ReplRef::Excl(h) => match h.spec().array_mode(id) {
                None => Some(value),
                Some(ReplMode::Sequenced) => {
                    h.seq_store_array(id as u8, index as u32, value);
                    None
                }
                Some(mode) => Some(merged_store(
                    mode,
                    h.remote_array(id).get(index).copied().unwrap_or(0),
                    value,
                )),
            },
        }
    }
}

/// A function's view of the shared globals: the serial path holds them
/// exclusively; worker lanes share them read-only (safe because only
/// `Serialized` functions may write, and those never reach a lane).
pub(crate) enum GlobalView<'a> {
    Excl {
        global: &'a mut [i64],
        arrays: &'a mut [Vec<i64>],
    },
    Shared {
        global: &'a [i64],
        arrays: &'a [Vec<i64>],
    },
}

impl GlobalView<'_> {
    pub(crate) fn global(&self) -> &[i64] {
        match self {
            GlobalView::Excl { global, .. } => global,
            GlobalView::Shared { global, .. } => global,
        }
    }

    pub(crate) fn arrays(&self) -> &[Vec<i64>] {
        match self {
            GlobalView::Excl { arrays, .. } => arrays,
            GlobalView::Shared { arrays, .. } => arrays,
        }
    }
}

/// A store to the globals from a worker lane. Linking refuses an
/// interpreted function that stores globals unless it is declared
/// `Serialized`, a `Serialized` function keeps every batch on the
/// caller's thread, and native closures never run on a lane.
const LANE_STORE: &str = "linked: a function that stores globals never runs on a lane";

/// The per-invocation state view the VM (or a native function) runs
/// against. Mapped packet slots read/write real header fields through the
/// descriptors linking resolved; unmapped slots use packet-lifetime
/// scratch.
///
/// The accessors check nothing per access. An interpreted function was
/// linked at install: every slot its program touches is in its schema,
/// it stores to no read-only field, and its stores fit its concurrency
/// level (§3.4.4) — so the view can hand out slots by index. A native
/// function reaches the same view only through
/// [`NativeEnv`](crate::NativeEnv), which borrows it for the call and
/// makes those checks per access.
pub(crate) struct InvocationHost<'a> {
    pub(super) packet: &'a mut Packet,
    pub(crate) bindings: &'a [(PktSlot, Access)],
    pub(super) scratch: &'a mut [i64],
    pub(crate) msg: &'a mut [i64],
    pub(crate) state: GlobalView<'a>,
    pub(super) repl: ReplRef<'a>,
    /// The packet's random stream, `PacketRng::next_i64`. A closure and not
    /// the `&mut PacketRng<'r>` itself, because `'r` (the packet's borrow of
    /// the host's generator) outlives this view and `&mut` cannot shorten
    /// it; nothing is drawn, or generated, until a function calls it.
    pub(super) rand: &'a mut dyn FnMut() -> i64,
    pub(super) now: Time,
    pub(super) direction: FlowDirection,
    pub(crate) queue: Option<(i64, i64)>,
    /// Mapped header fields written during this invocation (telemetry).
    pub(crate) header_modifies: u64,
}

impl Host for InvocationHost<'_> {
    /// Nothing to ask: the function was linked against this view's schema
    /// when it was installed.
    fn admit(&self, _needs: &StateUse) -> Result<(), VmError> {
        Ok(())
    }

    fn load_pkt(&mut self, slot: u8) -> i64 {
        match self.bindings[slot as usize].0 {
            PktSlot::Header(field) => crate::headermap::read_header_field(self.packet, field),
            PktSlot::Scratch => self.scratch[slot as usize],
            PktSlot::Direction => match self.direction {
                FlowDirection::Egress => 0,
                FlowDirection::Ingress => 1,
            },
        }
    }

    fn store_pkt(&mut self, slot: u8, value: i64) {
        match self.bindings[slot as usize].0 {
            PktSlot::Header(field) => {
                crate::headermap::write_header_field(self.packet, field, value);
                self.header_modifies += 1;
            }
            PktSlot::Scratch => self.scratch[slot as usize] = value,
            // the runtime pseudo-field: not packet data, counted as a
            // header write like any mapped slot
            PktSlot::Direction => self.header_modifies += 1,
        }
    }

    fn load_msg(&mut self, slot: u8) -> i64 {
        self.msg[slot as usize]
    }

    fn store_msg(&mut self, slot: u8, value: i64) {
        self.msg[slot as usize] = value;
    }

    fn load_glob(&mut self, slot: u8) -> i64 {
        let local = self.state.global()[slot as usize];
        self.repl.read_global(slot as usize, local)
    }

    fn store_glob(&mut self, slot: u8, value: i64) {
        let GlobalView::Excl { global, .. } = &mut self.state else {
            unreachable!("{LANE_STORE}");
        };
        if let Some(v) = self.repl.store_global(slot as usize, value) {
            global[slot as usize] = v;
        }
    }

    fn arr_load(&mut self, array: u8, index: i64) -> Result<i64, VmError> {
        let arr = &self.state.arrays()[array as usize];
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < arr.len())
            .ok_or(VmError::BadArrayAccess { array, index })?;
        Ok(self.repl.read_array(array as usize, i, arr[i]))
    }

    fn arr_store(&mut self, array: u8, index: i64, value: i64) -> Result<(), VmError> {
        let GlobalView::Excl { arrays, .. } = &mut self.state else {
            unreachable!("{LANE_STORE}");
        };
        let arr = &mut arrays[array as usize];
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < arr.len())
            .ok_or(VmError::BadArrayAccess { array, index })?;
        if let Some(v) = self.repl.store_array(array as usize, i, value) {
            arr[i] = v;
        }
        Ok(())
    }

    fn arr_len(&mut self, array: u8) -> i64 {
        self.state.arrays()[array as usize].len() as i64
    }

    fn rand64(&mut self) -> i64 {
        (self.rand)()
    }

    fn now_ns(&mut self) -> i64 {
        self.now.as_nanos() as i64
    }

    fn effect(&mut self, effect: Effect) -> Result<(), VmError> {
        match effect {
            Effect::SetQueue { queue, charge } => {
                if queue < 0 {
                    return Err(VmError::BadQueue(queue));
                }
                self.queue = Some((queue, charge));
                Ok(())
            }
            Effect::GotoTable { table } => {
                if !(0..=u8::MAX as i64).contains(&table) {
                    return Err(VmError::BadTable(table));
                }
                Ok(())
            }
            Effect::Drop | Effect::ToController => Ok(()),
        }
    }
}
