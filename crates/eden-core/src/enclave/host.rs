//! The per-invocation state view an action function runs against:
//! [`InvocationHost`] and the global / replica views it is built from.

use eden_lang::{Access, Concurrency, HeaderField, ReplMode};
use eden_repl::{merged_read, merged_store, HostRepl, ReplSpec};
use eden_vm::{Effect, Host, VmError};
use netsim::{Packet, PacketRng, Time};

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
pub(super) enum GlobalView<'a> {
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
    fn global(&self, slot: usize) -> Option<i64> {
        match self {
            GlobalView::Excl { global, .. } => global.get(slot).copied(),
            GlobalView::Shared { global, .. } => global.get(slot).copied(),
        }
    }

    fn array(&self, array: usize) -> Option<&[i64]> {
        match self {
            GlobalView::Excl { arrays, .. } => arrays.get(array).map(|a| a.as_slice()),
            GlobalView::Shared { arrays, .. } => arrays.get(array).map(|a| a.as_slice()),
        }
    }
}

/// The per-invocation state view the VM (or a native function) runs
/// against. Mapped packet slots read/write real header fields through the
/// HeaderMap; unmapped slots use packet-lifetime scratch. The function's
/// derived concurrency level (§3.4.4) is enforced here: a `Parallel`
/// (read-only) function may not write message or global state, a
/// `PerMessage` function may not write global state — violations trap like
/// any other fault, on the serial path and on lanes alike.
pub(super) struct InvocationHost<'a> {
    pub(super) packet: &'a mut Packet,
    pub(super) bindings: &'a [(Option<HeaderField>, Access)],
    pub(super) scratch: &'a mut [i64],
    pub(super) msg: &'a mut [i64],
    pub(super) state: GlobalView<'a>,
    pub(super) repl: ReplRef<'a>,
    pub(super) rng: &'a mut PacketRng,
    pub(super) now: Time,
    pub(super) direction: FlowDirection,
    pub(super) queue: Option<(i64, i64)>,
    /// Mapped header fields written during this invocation (telemetry).
    pub(super) header_modifies: u64,
    pub(super) concurrency: Concurrency,
}

impl Host for InvocationHost<'_> {
    fn load_pkt(&mut self, slot: u8) -> Result<i64, VmError> {
        match self.bindings.get(slot as usize) {
            Some((Some(HeaderField::Direction), _)) => Ok(match self.direction {
                FlowDirection::Egress => 0,
                FlowDirection::Ingress => 1,
            }),
            Some((Some(field), _)) => Ok(crate::headermap::read_header_field(self.packet, *field)),
            Some((None, _)) => Ok(self.scratch[slot as usize]),
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
        }
    }

    fn store_pkt(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        match self.bindings.get(slot as usize) {
            Some((_, Access::ReadOnly)) => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
            Some((Some(field), _)) => {
                crate::headermap::write_header_field(self.packet, *field, value);
                self.header_modifies += 1;
                Ok(())
            }
            Some((None, _)) => {
                self.scratch[slot as usize] = value;
                Ok(())
            }
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
        }
    }

    fn load_msg(&mut self, slot: u8) -> Result<i64, VmError> {
        self.msg
            .get(slot as usize)
            .copied()
            .ok_or(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Message,
                slot,
            })
    }

    fn store_msg(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        if self.concurrency == Concurrency::Parallel {
            // a read-only function writing message state would invalidate
            // its derived concurrency level — trap instead of racing
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Message,
                slot,
            });
        }
        match self.msg.get_mut(slot as usize) {
            Some(s) => {
                *s = value;
                Ok(())
            }
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Message,
                slot,
            }),
        }
    }

    fn load_glob(&mut self, slot: u8) -> Result<i64, VmError> {
        let local = self
            .state
            .global(slot as usize)
            .ok_or(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Global,
                slot,
            })?;
        Ok(self.repl.read_global(slot as usize, local))
    }

    fn store_glob(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        if self.concurrency != Concurrency::Serialized {
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot,
            });
        }
        match &mut self.state {
            GlobalView::Excl { global, .. } => match global.get_mut(slot as usize) {
                Some(s) => {
                    if let Some(v) = self.repl.store_global(slot as usize, value) {
                        *s = v;
                    }
                    Ok(())
                }
                None => Err(VmError::BadStateSlot {
                    scope: eden_vm::StateScope::Global,
                    slot,
                }),
            },
            // unreachable in practice: Serialized functions never run on a
            // lane, but fail safe rather than assume
            GlobalView::Shared { .. } => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot,
            }),
        }
    }

    fn arr_load(&mut self, array: u8, index: i64) -> Result<i64, VmError> {
        let arr = self
            .state
            .array(array as usize)
            .ok_or(VmError::BadArrayAccess { array, index })?;
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < arr.len())
            .ok_or(VmError::BadArrayAccess { array, index })?;
        Ok(self.repl.read_array(array as usize, i, arr[i]))
    }

    fn arr_store(&mut self, array: u8, index: i64, value: i64) -> Result<(), VmError> {
        if self.concurrency != Concurrency::Serialized {
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot: array,
            });
        }
        match &mut self.state {
            GlobalView::Excl { arrays, .. } => {
                let arr = arrays
                    .get_mut(array as usize)
                    .ok_or(VmError::BadArrayAccess { array, index })?;
                let i = usize::try_from(index)
                    .ok()
                    .filter(|&i| i < arr.len())
                    .ok_or(VmError::BadArrayAccess { array, index })?;
                if let Some(v) = self.repl.store_array(array as usize, i, value) {
                    arr[i] = v;
                }
                Ok(())
            }
            GlobalView::Shared { .. } => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot: array,
            }),
        }
    }

    fn arr_len(&mut self, array: u8) -> Result<i64, VmError> {
        self.state
            .array(array as usize)
            .map(|a| a.len() as i64)
            .ok_or(VmError::BadArrayAccess { array, index: -1 })
    }

    fn rand64(&mut self) -> i64 {
        self.rng.next_i64()
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
