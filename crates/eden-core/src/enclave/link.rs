//! Install-time linking: everything about a function that depends only on
//! its program, its schema and the enclave's [`Limits`] is settled once,
//! when it is installed — so the data path checks none of it per packet,
//! and a function that would have faulted on one of these checks is
//! refused at the control plane instead of failing open per packet.
//!
//! For interpreted functions the verifier's [`Envelope`] says what the
//! program needs and touches; [`link`] holds that against the limits, the
//! schema and the declared concurrency level (§3.4.4). Native closures
//! cannot be analysed: they get the same packet-slot descriptors and keep
//! their per-access checks in [`NativeEnv`](crate::NativeEnv).

use std::fmt;

use eden_lang::{Access, Concurrency, HeaderField, Schema, Scope};
use eden_vm::{Envelope, Limits, ScopeUse, StateUse, VmError};

use crate::action::{ActionImpl, InstalledFunction};

/// Where a packet-scope slot lives, resolved once from the schema's
/// HeaderMap annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktSlot {
    /// A header or stage-metadata field of the packet itself.
    Header(HeaderField),
    /// Unmapped: packet-lifetime scratch, indexed by the slot number.
    Scratch,
    /// The direction constant the enclave supplies (0 egress, 1 ingress).
    Direction,
}

impl PktSlot {
    fn of(header: Option<HeaderField>) -> PktSlot {
        match header {
            Some(HeaderField::Direction) => PktSlot::Direction,
            Some(field) => PktSlot::Header(field),
            None => PktSlot::Scratch,
        }
    }
}

/// Why a function cannot be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The program's static envelope exceeds the enclave's limits; the
    /// [`VmError`] is the trap it could have run into.
    OverBudget(VmError),
    /// The program touches slot `slot` of a scope the schema declares
    /// `declared` slots in.
    NoSuchSlot {
        scope: Scope,
        slot: u8,
        declared: usize,
    },
    /// The program touches global array `array`; the schema declares
    /// `declared`.
    NoSuchArray { array: u8, declared: usize },
    /// The program stores to a field (or array) the schema marks
    /// read-only.
    ReadOnlyStore { what: String },
    /// The program writes state its declared concurrency level says it
    /// does not: `needs` is the level its stores derive.
    ConcurrencyTooWeak {
        declared: Concurrency,
        needs: Concurrency,
    },
}

impl LinkError {
    /// Small stable code for the flight recorder's fixed-size event.
    pub fn code(&self) -> u64 {
        match self {
            LinkError::OverBudget(_) => 1,
            LinkError::NoSuchSlot { .. } => 2,
            LinkError::NoSuchArray { .. } => 3,
            LinkError::ReadOnlyStore { .. } => 4,
            LinkError::ConcurrencyTooWeak { .. } => 5,
        }
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::OverBudget(e) => write!(f, "static envelope over the enclave's limits: {e}"),
            LinkError::NoSuchSlot {
                scope,
                slot,
                declared,
            } => write!(
                f,
                "program touches {scope} slot {slot}, schema declares {declared}"
            ),
            LinkError::NoSuchArray { array, declared } => write!(
                f,
                "program touches global array {array}, schema declares {declared}"
            ),
            LinkError::ReadOnlyStore { what } => write!(f, "program stores to read-only {what}"),
            LinkError::ConcurrencyTooWeak { declared, needs } => write!(
                f,
                "declared {declared} but the program's stores need {needs}"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// A function that passed [`link`], with its packet slots resolved.
pub(super) struct Linked {
    pub(super) function: InstalledFunction,
    pub(super) pkt: Vec<(PktSlot, Access)>,
}

/// Link `function` for an enclave enforcing `limits`.
pub(super) fn link(function: InstalledFunction, limits: &Limits) -> Result<Linked, LinkError> {
    if let ActionImpl::Interpreted(program) = &function.action {
        check(
            program.envelope(),
            &function.schema,
            function.concurrency,
            limits,
        )?;
    }
    let pkt = function
        .schema
        .fields()
        .iter()
        .filter(|f| f.scope == Scope::Packet)
        .map(|f| (PktSlot::of(f.header), f.access))
        .collect();
    Ok(Linked { function, pkt })
}

/// The concurrency level a write set derives (§3.4.4).
fn derived_level(state: &StateUse) -> Concurrency {
    if !state.global.writes().is_empty() || !state.arrays.writes().is_empty() {
        Concurrency::Serialized
    } else if !state.message.writes().is_empty() {
        Concurrency::PerMessage
    } else {
        Concurrency::Parallel
    }
}

/// Hold a program's envelope against the limits, the schema it will run
/// over and the level it was declared at.
fn check(
    envelope: &Envelope,
    schema: &Schema,
    declared: Concurrency,
    limits: &Limits,
) -> Result<(), LinkError> {
    envelope.fits(limits).map_err(LinkError::OverBudget)?;
    let state = &envelope.state;
    for (scope, used) in [
        (Scope::Packet, &state.packet),
        (Scope::Message, &state.message),
        (Scope::Global, &state.global),
    ] {
        check_scope(schema, scope, used)?;
    }
    let arrays = schema.arrays();
    if let Some(array) = state.arrays.beyond(arrays.len()) {
        return Err(LinkError::NoSuchArray {
            array,
            declared: arrays.len(),
        });
    }
    if let Some(a) = arrays
        .iter()
        .find(|a| a.access == Access::ReadOnly && state.arrays.writes().contains(a.id))
    {
        return Err(LinkError::ReadOnlyStore {
            what: format!("global array '{}'", a.name),
        });
    }
    // `Parallel` writes nothing, `PerMessage` writes no global
    let needs = derived_level(state);
    if needs > declared {
        return Err(LinkError::ConcurrencyTooWeak { declared, needs });
    }
    Ok(())
}

fn check_scope(schema: &Schema, scope: Scope, used: &ScopeUse) -> Result<(), LinkError> {
    let declared = schema.scope_len(scope);
    if let Some(slot) = used.beyond(declared) {
        return Err(LinkError::NoSuchSlot {
            scope,
            slot,
            declared,
        });
    }
    match schema.fields().iter().find(|f| {
        f.scope == scope && f.access == Access::ReadOnly && used.writes().contains(f.slot)
    }) {
        Some(f) => Err(LinkError::ReadOnlyStore {
            what: format!("{scope} field '{}'", f.name),
        }),
        None => Ok(()),
    }
}

/// What a slot of an installed function is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTarget {
    /// A packet-scope slot and where it resolves to.
    Packet(PktSlot),
    /// A field of the per-message state block.
    Message,
    /// A global scalar.
    Global,
    /// A global array (the slot number is the array id).
    Array,
}

/// One row of a function's linked slot table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotLink {
    pub target: SlotTarget,
    pub slot: u8,
    /// The schema's name for it.
    pub name: String,
    pub access: Access,
    /// Does the linked program load it / store to it? Always `false` for
    /// a native function, whose code cannot be read.
    pub read: bool,
    pub written: bool,
}

impl SlotLink {
    /// Who can change the slot's value, as the schema and the enclave API
    /// allow it.
    pub fn writers(&self) -> &'static str {
        let rw = self.access == Access::ReadWrite;
        match self.target {
            SlotTarget::Packet(PktSlot::Direction) => "enclave",
            SlotTarget::Packet(PktSlot::Header(_)) if rw => "function, host stack",
            SlotTarget::Packet(PktSlot::Header(_)) => "host stack",
            SlotTarget::Global | SlotTarget::Array if rw => "function, controller",
            SlotTarget::Global | SlotTarget::Array => "controller",
            SlotTarget::Packet(PktSlot::Scratch) | SlotTarget::Message if rw => "function",
            SlotTarget::Packet(PktSlot::Scratch) | SlotTarget::Message => "nobody",
        }
    }
}

/// What linking settled about an installed function: the level it runs
/// at, its static envelope and what each of its slots is bound to. The
/// names an explain record or `eden_top` needs to say *which* field a
/// packet's verdict came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkInfo {
    pub concurrency: Concurrency,
    /// `None` for a native function.
    pub envelope: Option<Envelope>,
    pub slots: Vec<SlotLink>,
}

impl LinkInfo {
    /// Describe `function`, which must have linked.
    pub(super) fn of(function: &InstalledFunction) -> LinkInfo {
        let envelope = match &function.action {
            ActionImpl::Interpreted(p) => Some(*p.envelope()),
            ActionImpl::Native(_) => None,
        };
        let used = envelope.map(|e| e.state).unwrap_or_default();
        let fields = function.schema.fields().iter().map(|f| {
            let (target, used) = match f.scope {
                Scope::Packet => (SlotTarget::Packet(PktSlot::of(f.header)), &used.packet),
                Scope::Message => (SlotTarget::Message, &used.message),
                Scope::Global => (SlotTarget::Global, &used.global),
            };
            SlotLink {
                target,
                slot: f.slot,
                name: f.name.clone(),
                access: f.access,
                read: used.reads().contains(f.slot),
                written: used.writes().contains(f.slot),
            }
        });
        let arrays = function.schema.arrays().iter().map(|a| SlotLink {
            target: SlotTarget::Array,
            slot: a.id,
            name: a.name.clone(),
            access: a.access,
            read: used.arrays.reads().contains(a.id),
            written: used.arrays.writes().contains(a.id),
        });
        LinkInfo {
            concurrency: function.concurrency,
            envelope,
            slots: fields.chain(arrays).collect(),
        }
    }
}
