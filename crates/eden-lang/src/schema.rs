//! State schemas — the paper's type annotations (Figure 8).
//!
//! The programmer declares, per state variable: its **lifetime** (does it
//! live with the packet, the message, or the function?), its **access
//! permissions** (read-only or read-write for the action function), and —
//! for packet fields — the **header mapping** onto a wire field. The
//! compiler uses the schema to resolve `packet.X` / `msg.Y` / `_global.Z`
//! to numbered slots, reject writes to read-only state, and derive the
//! function's concurrency level (§3.4.4):
//!
//! * read-only message & global state → invocations may run **in parallel**;
//! * writes to message state → **one packet per message** at a time;
//! * writes to global state → **one invocation** at a time.
//!
//! Lifetime is implied by the scope a field is declared in — packet fields
//! have `Granularity.Packet`, message fields `Granularity.Message`, global
//! fields and arrays live as long as the function is installed.

use std::fmt;

use eden_vm::StateUse;

/// The three state scopes, in parameter order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// First parameter — per-packet state, usually header-mapped.
    Packet,
    /// Second parameter — per-message state kept by the enclave runtime.
    Message,
    /// Third parameter — per-function global state.
    Global,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Packet => write!(f, "packet"),
            Scope::Message => write!(f, "message"),
            Scope::Global => write!(f, "global"),
        }
    }
}

/// Access permission of a field, from the action function's point of view
/// (the paper's `AccessControl(Entity.PacketProcessor, …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    ReadOnly,
    ReadWrite,
}

/// Replication mode for global state shared across the fleet (the
/// `replicated(<mode>)` annotation). Only global scalars and arrays may be
/// replicated — per-packet and per-message state is host-local by
/// definition, and the type checker rejects the annotation there.
///
/// The dataplane semantics live in `eden-repl` / `eden-core`; the schema
/// only records the programmer's consistency choice:
///
/// * **merged** modes are CRDT-style: every host keeps its own
///   contribution, contributions commute, and any pairwise merge order
///   converges to the same value. Reads see `combine(remote, local)`.
/// * **sequenced** mode routes writes through the controller, which
///   assigns a single global order; every host applies that order and a
///   read returns the host's last-applied view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplMode {
    /// Merged by summation — commutative counters (rate-limit tokens,
    /// byte counts). A read sees the sum of every host's contribution.
    MergedSum,
    /// Merged by maximum — high-water marks (largest sequence seen,
    /// reputation ceilings). A read sees the fleet-wide max.
    MergedMax,
    /// Controller-ordered writes, read-your-host's-view.
    Sequenced,
}

impl fmt::Display for ReplMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplMode::MergedSum => write!(f, "merged(sum)"),
            ReplMode::MergedMax => write!(f, "merged(max)"),
            ReplMode::Sequenced => write!(f, "sequenced"),
        }
    }
}

/// Wire fields a packet-scope variable can map onto (the paper's
/// `HeaderMap("IPv4", "TotalLength")` etc.). The enclave binds these to real
/// header bytes; `Meta*` fields address the Eden metadata that stages attach
/// (message id/size/type, tenant, class), which travels with the packet
/// through the host stack but not onto the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderField {
    /// IPv4 `TotalLength`.
    Ipv4TotalLength,
    /// IPv4 source address (as u32).
    Ipv4Src,
    /// IPv4 destination address (as u32).
    Ipv4Dst,
    /// IPv4 `Protocol`.
    Ipv4Protocol,
    /// IPv4 DSCP bits.
    Ipv4Dscp,
    /// TCP/UDP source port.
    SrcPort,
    /// TCP/UDP destination port.
    DstPort,
    /// TCP sequence number.
    TcpSeq,
    /// 802.1Q Priority Code Point (3 bits) — the paper's priority channel.
    Dot1qPcp,
    /// 802.1Q VLAN id (12 bits) — the paper's source-routing label (§3.5).
    Dot1qVid,
    /// Stage metadata: unique message identifier.
    MetaMsgId,
    /// Stage metadata: message type tag (e.g. GET/PUT/READ/WRITE).
    MetaMsgType,
    /// Stage metadata: total message size in bytes.
    MetaMsgSize,
    /// Stage metadata: tenant id.
    MetaTenant,
    /// Stage metadata: application-supplied key hash.
    MetaKeyHash,
    /// 1 on the first packet of a message, else 0 ("packet belongs to a new
    /// message" in the paper's pseudo-code).
    MetaMsgStart,
    /// 0 when the function runs on the egress path, 1 on ingress. Supplied
    /// by the enclave runtime, not by packet bytes — lets one function (and
    /// one flow-state block) handle both directions of a connection, which
    /// is what connection tracking needs.
    Direction,
}

/// A declared scalar field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    pub name: String,
    pub scope: Scope,
    pub access: Access,
    /// Packet-scope fields may map onto a wire/metadata field.
    pub header: Option<HeaderField>,
    /// Slot index within the scope, assigned in declaration order.
    pub slot: u8,
    /// Cross-host replication mode; only valid on global scope.
    pub repl: Option<ReplMode>,
}

/// A declared global array of structs; elements are flattened row-major
/// (`stride = fields.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    pub name: String,
    /// Struct field names, in element order. A plain `i64` array has one
    /// unnamed field — use `&[""]`.
    pub fields: Vec<String>,
    pub access: Access,
    /// Array id, assigned in declaration order.
    pub id: u8,
    /// Cross-host replication mode (arrays are always global scope).
    pub repl: Option<ReplMode>,
}

impl ArrayDecl {
    /// i64 slots per element.
    pub fn stride(&self) -> usize {
        self.fields.len().max(1)
    }

    /// Offset of `field` within an element.
    pub fn field_offset(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == field)
    }
}

/// What the builder declared most recently — the target of a trailing
/// `.replicated(mode)` annotation. Builder bookkeeping only; two schemas
/// with identical declarations compare equal regardless of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastDecl {
    Field,
    Array,
}

/// Declared state layout for one action function.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    fields: Vec<FieldDecl>,
    arrays: Vec<ArrayDecl>,
    last_decl: Option<LastDecl>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields && self.arrays == other.arrays
    }
}

impl Eq for Schema {}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_field(
        mut self,
        name: &str,
        scope: Scope,
        access: Access,
        header: Option<HeaderField>,
    ) -> Self {
        let slot = self.fields.iter().filter(|f| f.scope == scope).count();
        assert!(slot <= u8::MAX as usize, "too many fields in scope {scope}");
        assert!(
            !self
                .fields
                .iter()
                .any(|f| f.scope == scope && f.name == name),
            "duplicate field '{name}' in scope {scope}"
        );
        self.fields.push(FieldDecl {
            name: name.to_string(),
            scope,
            access,
            header,
            slot: slot as u8,
            repl: None,
        });
        self.last_decl = Some(LastDecl::Field);
        self
    }

    /// Declare a packet-scope field, optionally header-mapped.
    pub fn packet_field(self, name: &str, access: Access, header: Option<HeaderField>) -> Self {
        self.push_field(name, Scope::Packet, access, header)
    }

    /// Declare a per-message state field.
    pub fn msg_field(self, name: &str, access: Access) -> Self {
        self.push_field(name, Scope::Message, access, None)
    }

    /// Declare a global scalar field.
    pub fn global_field(self, name: &str, access: Access) -> Self {
        self.push_field(name, Scope::Global, access, None)
    }

    /// Declare a global array of structs with the given field names.
    pub fn global_array(mut self, name: &str, fields: &[&str], access: Access) -> Self {
        assert!(
            !self.arrays.iter().any(|a| a.name == name),
            "duplicate array '{name}'"
        );
        let id = self.arrays.len();
        assert!(id <= u8::MAX as usize, "too many global arrays");
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            fields: fields.iter().map(|s| s.to_string()).collect(),
            access,
            id: id as u8,
            repl: None,
        });
        self.last_decl = Some(LastDecl::Array);
        self
    }

    /// Mark the most recently declared field or array as replicated across
    /// the fleet with the given consistency mode:
    ///
    /// ```
    /// use eden_lang::{Access, ReplMode, Schema};
    /// let s = Schema::new()
    ///     .global_field("Tokens", Access::ReadWrite)
    ///     .replicated(ReplMode::MergedSum);
    /// assert_eq!(
    ///     s.field(eden_lang::Scope::Global, "Tokens").unwrap().repl,
    ///     Some(ReplMode::MergedSum)
    /// );
    /// ```
    ///
    /// The annotation is recorded on any scope here; the type checker (and
    /// the enclave's install-time validation) reject it on per-packet and
    /// per-message state — replication of host-local lifetimes is a type
    /// error, not a builder panic, so wire-decoded schemas hit the same
    /// check as source-declared ones.
    pub fn replicated(mut self, mode: ReplMode) -> Self {
        match self.last_decl {
            Some(LastDecl::Field) => {
                self.fields.last_mut().expect("field declared").repl = Some(mode)
            }
            Some(LastDecl::Array) => {
                self.arrays.last_mut().expect("array declared").repl = Some(mode)
            }
            None => panic!("replicated({mode}) with no preceding field or array declaration"),
        }
        self
    }

    /// Look up a scalar field by scope and name.
    pub fn field(&self, scope: Scope, name: &str) -> Option<&FieldDecl> {
        self.fields
            .iter()
            .find(|f| f.scope == scope && f.name == name)
    }

    /// Look up a global array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// All declared fields.
    pub fn fields(&self) -> &[FieldDecl] {
        &self.fields
    }

    /// All declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Number of slots in a scope (for sizing enclave state blocks).
    pub fn scope_len(&self, scope: Scope) -> usize {
        self.fields.iter().filter(|f| f.scope == scope).count()
    }

    /// Does any field or array carry a `replicated(..)` annotation?
    pub fn has_replicated(&self) -> bool {
        self.fields.iter().any(|f| f.repl.is_some()) || self.arrays.iter().any(|a| a.repl.is_some())
    }

    /// Validate the replication annotations: replication is a property of
    /// function-lifetime (global) state only. Per-packet and per-message
    /// state dies with its packet/message on one host, so a replication
    /// mode there is meaningless — reject it. Called by the type checker
    /// and by install-time schema validation (wire-decoded schemas never
    /// pass through the builder).
    pub fn validate_repl(&self) -> Result<(), String> {
        for f in &self.fields {
            if let Some(mode) = f.repl {
                if f.scope != Scope::Global {
                    return Err(format!(
                        "field '{}' is {} scope but declared replicated({mode}): \
                         only global state can be replicated",
                        f.name, f.scope
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How many invocations of a function may run concurrently (§3.4.4).
/// Ordered from the level that permits most concurrency — and writes
/// least — to the one that permits none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Concurrency {
    /// Only packet state is written: any number of invocations in parallel.
    Parallel,
    /// Message state is written: at most one packet per message at a time.
    PerMessage,
    /// Global state is written: one invocation at a time.
    Serialized,
}

impl Concurrency {
    /// The level a program's write sets call for (§3.4.4): global or array
    /// writes serialize it, message writes allow one packet per message,
    /// anything else runs in parallel. The compiler derives a function's
    /// level with this and the enclave's link check holds a declared level
    /// to it, both over the verifier's [`StateUse`].
    pub fn needed(state: &StateUse) -> Concurrency {
        if !state.global.writes().is_empty() || !state.arrays.writes().is_empty() {
            Concurrency::Serialized
        } else if !state.message.writes().is_empty() {
            Concurrency::PerMessage
        } else {
            Concurrency::Parallel
        }
    }
}

impl fmt::Display for Concurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Concurrency::Parallel => write!(f, "parallel"),
            Concurrency::PerMessage => write!(f, "per-message"),
            Concurrency::Serialized => write!(f, "serialized"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_assigned_per_scope_in_order() {
        let s = Schema::new()
            .packet_field("A", Access::ReadOnly, None)
            .msg_field("B", Access::ReadWrite)
            .packet_field("C", Access::ReadWrite, None);
        assert_eq!(s.field(Scope::Packet, "A").unwrap().slot, 0);
        assert_eq!(s.field(Scope::Packet, "C").unwrap().slot, 1);
        assert_eq!(s.field(Scope::Message, "B").unwrap().slot, 0);
        assert_eq!(s.scope_len(Scope::Packet), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_field_panics() {
        let _ = Schema::new()
            .packet_field("A", Access::ReadOnly, None)
            .packet_field("A", Access::ReadOnly, None);
    }

    #[test]
    fn array_stride_and_offsets() {
        let s = Schema::new().global_array("P", &["Limit", "Prio"], Access::ReadOnly);
        let a = s.array("P").unwrap();
        assert_eq!(a.stride(), 2);
        assert_eq!(a.field_offset("Prio"), Some(1));
        assert_eq!(a.field_offset("Nope"), None);
    }

    #[test]
    fn level_follows_the_widest_write() {
        use eden_vm::{Op, Program};
        let level = |store: Op| {
            let ops = vec![Op::Push(1), store, Op::LoadMsg(0), Op::Pop, Op::Halt];
            let program = Program::new("t", ops, vec![], 0).unwrap();
            Concurrency::needed(&program.envelope().state)
        };
        assert_eq!(level(Op::StorePkt(0)), Concurrency::Parallel);
        assert_eq!(level(Op::StoreMsg(0)), Concurrency::PerMessage);
        assert_eq!(level(Op::StoreGlob(0)), Concurrency::Serialized);
        let arr = vec![Op::Push(0), Op::Push(1), Op::ArrStore(0), Op::Halt];
        let program = Program::new("a", arr, vec![], 0).unwrap();
        assert_eq!(
            Concurrency::needed(&program.envelope().state),
            Concurrency::Serialized
        );
    }

    #[test]
    fn replicated_marks_last_declaration() {
        let s = Schema::new()
            .global_field("Tokens", Access::ReadWrite)
            .replicated(ReplMode::MergedSum)
            .global_field("Local", Access::ReadWrite)
            .global_array("Conns", &[""], Access::ReadWrite)
            .replicated(ReplMode::Sequenced);
        assert_eq!(
            s.field(Scope::Global, "Tokens").unwrap().repl,
            Some(ReplMode::MergedSum)
        );
        assert_eq!(s.field(Scope::Global, "Local").unwrap().repl, None);
        assert_eq!(s.array("Conns").unwrap().repl, Some(ReplMode::Sequenced));
        assert!(s.has_replicated());
        assert!(s.validate_repl().is_ok());
    }

    #[test]
    #[should_panic(expected = "no preceding field")]
    fn replicated_without_declaration_panics() {
        let _ = Schema::new().replicated(ReplMode::MergedMax);
    }

    #[test]
    fn replicated_non_global_rejected_by_validate() {
        let s = Schema::new()
            .msg_field("Size", Access::ReadWrite)
            .replicated(ReplMode::MergedSum);
        let err = s.validate_repl().unwrap_err();
        assert!(err.contains("message"), "{err}");
        assert!(err.contains("only global state can be replicated"), "{err}");
    }

    #[test]
    fn schema_equality_ignores_builder_bookkeeping() {
        let a = Schema::new()
            .global_field("X", Access::ReadWrite)
            .global_array("A", &[""], Access::ReadOnly);
        let mut b = a.clone();
        b.last_decl = None; // e.g. a wire-decoded copy never set it
        assert_eq!(a, b);
    }
}
