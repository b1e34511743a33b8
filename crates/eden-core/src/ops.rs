//! Enclave configuration operations — the unit of control-plane updates.
//!
//! The paper's controller programs enclaves through a narrow API (§3.4.5);
//! `eden-ctrl` carries that API over the wire as a sequence of
//! [`EnclaveOp`]s grouped into an *epoch*. An epoch is staged as a whole
//! ([`Enclave::stage_epoch`](crate::Enclave::stage_epoch)) — every op
//! validated and every shipped program decoded, re-verified and linked up
//! front —
//! and later committed atomically between packets
//! ([`Enclave::commit_epoch`](crate::Enclave::commit_epoch)), so the data
//! path never observes a rule table mixing configuration from two epochs.

use eden_lang::{CompiledFunction, Concurrency, Schema};

use crate::class::ClassId;
use crate::enclave::{LinkError, MatchSpec};

/// One enclave configuration operation, as carried by the control plane.
///
/// Indices (`table`, `func`, `rule`) refer to the enclave's configuration
/// *as of this op*, i.e. after all preceding ops in the same epoch have
/// applied. Controller updates are normally `Reset`-led full replacements,
/// which makes index assignment deterministic on both sides.
#[derive(Debug, Clone, PartialEq)]
pub enum EnclaveOp {
    /// Drop every table (recreating empty table 0), function, and all
    /// function state. The anchor of a full-replacement epoch.
    Reset,
    /// Append an empty match-action table.
    CreateTable,
    /// Remove all rules from table `table`.
    ClearTable { table: usize },
    /// Install a compiled function shipped as verified bytecode. Boxed:
    /// an epoch is mostly rules, and a function inline would make every
    /// op 112 bytes instead of 48.
    InstallFunction(Box<ShippedFunction>),
    /// Append a rule to `table` (first match wins).
    InstallRule {
        table: usize,
        spec: MatchSpec,
        func: usize,
    },
    /// Remove rule `rule` (by position) from `table`; later rules shift
    /// down by one.
    RemoveRule { table: usize, rule: usize },
    /// Write one global scalar of function `func`.
    SetGlobal {
        func: usize,
        slot: usize,
        value: i64,
    },
    /// Replace global array `array` of function `func` with flattened
    /// `values`.
    SetArray {
        func: usize,
        array: usize,
        values: Vec<i64>,
    },
}

impl EnclaveOp {
    /// The op that installs `compiled` as `name`: its program encoded as
    /// bytecode, beside the schema and concurrency it was compiled for.
    pub fn ship(name: &str, compiled: &CompiledFunction) -> EnclaveOp {
        EnclaveOp::InstallFunction(Box::new(ShippedFunction {
            name: name.to_string(),
            bytecode: eden_vm::encode_program(&compiled.program),
            schema: compiled.schema.clone(),
            concurrency: compiled.concurrency,
        }))
    }

    /// The rule that runs function `func` on every packet of `class`, in
    /// table 0.
    pub fn class_rule(class: ClassId, func: usize) -> EnclaveOp {
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(class),
            func,
        }
    }
}

/// A compiled function as the control plane ships it: verified bytecode
/// plus the schema and concurrency level the enclave links it against
/// ([`InstalledFunction::from_shipped`](crate::InstalledFunction::from_shipped)).
#[derive(Debug, Clone, PartialEq)]
pub struct ShippedFunction {
    pub name: String,
    pub bytecode: Vec<u8>,
    pub schema: Schema,
    pub concurrency: Concurrency,
}

/// A bound on a configuration's size, checked op by op wherever an op is
/// checked: a refusal names it ([`ApplyError::OverCap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    /// [`MAX_TABLES`](crate::MAX_TABLES) tables.
    Tables,
    /// [`MAX_FUNCTIONS`](crate::MAX_FUNCTIONS) functions.
    Functions,
    /// [`MAX_RULES_PER_TABLE`](crate::MAX_RULES_PER_TABLE) rules in one
    /// table.
    RulesPerTable,
}

impl Cap {
    /// The most the configuration may hold.
    pub fn limit(self) -> usize {
        match self {
            Cap::Tables => crate::MAX_TABLES,
            Cap::Functions => crate::MAX_FUNCTIONS,
            Cap::RulesPerTable => crate::MAX_RULES_PER_TABLE,
        }
    }

    fn what(self) -> &'static str {
        match self {
            Cap::Tables => "tables",
            Cap::Functions => "functions",
            Cap::RulesPerTable => "rules in a table",
        }
    }
}

/// Why an epoch failed to stage. Reported back to the controller in a
/// `Nack`, which aborts the two-phase update cluster-wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// `table` index out of range at that point in the op sequence.
    NoSuchTable { op: usize, table: usize },
    /// `func` index out of range at that point in the op sequence.
    NoSuchFunction { op: usize, func: usize },
    /// `rule` index out of range for its table.
    NoSuchRule { op: usize, rule: usize },
    /// Global scalar slot out of range for the function's schema.
    NoSuchSlot { op: usize, slot: usize },
    /// Global array id out of range for the function's schema.
    NoSuchArray { op: usize, array: usize },
    /// A `SetArray` of `len` values, past
    /// [`MAX_ARRAY_LEN`](crate::MAX_ARRAY_LEN).
    ArrayTooLong { op: usize, len: usize },
    /// The op would take the configuration past `cap`.
    OverCap { op: usize, cap: Cap },
    /// Shipped bytecode failed to decode or re-verify.
    BadBytecode { op: usize, reason: String },
    /// A shipped function verified but does not link: over the enclave's
    /// limits, outside its own schema, storing to read-only state, or
    /// declared at a weaker concurrency level than its code writes.
    Unlinkable { op: usize, error: LinkError },
    /// A delta epoch was anchored against a config digest this enclave
    /// does not currently have — the sender's picture of our config is
    /// stale, so applying the diff would corrupt it. The remedy is a
    /// full-table resync.
    DigestMismatch { have: u64, want: u64 },
    /// The epoch's `ops` ops do not fit one control message: refused by
    /// the controller before anything stages them.
    TooLarge { ops: usize },
}

impl ApplyError {
    /// Whether ops planned as a diff from the configuration whose digest
    /// is `want` may stage on one whose digest is `have`: only if it is
    /// that configuration, else [`ApplyError::DigestMismatch`].
    pub fn check_anchor(have: u64, want: u64) -> Result<(), ApplyError> {
        if have == want {
            Ok(())
        } else {
            Err(ApplyError::DigestMismatch { have, want })
        }
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::NoSuchTable { op, table } => {
                write!(f, "op {op}: no such table {table}")
            }
            ApplyError::NoSuchFunction { op, func } => {
                write!(f, "op {op}: no such function {func}")
            }
            ApplyError::NoSuchRule { op, rule } => write!(f, "op {op}: no such rule {rule}"),
            ApplyError::NoSuchSlot { op, slot } => {
                write!(f, "op {op}: global slot {slot} out of range")
            }
            ApplyError::NoSuchArray { op, array } => {
                write!(f, "op {op}: global array {array} out of range")
            }
            ApplyError::ArrayTooLong { op, len } => {
                write!(f, "op {op}: an array of {len} values is too long")
            }
            ApplyError::OverCap { op, cap } => {
                write!(f, "op {op}: past the cap of {} {}", cap.limit(), cap.what())
            }
            ApplyError::BadBytecode { op, reason } => {
                write!(f, "op {op}: bad bytecode: {reason}")
            }
            ApplyError::Unlinkable { op, error } => {
                write!(f, "op {op}: function does not link: {error}")
            }
            ApplyError::DigestMismatch { have, want } => {
                write!(f, "digest mismatch: have {have:#018x} want {want:#018x}")
            }
            ApplyError::TooLarge { ops } => {
                write!(f, "an epoch of {ops} ops does not fit one control message")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    // What an epoch's decoded op list costs per op: 258 ops of a 256-rule
    // table are 12.4 KB at 48 bytes, and were 28.9 KB with the function
    // inline.
    #[test]
    fn an_op_is_48_bytes_with_the_function_boxed() {
        assert_eq!(std::mem::size_of::<EnclaveOp>(), 48);
    }
}
