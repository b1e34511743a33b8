//! VM trap conditions.
//!
//! The paper's safety story (§3.4.3): "a faulty action function will result
//! in terminating the execution of that program, but will not affect the
//! rest of the system." Every error below terminates the offending program;
//! the enclave then applies its fail-open/fail-closed policy to the packet
//! and keeps forwarding.
//!
//! They come from three places. Verification makes some unreachable. The
//! budget and slot errors are raised at *admission*, before a program's
//! first instruction, from its static envelope — an enclave raises them
//! earlier still, when the function is installed. Only what depends on
//! run-time values is left to trap mid-run: `DivideByZero`,
//! `BadArrayAccess`, `BadRandRange`, `BadQueue`, `BadTable`, and
//! `OutOfFuel` when a budget is set.

use std::fmt;

/// Why an action function was terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The program's static operand-stack bound exceeds
    /// [`Limits::max_stack`](crate::Limits). Raised at admission.
    StackOverflow,
    /// An op needed more operands than the stack held. Unreachable for
    /// verified programs.
    StackUnderflow,
    /// The program's static locals ("heap") bound exceeds
    /// [`Limits::max_heap_slots`](crate::Limits). Raised at admission.
    HeapOverflow,
    /// The program's static call depth exceeds
    /// [`Limits::max_call_depth`](crate::Limits), or it recurses and has
    /// none. Raised at admission.
    CallDepthExceeded,
    /// The optional instruction budget ran out.
    OutOfFuel,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// `RandRange` invoked with a non-positive bound.
    BadRandRange(i64),
    /// Jump or fall-through past the end of the program. Unreachable for
    /// verified programs.
    BadJump(u32),
    /// `Call` referenced a function id not in the program's function table.
    BadFunction(u16),
    /// A local slot index was out of range for the current frame.
    BadLocal(u8),
    /// The host does not hold a state slot the program touches
    /// (packet/message/global field id not in the bound schema). Raised at
    /// admission, for the highest such slot.
    BadStateSlot { scope: StateScope, slot: u8 },
    /// A global-array access was out of bounds (mid-run: the index is a
    /// run-time value), or the program references an array the host does
    /// not hold (at admission, `index` −1).
    BadArrayAccess { array: u8, index: i64 },
    /// The host refuses a store the program makes (e.g. the schema marks
    /// the field read-only, or a native function writes beyond its declared
    /// concurrency level). For an interpreted program raised at admission.
    ReadOnlyViolation { scope: StateScope, slot: u8 },
    /// `Ret` executed with no call frame (top level uses `Halt`).
    ReturnFromTopLevel,
    /// An invalid queue id was passed to `SetQueue`.
    BadQueue(i64),
    /// An invalid table id was passed to `GotoTable`.
    BadTable(i64),
}

/// Which of the three state scopes an access touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateScope {
    /// Packet header fields (HeaderMap-resolved).
    Packet,
    /// Per-message state ("exists for the duration of the message").
    Message,
    /// Per-function global state ("till the function is being used in the
    /// enclave").
    Global,
}

impl fmt::Display for StateScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateScope::Packet => write!(f, "packet"),
            StateScope::Message => write!(f, "message"),
            StateScope::Global => write!(f, "global"),
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use VmError::*;
        match self {
            StackOverflow => write!(f, "operand stack overflow"),
            StackUnderflow => write!(f, "operand stack underflow"),
            HeapOverflow => write!(f, "locals/heap overflow"),
            CallDepthExceeded => write!(f, "call depth exceeded"),
            OutOfFuel => write!(f, "instruction budget exhausted"),
            DivideByZero => write!(f, "division by zero"),
            BadRandRange(n) => write!(f, "randrange bound must be positive, got {n}"),
            BadJump(t) => write!(f, "jump target {t} out of range"),
            BadFunction(id) => write!(f, "unknown function id {id}"),
            BadLocal(s) => write!(f, "local slot {s} out of range"),
            BadStateSlot { scope, slot } => write!(f, "unknown {scope} state slot {slot}"),
            BadArrayAccess { array, index } => {
                write!(f, "array {array} access at index {index} out of bounds")
            }
            ReadOnlyViolation { scope, slot } => {
                write!(f, "write to read-only {scope} state slot {slot}")
            }
            ReturnFromTopLevel => write!(f, "ret executed outside any function"),
            BadQueue(q) => write!(f, "invalid rate-limit queue id {q}"),
            BadTable(t) => write!(f, "invalid match-action table id {t}"),
        }
    }
}

impl std::error::Error for VmError {}
