//! # eden-vm — the Eden action-function interpreter
//!
//! Eden (SIGCOMM 2015, §3.4.3) executes data-plane *action functions* through
//! a small stack-based interpreter, "similar in spirit to the Java Virtual
//! Machine": bytecode is produced once by the controller-side compiler and
//! can then be injected into any enclave — OS driver or programmable NIC —
//! without dynamic code loading. This crate is that virtual machine.
//!
//! Deliberate restrictions, straight from the paper:
//!
//! * no objects, no exceptions, no floating point, no JIT;
//! * bounded operand stack and heap (the paper reports ~64 B stack and
//!   ~256 B heap for its case-study programs, see [`Limits`]), bounded
//!   statically: the verifier derives each program's worst case
//!   ([`Envelope`]) and a program over budget never starts;
//! * the only environment access is through the [`Host`] trait: packet
//!   header fields, per-message state, per-function global state, random
//!   numbers, a high-frequency clock, and a fixed set of side effects
//!   (drop, queue selection, route/priority updates happen via header and
//!   state writes).
//!
//! The enclave (in `eden-core`) owns the authoritative state; the VM only
//! ever touches it through [`Host`], which is what lets the enclave enforce
//! the paper's copy-in/copy-out consistency and concurrency model.
//!
//! ## Example
//!
//! ```
//! use eden_vm::{ProgramBuilder, Interpreter, VecHost, Limits};
//!
//! // packet.priority <- packet.size + 1   (slot 0 = size, slot 1 = priority)
//! let mut b = ProgramBuilder::new();
//! b.load_pkt(0).push(1).add().store_pkt(1).halt();
//! let program = b.build().unwrap();
//!
//! let mut host = VecHost::default();
//! host.packet = vec![41, 0];
//! let mut interp = Interpreter::new(Limits::default());
//! interp.run(&program, &mut host).unwrap();
//! assert_eq!(host.packet[1], 42);
//! ```

mod builder;
mod codec;
mod disasm;
mod error;
mod host;
mod interp;
mod limits;
mod op;
mod pool;
mod program;
mod verify;

pub use builder::{BuildError, Label, ProgramBuilder};
pub use codec::{
    decode as decode_program, encode as encode_program, CodecError, MIN_VERSION, VERSION,
};
pub use disasm::{disassemble, opcode_histogram};
/// The interpreter's counters — the `vm` group of a telemetry snapshot,
/// incremented in place by [`Interpreter::run`].
pub use eden_telemetry::VmCounters;
pub use error::{StateScope, VmError};
pub use host::{Effect, Host, ScopeUse, SlotSet, StateUse, VecHost};
pub use interp::{hash2, Interpreter, Outcome, TrapSite};
pub use limits::{Bound, Envelope, Limits, Usage, FRAME_SLOTS};
pub use op::{Cmp, Op};
pub use pool::InterpreterPool;
pub use program::{FuncInfo, Program};
pub use verify::{verify, VerifyError, MAX_PROGRAM_OPS};
