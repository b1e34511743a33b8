//! Bytecode instruction set.
//!
//! The paper models its interpreter on a subset of the JVM: "basic load and
//! store, arithmetic, branches, and conditionals", plus "a limited set of
//! basic functions, such as picking random numbers and accessing a
//! high-frequency clock" implemented as opcodes. We mirror that set, with
//! three scoped state spaces (packet / message / global) instead of the
//! JVM's object model — the scopes correspond to the three parameters of
//! every action function (`packet`, `msg`, `_global`) and to the state
//! lifetimes of §3.4.4.

use std::fmt;

use eden_telemetry::le::{Reader, Writer};

use crate::codec::CodecError;

/// Comparison selector carried by the fused compare-and-branch ops.
///
/// Kept out of the opcode space so one `CmpBr`/`PushCmpBr` kind covers all
/// six relations — the interpreter pays one dispatch either way and the
/// opcode histogram stays readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// Every relation, in wire-tag order: a selector's tag is its
    /// position here.
    pub const ALL: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];

    /// Evaluate `a ⟨cmp⟩ b`.
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }

    /// The relation that holds exactly when `self` does not.
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }

    /// Mnemonic suffix used by `Display` and the disassembler.
    pub fn name(self) -> &'static str {
        match self {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares the instruction set from one table. Each row is a variant
/// with its named operands, its opcode byte and its mnemonic; the row's doc
/// comment documents the variant. The table order is the dense kind index
/// (`Op::kind_index`, the opcode histogram's order); the bytes are the wire
/// format's and never change. From the rows come the `Op` enum, the kind
/// index and mnemonics, `Display` (the mnemonic, then each operand) and the
/// codec's per-op encode and decode.
macro_rules! opcodes {
    ($(
        $(#[$doc:meta])*
        $variant:ident $(($($arg:ident: $ty:ident),+))? = $byte:literal $mnemonic:literal;
    )+) => {
        /// A single VM instruction.
        ///
        /// Jump targets are absolute instruction indices. Slot operands index
        /// into the flattened field layout computed by the `eden-lang`
        /// compiler from the state schema; array ids index the global array
        /// table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $( $(#[$doc])* $variant $(($($ty),+))?, )+
        }

        /// Mnemonics in kind-index order.
        const MNEMONICS: &[&str] = &[$($mnemonic),+];

        impl Op {
            /// Number of opcode kinds — the size of a per-opcode histogram.
            pub const KIND_COUNT: usize = MNEMONICS.len();

            /// Dense index of this op's kind (operands ignored), in table
            /// order; always `< KIND_COUNT`. Used by the interpreter's
            /// optional per-opcode profiling histogram.
            pub fn kind_index(&self) -> usize {
                enum Kind { $($variant),+ }
                match self {
                    $( Op::$variant { .. } => Kind::$variant as usize, )+
                }
            }

            /// This op's opcode byte.
            pub(crate) fn byte(&self) -> u8 {
                match self {
                    $( Op::$variant { .. } => $byte, )+
                }
            }

            /// Append this op's opcode byte and operands.
            pub(crate) fn encode(&self, w: &mut Writer) {
                w.u8(self.byte());
                match *self {
                    $( Op::$variant $(($($arg),+))? => { $($( operand!(put w, $ty, $arg); )+)? } )+
                }
            }

            /// Read one op of a blob that declares `version`. An opcode
            /// newer than `version` is as unknown as a byte no row has.
            pub(crate) fn decode(r: &mut Reader<'_>, version: u16) -> Result<Op, CodecError> {
                let byte = r.u8()?;
                if first_version(byte) > version {
                    return Err(CodecError::BadOpcode(byte));
                }
                Ok(match byte {
                    $( $byte => Op::$variant $(($( operand!(get r, $ty) ),+))?, )+
                    other => return Err(CodecError::BadOpcode(other)),
                })
            }
        }

        impl fmt::Display for Op {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $( Op::$variant $(($($arg),+))? => {
                        f.write_str($mnemonic)?;
                        $($( write!(f, " {}", $arg)?; )+)?
                    } )+
                }
                Ok(())
            }
        }
    };
}

/// One operand's wire form: a comparison selector is its tag in
/// [`Cmp::ALL`], an integer its little-endian bytes at its own width.
macro_rules! operand {
    (put $w:ident, Cmp, $v:expr) => {
        $w.tag(&Cmp::ALL, &$v)
    };
    (put $w:ident, $ty:ident, $v:expr) => {
        $w.$ty($v)
    };
    (get $r:ident, Cmp) => {
        $r.tag(&Cmp::ALL)?
    };
    (get $r:ident, $ty:ident) => {
        $r.$ty()?
    };
}

/// The codec version that introduced opcode `byte`: v1 is the original
/// set, v2 added the fused superinstructions at `0x60` and up.
pub(crate) fn first_version(byte: u8) -> u16 {
    if byte >= 0x60 {
        2
    } else {
        1
    }
}

opcodes! {
    // --- constants & operand-stack shuffling ---------------------------
    /// Push an immediate integer.
    Push(v: i64) = 0x01 "push";
    /// Duplicate the top of stack.
    Dup = 0x02 "dup";
    /// Discard the top of stack.
    Pop = 0x03 "pop";
    /// Swap the two top stack values.
    Swap = 0x04 "swap";

    // --- locals (per-frame registers) ----------------------------------
    /// Push local `slot` of the current frame.
    LoadLocal(slot: u8) = 0x05 "lload";
    /// Pop into local `slot` of the current frame.
    StoreLocal(slot: u8) = 0x06 "lstore";

    // --- scoped state ---------------------------------------------------
    /// Push packet field `slot` (resolved via the schema's HeaderMap).
    LoadPkt(slot: u8) = 0x07 "pload";
    /// Pop into packet field `slot`.
    StorePkt(slot: u8) = 0x08 "pstore";
    /// Push per-message state field `slot`.
    LoadMsg(slot: u8) = 0x09 "mload";
    /// Pop into per-message state field `slot`.
    StoreMsg(slot: u8) = 0x0A "mstore";
    /// Push global state field `slot`.
    LoadGlob(slot: u8) = 0x0B "gload";
    /// Pop into global state field `slot`.
    StoreGlob(slot: u8) = 0x0C "gstore";

    // --- global arrays ---------------------------------------------------
    /// Pop index, push `array[index]` of global array `id`.
    ArrLoad(id: u8) = 0x0D "aload";
    /// Pop value then index, store into global array `id`.
    ArrStore(id: u8) = 0x0E "astore";
    /// Push the element count of global array `id`.
    ArrLen(id: u8) = 0x0F "alen";

    // --- arithmetic / logic (operate on i64, wrap like release Rust) ----
    Add = 0x10 "add";
    Sub = 0x11 "sub";
    Mul = 0x12 "mul";
    /// Signed division; division by zero is a trapped [`VmError::DivideByZero`](crate::VmError).
    Div = 0x13 "div";
    /// Signed remainder; rem by zero traps like [`Op::Div`].
    Rem = 0x14 "rem";
    Neg = 0x15 "neg";
    And = 0x16 "and";
    Or = 0x17 "or";
    Xor = 0x18 "xor";
    Not = 0x19 "not";
    Shl = 0x1A "shl";
    Shr = 0x1B "shr";

    // --- comparisons (push 1 or 0) ---------------------------------------
    Eq = 0x20 "eq";
    Ne = 0x21 "ne";
    Lt = 0x22 "lt";
    Le = 0x23 "le";
    Gt = 0x24 "gt";
    Ge = 0x25 "ge";

    // --- control flow -----------------------------------------------------
    /// Unconditional jump to instruction index.
    Jmp(target: u32) = 0x30 "jmp";
    /// Pop; jump if non-zero.
    JmpIf(target: u32) = 0x31 "jmpif";
    /// Pop; jump if zero.
    JmpIfNot(target: u32) = 0x32 "jmpifnot";
    /// Call function `id` from the program's function table. Arguments are
    /// popped from the operand stack into the callee's first locals
    /// (argument 0 is popped last, so callers push arguments left to right).
    Call(id: u16) = 0x33 "call";
    /// Return from the current function; the callee's top of stack (its
    /// result) is pushed onto the caller's stack.
    Ret = 0x34 "ret";
    /// Stop execution; the packet proceeds with whatever state/header
    /// mutations have been applied.
    Halt = 0x35 "halt";

    // --- builtins ("basic functions ... implemented as op-codes") --------
    /// Push a uniformly random non-negative i64 from the host.
    Rand = 0x40 "rand";
    /// Pop `n`, push a uniform value in `[0, n)`; traps if `n <= 0`.
    RandRange = 0x41 "randrange";
    /// Push the host's high-frequency clock, in nanoseconds.
    Now = 0x42 "now";
    /// Pop two values, push a 63-bit mix hash of them.
    Hash = 0x43 "hash";

    // --- packet disposition side effects ---------------------------------
    /// Drop the packet and stop execution.
    Drop = 0x50 "drop";
    /// Pop `charge` then `queue`: direct the packet to rate-limited queue
    /// `queue`, charging it `charge` bytes (Pulsar-style; §2.1.2).
    SetQueue = 0x51 "setqueue";
    /// Forward the packet to the controller and stop (the OpenFlow-style
    /// punt path).
    ToController = 0x52 "tocontroller";
    /// Pop `table`: continue matching in enclave table `table` after this
    /// function finishes.
    GotoTable = 0x53 "gototable";

    // --- superinstructions (codec v2) -------------------------------------
    // Fused forms the IR peephole pass emits so the hot interpreter loop
    // dispatches once where the naive stream would dispatch two or three
    // times — the operand never round-trips through the stack.
    /// Add an immediate to the top of stack in place (`Push v; Add`).
    AddImm(v: i64) = 0x60 "addimm";
    /// Multiply the top of stack by an immediate in place (`Push v; Mul`).
    MulImm(v: i64) = 0x61 "mulimm";
    /// Push `pkt[slot] + v` (`LoadPkt s; Push v; Add`).
    LoadPktAddImm(slot: u8, v: i64) = 0x62 "ploadadd";
    /// Push `pkt[slot] * v` (`LoadPkt s; Push v; Mul`).
    LoadPktMulImm(slot: u8, v: i64) = 0x63 "ploadmul";
    /// `local[slot] += v` without touching the stack
    /// (`LoadLocal s; Push v; Add; StoreLocal s`).
    IncrLocal(slot: u8, v: i64) = 0x64 "lincr";
    /// `msg[slot] += v` without touching the stack.
    IncrMsg(slot: u8, v: i64) = 0x65 "mincr";
    /// `glob[slot] += v` without touching the stack.
    IncrGlob(slot: u8, v: i64) = 0x66 "gincr";
    /// Pop `b` then `a`; jump if `a ⟨cmp⟩ b` (`⟨cmp⟩; JmpIf t`).
    CmpBr(cmp: Cmp, target: u32) = 0x70 "cmpbr";
    /// Pop `a`; jump if `a ⟨cmp⟩ v` (`Push v; ⟨cmp⟩; JmpIf t`).
    PushCmpBr(cmp: Cmp, v: i64, target: u32) = 0x71 "pushcmpbr";
}

impl Op {
    /// Mnemonic for a kind index (panics if `index >= KIND_COUNT`).
    pub fn kind_name(index: usize) -> &'static str {
        MNEMONICS[index]
    }

    /// The oldest codec version that can carry this op: 2 for the fused
    /// superinstructions, 1 for the original set.
    pub fn min_version(&self) -> u16 {
        first_version(self.byte())
    }

    /// Net change this op applies to the operand stack depth, used by the
    /// verifier. `Call` is handled separately (depends on arity).
    pub(crate) fn stack_delta(&self) -> i32 {
        use Op::*;
        match self {
            Push(_) | Dup | LoadLocal(_) | LoadPkt(_) | LoadMsg(_) | LoadGlob(_) | ArrLen(_)
            | Rand | Now | LoadPktAddImm(..) | LoadPktMulImm(..) => 1,
            Pop | StoreLocal(_) | StorePkt(_) | StoreMsg(_) | StoreGlob(_) | Add | Sub | Mul
            | Div | Rem | And | Or | Xor | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge | JmpIf(_)
            | JmpIfNot(_) | Hash | GotoTable | PushCmpBr(..) => -1,
            ArrStore(_) | SetQueue | CmpBr(..) => -2,
            Swap | Neg | Not | ArrLoad(_) | Jmp(_) | Halt | Drop | ToController | RandRange
            | AddImm(_) | MulImm(_) | IncrLocal(..) | IncrMsg(..) | IncrGlob(..) => 0,
            Call(_) | Ret => 0, // handled by the verifier explicitly
        }
    }

    /// Minimum operand-stack depth required before executing this op.
    pub(crate) fn stack_need(&self) -> i32 {
        use Op::*;
        match self {
            Push(_) | LoadLocal(_) | LoadPkt(_) | LoadMsg(_) | LoadGlob(_) | ArrLen(_) | Rand
            | Now | Jmp(_) | Halt | ToController | Drop | LoadPktAddImm(..) | LoadPktMulImm(..)
            | IncrLocal(..) | IncrMsg(..) | IncrGlob(..) => 0,
            Dup | Pop | StoreLocal(_) | StorePkt(_) | StoreMsg(_) | StoreGlob(_) | ArrLoad(_)
            | Neg | Not | JmpIf(_) | JmpIfNot(_) | RandRange | GotoTable | AddImm(_)
            | MulImm(_) | PushCmpBr(..) => 1,
            Swap | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Eq | Ne | Lt | Le
            | Gt | Ge | Hash | SetQueue | CmpBr(..) => 2,
            ArrStore(_) => 2,
            Call(_) | Ret => 0, // handled by the verifier explicitly
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lossless_enough_for_disasm() {
        assert_eq!(Op::Push(-3).to_string(), "push -3");
        assert_eq!(Op::JmpIfNot(7).to_string(), "jmpifnot 7");
        assert_eq!(Op::ArrLen(2).to_string(), "alen 2");
    }

    #[test]
    fn kind_index_is_dense_and_named() {
        let ops = [
            Op::Push(0),
            Op::Dup,
            Op::Pop,
            Op::Swap,
            Op::LoadLocal(0),
            Op::StoreLocal(0),
            Op::LoadPkt(0),
            Op::StorePkt(0),
            Op::LoadMsg(0),
            Op::StoreMsg(0),
            Op::LoadGlob(0),
            Op::StoreGlob(0),
            Op::ArrLoad(0),
            Op::ArrStore(0),
            Op::ArrLen(0),
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::Neg,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Not,
            Op::Shl,
            Op::Shr,
            Op::Eq,
            Op::Ne,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Jmp(0),
            Op::JmpIf(0),
            Op::JmpIfNot(0),
            Op::Call(0),
            Op::Ret,
            Op::Halt,
            Op::Rand,
            Op::RandRange,
            Op::Now,
            Op::Hash,
            Op::Drop,
            Op::SetQueue,
            Op::ToController,
            Op::GotoTable,
            Op::AddImm(0),
            Op::MulImm(0),
            Op::LoadPktAddImm(0, 0),
            Op::LoadPktMulImm(0, 0),
            Op::IncrLocal(0, 0),
            Op::IncrMsg(0, 0),
            Op::IncrGlob(0, 0),
            Op::CmpBr(Cmp::Eq, 0),
            Op::PushCmpBr(Cmp::Eq, 0, 0),
        ];
        assert_eq!(ops.len(), Op::KIND_COUNT);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.kind_index(), i, "kind_index out of order for {op}");
            // the mnemonic is the first token of the Display form
            let display = op.to_string();
            let mnemonic = display.split(' ').next().unwrap();
            assert_eq!(Op::kind_name(i), mnemonic);
        }
    }

    #[test]
    fn stack_deltas_match_needs() {
        // every op must be executable when the stack holds exactly
        // `stack_need` values, and may not underflow.
        for op in [
            Op::Add,
            Op::Dup,
            Op::SetQueue,
            Op::ArrStore(0),
            Op::Hash,
            Op::AddImm(1),
            Op::CmpBr(Cmp::Lt, 0),
            Op::PushCmpBr(Cmp::Ge, 1, 0),
        ] {
            assert!(op.stack_need() >= -op.stack_delta());
        }
    }

    #[test]
    fn fused_op_semantics_are_declared_consistently() {
        // each fused op's (need, delta) must equal the sum of the sequence
        // it replaces, so the verifier sees identical dataflow either way.
        let fusions: [(Op, &[Op]); 9] = [
            (Op::AddImm(3), &[Op::Push(3), Op::Add]),
            (Op::MulImm(3), &[Op::Push(3), Op::Mul]),
            (
                Op::LoadPktAddImm(0, 3),
                &[Op::LoadPkt(0), Op::Push(3), Op::Add],
            ),
            (
                Op::LoadPktMulImm(0, 3),
                &[Op::LoadPkt(0), Op::Push(3), Op::Mul],
            ),
            (
                Op::IncrLocal(0, 1),
                &[Op::LoadLocal(0), Op::Push(1), Op::Add, Op::StoreLocal(0)],
            ),
            (
                Op::IncrMsg(0, 1),
                &[Op::LoadMsg(0), Op::Push(1), Op::Add, Op::StoreMsg(0)],
            ),
            (
                Op::IncrGlob(0, 1),
                &[Op::LoadGlob(0), Op::Push(1), Op::Add, Op::StoreGlob(0)],
            ),
            (Op::CmpBr(Cmp::Lt, 9), &[Op::Lt, Op::JmpIf(9)]),
            (
                Op::PushCmpBr(Cmp::Lt, 3, 9),
                &[Op::Push(3), Op::Lt, Op::JmpIf(9)],
            ),
        ];
        for (fused, seq) in fusions {
            let delta: i32 = seq.iter().map(|o| o.stack_delta()).sum();
            assert_eq!(fused.stack_delta(), delta, "delta mismatch for {fused}");
            let mut depth = 0i32;
            let mut need = 0i32;
            for o in seq {
                need = need.max(o.stack_need() - depth);
                depth += o.stack_delta();
            }
            assert_eq!(fused.stack_need(), need, "need mismatch for {fused}");
        }
    }

    #[test]
    fn cmp_negate_is_an_involution_and_inverts_eval() {
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-5, 5), (i64::MIN, i64::MAX)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b), "{c} at ({a},{b})");
            }
        }
    }
}
