//! Compiled action-function programs.

use crate::limits::Envelope;
use crate::op::Op;
use crate::verify::{self, VerifyError};

/// Entry in a program's function table, targeted by [`Op::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncInfo {
    /// Instruction index of the function's first op.
    pub entry: u32,
    /// Number of arguments, popped from the caller's operand stack into the
    /// callee's locals `0..arity`.
    pub arity: u8,
    /// Total locals the function needs (including its arguments).
    pub n_locals: u8,
}

/// A verified, immutable bytecode program.
///
/// Programs are produced either by the `eden-lang` compiler (the normal
/// path: controller compiles DSL source, ships bytecode to enclaves) or by
/// [`ProgramBuilder`](crate::ProgramBuilder) directly. Construction runs the
/// verifier and keeps the [`Envelope`] it derives, so an
/// [`Interpreter`](crate::Interpreter) can admit the program in O(1) and
/// then dispatch without per-instruction bounds anxiety — any residual trap
/// (division by zero, array index, bad effect operand, fuel) is a clean
/// [`VmError`](crate::VmError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
    funcs: Vec<FuncInfo>,
    /// Locals needed by the top-level body.
    entry_locals: u8,
    /// Optional human-readable name (shows up in disassembly and enclave
    /// table dumps).
    name: String,
    /// Worst-case memory and state demand, derived by the verifier.
    envelope: Envelope,
}

impl Program {
    /// Assemble and verify a program.
    pub fn new(
        name: impl Into<String>,
        ops: Vec<Op>,
        funcs: Vec<FuncInfo>,
        entry_locals: u8,
    ) -> Result<Self, VerifyError> {
        let mut p = Program {
            ops,
            funcs,
            entry_locals,
            name: name.into(),
            envelope: Envelope::default(),
        };
        p.envelope = verify::verify(&p)?;
        Ok(p)
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The function table.
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Locals required by the top-level body.
    pub fn entry_locals(&self) -> u8 {
        self.entry_locals
    }

    /// The static worst case the verifier derived: stack, heap and call
    /// depth, and the state slots the program reads and writes.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Program name, for diagnostics.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_jump_targets() {
        let err = Program::new("bad", vec![Op::Jmp(99)], vec![], 0);
        assert!(err.is_err());
    }

    #[test]
    fn accepts_trivial_program() {
        let p = Program::new("ok", vec![Op::Push(1), Op::Pop, Op::Halt], vec![], 0).unwrap();
        assert_eq!(p.ops().len(), 3);
        assert_eq!(p.name(), "ok");
    }
}
