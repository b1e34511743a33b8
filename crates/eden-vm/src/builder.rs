//! Fluent bytecode assembler with labels and fixups.
//!
//! For hand-writing programs in tests. The `eden-lang` compiler does not
//! use it: its IR (`eden_lang::ir`) lays out and lowers basic blocks to a
//! flat op list itself and hands that to [`Program::new`]. Labels decouple
//! emission
//! order from jump-target resolution: create with [`new_label`], reference
//! from jumps before or after binding, bind exactly once with [`bind`], and
//! [`build`] patches every reference and runs the verifier.
//!
//! [`new_label`]: ProgramBuilder::new_label
//! [`bind`]: ProgramBuilder::bind
//! [`build`]: ProgramBuilder::build

use crate::op::{Cmp, Op};
use crate::program::{FuncInfo, Program};
use crate::verify::VerifyError;

/// A forward- or backward-referenced jump target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Incremental program assembler.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    ops: Vec<Op>,
    funcs: Vec<FuncInfo>,
    entry_locals: u8,
    /// label id -> bound instruction index
    labels: Vec<Option<u32>>,
    /// (instruction index, label id) pairs to patch at build time
    fixups: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Start an empty program named `"anonymous"`.
    pub fn new() -> Self {
        ProgramBuilder {
            name: "anonymous".into(),
            ..Default::default()
        }
    }

    /// Set the program name used in diagnostics and disassembly.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declare how many locals the top-level body needs.
    pub fn with_entry_locals(mut self, n: u8) -> Self {
        self.entry_locals = n;
        self
    }

    /// Current instruction index (where the next op will land).
    pub fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Create an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound — that is a compiler bug, not a
    /// user-program error.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice (compiler bug)"
        );
        self.labels[label.0] = Some(self.here());
        self
    }

    /// Begin a function at the current position; returns its id for
    /// [`Op::Call`]. Emit the body right after, ending in [`Op::Ret`].
    pub fn begin_func(&mut self, arity: u8, n_locals: u8) -> u16 {
        self.funcs.push(FuncInfo {
            entry: self.here(),
            arity,
            n_locals,
        });
        (self.funcs.len() - 1) as u16
    }

    /// Append a raw op.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    fn jump(&mut self, label: Label, make: impl FnOnce(u32) -> Op) -> &mut Self {
        self.fixups.push((self.ops.len(), label.0));
        self.ops.push(make(u32::MAX)); // patched in build()
        self
    }

    /// Resolve labels, verify, and produce the program.
    pub fn build(mut self) -> Result<Program, BuildError> {
        for &(at, label) in &self.fixups {
            let target = self.labels[label].ok_or(BuildError::UnboundLabel(label))?;
            self.ops[at] = match self.ops[at] {
                Op::Jmp(_) => Op::Jmp(target),
                Op::JmpIf(_) => Op::JmpIf(target),
                Op::JmpIfNot(_) => Op::JmpIfNot(target),
                Op::CmpBr(c, _) => Op::CmpBr(c, target),
                Op::PushCmpBr(c, v, _) => Op::PushCmpBr(c, v, target),
                other => unreachable!("fixup on non-jump op {other}"),
            };
        }
        Program::new(self.name, self.ops, self.funcs, self.entry_locals).map_err(BuildError::Verify)
    }

    // --- one helper per op, so emission code reads like assembly ---------

    /// `push imm`
    pub fn push(&mut self, v: i64) -> &mut Self {
        self.op(Op::Push(v))
    }
    /// `dup`
    pub fn dup(&mut self) -> &mut Self {
        self.op(Op::Dup)
    }
    /// `pop`
    pub fn pop(&mut self) -> &mut Self {
        self.op(Op::Pop)
    }
    /// `swap`
    pub fn swap(&mut self) -> &mut Self {
        self.op(Op::Swap)
    }
    /// `lload slot`
    pub fn load_local(&mut self, s: u8) -> &mut Self {
        self.op(Op::LoadLocal(s))
    }
    /// `lstore slot`
    pub fn store_local(&mut self, s: u8) -> &mut Self {
        self.op(Op::StoreLocal(s))
    }
    /// `pload slot`
    pub fn load_pkt(&mut self, s: u8) -> &mut Self {
        self.op(Op::LoadPkt(s))
    }
    /// `pstore slot`
    pub fn store_pkt(&mut self, s: u8) -> &mut Self {
        self.op(Op::StorePkt(s))
    }
    /// `mload slot`
    pub fn load_msg(&mut self, s: u8) -> &mut Self {
        self.op(Op::LoadMsg(s))
    }
    /// `mstore slot`
    pub fn store_msg(&mut self, s: u8) -> &mut Self {
        self.op(Op::StoreMsg(s))
    }
    /// `gload slot`
    pub fn load_glob(&mut self, s: u8) -> &mut Self {
        self.op(Op::LoadGlob(s))
    }
    /// `gstore slot`
    pub fn store_glob(&mut self, s: u8) -> &mut Self {
        self.op(Op::StoreGlob(s))
    }
    /// `aload id`
    pub fn arr_load(&mut self, a: u8) -> &mut Self {
        self.op(Op::ArrLoad(a))
    }
    /// `astore id`
    pub fn arr_store(&mut self, a: u8) -> &mut Self {
        self.op(Op::ArrStore(a))
    }
    /// `alen id`
    pub fn arr_len(&mut self, a: u8) -> &mut Self {
        self.op(Op::ArrLen(a))
    }
    /// `add`
    pub fn add(&mut self) -> &mut Self {
        self.op(Op::Add)
    }
    /// `sub`
    pub fn sub(&mut self) -> &mut Self {
        self.op(Op::Sub)
    }
    /// `mul`
    pub fn mul(&mut self) -> &mut Self {
        self.op(Op::Mul)
    }
    /// `div`
    pub fn div(&mut self) -> &mut Self {
        self.op(Op::Div)
    }
    /// `rem`
    pub fn rem(&mut self) -> &mut Self {
        self.op(Op::Rem)
    }
    /// `neg`
    pub fn neg(&mut self) -> &mut Self {
        self.op(Op::Neg)
    }
    /// `not`
    pub fn not(&mut self) -> &mut Self {
        self.op(Op::Not)
    }
    /// `eq`
    pub fn eq(&mut self) -> &mut Self {
        self.op(Op::Eq)
    }
    /// `ne`
    pub fn ne(&mut self) -> &mut Self {
        self.op(Op::Ne)
    }
    /// `lt`
    pub fn lt(&mut self) -> &mut Self {
        self.op(Op::Lt)
    }
    /// `le`
    pub fn le(&mut self) -> &mut Self {
        self.op(Op::Le)
    }
    /// `gt`
    pub fn gt(&mut self) -> &mut Self {
        self.op(Op::Gt)
    }
    /// `ge`
    pub fn ge(&mut self) -> &mut Self {
        self.op(Op::Ge)
    }
    /// `jmp label`
    pub fn jmp(&mut self, l: Label) -> &mut Self {
        self.jump(l, Op::Jmp)
    }
    /// `jmpif label`
    pub fn jmp_if(&mut self, l: Label) -> &mut Self {
        self.jump(l, Op::JmpIf)
    }
    /// `jmpifnot label`
    pub fn jmp_if_not(&mut self, l: Label) -> &mut Self {
        self.jump(l, Op::JmpIfNot)
    }
    /// `call id`
    pub fn call(&mut self, id: u16) -> &mut Self {
        self.op(Op::Call(id))
    }
    /// `ret`
    pub fn ret(&mut self) -> &mut Self {
        self.op(Op::Ret)
    }
    /// `halt`
    pub fn halt(&mut self) -> &mut Self {
        self.op(Op::Halt)
    }
    /// `rand`
    pub fn rand(&mut self) -> &mut Self {
        self.op(Op::Rand)
    }
    /// `randrange`
    pub fn rand_range(&mut self) -> &mut Self {
        self.op(Op::RandRange)
    }
    /// `now`
    pub fn now(&mut self) -> &mut Self {
        self.op(Op::Now)
    }
    /// `hash`
    pub fn hash(&mut self) -> &mut Self {
        self.op(Op::Hash)
    }
    /// `drop`
    pub fn drop_packet(&mut self) -> &mut Self {
        self.op(Op::Drop)
    }
    /// `setqueue`
    pub fn set_queue(&mut self) -> &mut Self {
        self.op(Op::SetQueue)
    }
    /// `tocontroller`
    pub fn to_controller(&mut self) -> &mut Self {
        self.op(Op::ToController)
    }
    /// `gototable`
    pub fn goto_table(&mut self) -> &mut Self {
        self.op(Op::GotoTable)
    }
    /// `addimm imm`
    pub fn add_imm(&mut self, v: i64) -> &mut Self {
        self.op(Op::AddImm(v))
    }
    /// `mulimm imm`
    pub fn mul_imm(&mut self, v: i64) -> &mut Self {
        self.op(Op::MulImm(v))
    }
    /// `ploadadd slot imm`
    pub fn load_pkt_add_imm(&mut self, s: u8, v: i64) -> &mut Self {
        self.op(Op::LoadPktAddImm(s, v))
    }
    /// `ploadmul slot imm`
    pub fn load_pkt_mul_imm(&mut self, s: u8, v: i64) -> &mut Self {
        self.op(Op::LoadPktMulImm(s, v))
    }
    /// `lincr slot imm`
    pub fn incr_local(&mut self, s: u8, v: i64) -> &mut Self {
        self.op(Op::IncrLocal(s, v))
    }
    /// `mincr slot imm`
    pub fn incr_msg(&mut self, s: u8, v: i64) -> &mut Self {
        self.op(Op::IncrMsg(s, v))
    }
    /// `gincr slot imm`
    pub fn incr_glob(&mut self, s: u8, v: i64) -> &mut Self {
        self.op(Op::IncrGlob(s, v))
    }
    /// `cmpbr cmp label`
    pub fn cmp_br(&mut self, c: Cmp, l: Label) -> &mut Self {
        self.jump(l, |t| Op::CmpBr(c, t))
    }
    /// `pushcmpbr cmp imm label`
    pub fn push_cmp_br(&mut self, c: Cmp, v: i64, l: Label) -> &mut Self {
        self.jump(l, |t| Op::PushCmpBr(c, v, t))
    }
}

/// Errors from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced by a jump but never bound.
    UnboundLabel(usize),
    /// The assembled program failed verification.
    Verify(VerifyError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {l} referenced but never bound"),
            BuildError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interpreter, Limits, VecHost};

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new().named("labels");
        let end = b.new_label();
        b.push(0).jmp_if(end); // forward ref
        b.push(5).store_pkt(0);
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        let mut h = VecHost::with_slots(1, 0, 0);
        Interpreter::new(Limits::default()).run(&p, &mut h).unwrap();
        assert_eq!(h.packet[0], 5);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jmp(l).halt();
        assert_eq!(b.build().unwrap_err(), BuildError::UnboundLabel(0));
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.push(1).pop();
        b.bind(l);
    }

    #[test]
    fn functions_via_builder() {
        let mut b = ProgramBuilder::new().named("sq");
        // reserve: top level first, then the function body
        b.push(9);
        let square = 0u16; // will be func id 0
        b.call(square).store_pkt(0).halt();
        let id = b.begin_func(1, 1);
        assert_eq!(id, 0);
        b.load_local(0).load_local(0).mul().ret();
        let p = b.build().unwrap();
        let mut h = VecHost::with_slots(1, 0, 0);
        Interpreter::new(Limits::default()).run(&p, &mut h).unwrap();
        assert_eq!(h.packet[0], 81);
    }
}
