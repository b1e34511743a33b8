//! HIR → IR → bytecode code generation.
//!
//! Code generation no longer emits opcodes inline: each region (the
//! top-level body and every `let rec` function) is first built as a
//! control-flow graph of basic blocks ([`crate::ir`]), run through the
//! machine-independent optimizer and — by default — the superinstruction
//! fuser, and only then laid out as a flat instruction stream.
//!
//! Two source-level optimizations still live here because they need HIR
//! shape, not block shape:
//!
//! * the paper's §3.4.4 tail-recursion-to-loop rewrite: a self-call in tail
//!   position stores the new argument values into the parameter locals and
//!   jumps back to the function's entry block, so programs like Figure 7's
//!   `search` run in constant space (and fit the paper's 64-byte operand
//!   stack);
//! * short-circuit `&&`/`||`, lowered directly as control flow so the IR
//!   branch-threading pass can dissolve the boolean materialization when
//!   the result feeds an `if`.

use eden_vm::{FuncInfo, Op, Program};

use crate::ast::BinOp;
use crate::error::{CompileError, ErrorKind};
use crate::ir::{self, IrFunc, Terminator};
use crate::lexer::lex;
use crate::optimize::fold;
use crate::parser::parse;
use crate::schema::{Concurrency, Schema};
use crate::token::Span;
use crate::typeck::{check, Builtin, HExpr};

/// A fully compiled action function, ready to install into an enclave.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Verified bytecode. Its envelope's `state` holds what the function
    /// reads and writes, per scope.
    pub program: Program,
    /// Concurrency level derived from the program's write sets (§3.4.4).
    pub concurrency: Concurrency,
    /// The schema the slot numbers were resolved against; the enclave binds
    /// the same schema to agree on the layout.
    pub schema: Schema,
}

/// Knobs for [`compile_with_options`]. The defaults reproduce [`compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the HIR optimizer (constant folding, branch elimination, dead
    /// sequence pruning) and the machine-independent IR passes (dead-store
    /// elimination, load/`Dup` forwarding, branch threading). Off, the
    /// type-checked HIR goes through the IR untouched — the
    /// differential-fuzzing harness compiles every program each way and
    /// requires identical observable behaviour.
    pub optimize: bool,
    /// Select codec-v2 superinstructions (immediate arithmetic, one-slot
    /// increments, compare-and-branch). Off, the emitted bytecode uses only
    /// v1 opcodes and still encodes for enclaves that predate the fused
    /// interpreter.
    pub fuse: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            fuse: true,
        }
    }
}

/// Compile DSL `source` against `schema` into bytecode named `name`.
///
/// Runs the full pipeline: lex → parse → type check (annotations, access
/// control) → IR code generation (with tail-call-to-loop) → IR
/// optimization and superinstruction fusion → lowering → bytecode
/// verification, whose envelope gives the concurrency level.
pub fn compile(
    name: &str,
    source: &str,
    schema: &Schema,
) -> Result<CompiledFunction, CompileError> {
    compile_with_options(name, source, schema, CompileOptions::default())
}

/// [`compile`], with the optimizer and fuser under caller control.
pub fn compile_with_options(
    name: &str,
    source: &str,
    schema: &Schema,
    options: CompileOptions,
) -> Result<CompiledFunction, CompileError> {
    let tokens = lex(source)?;
    let function = parse(&tokens)?;
    let mut checked = check(&function, schema)?;
    if options.optimize {
        checked.body = fold(checked.body);
        for f in &mut checked.funcs {
            f.body = fold(std::mem::replace(&mut f.body, HExpr::Int(0)));
        }
    }

    // Build one IR region per compilation unit: index 0 is the top-level
    // body, index i+1 is function i.
    let mut regions: Vec<IrFunc> = Vec::with_capacity(1 + checked.funcs.len());
    {
        let mut gen = Gen::new();
        let diverged = gen.emit(&checked.body, None)?;
        if !diverged {
            gen.term(Terminator::Halt);
        }
        regions.push(gen.finish());
    }
    for (id, f) in checked.funcs.iter().enumerate() {
        let mut gen = Gen::new();
        let ctx = FnCtx {
            id: id as u16,
            arity: f.arity,
        };
        let diverged = gen.emit_tail(&f.body, Some(ctx))?;
        if !diverged {
            gen.term(Terminator::Ret);
        }
        regions.push(gen.finish());
    }

    for region in &mut regions {
        // always prune: diverging `if` arms leave unreachable, unterminated
        // join blocks that lowering must never see
        ir::prune(region);
        if options.optimize {
            ir::optimize(region);
        }
        if options.fuse {
            ir::fuse(region);
        }
        // threading can orphan the blocks it bypassed
        ir::prune(region);
    }

    let mut ops: Vec<Op> = Vec::new();
    let mut entries: Vec<u32> = Vec::with_capacity(regions.len());
    for region in &regions {
        entries.push(ops.len() as u32);
        ir::lower_into(region, &mut ops);
    }
    let funcs: Vec<FuncInfo> = checked
        .funcs
        .iter()
        .zip(&entries[1..])
        .map(|(f, &entry)| FuncInfo {
            entry,
            arity: f.arity,
            n_locals: f.n_locals,
        })
        .collect();

    let program = Program::new(name, ops, funcs, checked.entry_locals).map_err(|e| {
        CompileError::new(
            ErrorKind::Codegen(format!("internal: emitted invalid bytecode: {e}")),
            Span::default(),
        )
    })?;

    Ok(CompiledFunction {
        concurrency: Concurrency::needed(&program.envelope().state),
        program,
        schema: schema.clone(),
    })
}

/// Context of the function currently being emitted (for tail-call loops).
#[derive(Clone, Copy)]
struct FnCtx {
    id: u16,
    arity: u8,
}

/// Emits HIR into an [`IrFunc`], one open block at a time. The entry block
/// of every region is block 0, which is also the tail-call loop target.
struct Gen {
    ir: IrFunc,
    cur: ir::BlockId,
}

impl Gen {
    fn new() -> Gen {
        Gen {
            ir: IrFunc::new(),
            cur: 0,
        }
    }

    fn finish(self) -> IrFunc {
        self.ir
    }

    /// Instructions and terminators go to the current block. If it is
    /// already terminated (dead HIR after a diverging expression), they
    /// land in a fresh unreachable block instead, which `prune` later
    /// removes — the same net effect as the dead opcodes the old inline
    /// emitter produced.
    fn ensure_open(&mut self) {
        if self.ir.blocks[self.cur].term.is_some() {
            self.cur = self.ir.new_block();
        }
    }

    fn inst(&mut self, op: Op) {
        self.ensure_open();
        self.ir.blocks[self.cur].insts.push(op);
    }

    fn term(&mut self, t: Terminator) {
        self.ensure_open();
        self.ir.blocks[self.cur].term = Some(t);
    }

    fn start(&mut self, b: ir::BlockId) {
        self.cur = b;
    }

    /// Emit `e` in non-tail position. Returns `true` if the emitted code
    /// diverges (never falls through).
    fn emit(&mut self, e: &HExpr, ctx: Option<FnCtx>) -> Result<bool, CompileError> {
        self.emit_inner(e, ctx, false)
    }

    /// Emit `e` in tail position (function result).
    fn emit_tail(&mut self, e: &HExpr, ctx: Option<FnCtx>) -> Result<bool, CompileError> {
        self.emit_inner(e, ctx, true)
    }

    fn emit_inner(
        &mut self,
        e: &HExpr,
        ctx: Option<FnCtx>,
        tail: bool,
    ) -> Result<bool, CompileError> {
        match e {
            HExpr::Int(v) => {
                self.inst(Op::Push(*v));
                Ok(false)
            }
            HExpr::Local(s) => {
                self.inst(Op::LoadLocal(*s));
                Ok(false)
            }
            HExpr::LoadField(scope, slot) => {
                self.inst(match scope {
                    crate::schema::Scope::Packet => Op::LoadPkt(*slot),
                    crate::schema::Scope::Message => Op::LoadMsg(*slot),
                    crate::schema::Scope::Global => Op::LoadGlob(*slot),
                });
                Ok(false)
            }
            HExpr::LoadArr {
                id,
                stride,
                offset,
                index,
            } => {
                self.emit(index, ctx)?;
                self.scale_index(*stride, *offset);
                self.inst(Op::ArrLoad(*id));
                Ok(false)
            }
            HExpr::ArrLen { id, stride } => {
                self.inst(Op::ArrLen(*id));
                if *stride > 1 {
                    self.inst(Op::Push(*stride as i64));
                    self.inst(Op::Div);
                }
                Ok(false)
            }
            HExpr::Bin { op, lhs, rhs } => self.emit_bin(*op, lhs, rhs, ctx),
            HExpr::Neg(x) => {
                self.emit(x, ctx)?;
                self.inst(Op::Neg);
                Ok(false)
            }
            HExpr::Not(x) => {
                self.emit(x, ctx)?;
                self.inst(Op::Not);
                Ok(false)
            }
            HExpr::StoreLocal(slot, v) => {
                self.emit(v, ctx)?;
                self.inst(Op::StoreLocal(*slot));
                Ok(false)
            }
            HExpr::StoreField(scope, slot, v) => {
                self.emit(v, ctx)?;
                self.inst(match scope {
                    crate::schema::Scope::Packet => Op::StorePkt(*slot),
                    crate::schema::Scope::Message => Op::StoreMsg(*slot),
                    crate::schema::Scope::Global => Op::StoreGlob(*slot),
                });
                Ok(false)
            }
            HExpr::StoreArr {
                id,
                stride,
                offset,
                index,
                value,
            } => {
                self.emit(index, ctx)?;
                self.scale_index(*stride, *offset);
                self.emit(value, ctx)?;
                self.inst(Op::ArrStore(*id));
                Ok(false)
            }
            HExpr::If {
                cond, then, els, ..
            } => {
                self.emit(cond, ctx)?;
                match els {
                    Some(f) => {
                        let bthen = self.ir.new_block();
                        let belse = self.ir.new_block();
                        let bend = self.ir.new_block();
                        self.term(Terminator::Branch {
                            if_true: bthen,
                            if_false: belse,
                        });
                        self.start(bthen);
                        let d1 = self.emit_inner(then, ctx, tail)?;
                        if !d1 {
                            self.term(Terminator::Jmp(bend));
                        }
                        self.start(belse);
                        let d2 = self.emit_inner(f, ctx, tail)?;
                        if !d2 {
                            self.term(Terminator::Jmp(bend));
                        }
                        self.start(bend);
                        Ok(d1 && d2)
                    }
                    None => {
                        let bthen = self.ir.new_block();
                        let bend = self.ir.new_block();
                        self.term(Terminator::Branch {
                            if_true: bthen,
                            if_false: bend,
                        });
                        self.start(bthen);
                        let d = self.emit_inner(then, ctx, tail)?;
                        if !d {
                            self.term(Terminator::Jmp(bend));
                        }
                        self.start(bend);
                        Ok(false)
                    }
                }
            }
            HExpr::Seq(stmts) => {
                for (i, s) in stmts.iter().enumerate() {
                    let is_last = i + 1 == stmts.len();
                    let d = self.emit_inner(s, ctx, tail && is_last)?;
                    if d {
                        return Ok(true); // rest is unreachable
                    }
                }
                Ok(false)
            }
            HExpr::Discard(x) => {
                let d = self.emit(x, ctx)?;
                if !d {
                    self.inst(Op::Pop);
                }
                Ok(d)
            }
            HExpr::Call { func, args } => {
                // Tail self-call → loop (the paper's §3.4.4 optimization):
                // rebind the parameters and jump back to the entry block.
                if tail {
                    if let Some(c) = ctx {
                        if c.id == *func {
                            debug_assert_eq!(args.len(), c.arity as usize);
                            for a in args {
                                self.emit(a, ctx)?;
                            }
                            for slot in (0..args.len()).rev() {
                                self.inst(Op::StoreLocal(slot as u8));
                            }
                            self.term(Terminator::Jmp(0));
                            return Ok(true);
                        }
                    }
                }
                for a in args {
                    self.emit(a, ctx)?;
                }
                self.inst(Op::Call(*func));
                Ok(false)
            }
            HExpr::CallBuiltin { builtin, args } => {
                for a in args {
                    self.emit(a, ctx)?;
                }
                match builtin {
                    Builtin::Rand => {
                        self.inst(Op::Rand);
                        Ok(false)
                    }
                    Builtin::RandRange => {
                        self.inst(Op::RandRange);
                        Ok(false)
                    }
                    Builtin::Now => {
                        self.inst(Op::Now);
                        Ok(false)
                    }
                    Builtin::Hash => {
                        self.inst(Op::Hash);
                        Ok(false)
                    }
                    Builtin::SetQueue => {
                        self.inst(Op::SetQueue);
                        Ok(false)
                    }
                    Builtin::Drop => {
                        self.term(Terminator::Drop);
                        Ok(true)
                    }
                    Builtin::ToController => {
                        self.term(Terminator::ToController);
                        Ok(true)
                    }
                    Builtin::GotoTable => {
                        self.term(Terminator::GotoTable);
                        Ok(true)
                    }
                }
            }
        }
    }

    fn emit_bin(
        &mut self,
        op: BinOp,
        lhs: &HExpr,
        rhs: &HExpr,
        ctx: Option<FnCtx>,
    ) -> Result<bool, CompileError> {
        match op {
            BinOp::And => {
                let brhs = self.ir.new_block();
                let btrue = self.ir.new_block();
                let bfalse = self.ir.new_block();
                let bend = self.ir.new_block();
                self.emit(lhs, ctx)?;
                self.term(Terminator::Branch {
                    if_true: brhs,
                    if_false: bfalse,
                });
                self.start(brhs);
                self.emit(rhs, ctx)?;
                self.term(Terminator::Branch {
                    if_true: btrue,
                    if_false: bfalse,
                });
                self.start(btrue);
                self.inst(Op::Push(1));
                self.term(Terminator::Jmp(bend));
                self.start(bfalse);
                self.inst(Op::Push(0));
                self.term(Terminator::Jmp(bend));
                self.start(bend);
                Ok(false)
            }
            BinOp::Or => {
                let brhs = self.ir.new_block();
                let btrue = self.ir.new_block();
                let bfalse = self.ir.new_block();
                let bend = self.ir.new_block();
                self.emit(lhs, ctx)?;
                self.term(Terminator::Branch {
                    if_true: btrue,
                    if_false: brhs,
                });
                self.start(brhs);
                self.emit(rhs, ctx)?;
                self.term(Terminator::Branch {
                    if_true: btrue,
                    if_false: bfalse,
                });
                self.start(btrue);
                self.inst(Op::Push(1));
                self.term(Terminator::Jmp(bend));
                self.start(bfalse);
                self.inst(Op::Push(0));
                self.term(Terminator::Jmp(bend));
                self.start(bend);
                Ok(false)
            }
            _ => {
                self.emit(lhs, ctx)?;
                self.emit(rhs, ctx)?;
                self.inst(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Rem => Op::Rem,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
                Ok(false)
            }
        }
    }

    /// Turn an element index on the stack into a slot index.
    fn scale_index(&mut self, stride: u8, offset: u8) {
        if stride > 1 {
            self.inst(Op::Push(stride as i64));
            self.inst(Op::Mul);
        }
        if offset > 0 {
            self.inst(Op::Push(offset as i64));
            self.inst(Op::Add);
        }
    }
}
