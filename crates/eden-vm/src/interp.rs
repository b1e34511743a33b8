//! The interpreter proper: a classic dispatch loop over verified bytecode.
//!
//! An [`Interpreter`] is a reusable execution context — the enclave keeps
//! one per worker and runs every action function through it, so the operand
//! stack and locals frames are allocated once and reused across millions of
//! packets. This is the component whose overhead Figure 12 of the paper
//! quantifies; `eden-bench`'s `micro` and `fig12_overheads` benches measure
//! this exact code.
//!
//! A run has two parts. *Admission* compares the program's static
//! [`Envelope`](crate::Envelope) with the [`Limits`] and asks the host
//! whether it holds every slot the program touches — a handful of
//! compares, and the only place `StackOverflow`, `HeapOverflow`,
//! `CallDepthExceeded` and `BadStateSlot` can come from. The *dispatch
//! loop* then runs with none of those checks: pushes, pops, locals and
//! scalar state accesses cannot fail.

use eden_telemetry::VmCounters;

use crate::error::VmError;
use crate::host::{Effect, Host};
use crate::limits::{Bound, Limits, Usage, FRAME_SLOTS};
use crate::op::Op;
use crate::program::Program;

/// The deterministic two-input mixer behind the DSL's `hash (a, b)`
/// builtin (`Op::Hash`): a splitmix64 finalizer over the xored pair,
/// masked non-negative. Exposed so exact native forms of catalogue
/// functions (rendezvous hashing, flow steering) reproduce bytecode
/// hashing bit-for-bit.
pub fn hash2(a: i64, b: i64) -> i64 {
    let (a, b) = (a as u64, b as u64);
    let mut z = a ^ b.rotate_left(32) ^ 0x9E3779B97F4A7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((z ^ (z >> 31)) & (i64::MAX as u64)) as i64
}

/// How an action function finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to `Halt`; the packet proceeds normally.
    Done,
    /// The function dropped the packet.
    Dropped,
    /// The function punted the packet to the controller.
    SentToController,
    /// The function redirected matching to another enclave table.
    GotoTable(u8),
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    ret_pc: u32,
    locals_base: u32,
}

/// Index mask of the two fixed frames. Admission keeps every stack
/// position and every local below `FRAME_SLOTS`, so masking never changes
/// an index — it tells the compiler so.
const FRAME_MASK: usize = FRAME_SLOTS - 1;
const _: () = assert!(FRAME_SLOTS.is_power_of_two());

/// Reusable execution context (operand stack + locals frame + call stack).
#[derive(Debug)]
pub struct Interpreter {
    limits: Limits,
    /// Operand stack. Slots at and above the stack pointer hold leftovers
    /// of earlier runs; a verified program never reads them.
    stack: [i64; FRAME_SLOTS],
    /// Locals of every live frame, back to back, zeroed as frames open.
    locals: [i64; FRAME_SLOTS],
    frames: Vec<Frame>,
    usage: Usage,
    /// Dynamic high-water marks of the most recent run, tracked only
    /// while profiling.
    observed: Bound,
    counters: VmCounters,
    /// Per-opcode execution histogram, allocated only while profiling is
    /// enabled; the dispatch loop is compiled once with and once without.
    profile: Option<Box<[u64; Op::KIND_COUNT]>>,
    /// Where the most recent trap happened: `(pc, opcode kind index)` of
    /// the instruction whose execution faulted. Written only on the trap
    /// exit path, so the dispatch loop never touches it.
    last_trap: Option<(u32, usize)>,
}

/// Where a trap happened, for the flight recorder: the program counter
/// and the opcode (kind index + mnemonic) whose execution faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapSite {
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// [`Op::kind_index`] of the faulting instruction.
    pub op_kind: usize,
}

impl TrapSite {
    /// Mnemonic of the faulting opcode.
    pub fn op_name(&self) -> &'static str {
        Op::kind_name(self.op_kind)
    }
}

impl Interpreter {
    /// Create an interpreter with the given resource limits.
    pub fn new(limits: Limits) -> Self {
        Interpreter {
            limits,
            stack: [0; FRAME_SLOTS],
            locals: [0; FRAME_SLOTS],
            frames: Vec::with_capacity(limits.max_call_depth.min(FRAME_SLOTS)),
            usage: Usage::default(),
            observed: Bound::default(),
            counters: VmCounters::default(),
            profile: None,
            last_trap: None,
        }
    }

    /// Resource limits this interpreter enforces.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Accounting for the most recent [`run`](Self::run): the steps it
    /// executed and the program's static memory bound (all zero for a run
    /// refused at admission).
    pub fn usage(&self) -> Usage {
        self.usage
    }

    /// Stack, heap and call-depth high-water marks the most recent run
    /// actually reached — tracked only while
    /// [opcode profiling](Self::set_opcode_profiling) is on, `None`
    /// otherwise. Never above the program's static bound; the envelope
    /// soundness tests and the fuzz oracles hold the verifier to that.
    pub fn observed_peaks(&self) -> Option<Bound> {
        self.profile.as_ref().map(|_| self.observed)
    }

    /// Counters accumulated over all [`run`](Self::run) calls since
    /// creation or the last [`reset_counters`](Self::reset_counters).
    pub fn counters(&self) -> VmCounters {
        self.counters
    }

    /// Clear the accumulated counters (and the opcode histogram, if
    /// profiling is enabled).
    pub fn reset_counters(&mut self) {
        self.counters = VmCounters::default();
        if let Some(hist) = self.profile.as_deref_mut() {
            hist.fill(0);
        }
    }

    /// Where the most recent trap happened, if any [`run`](Self::run) has
    /// trapped since creation. Survives subsequent successful runs so a
    /// fault handler a few frames up can still attribute the trap.
    pub fn last_trap(&self) -> Option<TrapSite> {
        self.last_trap.map(|(pc, op_kind)| TrapSite { pc, op_kind })
    }

    /// Enable or disable profiling: the per-opcode histogram and the
    /// dynamic high-water marks. Enabling allocates the histogram
    /// (zeroed); disabling drops it. Off by default — the dispatch loop is
    /// compiled once per setting, so when off it pays nothing.
    pub fn set_opcode_profiling(&mut self, enabled: bool) {
        if enabled {
            if self.profile.is_none() {
                self.profile = Some(Box::new([0; Op::KIND_COUNT]));
            }
        } else {
            self.profile = None;
        }
    }

    /// The opcode histogram, if profiling is enabled: counts indexed by
    /// [`Op::kind_index`] (use [`Op::kind_name`] for mnemonics).
    pub fn opcode_histogram(&self) -> Option<&[u64; Op::KIND_COUNT]> {
        self.profile.as_deref()
    }

    /// Execute `program` against `host`. Returns the packet disposition, or
    /// the trap that terminated the program.
    ///
    /// The program must have been verified (guaranteed by
    /// [`Program::new`]), so operand-stack underflow and wild jumps cannot
    /// occur. It is first *admitted*: its envelope against this
    /// interpreter's limits, its state use against the host. A refusal is
    /// the `StackOverflow` / `HeapOverflow` / `CallDepthExceeded` /
    /// `BadStateSlot` the program could have run into, returned before its
    /// first instruction and before any host effect. What can still trap
    /// once it runs depends on run-time values only: division by zero, an
    /// array index, a `randrange` bound, a queue or table id, and the
    /// fuel budget if one is set.
    ///
    /// Generic over the host so a caller that knows its host type (the
    /// enclave's invokers) gets the state accessors inlined into the
    /// dispatch loop; `?Sized` keeps `&mut dyn Host` callers working.
    pub fn run<H: Host + ?Sized>(
        &mut self,
        program: &Program,
        host: &mut H,
    ) -> Result<Outcome, VmError> {
        let envelope = program.envelope();
        let admitted = envelope
            .fits(&self.limits)
            .and_then(|bound| host.admit(&envelope.state).map(|()| bound));
        let result = match admitted {
            Err(refusal) => {
                self.usage = Usage::default();
                self.last_trap = None;
                Err(refusal)
            }
            Ok(bound) => match (self.profile.is_some(), self.limits.fuel) {
                (false, None) => self.run_inner::<false, false, H>(program, host, bound),
                (false, Some(_)) => self.run_inner::<false, true, H>(program, host, bound),
                (true, None) => self.run_inner::<true, false, H>(program, host, bound),
                (true, Some(_)) => self.run_inner::<true, true, H>(program, host, bound),
            },
        };
        self.counters.invocations += 1;
        self.counters.traps += result.is_err() as u64;
        self.counters.steps += self.usage.steps;
        result
    }

    /// The dispatch loop, over an admitted program. `PROFILE` compiles in
    /// the opcode histogram and the high-water marks, `FUEL` the
    /// instruction budget.
    fn run_inner<const PROFILE: bool, const FUEL: bool, H: Host + ?Sized>(
        &mut self,
        program: &Program,
        host: &mut H,
        bound: Bound,
    ) -> Result<Outcome, VmError> {
        self.frames.clear();
        let entry_locals = program.entry_locals() as usize;
        for local in &mut self.locals[..entry_locals] {
            *local = 0;
        }

        // Hot-loop state lives in locals so it can stay in registers; the
        // `usage` write-back happens once, after the dispatch loop exits
        // (on traps too — the closure funnels every return through here).
        let fuel_limit = self.limits.fuel.unwrap_or(u64::MAX);
        let mut steps: u64 = 0;
        let mut observed = Bound {
            heap: entry_locals,
            ..Bound::default()
        };

        // `pc` lives outside the dispatch closure so the trap exit path
        // below can attribute a fault to the instruction that raised it.
        let mut pc: usize = 0;
        let result = (|| -> Result<Outcome, VmError> {
            let ops = program.ops();
            // Operand-stack depth, and where the current frame's locals
            // start and end. Admission bounded all three by FRAME_SLOTS.
            let mut sp: usize = 0;
            let mut locals_base: usize = 0;
            let mut locals_top: usize = entry_locals;

            macro_rules! push {
                ($v:expr) => {{
                    let v = $v;
                    self.stack[sp & FRAME_MASK] = v;
                    sp += 1;
                    if PROFILE {
                        observed.stack = observed.stack.max(sp);
                    }
                }};
            }
            // Verification rules out underflow; the wrapping keeps even a
            // verifier bug from being a panic.
            macro_rules! pop {
                () => {{
                    sp = sp.wrapping_sub(1);
                    self.stack[sp & FRAME_MASK]
                }};
            }
            macro_rules! top {
                () => {
                    self.stack[sp.wrapping_sub(1) & FRAME_MASK]
                };
            }
            macro_rules! local {
                ($s:expr) => {
                    self.locals[(locals_base + $s as usize) & FRAME_MASK]
                };
            }
            macro_rules! binop {
                ($f:expr) => {{
                    let b = pop!();
                    let a = pop!();
                    let r = $f(a, b);
                    push!(r);
                }};
            }

            loop {
                if FUEL && steps >= fuel_limit {
                    return Err(VmError::OutOfFuel);
                }
                steps += 1;

                let op = match ops.get(pc) {
                    Some(op) => *op,
                    None => return Err(VmError::BadJump(pc as u32)),
                };
                pc += 1;

                if PROFILE {
                    if let Some(hist) = self.profile.as_deref_mut() {
                        hist[op.kind_index()] += 1;
                    }
                }

                match op {
                    Op::Push(v) => push!(v),
                    Op::Dup => push!(top!()),
                    Op::Pop => {
                        pop!();
                    }
                    Op::Swap => {
                        let b = pop!();
                        let a = pop!();
                        push!(b);
                        push!(a);
                    }

                    Op::LoadLocal(s) => push!(local!(s)),
                    Op::StoreLocal(s) => local!(s) = pop!(),

                    Op::LoadPkt(s) => push!(host.load_pkt(s)),
                    Op::StorePkt(s) => host.store_pkt(s, pop!()),
                    Op::LoadMsg(s) => push!(host.load_msg(s)),
                    Op::StoreMsg(s) => host.store_msg(s, pop!()),
                    Op::LoadGlob(s) => push!(host.load_glob(s)),
                    Op::StoreGlob(s) => host.store_glob(s, pop!()),

                    Op::ArrLoad(a) => {
                        let idx = pop!();
                        push!(host.arr_load(a, idx)?);
                    }
                    Op::ArrStore(a) => {
                        let v = pop!();
                        let idx = pop!();
                        host.arr_store(a, idx, v)?;
                    }
                    Op::ArrLen(a) => push!(host.arr_len(a)),

                    Op::Add => binop!(|a: i64, b: i64| a.wrapping_add(b)),
                    Op::Sub => binop!(|a: i64, b: i64| a.wrapping_sub(b)),
                    Op::Mul => binop!(|a: i64, b: i64| a.wrapping_mul(b)),
                    Op::Div => {
                        let b = pop!();
                        let a = pop!();
                        if b == 0 {
                            return Err(VmError::DivideByZero);
                        }
                        push!(a.wrapping_div(b));
                    }
                    Op::Rem => {
                        let b = pop!();
                        let a = pop!();
                        if b == 0 {
                            return Err(VmError::DivideByZero);
                        }
                        push!(a.wrapping_rem(b));
                    }
                    Op::Neg => top!() = top!().wrapping_neg(),
                    Op::And => binop!(|a: i64, b: i64| a & b),
                    Op::Or => binop!(|a: i64, b: i64| a | b),
                    Op::Xor => binop!(|a: i64, b: i64| a ^ b),
                    Op::Not => top!() = (top!() == 0) as i64,
                    Op::Shl => binop!(|a: i64, b: i64| a.wrapping_shl(b as u32 & 63)),
                    Op::Shr => binop!(|a: i64, b: i64| a.wrapping_shr(b as u32 & 63)),

                    Op::Eq => binop!(|a, b| (a == b) as i64),
                    Op::Ne => binop!(|a, b| (a != b) as i64),
                    Op::Lt => binop!(|a, b| (a < b) as i64),
                    Op::Le => binop!(|a, b| (a <= b) as i64),
                    Op::Gt => binop!(|a, b| (a > b) as i64),
                    Op::Ge => binop!(|a, b| (a >= b) as i64),

                    Op::Jmp(t) => pc = t as usize,
                    Op::JmpIf(t) => {
                        if pop!() != 0 {
                            pc = t as usize;
                        }
                    }
                    Op::JmpIfNot(t) => {
                        if pop!() == 0 {
                            pc = t as usize;
                        }
                    }

                    Op::Call(id) => {
                        let func = *program
                            .funcs()
                            .get(id as usize)
                            .ok_or(VmError::BadFunction(id))?;
                        self.frames.push(Frame {
                            ret_pc: pc as u32,
                            locals_base: locals_base as u32,
                        });
                        // the callee's frame opens above the caller's:
                        // arguments popped right-to-left into locals
                        // 0..arity, the rest zeroed
                        locals_base = locals_top;
                        locals_top += func.n_locals as usize;
                        for i in (0..func.arity).rev() {
                            local!(i) = pop!();
                        }
                        for i in func.arity..func.n_locals {
                            local!(i) = 0;
                        }
                        if PROFILE {
                            observed.heap = observed.heap.max(locals_top);
                            observed.call_depth = observed.call_depth.max(self.frames.len());
                        }
                        pc = func.entry as usize;
                    }
                    Op::Ret => {
                        let frame = self.frames.pop().ok_or(VmError::ReturnFromTopLevel)?;
                        // callee's locals are freed; its result stays on the stack
                        locals_top = locals_base;
                        locals_base = frame.locals_base as usize;
                        pc = frame.ret_pc as usize;
                    }
                    Op::Halt => return Ok(Outcome::Done),

                    Op::Rand => push!(host.rand64()),
                    Op::RandRange => {
                        let n = pop!();
                        if n <= 0 {
                            return Err(VmError::BadRandRange(n));
                        }
                        // Rejection-free modulo is fine here: hosts provide 63
                        // uniform bits and bounds are tiny (path counts, queue
                        // counts), so bias is negligible for the paper's uses.
                        push!(host.rand64() % n);
                    }
                    Op::Now => push!(host.now_ns()),
                    Op::Hash => {
                        let b = pop!();
                        let a = pop!();
                        push!(hash2(a, b));
                    }

                    Op::Drop => {
                        host.effect(Effect::Drop)?;
                        return Ok(Outcome::Dropped);
                    }
                    Op::SetQueue => {
                        let charge = pop!();
                        let queue = pop!();
                        host.effect(Effect::SetQueue { queue, charge })?;
                    }
                    Op::ToController => {
                        host.effect(Effect::ToController)?;
                        return Ok(Outcome::SentToController);
                    }
                    Op::GotoTable => {
                        let table = pop!();
                        host.effect(Effect::GotoTable { table })?;
                        if !(0..=u8::MAX as i64).contains(&table) {
                            return Err(VmError::BadTable(table));
                        }
                        return Ok(Outcome::GotoTable(table as u8));
                    }

                    // Superinstructions: one dispatch, no intermediate stack
                    // traffic — the fused operand lives in the op itself.
                    Op::AddImm(v) => top!() = top!().wrapping_add(v),
                    Op::MulImm(v) => top!() = top!().wrapping_mul(v),
                    Op::LoadPktAddImm(s, v) => push!(host.load_pkt(s).wrapping_add(v)),
                    Op::LoadPktMulImm(s, v) => push!(host.load_pkt(s).wrapping_mul(v)),
                    Op::IncrLocal(s, v) => local!(s) = local!(s).wrapping_add(v),
                    Op::IncrMsg(s, v) => {
                        let cur = host.load_msg(s);
                        host.store_msg(s, cur.wrapping_add(v));
                    }
                    Op::IncrGlob(s, v) => {
                        let cur = host.load_glob(s);
                        host.store_glob(s, cur.wrapping_add(v));
                    }
                    Op::CmpBr(c, t) => {
                        let b = pop!();
                        let a = pop!();
                        if c.eval(a, b) {
                            pc = t as usize;
                        }
                    }
                    Op::PushCmpBr(c, v, t) => {
                        let a = pop!();
                        if c.eval(a, v) {
                            pc = t as usize;
                        }
                    }
                }
            }
        })();

        self.usage = Usage {
            peak_stack: bound.stack,
            peak_heap_slots: bound.heap,
            peak_call_depth: bound.call_depth,
            steps,
        };
        if PROFILE {
            self.observed = observed;
        }
        if result.is_err() {
            // `pc` was already advanced past the faulting instruction for
            // execution traps; a fuel fault falls back to the last
            // instruction dispatched (or none, if the budget was zero).
            self.last_trap = pc
                .checked_sub(1)
                .and_then(|at| program.ops().get(at).map(|op| (at as u32, op.kind_index())));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::host::VecHost;
    use crate::program::FuncInfo;

    fn run(ops: Vec<Op>, host: &mut VecHost) -> Result<Outcome, VmError> {
        let p = Program::new("t", ops, vec![], 8).unwrap();
        Interpreter::new(Limits::default()).run(&p, host)
    }

    #[test]
    fn arithmetic() {
        let mut h = VecHost::with_slots(1, 0, 0);
        run(
            vec![
                Op::Push(6),
                Op::Push(7),
                Op::Mul,
                Op::Push(2),
                Op::Add,
                Op::StorePkt(0),
                Op::Halt,
            ],
            &mut h,
        )
        .unwrap();
        assert_eq!(h.packet[0], 44);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut h = VecHost::default();
        let e = run(
            vec![Op::Push(1), Op::Push(0), Op::Div, Op::Pop, Op::Halt],
            &mut h,
        );
        assert_eq!(e, Err(VmError::DivideByZero));
    }

    #[test]
    fn trap_site_names_faulting_opcode() {
        let trap = Program::new(
            "z",
            vec![Op::Push(1), Op::Push(0), Op::Div, Op::Pop, Op::Halt],
            vec![],
            0,
        )
        .unwrap();
        let ok = Program::new("t", vec![Op::Push(1), Op::Pop, Op::Halt], vec![], 0).unwrap();
        let mut interp = Interpreter::new(Limits::default());
        let mut h = VecHost::default();
        assert_eq!(interp.last_trap(), None);
        assert_eq!(interp.run(&trap, &mut h), Err(VmError::DivideByZero));
        let site = interp.last_trap().expect("trap recorded");
        assert_eq!(site.pc, 2);
        assert_eq!(site.op_name(), "div");
        // survives subsequent successful runs (flight recorder reads it late)
        interp.run(&ok, &mut h).unwrap();
        assert_eq!(interp.last_trap(), Some(site));
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let p = Program::new("t", vec![Op::Push(1), Op::Pop, Op::Halt], vec![], 0).unwrap();
        let trap = Program::new(
            "z",
            vec![Op::Push(1), Op::Push(0), Op::Div, Op::Pop, Op::Halt],
            vec![],
            0,
        )
        .unwrap();
        let mut h = VecHost::default();
        let mut i = Interpreter::new(Limits::default());
        assert_eq!(i.counters(), VmCounters::default());

        i.run(&p, &mut h).unwrap();
        i.run(&p, &mut h).unwrap();
        assert!(i.run(&trap, &mut h).is_err());

        let c = i.counters();
        assert_eq!(c.invocations, 3);
        assert_eq!(c.traps, 1);
        assert_eq!(c.steps, 3 + 3 + 3); // both programs execute 3 ops

        i.reset_counters();
        assert_eq!(i.counters(), VmCounters::default());
    }

    #[test]
    fn opcode_profiling_is_opt_in() {
        let p = Program::new(
            "t",
            vec![Op::Push(2), Op::Push(3), Op::Add, Op::Pop, Op::Halt],
            vec![],
            0,
        )
        .unwrap();
        let mut h = VecHost::default();
        let mut i = Interpreter::new(Limits::default());
        i.run(&p, &mut h).unwrap();
        assert!(i.opcode_histogram().is_none());

        i.set_opcode_profiling(true);
        i.run(&p, &mut h).unwrap();
        i.run(&p, &mut h).unwrap();
        let hist = i.opcode_histogram().unwrap();
        assert_eq!(hist[Op::Push(0).kind_index()], 4);
        assert_eq!(hist[Op::Add.kind_index()], 2);
        assert_eq!(hist[Op::Halt.kind_index()], 2);
        assert_eq!(hist[Op::Mul.kind_index()], 0);

        i.reset_counters();
        assert!(i.opcode_histogram().unwrap().iter().all(|&n| n == 0));
        i.set_opcode_profiling(false);
        assert!(i.opcode_histogram().is_none());
    }

    #[test]
    fn loop_sums_with_builder() {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        b.push(1).store_local(0); // i = 1
        b.push(0).store_local(1); // acc = 0
        b.bind(head);
        b.load_local(0).push(10).le().jmp_if_not(done);
        b.load_local(1).load_local(0).add().store_local(1);
        b.load_local(0).push(1).add().store_local(0);
        b.jmp(head);
        b.bind(done);
        b.load_local(1).store_pkt(0).halt();
        let p = b.with_entry_locals(2).build().unwrap();

        let mut h = VecHost::with_slots(1, 0, 0);
        let mut i = Interpreter::new(Limits::default());
        assert_eq!(i.run(&p, &mut h).unwrap(), Outcome::Done);
        assert_eq!(h.packet[0], 55);
        assert!(i.usage().steps > 50);
    }

    #[test]
    fn function_call_and_return() {
        // top: push 20, push 22, call add2, store pkt0
        let p = Program::new(
            "t",
            vec![
                Op::Push(20),
                Op::Push(22),
                Op::Call(0),
                Op::StorePkt(0),
                Op::Halt,
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Add,
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 5,
                arity: 2,
                n_locals: 2,
            }],
            0,
        )
        .unwrap();
        let mut h = VecHost::with_slots(1, 0, 0);
        let mut i = Interpreter::new(Limits::default());
        i.run(&p, &mut h).unwrap();
        assert_eq!(h.packet[0], 42);
        assert_eq!(i.usage().peak_call_depth, 1);
    }

    /// Run `p` under `limits` on a host that would record an effect from
    /// the very first instruction, and check the run was refused before it.
    fn assert_refused(p: &Program, limits: Limits, refusal: VmError) {
        let mut h = VecHost::default();
        let mut i = Interpreter::new(limits);
        assert_eq!(i.run(p, &mut h), Err(refusal));
        assert_eq!(i.usage().steps, 0, "refused before the first instruction");
        assert!(h.effects.is_empty(), "no host effect recorded");
        assert_eq!(i.last_trap(), None, "no instruction to attribute");
        assert_eq!(i.counters().traps, 1);
    }

    #[test]
    fn deep_recursion_hits_call_depth() {
        // f() = f()  — infinite recursion; the top level could drop the
        // packet first, so an interpreter that started running would show it
        let p = Program::new(
            "t",
            vec![
                Op::Push(0),
                Op::JmpIfNot(3),
                Op::Drop,
                Op::Call(0), // 3
                Op::Pop,
                Op::Halt,
                Op::Call(0), // 6: f calls f
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 6,
                arity: 0,
                n_locals: 0,
            }],
            0,
        )
        .unwrap();
        assert_eq!(p.envelope().bound, None, "recursion has no bound");
        assert_refused(&p, Limits::default(), VmError::CallDepthExceeded);
    }

    #[test]
    fn call_chain_deeper_than_the_budget_is_refused() {
        // f0 -> f1 -> f2, no recursion: depth 3
        let mut ops = vec![Op::Call(0), Op::Pop, Op::Halt];
        let mut funcs = Vec::new();
        for id in 0..3u16 {
            funcs.push(FuncInfo {
                entry: ops.len() as u32,
                arity: 0,
                n_locals: 1,
            });
            if id < 2 {
                ops.extend([Op::Call(id + 1), Op::Ret]);
            } else {
                ops.extend([Op::Push(7), Op::Ret]);
            }
        }
        let p = Program::new("chain", ops, funcs, 2).unwrap();
        let bound = p.envelope().bound.expect("acyclic");
        assert_eq!((bound.stack, bound.heap, bound.call_depth), (1, 5, 3));
        let tight = |max_call_depth| Limits {
            max_call_depth,
            ..Limits::default()
        };
        assert_refused(&p, tight(2), VmError::CallDepthExceeded);
        let mut h = VecHost::default();
        assert_eq!(
            Interpreter::new(tight(3)).run(&p, &mut h),
            Ok(Outcome::Done)
        );
    }

    #[test]
    fn heap_overflow_enforced() {
        // 4 entry locals + a callee with 6: 10 live at once (the Drop
        // would show on the host if the program were started)
        let p = Program::new(
            "t",
            vec![
                Op::Push(0),
                Op::JmpIfNot(3),
                Op::Drop,
                Op::Call(0), // 3
                Op::Pop,
                Op::Halt,
                Op::LoadLocal(5), // 6
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 6,
                arity: 0,
                n_locals: 6,
            }],
            4,
        )
        .unwrap();
        assert_eq!(p.envelope().bound.unwrap().heap, 10);
        let tight = |max_heap_slots| Limits {
            max_heap_slots,
            ..Limits::default()
        };
        assert_refused(&p, tight(9), VmError::HeapOverflow);
        let mut h = VecHost::default();
        assert_eq!(
            Interpreter::new(tight(10)).run(&p, &mut h),
            Ok(Outcome::Done)
        );
    }

    #[test]
    fn unknown_state_slot_is_refused_before_any_effect() {
        // sets a queue, then reads a packet slot the host does not hold
        let p = Program::new(
            "t",
            vec![
                Op::Push(1),
                Op::Push(100),
                Op::SetQueue,
                Op::LoadPkt(3),
                Op::Pop,
                Op::Halt,
            ],
            vec![],
            0,
        )
        .unwrap();
        let mut h = VecHost::with_slots(3, 0, 0);
        let mut i = Interpreter::new(Limits::default());
        assert_eq!(
            i.run(&p, &mut h),
            Err(VmError::BadStateSlot {
                scope: crate::error::StateScope::Packet,
                slot: 3
            })
        );
        assert_eq!(i.usage().steps, 0);
        assert!(h.effects.is_empty(), "the SetQueue ahead of it never ran");
        h.packet.push(0);
        assert_eq!(i.run(&p, &mut h), Ok(Outcome::Done));
        assert_eq!(h.effects.len(), 1);
    }

    #[test]
    fn callee_frames_open_zeroed_above_the_caller() {
        // g(a) has a second local it reads before writing: must be 0 even
        // though the previous call left 99 in that slot
        let p = Program::new(
            "t",
            vec![
                Op::Push(5),
                Op::Call(0),
                Op::StorePkt(0),
                Op::Push(6),
                Op::Call(0),
                Op::StorePkt(1),
                Op::Halt,
                Op::LoadLocal(1), // 7: g
                Op::LoadLocal(0),
                Op::Add,
                Op::Push(99),
                Op::StoreLocal(1),
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 7,
                arity: 1,
                n_locals: 2,
            }],
            3,
        )
        .unwrap();
        let mut h = VecHost::with_slots(2, 0, 0);
        let mut i = Interpreter::new(Limits::default());
        i.set_opcode_profiling(true);
        i.run(&p, &mut h).unwrap();
        assert_eq!(h.packet, vec![5, 6]);
        let bound = p.envelope().bound.unwrap();
        assert_eq!((bound.stack, bound.heap, bound.call_depth), (2, 5, 1));
        assert_eq!(i.observed_peaks(), Some(bound), "straight line: exact");
        i.set_opcode_profiling(false);
        assert_eq!(i.observed_peaks(), None);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let p = Program::new("t", vec![Op::Jmp(0)], vec![], 0).unwrap();
        let mut h = VecHost::default();
        let limits = Limits {
            fuel: Some(1000),
            ..Limits::default()
        };
        let e = Interpreter::new(limits).run(&p, &mut h);
        assert_eq!(e, Err(VmError::OutOfFuel));
    }

    #[test]
    fn drop_and_controller_outcomes() {
        let mut h = VecHost::default();
        assert_eq!(run(vec![Op::Drop], &mut h).unwrap(), Outcome::Dropped);
        assert_eq!(h.effects, vec![Effect::Drop]);

        let mut h = VecHost::default();
        assert_eq!(
            run(vec![Op::ToController], &mut h).unwrap(),
            Outcome::SentToController
        );
    }

    #[test]
    fn set_queue_records_charge() {
        let mut h = VecHost::default();
        assert_eq!(
            run(
                vec![Op::Push(3), Op::Push(65536), Op::SetQueue, Op::Halt],
                &mut h
            )
            .unwrap(),
            Outcome::Done
        );
        assert_eq!(
            h.effects,
            vec![Effect::SetQueue {
                queue: 3,
                charge: 65536
            }]
        );
    }

    #[test]
    fn goto_table_outcome() {
        let mut h = VecHost::default();
        assert_eq!(
            run(vec![Op::Push(2), Op::GotoTable], &mut h).unwrap(),
            Outcome::GotoTable(2)
        );
    }

    #[test]
    fn usage_reports_the_static_bound() {
        let mut h = VecHost::default();
        let p = Program::new(
            "t",
            vec![
                Op::Push(1),
                Op::Push(2),
                Op::Push(3),
                Op::Add,
                Op::Add,
                Op::Pop,
                Op::Halt,
            ],
            vec![],
            0,
        )
        .unwrap();
        let mut i = Interpreter::new(Limits::default());
        i.run(&p, &mut h).unwrap();
        assert_eq!(i.usage().peak_stack, 3);
    }

    #[test]
    fn rand_range_bounds() {
        let mut h = VecHost::default();
        h.seed(42);
        let p = Program::new(
            "t",
            vec![Op::Push(10), Op::RandRange, Op::StorePkt(0), Op::Halt],
            vec![],
            0,
        )
        .unwrap();
        let mut i = Interpreter::new(Limits::default());
        let mut h2 = VecHost::with_slots(1, 0, 0);
        h2.seed(42);
        for _ in 0..100 {
            i.run(&p, &mut h2).unwrap();
            assert!((0..10).contains(&h2.packet[0]));
        }
        // non-positive bound traps
        let p = Program::new(
            "t",
            vec![Op::Push(0), Op::RandRange, Op::Pop, Op::Halt],
            vec![],
            0,
        )
        .unwrap();
        assert_eq!(i.run(&p, &mut h2), Err(VmError::BadRandRange(0)));
    }

    #[test]
    fn stack_overflow_enforced() {
        // The verifier statically rejects loops that grow the stack, so
        // every verified program has a finite peak depth; one whose peak
        // exceeds this interpreter's configured budget never starts.
        let limits = Limits {
            max_stack: 4,
            ..Limits::default()
        };
        let mut b = ProgramBuilder::new();
        b.push(1).push(100).set_queue();
        for i in 0..6 {
            b.push(i);
        }
        for _ in 0..6 {
            b.pop();
        }
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.envelope().bound.unwrap().stack, 6);
        assert_refused(&p, limits, VmError::StackOverflow);
    }

    #[test]
    fn fused_ops_match_their_expansions() {
        use crate::op::Cmp;
        // fused: sum 1..=10 using IncrLocal / PushCmpBr / AddImm
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        b.push(0).store_local(0); // i = 0
        b.push(0).store_local(1); // acc = 0
        b.bind(head);
        b.load_local(0).push_cmp_br(Cmp::Ge, 10, done);
        b.incr_local(0, 1);
        b.load_local(1).load_local(0).add().store_local(1);
        b.jmp(head);
        b.bind(done);
        b.load_local(1).add_imm(100).mul_imm(2).store_pkt(0).halt();
        let p = b.with_entry_locals(2).build().unwrap();

        let mut h = VecHost::with_slots(1, 0, 0);
        let mut i = Interpreter::new(Limits::default());
        assert_eq!(i.run(&p, &mut h).unwrap(), Outcome::Done);
        assert_eq!(h.packet[0], (55 + 100) * 2);

        // fused state/packet forms against a hand-computed result
        let mut b = ProgramBuilder::new();
        b.incr_msg(0, 7).incr_glob(1, -2);
        b.load_pkt_add_imm(0, 5).store_msg(1);
        b.load_pkt_mul_imm(0, 3).store_glob(0);
        let two = b.new_label();
        let out = b.new_label();
        b.load_pkt(0).load_pkt(1).cmp_br(Cmp::Gt, two);
        b.push(111).store_pkt(2).jmp(out);
        b.bind(two);
        b.push(222).store_pkt(2);
        b.bind(out);
        b.halt();
        let p = b.build().unwrap();

        let mut h = VecHost::with_slots(3, 2, 2);
        h.packet[0] = 10;
        h.packet[1] = 4;
        Interpreter::new(Limits::default()).run(&p, &mut h).unwrap();
        assert_eq!(h.msg[0], 7);
        assert_eq!(h.global[1], -2);
        assert_eq!(h.msg[1], 15);
        assert_eq!(h.global[0], 30);
        assert_eq!(h.packet[2], 222); // 10 > 4

        // wrapping semantics match the unfused ops
        let mut b = ProgramBuilder::new();
        b.push(i64::MAX).add_imm(1).store_pkt(0);
        b.push(i64::MAX).mul_imm(2).store_pkt(1);
        b.halt();
        let p = b.build().unwrap();
        let mut h = VecHost::with_slots(2, 0, 0);
        Interpreter::new(Limits::default()).run(&p, &mut h).unwrap();
        assert_eq!(h.packet[0], i64::MAX.wrapping_add(1));
        assert_eq!(h.packet[1], i64::MAX.wrapping_mul(2));
    }

    #[test]
    fn verifier_rejects_stack_growing_loops() {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        b.bind(head);
        b.push(1).jmp(head);
        assert!(b.build().is_err());
    }
}
