//! The interpreter proper: a classic dispatch loop over verified bytecode.
//!
//! An [`Interpreter`] is a reusable execution context — the enclave keeps
//! one per worker and runs every action function through it, so the operand
//! stack and locals arena are allocated once and reused across millions of
//! packets. This is the component whose overhead Figure 12 of the paper
//! quantifies; `eden-bench`'s `micro` and `fig12_overheads` benches measure
//! this exact code.

use crate::error::VmError;
use crate::host::{Effect, Host};
use crate::limits::{Limits, Usage};
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

/// Cheap always-on counters accumulated across [`Interpreter::run`] calls.
///
/// These are the interpreter's contribution to a telemetry
/// `StatsSnapshot`; the enclave copies them out on a stats pull. Cleared
/// by [`Interpreter::reset_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Completed `run` calls (including trapped ones).
    pub invocations: u64,
    /// `run` calls that ended in a trap.
    pub traps: u64,
    /// Instructions executed, across all runs.
    pub steps: u64,
    /// Wall-clock nanoseconds spent inside `run`, across all runs.
    pub elapsed_ns: u64,
}

impl VmCounters {
    /// Fold another interpreter's counters into this one (pool rollup).
    pub fn merge(&mut self, other: VmCounters) {
        self.invocations += other.invocations;
        self.traps += other.traps;
        self.steps += other.steps;
        self.elapsed_ns += other.elapsed_ns;
    }
}

/// One in this many [`Interpreter::run`] calls is wall-clock timed for
/// the `elapsed_ns` counter; the measured cost is scaled by the interval.
/// Two clock reads cost more than interpreting a short action function,
/// so per-invocation timing would dominate what it measures.
const TIMING_SAMPLE: u64 = 64;

/// Reusable execution context (operand stack + locals arena + call stack).
#[derive(Debug)]
pub struct Interpreter {
    limits: Limits,
    stack: Vec<i64>,
    locals: Vec<i64>,
    frames: Vec<Frame>,
    usage: Usage,
    counters: VmCounters,
    /// Per-opcode execution histogram, allocated only while profiling is
    /// enabled so the disabled cost is a single well-predicted branch.
    profile: Option<Box<[u64; Op::KIND_COUNT]>>,
    /// Log2 histogram of sampled per-invocation wall-clock costs (fed by
    /// the same 1-in-`TIMING_SAMPLE` clock reads as `elapsed_ns`, so it
    /// adds no hot-path cost of its own).
    latency: eden_telemetry::LogHistogram,
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
            stack: Vec::with_capacity(limits.max_stack),
            locals: Vec::with_capacity(limits.max_heap_slots),
            frames: Vec::with_capacity(limits.max_call_depth),
            usage: Usage::default(),
            counters: VmCounters::default(),
            profile: None,
            latency: eden_telemetry::LogHistogram::new(),
            last_trap: None,
        }
    }

    /// Resource limits this interpreter enforces.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// High-water marks from the most recent [`run`](Self::run).
    pub fn usage(&self) -> Usage {
        self.usage
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
        self.latency.reset();
        if let Some(hist) = self.profile.as_deref_mut() {
            hist.fill(0);
        }
    }

    /// Sampled per-invocation wall-clock histogram (1-in-`TIMING_SAMPLE`
    /// runs contribute a sample; the bucket shape is representative, the
    /// count is not a run count).
    pub fn latency_histogram(&self) -> &eden_telemetry::LogHistogram {
        &self.latency
    }

    /// Where the most recent trap happened, if any [`run`](Self::run) has
    /// trapped since creation. Survives subsequent successful runs so a
    /// fault handler a few frames up can still attribute the trap.
    pub fn last_trap(&self) -> Option<TrapSite> {
        self.last_trap.map(|(pc, op_kind)| TrapSite { pc, op_kind })
    }

    /// Enable or disable the per-opcode histogram. Enabling allocates the
    /// histogram (zeroed); disabling drops it. Off by default — when off,
    /// the dispatch loop pays one predictable branch per instruction.
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
    /// occur; the checks that remain at runtime are the dynamic ones:
    /// limits, division by zero, array bounds, unknown state slots.
    ///
    /// Generic over the host so a caller that knows its host type (the
    /// enclave's invokers) gets the state accessors inlined into the
    /// dispatch loop; `?Sized` keeps `&mut dyn Host` callers working.
    pub fn run<H: Host + ?Sized>(
        &mut self,
        program: &Program,
        host: &mut H,
    ) -> Result<Outcome, VmError> {
        // Wall-clock accounting is sampled: reading the clock twice per
        // invocation costs more than interpreting a short action function,
        // so one run in TIMING_SAMPLE is timed and scaled up. Action
        // functions are uniform per program, so the estimate converges
        // fast; `elapsed_ns` stays monotone either way.
        let sampled = self.counters.invocations % TIMING_SAMPLE == 0;
        let started = if sampled {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let result = if self.profile.is_some() {
            self.run_inner::<true, H>(program, host)
        } else {
            self.run_inner::<false, H>(program, host)
        };
        self.counters.invocations += 1;
        self.counters.traps += result.is_err() as u64;
        self.counters.steps += self.usage.steps;
        if let Some(t) = started {
            let dt = t.elapsed().as_nanos() as u64;
            self.counters.elapsed_ns += dt * TIMING_SAMPLE;
            self.latency.record(dt);
        }
        result
    }

    fn run_inner<const PROFILE: bool, H: Host + ?Sized>(
        &mut self,
        program: &Program,
        host: &mut H,
    ) -> Result<Outcome, VmError> {
        self.stack.clear();
        self.locals.clear();
        self.frames.clear();
        self.usage = Usage::default();

        let entry_locals = program.entry_locals() as usize;
        if entry_locals > self.limits.max_heap_slots {
            return Err(VmError::HeapOverflow);
        }
        self.locals.resize(entry_locals, 0);
        self.usage.peak_heap_slots = entry_locals;

        // Hot-loop state lives in locals so it can stay in registers; the
        // `usage` write-back happens once, after the dispatch loop exits
        // (on traps too — the closure funnels every return through here).
        let max_stack = self.limits.max_stack;
        let fuel_limit = self.limits.fuel.unwrap_or(u64::MAX);
        let mut steps: u64 = 0;
        let mut peak_stack: usize = 0;

        // `pc` lives outside the dispatch closure so the trap exit path
        // below can attribute a fault to the instruction that raised it.
        let mut pc: usize = 0;
        let result = (|| -> Result<Outcome, VmError> {
            let ops = program.ops();
            let mut locals_base: usize = 0;

            macro_rules! push {
                ($v:expr) => {{
                    if self.stack.len() >= max_stack {
                        return Err(VmError::StackOverflow);
                    }
                    self.stack.push($v);
                    if self.stack.len() > peak_stack {
                        peak_stack = self.stack.len();
                    }
                }};
            }
            // Pop is infallible on verified programs; the error path is kept for
            // defence in depth (a Host could not cause it, but a future op bug
            // should trap, not panic).
            macro_rules! pop {
                () => {
                    match self.stack.pop() {
                        Some(v) => v,
                        None => return Err(VmError::StackUnderflow),
                    }
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
                if steps >= fuel_limit {
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
                    Op::Dup => {
                        let v = *self.stack.last().ok_or(VmError::StackUnderflow)?;
                        push!(v);
                    }
                    Op::Pop => {
                        pop!();
                    }
                    Op::Swap => {
                        let n = self.stack.len();
                        if n < 2 {
                            return Err(VmError::StackUnderflow);
                        }
                        self.stack.swap(n - 1, n - 2);
                    }

                    Op::LoadLocal(s) => {
                        let idx = locals_base + s as usize;
                        let v = *self.locals.get(idx).ok_or(VmError::BadLocal(s))?;
                        push!(v);
                    }
                    Op::StoreLocal(s) => {
                        let v = pop!();
                        let idx = locals_base + s as usize;
                        *self.locals.get_mut(idx).ok_or(VmError::BadLocal(s))? = v;
                    }

                    Op::LoadPkt(s) => push!(host.load_pkt(s)?),
                    Op::StorePkt(s) => {
                        let v = pop!();
                        host.store_pkt(s, v)?;
                    }
                    Op::LoadMsg(s) => push!(host.load_msg(s)?),
                    Op::StoreMsg(s) => {
                        let v = pop!();
                        host.store_msg(s, v)?;
                    }
                    Op::LoadGlob(s) => push!(host.load_glob(s)?),
                    Op::StoreGlob(s) => {
                        let v = pop!();
                        host.store_glob(s, v)?;
                    }

                    Op::ArrLoad(a) => {
                        let idx = pop!();
                        push!(host.arr_load(a, idx)?);
                    }
                    Op::ArrStore(a) => {
                        let v = pop!();
                        let idx = pop!();
                        host.arr_store(a, idx, v)?;
                    }
                    Op::ArrLen(a) => push!(host.arr_len(a)?),

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
                    Op::Neg => {
                        let a = pop!();
                        push!(a.wrapping_neg());
                    }
                    Op::And => binop!(|a: i64, b: i64| a & b),
                    Op::Or => binop!(|a: i64, b: i64| a | b),
                    Op::Xor => binop!(|a: i64, b: i64| a ^ b),
                    Op::Not => {
                        let a = pop!();
                        push!(if a == 0 { 1 } else { 0 });
                    }
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
                        if self.frames.len() >= self.limits.max_call_depth {
                            return Err(VmError::CallDepthExceeded);
                        }
                        let new_base = self.locals.len();
                        if new_base + func.n_locals as usize > self.limits.max_heap_slots {
                            return Err(VmError::HeapOverflow);
                        }
                        self.locals.resize(new_base + func.n_locals as usize, 0);
                        if self.locals.len() > self.usage.peak_heap_slots {
                            self.usage.peak_heap_slots = self.locals.len();
                        }
                        // pop args right-to-left into locals 0..arity
                        for i in (0..func.arity).rev() {
                            let v = pop!();
                            self.locals[new_base + i as usize] = v;
                        }
                        self.frames.push(Frame {
                            ret_pc: pc as u32,
                            locals_base: locals_base as u32,
                        });
                        if self.frames.len() > self.usage.peak_call_depth {
                            self.usage.peak_call_depth = self.frames.len();
                        }
                        locals_base = new_base;
                        pc = func.entry as usize;
                    }
                    Op::Ret => {
                        let frame = self.frames.pop().ok_or(VmError::ReturnFromTopLevel)?;
                        // callee's locals are freed; its result stays on the stack
                        self.locals.truncate(locals_base);
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
                    Op::AddImm(v) => {
                        let t = self.stack.last_mut().ok_or(VmError::StackUnderflow)?;
                        *t = t.wrapping_add(v);
                    }
                    Op::MulImm(v) => {
                        let t = self.stack.last_mut().ok_or(VmError::StackUnderflow)?;
                        *t = t.wrapping_mul(v);
                    }
                    Op::LoadPktAddImm(s, v) => push!(host.load_pkt(s)?.wrapping_add(v)),
                    Op::LoadPktMulImm(s, v) => push!(host.load_pkt(s)?.wrapping_mul(v)),
                    Op::IncrLocal(s, v) => {
                        let idx = locals_base + s as usize;
                        let p = self.locals.get_mut(idx).ok_or(VmError::BadLocal(s))?;
                        *p = p.wrapping_add(v);
                    }
                    Op::IncrMsg(s, v) => {
                        let cur = host.load_msg(s)?;
                        host.store_msg(s, cur.wrapping_add(v))?;
                    }
                    Op::IncrGlob(s, v) => {
                        let cur = host.load_glob(s)?;
                        host.store_glob(s, cur.wrapping_add(v))?;
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

        self.usage.steps = steps;
        self.usage.peak_stack = peak_stack;
        if result.is_err() {
            // `pc` was already advanced past the faulting instruction for
            // execution traps; fuel/entry faults fall back to the last
            // instruction dispatched (or none, if the program never ran).
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
        // invocation 0 is always timed, so the latency histogram has samples
        assert!(!interp.latency_histogram().is_empty());
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
                                        // wall-clock cost is monotone; exact value is host-dependent
        let elapsed_after_three = c.elapsed_ns;
        i.run(&p, &mut h).unwrap();
        assert!(i.counters().elapsed_ns >= elapsed_after_three);

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

    #[test]
    fn deep_recursion_hits_call_depth() {
        // f() = f()  — infinite recursion
        let p = Program::new(
            "t",
            vec![
                Op::Call(0),
                Op::Pop,
                Op::Halt,
                Op::Call(0), // 3: f calls f
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 3,
                arity: 0,
                n_locals: 0,
            }],
            0,
        )
        .unwrap();
        let mut h = VecHost::default();
        let e = Interpreter::new(Limits::default()).run(&p, &mut h);
        assert_eq!(e, Err(VmError::CallDepthExceeded));
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
    fn usage_tracks_stack_high_water() {
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
        // The verifier statically rejects loops that grow the stack, so at
        // runtime an overflow means the program's (verified, finite) peak
        // depth exceeds this interpreter's configured budget.
        let limits = Limits {
            max_stack: 4,
            ..Limits::default()
        };
        let mut b = ProgramBuilder::new();
        for i in 0..6 {
            b.push(i);
        }
        for _ in 0..6 {
            b.pop();
        }
        b.halt();
        let p = b.build().unwrap();
        let mut h = VecHost::default();
        let e = Interpreter::new(limits).run(&p, &mut h);
        assert_eq!(e, Err(VmError::StackOverflow));
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
