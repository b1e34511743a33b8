//! Static bytecode verification.
//!
//! Eden relies on "correct execution of the interpreter" rather than
//! verifying every action function (§3.4.3), but a cheap static pass at
//! program-load time removes whole classes of per-instruction checks from
//! the hot loop: all jump targets are in range, the operand stack depth is
//! consistent at every program point (no underflow can occur at runtime),
//! local slots are within the declared frame size, and every `Call` targets
//! a real function-table entry. This mirrors what BPF-style in-kernel
//! interpreters do and what the paper's filter-language ancestors [41, 43]
//! pioneered.
//!
//! The same pass knows the exact operand depth before every instruction,
//! which locals each frame holds and who calls whom, so it also returns
//! the program's [`Envelope`]: its worst-case stack, heap and call depth
//! and the state slots it reads and writes. That is what lets the
//! interpreter admit a program once and then run it without a
//! per-push, per-call or per-access check.

use std::collections::VecDeque;
use std::fmt;

use crate::host::StateUse;
use crate::limits::{Bound, Envelope};
use crate::op::Op;
use crate::program::Program;

/// Maximum instruction count a program may have. Well below the u32 jump
/// range, so every op index (and `target + 1`) fits a `u32`, and small
/// enough that the cap is actually reachable by tests and fuzzing — a
/// shipped program at the limit is ~10 MB on the wire, far beyond anything
/// the paper's case studies need.
pub const MAX_PROGRAM_OPS: usize = 1 << 20;

/// Why a program failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A jump targets an instruction index outside the program.
    JumpOutOfRange { at: usize, target: u32 },
    /// Execution can fall off the end of the instruction stream.
    FallsOffEnd { entry: u32 },
    /// Stack depth at a join point disagrees between predecessors.
    InconsistentStack { at: usize, a: i32, b: i32 },
    /// An op would pop from an empty (or too-shallow) stack.
    Underflow { at: usize, need: i32, have: i32 },
    /// A local slot index is >= the frame's declared locals.
    LocalOutOfRange { at: usize, slot: u8, frame: u8 },
    /// `Call` references a function id not in the table.
    UnknownFunction { at: usize, id: u16 },
    /// A function's entry index is outside the program.
    BadFunctionEntry { id: usize, entry: u32 },
    /// A function declares fewer locals than its arity.
    ArityExceedsLocals { id: usize },
    /// `Ret` appears in top-level code (top level must end with `Halt`,
    /// `Drop`, or `ToController`).
    RetAtTopLevel { at: usize },
    /// `Ret` with more than the result on the function's stack: the extra
    /// operands would stay behind on the caller's, deeper than `Call`'s
    /// modelled effect.
    RetLeavesOperands { at: usize, depth: i32 },
    /// Program too large for u32 jump targets.
    TooLarge(usize),
    /// Name longer than the wire format's u16 length prefix can say.
    NameTooLong(usize),
    /// Function table longer than the wire format's u16 count (and
    /// `Call`'s u16 id) can say.
    TooManyFunctions(usize),
    /// Program has no instructions.
    Empty,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use VerifyError::*;
        match self {
            JumpOutOfRange { at, target } => {
                write!(f, "op {at}: jump target {target} out of range")
            }
            FallsOffEnd { entry } => {
                write!(f, "control flow from entry {entry} can fall off the end")
            }
            InconsistentStack { at, a, b } => {
                write!(f, "op {at}: inconsistent stack depth at join ({a} vs {b})")
            }
            Underflow { at, need, have } => {
                write!(f, "op {at}: needs {need} operands, stack has {have}")
            }
            LocalOutOfRange { at, slot, frame } => {
                write!(f, "op {at}: local {slot} out of range (frame has {frame})")
            }
            UnknownFunction { at, id } => write!(f, "op {at}: unknown function {id}"),
            BadFunctionEntry { id, entry } => {
                write!(f, "function {id}: entry {entry} out of range")
            }
            ArityExceedsLocals { id } => write!(f, "function {id}: arity exceeds declared locals"),
            RetAtTopLevel { at } => write!(f, "op {at}: ret in top-level code"),
            RetLeavesOperands { at, depth } => {
                write!(f, "op {at}: ret with {depth} operands, expected exactly 1")
            }
            TooLarge(n) => write!(f, "program of {n} ops exceeds the maximum size"),
            NameTooLong(n) => write!(f, "program name of {n} bytes exceeds {}", u16::MAX),
            TooManyFunctions(n) => write!(f, "{n} functions exceed {}", u16::MAX),
            Empty => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify `program` and derive its [`Envelope`]; called automatically by
/// [`Program::new`].
pub fn verify(program: &Program) -> Result<Envelope, VerifyError> {
    let ops = program.ops();
    if ops.is_empty() {
        return Err(VerifyError::Empty);
    }
    if ops.len() > MAX_PROGRAM_OPS {
        return Err(VerifyError::TooLarge(ops.len()));
    }
    if program.name().len() > usize::from(u16::MAX) {
        return Err(VerifyError::NameTooLong(program.name().len()));
    }
    if program.funcs().len() > usize::from(u16::MAX) {
        return Err(VerifyError::TooManyFunctions(program.funcs().len()));
    }
    for (id, func) in program.funcs().iter().enumerate() {
        if func.entry as usize >= ops.len() {
            return Err(VerifyError::BadFunctionEntry {
                id,
                entry: func.entry,
            });
        }
        if func.arity > func.n_locals {
            return Err(VerifyError::ArityExceedsLocals { id });
        }
    }

    // Walk each entry region independently: the top level (entry 0, ends in
    // Halt/Drop/ToController) and each function (ends in Ret or the
    // terminators). Region 0 is the top level, region `id + 1` function `id`.
    let mut regions = Vec::with_capacity(program.funcs().len() + 1);
    regions.push(check_region(program, 0, program.entry_locals(), true)?);
    for func in program.funcs() {
        regions.push(check_region(program, func.entry, func.n_locals, false)?);
    }
    Ok(fold_envelope(&regions))
}

/// What one region contributes to the envelope.
struct Region {
    /// Locals its frame holds.
    locals: usize,
    /// Deepest operand stack its own ops reach, from depth 0 at entry.
    peak: usize,
    /// Its call sites: `(callee region, operand depth the callee starts
    /// on)` — the caller's depth once the arguments are popped.
    calls: Vec<(usize, usize)>,
    state: StateUse,
}

/// Dataflow over stack depth starting from one entry point.
fn check_region(
    program: &Program,
    entry: u32,
    n_locals: u8,
    top_level: bool,
) -> Result<Region, VerifyError> {
    let ops = program.ops();
    let mut region = Region {
        locals: n_locals as usize,
        peak: 0,
        calls: Vec::new(),
        state: StateUse::default(),
    };
    // depth[i] = operand-stack depth *before* executing op i; -1 = unseen.
    let mut depth = vec![-1i32; ops.len()];
    let mut work = VecDeque::new();
    depth[entry as usize] = 0;
    work.push_back(entry as usize);

    while let Some(at) = work.pop_front() {
        let d = depth[at];
        let op = ops[at];

        // locals bound check (fused IncrLocal reads and writes its slot)
        if let Op::LoadLocal(s) | Op::StoreLocal(s) | Op::IncrLocal(s, _) = op {
            if s >= n_locals {
                return Err(VerifyError::LocalOutOfRange {
                    at,
                    slot: s,
                    frame: n_locals,
                });
            }
        }
        note_state(&mut region.state, op);

        let (need, delta) = match op {
            Op::Call(id) => {
                let func = program
                    .funcs()
                    .get(id as usize)
                    .ok_or(VerifyError::UnknownFunction { at, id })?;
                (func.arity as i32, 1 - func.arity as i32)
            }
            // Ret hands the callee's one operand, its result, to the
            // caller and ends the path.
            Op::Ret => {
                if top_level {
                    return Err(VerifyError::RetAtTopLevel { at });
                }
                if d > 1 {
                    return Err(VerifyError::RetLeavesOperands { at, depth: d });
                }
                (1, 0)
            }
            other => (other.stack_need(), other.stack_delta()),
        };

        if d < need {
            return Err(VerifyError::Underflow { at, need, have: d });
        }
        let after = d + delta;
        region.peak = region.peak.max(after as usize);
        if let Op::Call(id) = op {
            region.calls.push((id as usize + 1, (d - need) as usize));
        }

        let mut push_edge = |target: usize, depth_in: i32| -> Result<(), VerifyError> {
            if target >= ops.len() {
                return Err(VerifyError::FallsOffEnd { entry });
            }
            if depth[target] == -1 {
                depth[target] = depth_in;
                work.push_back(target);
            } else if depth[target] != depth_in {
                return Err(VerifyError::InconsistentStack {
                    at: target,
                    a: depth[target],
                    b: depth_in,
                });
            }
            Ok(())
        };

        match op {
            Op::Jmp(t) => {
                if t as usize >= ops.len() {
                    return Err(VerifyError::JumpOutOfRange { at, target: t });
                }
                push_edge(t as usize, after)?;
            }
            Op::JmpIf(t) | Op::JmpIfNot(t) | Op::CmpBr(_, t) | Op::PushCmpBr(_, _, t) => {
                if t as usize >= ops.len() {
                    return Err(VerifyError::JumpOutOfRange { at, target: t });
                }
                push_edge(t as usize, after)?;
                push_edge(at + 1, after)?;
            }
            Op::Halt | Op::Drop | Op::ToController | Op::GotoTable | Op::Ret => {
                // terminators: no successors within the region
            }
            _ => {
                push_edge(at + 1, after)?;
            }
        }
    }
    Ok(region)
}

/// Record the state access `op` makes, if any.
fn note_state(state: &mut StateUse, op: Op) {
    match op {
        Op::LoadPkt(s) | Op::LoadPktAddImm(s, _) | Op::LoadPktMulImm(s, _) => state.packet.read(s),
        Op::StorePkt(s) => state.packet.write(s),
        Op::LoadMsg(s) => state.message.read(s),
        Op::StoreMsg(s) => state.message.write(s),
        Op::IncrMsg(s, _) => {
            state.message.read(s);
            state.message.write(s);
        }
        Op::LoadGlob(s) => state.global.read(s),
        Op::StoreGlob(s) => state.global.write(s),
        Op::IncrGlob(s, _) => {
            state.global.read(s);
            state.global.write(s);
        }
        Op::ArrLoad(a) | Op::ArrLen(a) => state.arrays.read(a),
        Op::ArrStore(a) => state.arrays.write(a),
        _ => {}
    }
}

/// Fold the regions reachable from the top level into one envelope: a
/// post-order walk of the call graph, so every callee's bound is final
/// before its callers add their own share on top. A call edge back into a
/// region still on the walk's path is recursion: no bound. The walk keeps
/// its own stack — a hostile function table may chain 65 536 deep.
fn fold_envelope(regions: &[Region]) -> Envelope {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unseen,
        OnPath,
        Done,
    }
    let mut mark = vec![Mark::Unseen; regions.len()];
    let mut bound = vec![Bound::default(); regions.len()];
    let mut state = StateUse::default();
    let mut recursive = false;
    // (region, index of the next call site to descend into)
    let mut path = vec![(0usize, 0usize)];
    mark[0] = Mark::OnPath;
    while let Some(&(r, next)) = path.last() {
        if let Some(&(callee, _)) = regions[r].calls.get(next) {
            path.last_mut().expect("just read").1 += 1;
            match mark[callee] {
                Mark::Unseen => {
                    mark[callee] = Mark::OnPath;
                    path.push((callee, 0));
                }
                Mark::OnPath => recursive = true,
                Mark::Done => {}
            }
            continue;
        }
        let region = &regions[r];
        let mut b = Bound {
            stack: region.peak,
            heap: 0,
            call_depth: 0,
        };
        for &(callee, base) in &region.calls {
            let c = bound[callee];
            b.stack = b.stack.max(base.saturating_add(c.stack));
            b.heap = b.heap.max(c.heap);
            b.call_depth = b.call_depth.max(c.call_depth + 1);
        }
        b.heap = b.heap.saturating_add(region.locals);
        bound[r] = b;
        state.merge(&region.state);
        mark[r] = Mark::Done;
        path.pop();
    }
    Envelope {
        bound: (!recursive).then_some(bound[0]),
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FuncInfo;

    fn prog(ops: Vec<Op>) -> Result<Program, VerifyError> {
        Program::new("t", ops, vec![], 4)
    }

    #[test]
    fn underflow_is_caught() {
        let e = prog(vec![Op::Add, Op::Halt]).unwrap_err();
        assert!(matches!(e, VerifyError::Underflow { at: 0, .. }));
    }

    #[test]
    fn falls_off_end_is_caught() {
        let e = prog(vec![Op::Push(1), Op::Pop]).unwrap_err();
        assert!(matches!(e, VerifyError::FallsOffEnd { .. }));
    }

    #[test]
    fn inconsistent_join_is_caught() {
        // branch: one arm pushes an extra value before the join
        let e = prog(vec![
            Op::Push(1),
            Op::JmpIf(4),
            Op::Push(2), // depth 1 at join
            Op::Jmp(4),
            Op::Halt, // reached with depth 0 and 1
        ])
        .unwrap_err();
        assert!(matches!(e, VerifyError::InconsistentStack { .. }));
    }

    #[test]
    fn local_bounds_checked() {
        let e = prog(vec![Op::LoadLocal(9), Op::Pop, Op::Halt]).unwrap_err();
        assert!(matches!(e, VerifyError::LocalOutOfRange { slot: 9, .. }));
    }

    #[test]
    fn ret_at_top_level_rejected() {
        let e = prog(vec![Op::Push(0), Op::Ret]).unwrap_err();
        assert!(matches!(e, VerifyError::RetAtTopLevel { at: 1 }));
    }

    fn func(entry: u32, arity: u8, n_locals: u8) -> FuncInfo {
        FuncInfo {
            entry,
            arity,
            n_locals,
        }
    }

    fn bound_of(p: &Program) -> (usize, usize, usize) {
        let b = p.envelope().bound.expect("not recursive");
        (b.stack, b.heap, b.call_depth)
    }

    #[test]
    fn ret_must_leave_exactly_the_result() {
        // the callee returns with two operands: the spare one would stay
        // on the caller's stack, below what `Call` is modelled to leave
        let e = Program::new(
            "t",
            vec![
                Op::Call(0),
                Op::Pop,
                Op::Halt,
                Op::Push(1), // 3
                Op::Push(2),
                Op::Ret,
            ],
            vec![func(3, 0, 0)],
            0,
        )
        .unwrap_err();
        assert_eq!(e, VerifyError::RetLeavesOperands { at: 5, depth: 2 });
    }

    #[test]
    fn envelope_is_exact_on_straight_lines_and_takes_the_deeper_arm() {
        let line = prog(vec![
            Op::Push(1),
            Op::Push(2),
            Op::Push(3),
            Op::Add,
            Op::Add,
            Op::Pop,
            Op::Halt,
        ])
        .unwrap();
        assert_eq!(bound_of(&line), (3, 4, 0), "4 entry locals, no calls");

        // one arm goes three deep, the other one: both count, whichever
        // a run takes
        let branchy = prog(vec![
            Op::LoadPkt(0),
            Op::JmpIfNot(7),
            Op::Push(1),
            Op::Push(2),
            Op::Push(3),
            Op::Add,
            Op::Jmp(9),
            Op::Push(4), // 7
            Op::Push(5),
            Op::Add, // 9: join at depth 2
            Op::StorePkt(1),
            Op::Halt,
        ])
        .unwrap();
        assert_eq!(bound_of(&branchy).0, 3);
    }

    #[test]
    fn envelope_stacks_callee_frames_on_the_caller() {
        // top: two operands parked, then f(7); f: one local beyond its
        // argument, calls g with two operands of its own parked; g: leaf
        let p = Program::new(
            "t",
            vec![
                Op::Push(10),
                Op::Push(20),
                Op::Push(7),
                Op::Call(0),
                Op::Add,
                Op::Add,
                Op::StorePkt(0),
                Op::Halt,
                // f at 8: arity 1, 2 locals
                Op::LoadLocal(0),
                Op::Push(1),
                Op::Call(1),
                Op::Add,
                Op::Add,
                Op::Ret,
                // g at 14: arity 0, 3 locals
                Op::Push(1),
                Op::Push(2),
                Op::Push(3),
                Op::Add,
                Op::Add,
                Op::Ret,
                // h at 20: never called, huge — must not count
                Op::Push(0),
                Op::Push(0),
                Op::Push(0),
                Op::Push(0),
                Op::Push(0),
                Op::Push(0),
                Op::Add,
                Op::Add,
                Op::Add,
                Op::Add,
                Op::Add,
                Op::StoreGlob(9),
                Op::Push(0),
                Op::Ret,
            ],
            vec![func(8, 1, 2), func(14, 0, 3), func(20, 0, 200)],
            1,
        )
        .unwrap();
        // stack: 2 parked by top + 2 parked by f + g's own 3
        // heap: 1 + 2 + 3; depth: top -> f -> g
        assert_eq!(bound_of(&p), (7, 6, 2));
        let state = &p.envelope().state;
        assert_eq!(state.packet.writes().iter().collect::<Vec<_>>(), vec![0]);
        assert!(
            state.global.writes().is_empty(),
            "the uncalled function's store is not the program's"
        );
    }

    #[test]
    fn recursion_direct_or_mutual_has_no_bound() {
        let direct = Program::new(
            "t",
            vec![Op::Call(0), Op::Pop, Op::Halt, Op::Call(0), Op::Ret],
            vec![func(3, 0, 0)],
            0,
        )
        .unwrap();
        assert_eq!(direct.envelope().bound, None);

        let mutual = Program::new(
            "t",
            vec![
                Op::Call(0),
                Op::Pop,
                Op::Halt,
                Op::Call(1), // 3: f -> g
                Op::Ret,
                Op::Call(0), // 5: g -> f
                Op::Ret,
            ],
            vec![func(3, 0, 0), func(5, 0, 0)],
            0,
        )
        .unwrap();
        assert_eq!(mutual.envelope().bound, None);

        // a cycle nobody reaches from the top level is nobody's problem
        let unreached = Program::new(
            "t",
            vec![Op::Halt, Op::Call(0), Op::Ret],
            vec![func(1, 0, 0)],
            0,
        )
        .unwrap();
        assert_eq!(bound_of(&unreached), (0, 0, 0));

        // the same callee from two sites is a diamond, not a cycle
        let diamond = Program::new(
            "t",
            vec![
                Op::Call(0),
                Op::Call(1),
                Op::Add,
                Op::Pop,
                Op::Halt,
                Op::Call(1), // 5: f -> g
                Op::Ret,
                Op::Push(1), // 7: g
                Op::Ret,
            ],
            vec![func(5, 0, 0), func(7, 0, 0)],
            0,
        )
        .unwrap();
        assert_eq!(bound_of(&diamond), (2, 0, 2));
    }

    #[test]
    fn state_use_is_read_off_fused_ops_too() {
        let p = prog(vec![
            Op::IncrMsg(2, 1),
            Op::IncrGlob(5, -1),
            Op::LoadPktAddImm(3, 1),
            Op::LoadPktMulImm(1, 2),
            Op::Add,
            Op::ArrLoad(1),
            Op::Pop,
            Op::ArrLen(2),
            Op::Push(0),
            Op::ArrStore(0),
            Op::Halt,
        ])
        .unwrap();
        let s = &p.envelope().state;
        let ids = |set: &crate::host::SlotSet| set.iter().collect::<Vec<_>>();
        assert_eq!(ids(s.packet.reads()), vec![1, 3]);
        assert!(s.packet.writes().is_empty());
        assert_eq!(
            (ids(s.message.reads()), ids(s.message.writes())),
            (vec![2], vec![2])
        );
        assert_eq!(
            (ids(s.global.reads()), ids(s.global.writes())),
            (vec![5], vec![5])
        );
        assert_eq!(
            (ids(s.arrays.reads()), ids(s.arrays.writes())),
            (vec![1, 2], vec![0])
        );
        assert_eq!(
            (
                s.packet.slots(),
                s.message.slots(),
                s.global.slots(),
                s.arrays.slots()
            ),
            (4, 3, 6, 3)
        );
    }

    #[test]
    fn call_arity_checked() {
        // function 0 takes 2 args; caller pushes only 1
        let e = Program::new(
            "t",
            vec![
                Op::Push(1),
                Op::Call(0),
                Op::Pop,
                Op::Halt,
                // func 0 at 4:
                Op::Push(0),
                Op::Ret,
            ],
            vec![FuncInfo {
                entry: 4,
                arity: 2,
                n_locals: 2,
            }],
            0,
        )
        .unwrap_err();
        assert!(matches!(e, VerifyError::Underflow { at: 1, .. }));
    }

    #[test]
    fn valid_function_call_accepted() {
        let p = Program::new(
            "t",
            vec![
                Op::Push(3),
                Op::Push(4),
                Op::Call(0),
                Op::Pop,
                Op::Halt,
                // func 0 at 5: add its two args
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
        );
        assert!(p.is_ok());
    }

    #[test]
    fn unknown_function_rejected() {
        let e = Program::new("t", vec![Op::Call(7), Op::Pop, Op::Halt], vec![], 0).unwrap_err();
        assert!(matches!(e, VerifyError::UnknownFunction { id: 7, .. }));
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let e = prog(vec![Op::Jmp(99), Op::Halt]).unwrap_err();
        assert!(matches!(
            e,
            VerifyError::JumpOutOfRange { at: 0, target: 99 }
        ));
        let e = prog(vec![Op::Push(1), Op::JmpIf(1000), Op::Halt]).unwrap_err();
        assert!(matches!(
            e,
            VerifyError::JumpOutOfRange {
                at: 1,
                target: 1000
            }
        ));
        let e = prog(vec![Op::Push(1), Op::JmpIfNot(7), Op::Halt]).unwrap_err();
        assert!(matches!(
            e,
            VerifyError::JumpOutOfRange { at: 1, target: 7 }
        ));
    }

    #[test]
    fn bad_function_entry_rejected() {
        let e = Program::new(
            "t",
            vec![Op::Halt],
            vec![FuncInfo {
                entry: 5,
                arity: 0,
                n_locals: 0,
            }],
            0,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            VerifyError::BadFunctionEntry { id: 0, entry: 5 }
        ));
    }

    #[test]
    fn arity_exceeds_locals_rejected() {
        let e = Program::new(
            "t",
            vec![Op::Halt, Op::Push(0), Op::Ret],
            vec![FuncInfo {
                entry: 1,
                arity: 3,
                n_locals: 2,
            }],
            0,
        )
        .unwrap_err();
        assert!(matches!(e, VerifyError::ArityExceedsLocals { id: 0 }));
    }

    #[test]
    fn empty_program_rejected() {
        let e = prog(vec![]).unwrap_err();
        assert!(matches!(e, VerifyError::Empty));
    }

    #[test]
    fn too_large_program_rejected() {
        // one over the cap: all Halt, so it would otherwise verify
        let e = prog(vec![Op::Halt; MAX_PROGRAM_OPS + 1]).unwrap_err();
        assert!(matches!(e, VerifyError::TooLarge(n) if n == MAX_PROGRAM_OPS + 1));
        // at the cap: accepted
        assert!(prog(vec![Op::Halt; MAX_PROGRAM_OPS]).is_ok());
    }

    #[test]
    fn fused_ops_verify_like_their_expansions() {
        use crate::op::Cmp;
        // counting loop written entirely with superinstructions
        let p = prog(vec![
            Op::Push(0),
            Op::StoreLocal(0),
            Op::LoadLocal(0), // 2: head
            Op::PushCmpBr(Cmp::Ge, 10, 6),
            Op::IncrLocal(0, 1),
            Op::Jmp(2),
            Op::IncrGlob(0, 1), // 6
            Op::IncrMsg(1, -1),
            Op::LoadPktAddImm(0, 5),
            Op::LoadPktMulImm(1, 3),
            Op::CmpBr(Cmp::Lt, 12),
            Op::Halt,
            Op::AddImm(1), // 12: underflow here must be caught
            Op::Halt,
        ]);
        // AddImm at 12 is reached with depth 0 but needs 1
        assert!(matches!(
            p.unwrap_err(),
            VerifyError::Underflow { at: 12, .. }
        ));

        let ok = prog(vec![
            Op::Push(0),
            Op::StoreLocal(0),
            Op::LoadLocal(0), // 2: head
            Op::PushCmpBr(Cmp::Ge, 10, 6),
            Op::IncrLocal(0, 1),
            Op::Jmp(2),
            Op::LoadPktAddImm(0, 5), // 6
            Op::LoadPktMulImm(1, 3),
            Op::CmpBr(Cmp::Lt, 2),
            Op::Halt,
        ]);
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn fused_branch_targets_and_incr_slot_checked() {
        use crate::op::Cmp;
        let e = prog(vec![Op::Push(1), Op::PushCmpBr(Cmp::Eq, 1, 99), Op::Halt]).unwrap_err();
        assert!(matches!(
            e,
            VerifyError::JumpOutOfRange { at: 1, target: 99 }
        ));
        let e = prog(vec![
            Op::Push(1),
            Op::Push(2),
            Op::CmpBr(Cmp::Ne, 77),
            Op::Halt,
        ])
        .unwrap_err();
        assert!(matches!(
            e,
            VerifyError::JumpOutOfRange { at: 2, target: 77 }
        ));
        let e = prog(vec![Op::IncrLocal(9, 1), Op::Halt]).unwrap_err();
        assert!(matches!(e, VerifyError::LocalOutOfRange { slot: 9, .. }));
        // compare-branch arms that rejoin with different depths are caught
        let e = prog(vec![
            Op::Push(1),
            Op::PushCmpBr(Cmp::Gt, 0, 3),
            Op::Push(7), // fallthrough arm pushes
            Op::Halt,    // 3: join with depth 0 (taken) vs 1 (fallthrough)
        ])
        .unwrap_err();
        assert!(matches!(e, VerifyError::InconsistentStack { .. }));
    }

    #[test]
    fn loops_verify() {
        // while (x != 0) x -= 1  with x in local 0
        let p = Program::new(
            "loop",
            vec![
                Op::Push(10),
                Op::StoreLocal(0),
                Op::LoadLocal(0), // 2: loop head
                Op::JmpIfNot(8),
                Op::LoadLocal(0),
                Op::Push(1),
                Op::Sub,
                Op::StoreLocal(0),
                Op::Halt, // 8 — wait, jump back missing
            ],
            vec![],
            1,
        );
        // note: intentionally a straight-line variant; real loop below
        assert!(p.is_ok());

        let p2 = Program::new(
            "loop2",
            vec![
                Op::Push(10),
                Op::StoreLocal(0),
                Op::LoadLocal(0), // 2: head
                Op::JmpIfNot(9),
                Op::LoadLocal(0),
                Op::Push(1),
                Op::Sub,
                Op::StoreLocal(0),
                Op::Jmp(2),
                Op::Halt, // 9
            ],
            vec![],
            1,
        );
        assert!(p2.is_ok());
    }
}
