//! Property tests for the interpreter and verifier.
//!
//! Two invariants matter for Eden's safety story:
//!
//! 1. **Verifier soundness** — a program accepted by the verifier never
//!    underflows the operand stack, never jumps out of range, and never
//!    touches a local outside its frame at runtime. We generate random
//!    expression trees, compile them naively, and run them: any
//!    `StackUnderflow`/`BadJump`/`BadLocal` is a bug.
//! 2. **Interpreter correctness** — the VM agrees with a direct Rust
//!    reference evaluation of the same expression tree.

use eden_vm::{Interpreter, Limits, Op, Program, VecHost, VmError};
use proptest::prelude::*;

/// A tiny expression language: exactly what action functions do with values.
#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Pkt(u8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Expr::Const),
        (0u8..4).prop_map(Expr::Pkt),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn eval(e: &Expr, pkt: &[i64]) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Pkt(s) => pkt[*s as usize],
        Expr::Add(a, b) => eval(a, pkt).wrapping_add(eval(b, pkt)),
        Expr::Sub(a, b) => eval(a, pkt).wrapping_sub(eval(b, pkt)),
        Expr::Mul(a, b) => eval(a, pkt).wrapping_mul(eval(b, pkt)),
        Expr::Lt(a, b) => (eval(a, pkt) < eval(b, pkt)) as i64,
        Expr::If(c, t, f) => {
            if eval(c, pkt) != 0 {
                eval(t, pkt)
            } else {
                eval(f, pkt)
            }
        }
    }
}

/// Naive stack-code emission with absolute-jump fixups.
fn emit(e: &Expr, ops: &mut Vec<Op>) {
    match e {
        Expr::Const(v) => ops.push(Op::Push(*v)),
        Expr::Pkt(s) => ops.push(Op::LoadPkt(*s)),
        Expr::Add(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(Op::Add);
        }
        Expr::Sub(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(Op::Sub);
        }
        Expr::Mul(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(Op::Mul);
        }
        Expr::Lt(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(Op::Lt);
        }
        Expr::If(c, t, f) => {
            emit(c, ops);
            let br = ops.len();
            ops.push(Op::JmpIfNot(0)); // patched
            emit(t, ops);
            let out = ops.len();
            ops.push(Op::Jmp(0)); // patched
            let else_at = ops.len() as u32;
            emit(f, ops);
            let end = ops.len() as u32;
            ops[br] = Op::JmpIfNot(else_at);
            ops[out] = Op::Jmp(end);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vm_matches_reference_eval(e in arb_expr(), pkt in proptest::collection::vec(-100i64..100, 4)) {
        let mut ops = Vec::new();
        emit(&e, &mut ops);
        ops.push(Op::StoreMsg(0));
        ops.push(Op::Halt);
        let program = Program::new("prop", ops, vec![], 0).expect("verifier must accept emitted code");

        let mut host = VecHost::with_slots(4, 1, 0);
        host.packet.copy_from_slice(&pkt);
        let mut interp = Interpreter::new(Limits {
            max_stack: 256,
            ..Limits::default()
        });
        interp.run(&program, &mut host).expect("verified straight-line code cannot trap");
        prop_assert_eq!(host.msg[0], eval(&e, &pkt));
    }

    #[test]
    fn verified_programs_never_underflow(e in arb_expr()) {
        let mut ops = Vec::new();
        emit(&e, &mut ops);
        ops.push(Op::Pop);
        ops.push(Op::Halt);
        let program = Program::new("prop", ops, vec![], 0).unwrap();
        let mut host = VecHost::with_slots(4, 0, 0);
        let mut interp = Interpreter::new(Limits {
            max_stack: 256,
            ..Limits::default()
        });
        match interp.run(&program, &mut host) {
            Ok(_) => {}
            Err(VmError::StackOverflow) => {} // budget, not soundness
            Err(other) => prop_assert!(false, "unexpected trap: {other}"),
        }
    }

    #[test]
    fn truncated_programs_never_pass_both_verify_and_trap_unsafely(
        e in arb_expr(),
        cut in 1usize..10,
    ) {
        // Chop the tail off a valid program: the verifier must either reject
        // it, or the interpreter must run it without panicking.
        let mut ops = Vec::new();
        emit(&e, &mut ops);
        ops.push(Op::Pop);
        ops.push(Op::Halt);
        let n = ops.len().saturating_sub(cut).max(1);
        ops.truncate(n);
        if let Ok(program) = Program::new("cut", ops, vec![], 0) {
            let mut host = VecHost::with_slots(4, 0, 0);
            let mut interp = Interpreter::new(Limits {
                max_stack: 256,
                fuel: Some(10_000),
                ..Limits::default()
            });
            let _ = interp.run(&program, &mut host); // must not panic
        }
    }

    #[test]
    fn envelope_bounds_every_run_and_is_exact_without_branches(
        e in arb_expr(), pkt in proptest::collection::vec(-5i64..5, 4),
    ) {
        let mut ops = Vec::new();
        emit(&e, &mut ops);
        ops.push(Op::Pop);
        ops.push(Op::Halt);
        // no jump in the stream: the one path the verifier walks is the
        // one a run takes, so what a run reaches *is* the static bound
        let straight = !ops.iter().any(|op| matches!(op, Op::Jmp(_) | Op::JmpIfNot(_)));
        let program = Program::new("prop", ops, vec![], 4).unwrap();
        let limits = Limits { max_stack: 256, ..Limits::default() };
        let mut host = VecHost::with_slots(4, 0, 0);
        host.packet.copy_from_slice(&pkt);
        let mut interp = Interpreter::new(limits);
        interp.set_opcode_profiling(true);
        let bound = program.envelope().fits(&limits).expect("expression depth is small");
        interp.run(&program, &mut host).expect("the expression language cannot trap");
        let seen = interp.observed_peaks().expect("profiling is on");
        prop_assert_eq!(interp.usage().peak_stack, bound.stack);
        prop_assert_eq!((seen.heap, seen.call_depth), (4, 0));
        prop_assert!(seen.stack <= bound.stack, "reached {:?}, bound {:?}", seen, bound);
        if straight {
            prop_assert_eq!(seen, bound);
        }
    }
}
