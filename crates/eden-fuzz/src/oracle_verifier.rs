//! Verifier soundness: "accepted means it never traps with a
//! verifier-class error", and "admitted means it never leaves its
//! envelope".
//!
//! Wild and structured raw programs go through [`eden_vm::Program::new`]
//! (which runs the verifier). Rejections are tallied per pinned
//! [`VerifyError`] variant — a new variant, or a variant that stops
//! firing, shows up as a tally shift in the deterministic report.
//! Acceptances are *executed*: if a verified program then traps with
//! `StackUnderflow`, `BadJump`, `BadLocal`, `BadFunction`, or
//! `ReturnFromTopLevel`, the verifier's core promise is broken and the
//! case is a failure (shrunk with ddmin over the op vector).
//!
//! The verifier also derives each program's static envelope, and the
//! interpreter admits a program on it instead of checking pushes, calls
//! and slots as they happen. A program over the limits, or touching a
//! slot the host lacks, is tallied as refused at admission and never
//! started. One that is admitted runs with the interpreter's high-water
//! tracking on: reaching past its envelope, or trapping with a stack,
//! heap, call-depth or state-slot error after admission, is a failure
//! too — admission and the checks it replaced must agree in the one
//! direction that matters.

use crate::gen_bytecode::{gen_structured, gen_wild, RawProgram, HOST_ARRAYS, HOST_SLOTS};
use crate::minimize::ddmin;
use crate::report::{Failure, OracleReport};
use crate::rng::FuzzRng;
use eden_vm::{
    disassemble, FuncInfo, Host, Interpreter, Limits, Op, Outcome, Program, VecHost, VerifyError,
    VmError,
};

const FUEL: u64 = 50_000;
const MINIMIZE_BUDGET: usize = 300;

fn verify_error_tag(e: &VerifyError) -> &'static str {
    match e {
        VerifyError::JumpOutOfRange { .. } => "rejected.JumpOutOfRange",
        VerifyError::FallsOffEnd { .. } => "rejected.FallsOffEnd",
        VerifyError::InconsistentStack { .. } => "rejected.InconsistentStack",
        VerifyError::Underflow { .. } => "rejected.Underflow",
        VerifyError::LocalOutOfRange { .. } => "rejected.LocalOutOfRange",
        VerifyError::UnknownFunction { .. } => "rejected.UnknownFunction",
        VerifyError::BadFunctionEntry { .. } => "rejected.BadFunctionEntry",
        VerifyError::ArityExceedsLocals { .. } => "rejected.ArityExceedsLocals",
        VerifyError::RetAtTopLevel { .. } => "rejected.RetAtTopLevel",
        VerifyError::RetLeavesOperands { .. } => "rejected.RetLeavesOperands",
        VerifyError::TooLarge(_) => "rejected.TooLarge",
        VerifyError::NameTooLong(_) => "rejected.NameTooLong",
        VerifyError::TooManyFunctions(_) => "rejected.TooManyFunctions",
        VerifyError::Empty => "rejected.Empty",
    }
}

/// Traps verification and admission rule out between them. Seeing one
/// from an admitted program is a soundness failure; what is left
/// (division, array index, effect operands, fuel) is legitimately dynamic.
fn is_forbidden_trap(e: &VmError) -> bool {
    matches!(
        e,
        VmError::StackUnderflow
            | VmError::BadJump(_)
            | VmError::BadLocal(_)
            | VmError::BadFunction(_)
            | VmError::ReturnFromTopLevel
            | VmError::StackOverflow
            | VmError::HeapOverflow
            | VmError::CallDepthExceeded
            | VmError::BadStateSlot { .. }
            | VmError::ReadOnlyViolation { .. }
    )
}

/// What became of one verified program.
enum Ran {
    /// Over the limits or outside the host's slots: never started.
    Refused,
    /// Admitted and run; `Err` is a soundness failure.
    Admitted(Result<Result<Outcome, VmError>, String>),
}

fn run_program(p: &Program, host_seed: u64) -> Ran {
    let mut host = VecHost::with_slots(
        HOST_SLOTS as usize,
        HOST_SLOTS as usize,
        HOST_SLOTS as usize,
    );
    for a in 0..HOST_ARRAYS {
        host.arrays.push(vec![(a as i64 + 1) * 3; 4]);
    }
    host.seed(host_seed);
    let limits = Limits {
        fuel: Some(FUEL),
        ..Limits::default()
    };
    let envelope = p.envelope();
    let Ok(bound) = envelope
        .fits(&limits)
        .and_then(|b| host.admit(&envelope.state).map(|()| b))
    else {
        return Ran::Refused;
    };
    let mut interp = Interpreter::new(limits);
    interp.set_opcode_profiling(true);
    let r = interp.run(p, &mut host);
    let seen = interp.observed_peaks().expect("profiling is on");
    Ran::Admitted(match &r {
        Err(e) if is_forbidden_trap(e) => Err(format!("admitted program trapped with {e:?}")),
        _ if !bound.covers(&seen) => Err(format!(
            "admitted program left its envelope: reached {seen:?}, bound {bound:?}"
        )),
        _ => Ok(r),
    })
}

/// Does this exact (ops, funcs) pair verify, get admitted and then break
/// a static promise? Used both for detection and as the ddmin predicate.
fn soundness_broken(
    ops: &[Op],
    funcs: &[FuncInfo],
    entry_locals: u8,
    host_seed: u64,
) -> Option<String> {
    let p = Program::new("fuzz", ops.to_vec(), funcs.to_vec(), entry_locals).ok()?;
    match run_program(&p, host_seed) {
        Ran::Admitted(Err(detail)) => Some(detail),
        _ => None,
    }
}

fn runtime_tag(r: &Ran) -> &'static str {
    match r {
        Ran::Refused => "accepted.refused_at_admission",
        Ran::Admitted(Ok(Ok(_))) => "accepted.ran_ok",
        Ran::Admitted(Ok(Err(VmError::OutOfFuel))) => "accepted.out_of_fuel",
        Ran::Admitted(Ok(Err(_))) => "accepted.dynamic_trap",
        Ran::Admitted(Err(_)) => "accepted.unsound",
    }
}

pub fn run(seed: u64, start: u64, cases: u64) -> OracleReport {
    let mut rep = OracleReport::new("verifier");
    for index in start..start + cases {
        rep.cases += 1;
        let mut rng = FuzzRng::for_case(seed, "verifier", index);
        // 3:1 wild to structured — wild explores the reject paths,
        // structured guarantees steady pressure on the accept path
        let raw: RawProgram = if rng.chance(3, 4) {
            gen_wild(&mut rng)
        } else {
            gen_structured(&mut rng)
        };
        let host_seed = rng.next_u64();
        match Program::new("fuzz", raw.ops.clone(), raw.funcs.clone(), raw.entry_locals) {
            Err(e) => rep.note(verify_error_tag(&e), 1),
            Ok(p) => {
                let r = run_program(&p, host_seed);
                rep.note(runtime_tag(&r), 1);
                if let Ran::Admitted(Err(detail)) = r {
                    // shrink the op vector; the predicate re-verifies, so
                    // every candidate that reaches the interpreter was
                    // itself verifier-approved
                    let kept = ddmin(&raw.ops, MINIMIZE_BUDGET, |cand| {
                        soundness_broken(cand, &raw.funcs, raw.entry_locals, host_seed).is_some()
                    });
                    let shrunk =
                        Program::new("repro", kept.clone(), raw.funcs.clone(), raw.entry_locals)
                            .expect("ddmin predicate only keeps verified candidates");
                    rep.failures.push(Failure {
                        oracle: "verifier",
                        index,
                        detail,
                        repro: format!(
                            "{}funcs: {:?}\nentry_locals: {}\nhost_seed: {host_seed}",
                            disassemble(&shrunk),
                            raw.funcs,
                            raw.entry_locals
                        ),
                    });
                }
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Envelope soundness on the accept path: a structured program is
    /// straight-line code over slots the host holds, so it is always
    /// admitted, never reaches past its envelope, and — when it runs to
    /// its `Halt` — reaches exactly it.
    #[test]
    fn structured_programs_reach_exactly_their_envelope() {
        let mut rng = FuzzRng::for_case(23, "envelope", 0);
        let mut completed = 0;
        for _ in 0..400 {
            let raw = gen_structured(&mut rng);
            let p = Program::new("s", raw.ops.clone(), raw.funcs, raw.entry_locals).unwrap();
            let bound = p.envelope().bound.expect("no calls, no recursion");
            let mut host = VecHost::with_slots(8, 8, 8);
            host.arrays = vec![vec![3; 4]; HOST_ARRAYS as usize];
            host.seed(rng.next_u64());
            let mut interp = Interpreter::new(Limits::default());
            interp.set_opcode_profiling(true);
            let r = interp.run(&p, &mut host);
            assert!(
                !matches!(&r, Err(e) if is_forbidden_trap(e)),
                "{r:?}\n{:?}",
                raw.ops
            );
            let seen = interp.observed_peaks().unwrap();
            assert!(
                bound.covers(&seen),
                "reached {seen:?}, bound {bound:?}\n{:?}",
                raw.ops
            );
            if r.is_ok() {
                assert_eq!(seen, bound, "{:?}", raw.ops);
                completed += 1;
            }
        }
        assert!(completed >= 100, "only {completed} of 400 ran to Halt");
    }

    #[test]
    fn smoke_run_is_deterministic_and_sound() {
        let a = run(11, 0, 300);
        let b = run(11, 0, 300);
        assert_eq!(a.failures.len(), 0, "soundness holes: {:?}", a.failures);
        assert_eq!(a.notes, b.notes);
        // both accept and reject paths must actually be exercised
        let accepted: u64 = a
            .notes
            .iter()
            .filter(|(k, _)| k.starts_with("accepted."))
            .map(|(_, v)| v)
            .sum();
        let rejected: u64 = a
            .notes
            .iter()
            .filter(|(k, _)| k.starts_with("rejected."))
            .map(|(_, v)| v)
            .sum();
        assert!(accepted >= 50, "too few accepted programs: {:?}", a.notes);
        assert!(rejected >= 50, "too few rejected programs: {:?}", a.notes);
    }
}
