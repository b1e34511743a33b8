//! # eden-fuzz — differential fuzzing & conformance for the action-function pipeline
//!
//! Four oracles, each deterministic and seed-replayable:
//!
//! * **compiler-diff** — every generated eden-lang source is compiled
//!   three ways (plain, IR-optimized, superinstruction-fused); all builds
//!   must agree on the outcome, every header/state word, every recorded
//!   effect, and the RNG stream. Every fourth case comes from the
//!   random-XFSM arm ([`gen_xfsm`]): a machine built through the
//!   `eden_lang::xfsm` builder and rendered to source, so the structured
//!   dispatch/guard/timeout shapes real catalogue functions lower to get
//!   their own coverage.
//! * **exec-diff** — every catalogue function's interpreted and native
//!   forms must agree packet for packet (and the batched path must agree
//!   with the serial path — the PR 2 equivalence, re-checked from random
//!   streams here), and no interpreted run may reach past the static
//!   envelope the function was installed on.
//! * **verifier** — any program accepted by `eden_vm::verify` must never
//!   trap with a verifier-class error (underflow, bad jump/local/function,
//!   top-level ret) at runtime, and one the interpreter admits must never
//!   trap on stack, heap, call depth or a state slot, nor leave its
//!   envelope; rejected programs are tallied per pinned
//!   [`eden_vm::VerifyError`] variant, refused ones as such.
//! * **codec** — mutated `eden-vm` wire bytes and `eden-ctrl` proto
//!   frames must round-trip or return an error: never panic, never
//!   over-allocate past the reassembler bound.
//!
//! Every case derives its RNG stream from `(seed, oracle, index)`
//! ([`FuzzRng::for_case`]), so the report is byte-identical across runs
//! and any failing case replays in isolation. Failures are shrunk with
//! [`minimize::ddmin`] before reporting.

pub mod gen_bytecode;
pub mod gen_source;
pub mod gen_xfsm;
pub mod minimize;
pub mod oracle_codec;
pub mod oracle_compiler;
pub mod oracle_exec;
pub mod oracle_verifier;
pub mod report;
pub mod rng;

pub use report::{Failure, OracleReport, Report};
pub use rng::FuzzRng;

/// Every oracle, in the fixed order the report uses.
pub const ORACLES: [&str; 4] = ["compiler-diff", "exec-diff", "verifier", "codec"];

/// Run `cases` cases of one oracle starting at `start`, under `seed`.
pub fn run_oracle(name: &str, seed: u64, start: u64, cases: u64) -> OracleReport {
    match name {
        "compiler-diff" => oracle_compiler::run(seed, start, cases),
        "exec-diff" => oracle_exec::run(seed, start, cases),
        "verifier" => oracle_verifier::run(seed, start, cases),
        "codec" => oracle_codec::run(seed, start, cases),
        other => panic!("unknown oracle '{other}' (expected one of {ORACLES:?})"),
    }
}

/// Per-oracle share of a [`run_all`] budget, parallel to [`ORACLES`]. The
/// compiler differential gets a triple share: the three-way
/// (plain/optimized/fused) comparison is the oracle standing most directly
/// behind the IR passes and the superinstruction selector, and since the
/// XFSM arm joined it also stands behind the machine renderer, so it gets
/// the most throughput per smoke run.
const WEIGHTS: [u64; 4] = [3, 1, 1, 1];

/// Run all four oracles, splitting `cases` by `WEIGHTS` (the last oracle
/// absorbs rounding), and assemble the full report.
pub fn run_all(seed: u64, cases: u64) -> Report {
    let total: u64 = WEIGHTS.iter().sum();
    let mut oracles = Vec::new();
    let mut assigned = 0;
    for (i, name) in ORACLES.iter().enumerate() {
        let share = if i + 1 == ORACLES.len() {
            cases - assigned
        } else {
            cases * WEIGHTS[i] / total
        };
        assigned += share;
        oracles.push(run_oracle(name, seed, 0, share));
    }
    Report {
        seed,
        cases,
        oracles,
    }
}
