//! Three-way compiler differential: plain, optimized, fused.
//!
//! Every generated source is compiled three ways — HIR straight to
//! bytecode (`optimize: false, fuse: false`), with the HIR folder and the
//! machine-independent IR passes (`optimize: true, fuse: false`), and with
//! codec-v2 superinstruction fusion on top (`optimize: true, fuse: true`).
//! All builds must agree on the verdict, every header/state word, every
//! recorded effect, the clock, and the host RNG stream. Resources are the
//! one place the optimizer is *allowed* to change behaviour — a folded
//! expression legitimately needs less stack and fewer steps. Memory is
//! settled before a program starts: a case where any build's static
//! envelope is over the limits (non-tail recursion, mostly) is counted as
//! refused at admission and not run. Steps are not: a case where any
//! build runs out of fuel is counted and skipped. What is left has no
//! excuse — an admitted build that traps on stack, heap or call depth, or
//! reaches past its envelope, is a finding like any divergence.

use crate::gen_source::{body_lines, gen_case, render, SchemaDesc, SourceCase};
use crate::minimize::ddmin;
use crate::report::{Failure, OracleReport};
use crate::rng::FuzzRng;
use eden_lang::{compile_with_options, CompileOptions, Schema};
use eden_vm::{Host, Interpreter, Limits, Outcome, VecHost, VmError};

/// Generous but bounded: catalogues-scale programs need hundreds of
/// steps; only genuinely runaway loops burn this.
const FUEL: u64 = 200_000;
const MINIMIZE_BUDGET: usize = 400;

/// The three builds under comparison, least to most transformed. The first
/// entry is the reference the others are diffed against.
const MODES: [(&str, CompileOptions); 3] = [
    (
        "plain",
        CompileOptions {
            optimize: false,
            fuse: false,
        },
    ),
    (
        "optimized",
        CompileOptions {
            optimize: true,
            fuse: false,
        },
    ),
    (
        "fused",
        CompileOptions {
            optimize: true,
            fuse: true,
        },
    ),
];

/// Host contents shared verbatim by all builds.
#[derive(Debug, Clone)]
struct HostSpec {
    packet: Vec<i64>,
    msg: Vec<i64>,
    global: Vec<i64>,
    arrays: Vec<Vec<i64>>,
    rng_seed: u64,
}

fn gen_host_spec(rng: &mut FuzzRng, desc: &SchemaDesc) -> HostSpec {
    let fill = |rng: &mut FuzzRng, n: usize| -> Vec<i64> {
        (0..n).map(|_| rng.interesting_i64()).collect()
    };
    let packet = fill(rng, desc.pkt.len());
    let msg = fill(rng, desc.msg.len());
    let global = fill(rng, desc.glob.len());
    let arrays = desc
        .arrays
        .iter()
        .map(|(_, fields, _)| {
            let stride = fields.len().max(1);
            let elems = rng.range(0, 5);
            fill(rng, stride * elems)
        })
        .collect();
    HostSpec {
        packet,
        msg,
        global,
        arrays,
        rng_seed: rng.next_u64(),
    }
}

fn build_host(spec: &HostSpec) -> VecHost {
    let mut h = VecHost::default();
    h.packet = spec.packet.clone();
    h.msg = spec.msg.clone();
    h.global = spec.global.clone();
    h.arrays = spec.arrays.clone();
    h.seed(spec.rng_seed);
    h
}

/// One build's observable universe: the result, the final host, and one
/// post-run RNG draw (the only way to observe that all hosts' private RNG
/// states advanced in lockstep).
struct Observed {
    result: Result<Outcome, VmError>,
    host: VecHost,
    post_rng: i64,
    /// How far past its static envelope the run reached, if it did.
    overran: Option<String>,
}

/// Run one build, or `None` if it is refused at admission.
fn execute(program: &eden_vm::Program, spec: &HostSpec) -> Option<Observed> {
    let mut host = build_host(spec);
    let limits = Limits {
        fuel: Some(FUEL),
        ..Limits::default()
    };
    let envelope = program.envelope();
    let bound = envelope.fits(&limits).ok()?;
    host.admit(&envelope.state).ok()?;
    let mut interp = Interpreter::new(limits);
    interp.set_opcode_profiling(true);
    let result = interp.run(program, &mut host);
    let seen = interp.observed_peaks().expect("profiling is on");
    let overran =
        (!bound.covers(&seen)).then(|| format!("reached {seen:?} past its envelope {bound:?}"));
    let post_rng = host.rand64();
    Some(Observed {
        result,
        host,
        post_rng,
        overran,
    })
}

/// A trap admission exists to rule out.
fn is_memory_trap(r: &Result<Outcome, VmError>) -> bool {
    matches!(
        r,
        Err(VmError::StackOverflow | VmError::CallDepthExceeded | VmError::HeapOverflow)
    )
}

/// What one case did, for the report's tallies.
enum CaseResult {
    Agree(&'static str),
    /// Some build's envelope is over the limits: nothing was run.
    RefusedAtAdmission,
    /// Some build ran out of steps; how far each got is its own business.
    OutOfFuel,
    CompileError,
    Diverged(String),
    /// Not every build compiled — itself a differential failure.
    CompileDiverged(String),
}

fn outcome_tag(r: &Result<Outcome, VmError>) -> &'static str {
    match r {
        Ok(Outcome::Done) => "outcome.done",
        Ok(Outcome::Dropped) => "outcome.dropped",
        Ok(Outcome::SentToController) => "outcome.to_controller",
        Ok(Outcome::GotoTable(_)) => "outcome.goto_table",
        Err(_) => "outcome.trap",
    }
}

/// First observable difference between the reference build and `other`,
/// if any.
fn diff(reference: &Observed, other: &Observed, name: &str) -> Option<String> {
    let a = reference;
    let b = other;
    if a.result != b.result {
        return Some(format!(
            "result: plain={:?} {name}={:?}",
            a.result, b.result
        ));
    }
    if a.host.packet != b.host.packet {
        return Some(format!(
            "packet state: plain={:?} {name}={:?}",
            a.host.packet, b.host.packet
        ));
    }
    if a.host.msg != b.host.msg {
        return Some(format!(
            "msg state: plain={:?} {name}={:?}",
            a.host.msg, b.host.msg
        ));
    }
    if a.host.global != b.host.global {
        return Some(format!(
            "global state: plain={:?} {name}={:?}",
            a.host.global, b.host.global
        ));
    }
    if a.host.arrays != b.host.arrays {
        return Some(format!(
            "arrays: plain={:?} {name}={:?}",
            a.host.arrays, b.host.arrays
        ));
    }
    if a.host.effects != b.host.effects {
        return Some(format!(
            "effects: plain={:?} {name}={:?}",
            a.host.effects, b.host.effects
        ));
    }
    if a.host.clock != b.host.clock {
        return Some(format!(
            "clock (now() draws): plain={} {name}={}",
            a.host.clock, b.host.clock
        ));
    }
    if a.post_rng != b.post_rng {
        return Some(format!("host RNG stream out of lockstep (plain vs {name})"));
    }
    None
}

/// Compile all three ways and compare runs pairwise against the plain
/// build.
fn check(source: &str, schema: &Schema, spec: &HostSpec) -> CaseResult {
    let builds: Vec<_> = MODES
        .iter()
        .map(|(name, opts)| (*name, compile_with_options("fuzz", source, schema, *opts)))
        .collect();
    if builds.iter().all(|(_, b)| b.is_err()) {
        return CaseResult::CompileError;
    }
    if let Some((name, Err(e))) = builds.iter().find(|(_, b)| b.is_err()) {
        let ok: Vec<&str> = builds
            .iter()
            .filter(|(_, b)| b.is_ok())
            .map(|(n, _)| *n)
            .collect();
        return CaseResult::CompileDiverged(format!(
            "build '{name}' fails to compile while {ok:?} succeed: {e}"
        ));
    }
    let observed: Option<Vec<(&str, Observed)>> = builds
        .into_iter()
        .map(|(name, b)| Some((name, execute(&b.expect("checked above").program, spec)?)))
        .collect();
    let Some(observed) = observed else {
        return CaseResult::RefusedAtAdmission;
    };
    for (name, o) in &observed {
        if is_memory_trap(&o.result) {
            return CaseResult::Diverged(format!(
                "build '{name}' was admitted and then trapped: {:?}",
                o.result
            ));
        }
        if let Some(detail) = &o.overran {
            return CaseResult::Diverged(format!("build '{name}' {detail}"));
        }
    }
    if observed
        .iter()
        .any(|(_, o)| o.result == Err(VmError::OutOfFuel))
    {
        return CaseResult::OutOfFuel;
    }
    let (_, reference) = &observed[0];
    for (name, other) in &observed[1..] {
        if let Some(detail) = diff(reference, other, name) {
            return CaseResult::Diverged(detail);
        }
    }
    CaseResult::Agree(outcome_tag(&reference.result))
}

/// Shrink a diverging source to fewer body lines that still diverge.
fn minimize_source(case: &SourceCase, spec: &HostSpec) -> String {
    let schema = case.desc.to_schema();
    let lines = body_lines(&case.source);
    let kept = ddmin(&lines, MINIMIZE_BUDGET, |cand| {
        let src = render(cand);
        matches!(
            check(&src, &schema, spec),
            CaseResult::Diverged(_) | CaseResult::CompileDiverged(_)
        )
    });
    render(&kept)
}

pub fn run(seed: u64, start: u64, cases: u64) -> OracleReport {
    let mut rep = OracleReport::new("compiler-diff");
    for index in start..start + cases {
        rep.cases += 1;
        let mut rng = FuzzRng::for_case(seed, "compiler-diff", index);
        // every fourth case is a rendered random-XFSM machine: the
        // builder guarantees it is well-formed, so these concentrate on
        // the structured dispatch/guard/timeout shapes the catalogue
        // lowers to rather than grammar breadth
        let xfsm = index % 4 == 3;
        let case = if xfsm {
            crate::gen_xfsm::gen_case(&mut rng)
        } else {
            gen_case(&mut rng)
        };
        let spec = gen_host_spec(&mut rng, &case.desc);
        let schema = case.desc.to_schema();
        if xfsm {
            rep.note("xfsm_cases", 1);
        }
        match check(&case.source, &schema, &spec) {
            CaseResult::Agree(tag) => rep.note(tag, 1),
            CaseResult::RefusedAtAdmission => {
                rep.skips += 1;
                rep.note("refused_at_admission", 1);
            }
            CaseResult::OutOfFuel => {
                rep.skips += 1;
                rep.note("out_of_fuel", 1);
            }
            CaseResult::CompileError => rep.note("compile_errors", 1),
            CaseResult::Diverged(detail) => {
                // rendered machines are whole-program artifacts — line
                // deletion breaks the dispatch structure, so ship the
                // source as-is instead of minimizing
                let repro = if xfsm {
                    case.source.clone()
                } else {
                    minimize_source(&case, &spec)
                };
                rep.failures.push(Failure {
                    oracle: "compiler-diff",
                    index,
                    detail,
                    repro: format!("{repro}\nschema: {:?}\nhost: {spec:?}", case.desc),
                });
            }
            CaseResult::CompileDiverged(detail) => {
                let repro = if xfsm {
                    case.source.clone()
                } else {
                    minimize_source(&case, &spec)
                };
                rep.failures.push(Failure {
                    oracle: "compiler-diff",
                    index,
                    detail,
                    repro: format!("{repro}\nschema: {:?}", case.desc),
                });
            }
        }
    }
    // keep an eye on generator health: the oracle is only as good as its
    // ability to produce compiling programs
    let compiled = rep
        .notes
        .iter()
        .filter(|(k, _)| k.starts_with("outcome."))
        .map(|(_, v)| v)
        .sum::<u64>();
    rep.note("compiled_and_ran", compiled);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_clean() {
        let a = run(7, 0, 60);
        let b = run(7, 0, 60);
        assert_eq!(a.failures.len(), 0, "divergences: {:?}", a.failures);
        assert_eq!(a.notes, b.notes);
        assert_eq!(a.skips, b.skips);
        // the generator must mostly produce programs that compile and run
        let compiled = a
            .notes
            .iter()
            .find(|(k, _)| k == "compiled_and_ran")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(
            compiled >= 40,
            "generator health: only {compiled}/60 cases compiled: {:?}",
            a.notes
        );
        // the XFSM arm took its quarter of the run
        let xfsm = a
            .notes
            .iter()
            .find(|(k, _)| k == "xfsm_cases")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(xfsm, 15, "expected 60/4 xfsm cases: {:?}", a.notes);
    }

    #[test]
    fn generated_machines_always_compile() {
        // the builder's contract: a machine that passes validate() renders
        // to source every build accepts — compile errors here are renderer
        // bugs, not fuzz noise
        for index in 0..40 {
            let mut rng = FuzzRng::for_case(11, "xfsm-gen", index);
            let case = crate::gen_xfsm::gen_case(&mut rng);
            let schema = case.desc.to_schema();
            for (name, opts) in MODES {
                if let Err(e) = compile_with_options("fuzz", &case.source, &schema, opts) {
                    panic!(
                        "case {index} build '{name}' rejected a rendered machine: {}\n{}",
                        e.render(&case.source),
                        case.source
                    );
                }
            }
        }
    }

    #[test]
    fn fused_build_actually_uses_superinstructions() {
        // guard against the oracle silently comparing three identical
        // builds: the catalogue-style loop below must fuse
        let schema = eden_lang::Schema::new()
            .packet_field("A", eden_lang::Access::ReadWrite, None)
            .packet_field("B", eden_lang::Access::ReadWrite, None);
        let src = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let rec count acc =
        if acc >= 10 then acc
        else count (acc + 1)
    packet.B <- packet.A + count (0)
"#;
        let fused = compile_with_options("t", src, &schema, MODES[2].1).unwrap();
        let plain = compile_with_options("t", src, &schema, MODES[0].1).unwrap();
        let fused_v2 = fused
            .program
            .ops()
            .iter()
            .filter(|op| op.min_version() >= 2)
            .count();
        assert!(
            fused_v2 > 0,
            "expected v2 superinstructions in fused build: {:?}",
            fused.program.ops()
        );
        assert!(
            fused.program.ops().len() < plain.program.ops().len(),
            "fused build should be shorter: fused={} plain={}",
            fused.program.ops().len(),
            plain.program.ops().len()
        );
    }
}
