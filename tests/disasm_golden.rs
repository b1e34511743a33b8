//! Golden disassembly of catalogue bundles, end to end through the
//! default compiler pipeline (HIR → IR passes → superinstruction fusion).
//!
//! The golden files pin three things at once: the disassembler's output
//! format (labels, jump-target comments, the static opcode histogram), the
//! exact bytecode the pipeline emits for each pinned bundle, and, via the
//! histogram, which superinstructions fusion selects. An intentional
//! compiler or disassembler change should update `tests/golden/*.disasm`
//! in the same commit and say why.

use eden::apps::functions::{self, FunctionBundle};

/// Compile `bundle` and compare its disassembly with `want`, the
/// contents of `tests/golden/<name>.disasm`.
fn assert_golden(bundle: FunctionBundle, want: &str) {
    let compiled = eden::lang::compile(bundle.name, &bundle.source, &bundle.schema())
        .unwrap_or_else(|e| panic!("{} does not compile: {e:?}", bundle.name));
    let got = eden::vm::disassemble(&compiled.program);
    assert_eq!(
        got, want,
        "disassembly of '{0}' diverged from tests/golden/{0}.disasm;\n\
         if the pipeline or XFSM-renderer change is intentional, regenerate",
        bundle.name
    );
}

/// SFF, the paper's flagship function, hand-written source.
#[test]
fn sff_disassembly_matches_golden() {
    assert_golden(functions::sff(), include_str!("golden/sff.disasm"));
}

/// The bundles below go through the XFSM builder: each golden file
/// freezes the rendered eden-lang source's lowering, so a renderer change
/// that alters the emitted dispatch/helper shape shows up as a bytecode
/// diff even if every behavior test still passes.
#[test]
fn l4lb_disassembly_matches_golden() {
    assert_golden(functions::l4lb(), include_str!("golden/l4lb.disasm"));
}

#[test]
fn pias_disassembly_matches_golden() {
    assert_golden(functions::pias(), include_str!("golden/pias.disasm"));
}

#[test]
fn pias_fig7_disassembly_matches_golden() {
    assert_golden(
        functions::pias_fig7(),
        include_str!("golden/pias-fig7.disasm"),
    );
}

#[test]
fn pulsar_disassembly_matches_golden() {
    assert_golden(functions::pulsar(), include_str!("golden/pulsar.disasm"));
}

#[test]
fn qjump_disassembly_matches_golden() {
    assert_golden(functions::qjump(), include_str!("golden/qjump.disasm"));
}

#[test]
fn port_knock_disassembly_matches_golden() {
    assert_golden(
        functions::port_knock(),
        include_str!("golden/port-knock.disasm"),
    );
}

#[test]
fn conntrack_disassembly_matches_golden() {
    assert_golden(
        functions::conntrack(),
        include_str!("golden/conntrack.disasm"),
    );
}

#[test]
fn sff_golden_contains_fused_opcodes() {
    // Guard against the golden file being regenerated with fusion off.
    let want = include_str!("golden/sff.disasm");
    for mnemonic in ["mulimm", "addimm", "cmpbr"] {
        assert!(
            want.contains(mnemonic),
            "golden disasm should show superinstruction '{mnemonic}'"
        );
    }
}
