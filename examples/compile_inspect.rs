//! Developer tool: compile a DSL action function and inspect everything the
//! controller would learn about it — effects, concurrency, bytecode,
//! shipped size — and everything an enclave settles when it installs it:
//! the static stack/heap/call-depth envelope it is admitted on and what
//! each of its slots is linked to. The debugging convenience §6 attributes
//! to the DSL approach ("run and debug the programs locally").
//!
//! Usage:
//!   cargo run --example compile_inspect            # inspects built-in PIAS
//!   cargo run --example compile_inspect -- FILE    # compiles FILE against
//!                                                  # the PIAS schema
//!
//! Exits non-zero with a rendered diagnostic (source line + caret) on
//! compile errors, so it doubles as a syntax checker; and non-zero with
//! the link error if a default enclave would refuse the function.

use eden::apps::functions;
use eden::core::{Enclave, EnclaveConfig, EnclaveOp, FuncId, SlotTarget};
use eden::lang::Scope;
use eden::vm::disassemble;

fn main() {
    let bundle = functions::pias_fig7();
    let (name, source) = match std::env::args().nth(1) {
        Some(path) => {
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            (path, src)
        }
        None => (
            "pias-fig7 (built-in)".to_string(),
            bundle.source.to_string(),
        ),
    };
    let schema = bundle.schema();

    println!("compiling '{name}' against the PIAS schema\n");
    let compiled = match eden::lang::compile("inspect", &source, &schema) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}", e.render(&source));
            std::process::exit(1);
        }
    };

    println!("== state bindings (Figure 8 annotations) ==");
    for f in schema.fields() {
        println!(
            "  {:<8} {:<12} {:?} header={:?}",
            f.scope.to_string(),
            f.name,
            f.access,
            f.header
        );
    }
    for a in schema.arrays() {
        println!(
            "  global   {:<12} array of {:?} ({:?})",
            a.name, a.fields, a.access
        );
    }

    println!("\n== derived effects ==");
    let e = &compiled.program.envelope().state;
    for (scope, used) in [
        ("packet", &e.packet),
        ("message", &e.message),
        ("global", &e.global),
        ("arrays", &e.arrays),
    ] {
        println!(
            "  {scope} reads {:?} writes {:?}",
            used.reads(),
            used.writes()
        );
    }
    println!("  concurrency: {}", compiled.concurrency);

    println!(
        "\n== bytecode ({} ops, ships as {} bytes) ==",
        compiled.program.ops().len(),
        eden::vm::encode_program(&compiled.program).len()
    );
    println!("{}", disassemble(&compiled.program));

    // what an enclave with the default limits makes of it at install
    let mut enclave = Enclave::new(EnclaveConfig::default());
    if let Err(e) = enclave.apply([EnclaveOp::ship("inspect", &compiled)]) {
        eprintln!("a default enclave refuses this function: {e}");
        std::process::exit(1);
    }
    let info = enclave.link_info(FuncId(0));

    println!("== static envelope (what the enclave admits it on) ==");
    match info.envelope.and_then(|e| e.bound) {
        Some(b) => {
            println!(
                "  operand stack {:>3} slots = {:>4} B",
                b.stack,
                b.stack * 8
            );
            println!("  heap (locals) {:>3} slots = {:>4} B", b.heap, b.heap * 8);
            println!("  call depth    {:>3} (not recursive)", b.call_depth);
        }
        None => println!("  recursive: no finite stack, heap or call depth"),
    }

    println!("\n== linked slot table ==");
    for s in &info.slots {
        let (scope, target) = match s.target {
            SlotTarget::Packet(bound) => ("packet", format!("{bound:?}")),
            SlotTarget::Message => ("message", "message block".to_string()),
            SlotTarget::Global => ("global", "global scalar".to_string()),
            SlotTarget::Array => ("array", "global array".to_string()),
        };
        let uses = match (s.read, s.written) {
            (true, true) => "read+written",
            (true, false) => "read",
            (false, true) => "written",
            (false, false) => "untouched",
        };
        println!(
            "  {scope:<8}{:>3}  {:<12} -> {target:<28} {:?}, {uses}; may write: {}",
            s.slot,
            s.name,
            s.access,
            s.writers()
        );
    }

    let msg_slots = schema.scope_len(Scope::Message);
    println!("\nenclave will keep {msg_slots} i64 slot(s) of state per live message");
}
