//! Regenerates **Table 1**: the network-function matrix — which functions
//! need data-plane state, data-plane computation, and application
//! semantics, and that Eden supports them out of the box.
//!
//! For each catalogue entry this harness *derives* the requirement columns
//! from the compiled function itself (no hand-maintained table): state = it
//! writes message or global state; computation = instructions beyond a bare
//! header copy; app semantics = it reads stage metadata fields. "Out of the
//! box" is demonstrated, not asserted: every function is compiled, installed
//! and executed on sample traffic in both engines.
//!
//! Run with `cargo bench -p eden-bench --bench table1_functions`.

use eden_apps::functions::{catalogue, host, Form};
use eden_bench::fig12::catalogue_row_ops;
use eden_bench::report::Table;
use eden_core::{ClassId, EnclaveConfig, EnclaveOp};
use eden_lang::{compile, HeaderField, Scope};
use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};

fn main() {
    println!("== Table 1: network functions and their data-plane requirements ==\n");

    let mut table = Table::new(&[
        "function",
        "paper ref",
        "dp state",
        "dp compute",
        "app semantics",
        "concurrency",
        "out of the box",
    ]);

    for bundle in catalogue() {
        let schema = bundle.schema();
        let compiled = compile(bundle.name, &bundle.source, &schema).expect("catalogue compiles");

        let state = &compiled.program.envelope().state;
        let uses_state = !state.message.writes().is_empty()
            || !state.global.writes().is_empty()
            || !state.arrays.writes().is_empty();
        let uses_app_semantics = schema.fields().iter().any(|f| {
            f.scope == Scope::Packet
                && matches!(
                    f.header,
                    Some(
                        HeaderField::MetaMsgId
                            | HeaderField::MetaMsgType
                            | HeaderField::MetaMsgSize
                            | HeaderField::MetaTenant
                            | HeaderField::MetaKeyHash
                            | HeaderField::MetaMsgStart
                    )
                )
                && state.packet.reads().contains(f.slot)
        }) || !state.message.writes().is_empty()
            || !state.message.reads().is_empty();
        let computes = compiled.program.ops().len() > 3;

        // demonstrate out-of-the-box: install and run both engines
        let works = [Form::Interpreted, Form::Native].into_iter().all(|form| {
            let config = EnclaveConfig {
                fail_open: true,
                ..Default::default()
            };
            // every array and global with sane contents
            let mut ops = vec![EnclaveOp::class_rule(ClassId(1), 0)];
            ops.extend(catalogue_row_ops(&bundle, 0));
            let mut e = host(std::slice::from_ref(&bundle), form, config, ops);
            let mut rng = SimRng::new(1);
            let mut faults = 0;
            for i in 0..100u64 {
                let mut p = Packet::tcp(
                    1,
                    2,
                    TcpHeader {
                        src_port: 40000,
                        dst_port: 80,
                        ..Default::default()
                    },
                    500,
                );
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1 + i % 3,
                    msg_type: 1,
                    msg_size: 4096,
                    tenant: 0,
                    key_hash: 7,
                    msg_start: i == 0,
                });
                let _ = e.process(&mut p, &mut rng, Time::from_nanos(i));
                faults = e.stats.faults;
            }
            faults == 0
        });

        let check = |b: bool| if b { "yes" } else { "-" }.to_string();
        table.row(&[
            bundle.name.to_string(),
            bundle.paper_ref.to_string(),
            check(uses_state),
            check(computes),
            check(uses_app_semantics),
            format!("{}", compiled.concurrency),
            check(works),
        ]);
    }
    println!("{}", table.render());
    println!("(requirement columns derived from each compiled function's effect sets;");
    println!(" 'out of the box' = compiled, installed, and executed fault-free in both engines)");
}
