//! §5.4 guard: every catalogue program, compiled through the full default
//! pipeline (IR passes + superinstruction fusion), must fit the paper's
//! reported interpreter footprint — an operand stack and heap "in the
//! order of 64 and 256 bytes respectively". The figure held to it is the
//! *static* envelope the verifier derives, the one an enclave admits the
//! program on: fusion is supposed to shrink stack traffic, and this test
//! catches any pass that trades memory for speed on any path, taken or
//! not. A second test holds the envelope itself to what runs really
//! reach.

use eden::apps::functions::catalogue;
use eden::core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden::lang::compile;
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
use eden::vm::{Interpreter, Limits};
use eden_bench::fig12;

#[test]
fn every_catalogue_program_fits_the_paper_footprint_statically() {
    let bundles = catalogue();
    assert_eq!(bundles.len(), 19);
    for bundle in bundles {
        let program = compile(bundle.name, &bundle.source, &bundle.schema())
            .expect("catalogue compiles")
            .program;
        let bound = program
            .envelope()
            .bound
            .unwrap_or_else(|| panic!("{}: recursive, no static footprint", bundle.name));
        assert!(
            bound.stack * 8 <= 64,
            "{}: operand stack {} B exceeds the paper's 64 B",
            bundle.name,
            bound.stack * 8
        );
        assert!(
            bound.heap * 8 <= 256,
            "{}: heap {} B exceeds the paper's 256 B",
            bundle.name,
            bound.heap * 8
        );
        // which is to say: an interpreter with exactly the paper's budgets
        // admits it
        assert!(
            program.envelope().fits(&Limits::paper_footprint()).is_ok(),
            "{}: refused under the paper's budgets",
            bundle.name
        );
    }
}

/// Envelope soundness over the catalogue: whatever a run reaches — on the
/// bare interpreter over the micro-bench state, and through an enclave
/// over a mixed packet stream — stays under the static bound.
#[test]
fn no_catalogue_run_reaches_past_its_envelope() {
    for (class, bundle) in catalogue().into_iter().enumerate() {
        let program = compile(bundle.name, &bundle.source, &bundle.schema())
            .expect("catalogue compiles")
            .program;
        let bound = program.envelope().bound.expect("not recursive");
        let within = |seen: eden::vm::Bound, what: &str| {
            assert!(
                bound.covers(&seen),
                "{} ({what}): reached {seen:?}, static bound {bound:?}",
                bundle.name
            );
        };

        let mut host = fig12::catalogue_host(&bundle);
        let mut interp = Interpreter::new(Limits::default());
        interp.set_opcode_profiling(true);
        for i in 0..64 {
            host.packet[0] = 1460 * (i % 64 + 1);
            host.msg[1] = i % 9;
            interp.run(&program, &mut host).expect("no trap");
            within(interp.observed_peaks().expect("profiling"), "bare");
        }

        let mut e = Enclave::new(EnclaveConfig::default());
        let f = e.install_function(bundle.interpreted());
        let class = class as u32 + 1;
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(class)), f);
        e.set_opcode_profiling(true);
        let mut rng = SimRng::new(5);
        for i in 0..256u64 {
            let hdr = TcpHeader {
                src_port: 40_000 + (i % 5) as u16,
                dst_port: [80, 22, 1001, 1002, 1003][(i % 5) as usize],
                ..TcpHeader::default()
            };
            let mut p = Packet::tcp(1, 2, hdr, 1 + (i as usize * 37) % 1400);
            p.meta = Some(EdenMeta {
                classes: vec![class],
                msg_id: 1 + i % 7,
                msg_type: 1 + (i % 2) as i64,
                msg_size: (i as i64 * 7919) % 2_000_000,
                tenant: (i % 3) as i64,
                key_hash: i as i64 * 2_654_435_761,
                ..EdenMeta::default()
            });
            e.process(&mut p, &mut rng, Time::from_nanos(i));
            within(e.observed_peaks().expect("profiling"), "enclave");
        }
        assert_eq!(e.stats.matched, 256);
    }
}
