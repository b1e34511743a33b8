//! Observability end-to-end: an epoch update pushed across a three-host
//! cluster assembles into a single cross-host trace tree at the
//! controller, control-plane latency histograms populate, and a faulting
//! function installed *over the wire* freezes the data-path flight
//! recorder with the trapping opcode attributed.

use eden::core::{EnclaveConfig, EnclaveOp, MatchSpec, ShippedFunction};
use eden::ctrl::fleet::{prio_epoch, Fleet};
use eden::ctrl::CtrlConfig;
use eden::lang::{Concurrency, Schema};
use eden::netsim::{SimRng, Time};
use eden::telemetry::FlightKind;
use netsim::{Packet, UdpHeader};

/// A verifier-legal function that traps on its first packet (1 / 0),
/// shipped as raw bytecode exactly as the control plane would.
fn divzero_ops() -> Vec<EnclaveOp> {
    let mut b = eden::vm::ProgramBuilder::new();
    b.push(1).push(0).div().pop().halt();
    let bytecode = eden::vm::encode_program(&b.build().expect("builds"));
    vec![
        EnclaveOp::Reset,
        EnclaveOp::InstallFunction(Box::new(ShippedFunction {
            name: "divzero".into(),
            bytecode,
            schema: Schema::new(),
            concurrency: Concurrency::Parallel,
        })),
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Any,
            func: 0,
        },
    ]
}

#[test]
fn epoch_update_assembles_one_cross_host_trace_tree() {
    let cfg = CtrlConfig {
        // Exercise the explicit PullTrace path alongside heartbeat
        // piggybacking, and populate per-host latency reports.
        stats_every: Time::from_millis(2),
        ..CtrlConfig::default()
    };
    let mut c = Fleet::flat(11, 3, cfg, EnclaveConfig::default());

    // Bootstrap, then push one epoch across the fleet.
    c.net.run_until(Time::from_millis(2));
    let epoch = c.root().set_desired(prio_epoch(5)).expect("valid");
    assert_eq!(epoch, 1);

    // Run long enough for the round to complete *and* for the agents'
    // phase spans to ride back on subsequent heartbeats / trace pulls.
    c.net.run_until(Time::from_millis(12));

    let app = c.root();
    assert!(app.all_in_sync(), "fleet converged on epoch 1");
    assert!(!app.round_active(), "round completed");

    // --- the assembled trace tree --------------------------------------
    let trace = app.trace();
    let ids = trace.trace_ids();
    assert_eq!(ids.len(), 1, "exactly one traced round");
    let tid = ids[0];

    let root = trace.root(tid).expect("round has a root span");
    assert_eq!(root.name, "epoch");
    assert_eq!(root.host, 0, "root span is the controller's");
    assert!(
        root.end_ns > root.start_ns,
        "root covers the round duration"
    );

    let children = trace.children(tid, root.span_id);
    for addr in 1..=3u32 {
        for phase in ["prepare", "commit"] {
            let span = children
                .iter()
                .find(|s| s.host == addr && s.name == phase)
                .unwrap_or_else(|| panic!("host {addr} contributed a {phase} span"));
            assert_eq!(span.trace_id, tid);
            assert_eq!(span.parent_span, root.span_id, "parent link intact");
            assert_eq!(
                span.span_id >> 40,
                u64::from(addr),
                "span id carries the host namespace"
            );
        }
    }
    // Only phase spans hang off the root: 3 hosts x (prepare, commit).
    assert_eq!(children.len(), 6);

    // Every span in the store belongs to this one tree.
    for span in trace.spans_of(tid) {
        assert!(
            span.parent_span == 0 || span.parent_span == root.span_id,
            "no orphaned spans"
        );
    }

    let json = trace.tree_json(tid).expect("tree renders").render();
    assert!(json.contains("\"epoch\""));
    assert!(json.contains("\"prepare\""));

    // --- control-plane latency histograms ------------------------------
    assert!(
        app.ctrl_rtt().count() >= 6,
        "at least one RTT sample per phase ack"
    );
    assert_eq!(
        app.convergence().count(),
        1,
        "one committed round, one convergence sample"
    );
    assert!(
        app.convergence().p50().unwrap_or(0) > 0,
        "convergence took nonzero time"
    );
    let names: Vec<&str> = app
        .cluster()
        .ctrl_latencies
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    assert!(names.contains(&"ctrl.rtt"));
    assert!(names.contains(&"epoch.converge"));
}

#[test]
fn wire_installed_faulting_function_freezes_the_flight_recorder() {
    let mut c = Fleet::flat(23, 1, CtrlConfig::default(), EnclaveConfig::default());

    c.net.run_until(Time::from_millis(2));
    c.root().set_desired(divzero_ops()).expect("valid");
    c.net.run_until(Time::from_millis(8));
    assert!(
        c.root().all_in_sync(),
        "faulting epoch committed over the wire"
    );

    // Drive one packet through the freshly configured data path.
    let enclave = c.enclave(0);
    let mut p = Packet::udp(1, 2, UdpHeader::default(), 100);
    let mut rng = SimRng::new(1);
    enclave.process(&mut p, &mut rng, Time::from_millis(9));

    let dump = enclave.last_flight_dump().expect("trap froze the recorder");
    assert_eq!(dump.reason, "vm_trap");
    let last = dump.last_event().expect("events retained");
    assert!(matches!(last.kind, FlightKind::VmTrap));
    assert_eq!(
        eden::vm::Op::kind_name(last.a as usize),
        "div",
        "dump attributes the trapping opcode"
    );
    assert!(dump.counters.conserved(), "snapshot obeys conservation");
    assert_eq!(dump.counters.faults, 1);
}
