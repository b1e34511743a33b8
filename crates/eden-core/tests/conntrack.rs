//! Ingress processing + direction-canonical flow state: a stateful
//! firewall (connection tracking) built from one action function.

use eden_apps::functions;
use eden_core::{
    ClassId, Enclave, EnclaveConfig, EnclaveOp, FiveTupleMatch, FlowDirection, MatchSpec, TableId,
};
use netsim::{Packet, SimRng, TcpHeader, Time};
use transport::HookVerdict;

fn build() -> Enclave {
    let bundle = functions::conntrack();
    let mut e = Enclave::new(EnclaveConfig {
        process_ingress: true,
        ..Default::default()
    });
    let f = e.install_function(bundle.interpreted());
    // classify ALL tcp traffic at the enclave (no app changes)
    e.add_flow_rule(
        FiveTupleMatch {
            proto: Some(6),
            ..Default::default()
        },
        ClassId(1),
    );
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    e
}

fn pkt(src: u32, sp: u16, dst: u32, dp: u16) -> Packet {
    Packet::tcp(
        src,
        dst,
        TcpHeader {
            src_port: sp,
            dst_port: dp,
            ..Default::default()
        },
        100,
    )
}

#[test]
fn outbound_flows_admit_their_return_traffic() {
    let mut e = build();
    let mut rng = SimRng::new(1);

    // outbound: us(10):5000 → them(20):80
    let mut out = pkt(10, 5000, 20, 80);
    assert_eq!(
        e.process_dir(&mut out, &mut rng, Time::ZERO, FlowDirection::Egress),
        HookVerdict::Pass
    );

    // return traffic (reversed tuple) is admitted
    let mut back = pkt(20, 80, 10, 5000);
    assert_eq!(
        e.process_dir(&mut back, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Pass,
        "established flow's return path must pass"
    );
}

#[test]
fn unsolicited_inbound_is_dropped() {
    let mut e = build();
    let mut rng = SimRng::new(1);
    let mut attack = pkt(66, 6666, 10, 22);
    assert_eq!(
        e.process_dir(&mut attack, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Drop
    );
    // and the Blocked counter ticks
    assert_eq!(e.global(eden_core::FuncId(0), 0), 1);

    // a different unsolicited flow is also dropped (separate flow state)
    let mut attack2 = pkt(66, 7777, 10, 22);
    assert_eq!(
        e.process_dir(&mut attack2, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Drop
    );
    assert_eq!(e.global(eden_core::FuncId(0), 0), 2);
}

#[test]
fn flows_are_isolated_from_each_other() {
    let mut e = build();
    let mut rng = SimRng::new(1);
    // establish flow A only
    let mut a_out = pkt(10, 5000, 20, 80);
    e.process_dir(&mut a_out, &mut rng, Time::ZERO, FlowDirection::Egress);

    // flow B's "return" traffic (never established) is dropped
    let mut b_back = pkt(20, 80, 10, 5001);
    assert_eq!(
        e.process_dir(&mut b_back, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Drop,
        "different source port = different flow = unestablished"
    );
}

#[test]
fn ingress_disabled_by_default() {
    // Without process_ingress, the hook's ingress side passes everything —
    // existing egress-only deployments are unaffected by the feature.
    let bundle = functions::conntrack();
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(bundle.interpreted());
    e.add_flow_rule(
        FiveTupleMatch {
            proto: Some(6),
            ..Default::default()
        },
        ClassId(1),
    );
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);

    use transport::PacketHook;
    let mut rng = SimRng::new(1);
    let mut env = transport::HookEnv {
        now: Time::ZERO,
        rng: &mut rng,
    };
    let mut attack = pkt(66, 6666, 10, 22);
    assert_eq!(e.on_ingress(&mut attack, &mut env), HookVerdict::Pass);
}

#[test]
fn shipped_bytecode_behaves_like_locally_compiled() {
    // controller → wire → enclave: the conntrack program survives
    // serialization and still enforces the firewall.
    let bundle = functions::conntrack();
    let shipped = eden_core::Controller::new()
        .plan_function("conntrack", &bundle.source, &bundle.schema())
        .expect("compiles and encodes");

    let mut e = Enclave::new(EnclaveConfig {
        process_ingress: true,
        ..Default::default()
    });
    e.add_flow_rule(
        FiveTupleMatch {
            proto: Some(6),
            ..Default::default()
        },
        ClassId(1),
    );
    e.apply([shipped, EnclaveOp::class_rule(ClassId(1), 0)])
        .expect("decodes, verifies and links");

    let mut rng = SimRng::new(1);
    let mut attack = pkt(66, 6666, 10, 22);
    assert_eq!(
        e.process_dir(&mut attack, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Drop
    );
    let mut out = pkt(10, 5000, 20, 80);
    assert_eq!(
        e.process_dir(&mut out, &mut rng, Time::ZERO, FlowDirection::Egress),
        HookVerdict::Pass
    );
    let mut back = pkt(20, 80, 10, 5000);
    assert_eq!(
        e.process_dir(&mut back, &mut rng, Time::ZERO, FlowDirection::Ingress),
        HookVerdict::Pass
    );
}
