//! Install-time linking: every check an interpreted function used to meet
//! per instruction or per access — operand-stack, heap and call-depth
//! budgets, slot ranges, read-only stores, stores its concurrency level
//! forbids — is met once, when the function is installed, and a function
//! that fails one is refused there. Each test below fails if its refusal
//! is taken out: the function would install, and the data path (which no
//! longer checks) would run it.

use eden::core::{
    ApplyError, ClassId, Enclave, EnclaveConfig, EnclaveOp, InstalledFunction, LinkError,
    MatchSpec, PktSlot, ShippedFunction, SlotTarget, TableId,
};
use eden::ctrl::{CtrlMsg, CtrlReply, EnclaveAgent};
use eden::lang::{Access, Concurrency, HeaderField, Schema, Scope};
use eden::netsim::{Packet, SimRng, Time, UdpHeader};
use eden::telemetry::FlightKind;
use eden::vm::{encode_program, Limits, ProgramBuilder, VmError};

/// Ship a hand-built program the way a controller would.
fn shipped(
    build: impl FnOnce(&mut ProgramBuilder),
    schema: Schema,
    declared: Concurrency,
) -> InstalledFunction {
    let mut b = ProgramBuilder::new();
    build(&mut b);
    InstalledFunction::from_shipped(&ShippedFunction {
        name: "crafted".into(),
        bytecode: encode_program(&b.build().expect("verifies")),
        schema,
        concurrency: declared,
    })
    .expect("decodes")
}

fn refusal(f: InstalledFunction) -> LinkError {
    Enclave::new(EnclaveConfig::default())
        .try_install_function(f)
        .expect_err("must not link")
}

#[test]
fn slot_n_of_an_n_slot_schema_is_refused_in_every_scope() {
    let schema = || {
        Schema::new()
            .packet_field("A", Access::ReadWrite, None)
            .packet_field("B", Access::ReadWrite, None)
            .msg_field("M", Access::ReadWrite)
            .global_field("G", Access::ReadWrite)
            .global_array("Xs", &["V"], Access::ReadWrite)
    };
    let s = Concurrency::Serialized;
    assert_eq!(
        refusal(shipped(
            |b| {
                b.load_pkt(2).pop().halt();
            },
            schema(),
            s
        )),
        LinkError::NoSuchSlot {
            scope: Scope::Packet,
            slot: 2,
            declared: 2
        }
    );
    assert_eq!(
        refusal(shipped(
            |b| {
                b.load_msg(1).pop().halt();
            },
            schema(),
            s
        )),
        LinkError::NoSuchSlot {
            scope: Scope::Message,
            slot: 1,
            declared: 1
        }
    );
    assert_eq!(
        refusal(shipped(
            |b| {
                b.push(1).store_glob(1).halt();
            },
            schema(),
            s
        )),
        LinkError::NoSuchSlot {
            scope: Scope::Global,
            slot: 1,
            declared: 1
        }
    );
    assert_eq!(
        refusal(shipped(
            |b| {
                b.arr_len(1).pop().halt();
            },
            schema(),
            s
        )),
        LinkError::NoSuchArray {
            array: 1,
            declared: 1
        }
    );
    // the last slot of each scope links
    let ok = shipped(
        |b| {
            b.load_pkt(1).store_msg(0);
            b.incr_glob(0, 1).arr_len(0).pop().halt();
        },
        schema(),
        s,
    );
    Enclave::new(EnclaveConfig::default())
        .try_install_function(ok)
        .expect("in range");
}

#[test]
fn store_to_a_read_only_field_is_refused() {
    let schema = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Prio", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_array("Limits", &["V"], Access::ReadOnly);
    assert_eq!(
        refusal(shipped(
            |b| {
                b.push(9).store_pkt(0).halt();
            },
            schema.clone(),
            Concurrency::Parallel
        )),
        LinkError::ReadOnlyStore {
            what: "packet field 'Size'".into()
        }
    );
    assert_eq!(
        refusal(shipped(
            |b| {
                b.push(0).push(9).arr_store(0).halt();
            },
            schema.clone(),
            Concurrency::Serialized
        )),
        LinkError::ReadOnlyStore {
            what: "global array 'Limits'".into()
        }
    );
    // reading it, and writing its read-write neighbour, is what it is for
    let ok = shipped(
        |b| {
            b.load_pkt(0).store_pkt(1).halt();
        },
        schema,
        Concurrency::Parallel,
    );
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.try_install_function(ok).expect("links");
    e.install_rule(TableId(0), MatchSpec::Any, f);
    let mut p = Packet::udp(1, 2, UdpHeader::default(), 100);
    e.process(&mut p, &mut SimRng::new(1), Time::ZERO);
    assert_eq!(e.stats.faults, 0);
    assert_eq!(i64::from(p.priority()), i64::from(p.ip.total_length) & 7);
}

#[test]
fn stores_beyond_the_declared_concurrency_level_are_refused() {
    let schema = || {
        Schema::new()
            .msg_field("M", Access::ReadWrite)
            .global_field("G", Access::ReadWrite)
            .global_array("Xs", &["V"], Access::ReadWrite)
    };
    let too_weak = |declared, needs| LinkError::ConcurrencyTooWeak { declared, needs };
    use Concurrency::{Parallel, PerMessage, Serialized};
    let gstore = |b: &mut ProgramBuilder| {
        b.push(1).store_glob(0).halt();
    };
    let mstore = |b: &mut ProgramBuilder| {
        b.incr_msg(0, 1).halt();
    };
    let astore = |b: &mut ProgramBuilder| {
        b.push(0).push(1).arr_store(0).halt();
    };
    assert_eq!(
        refusal(shipped(gstore, schema(), PerMessage)),
        too_weak(PerMessage, Serialized)
    );
    assert_eq!(
        refusal(shipped(gstore, schema(), Parallel)),
        too_weak(Parallel, Serialized)
    );
    assert_eq!(
        refusal(shipped(astore, schema(), PerMessage)),
        too_weak(PerMessage, Serialized)
    );
    assert_eq!(
        refusal(shipped(mstore, schema(), Parallel)),
        too_weak(Parallel, PerMessage)
    );
    for (build, declared) in [
        (gstore as fn(&mut ProgramBuilder), Serialized),
        (astore, Serialized),
        (mstore, PerMessage),
        (mstore, Serialized),
    ] {
        Enclave::new(EnclaveConfig::default())
            .try_install_function(shipped(build, schema(), declared))
            .expect("declared at or above what it writes");
    }
}

#[test]
fn a_program_over_the_enclaves_limits_is_refused_not_run() {
    let config = |limits| EnclaveConfig {
        limits,
        ..EnclaveConfig::default()
    };
    let deep = || {
        shipped(
            |b| {
                // drops the packet first: visible if it ever ran
                let skip = b.new_label();
                b.push(0).jmp_if_not(skip).drop_packet();
                b.bind(skip);
                for i in 0..6 {
                    b.push(i);
                }
                for _ in 0..6 {
                    b.pop();
                }
                b.halt();
            },
            Schema::new(),
            Concurrency::Parallel,
        )
    };
    let tight = Limits {
        max_stack: 4,
        ..Limits::default()
    };
    let mut e = Enclave::new(config(tight));
    assert_eq!(
        e.try_install_function(deep()),
        Err(LinkError::OverBudget(VmError::StackOverflow))
    );
    assert_eq!(e.stats_snapshot().functions.len(), 0, "nothing installed");
    // the refusal is on record in the black box
    e.freeze_flight("test");
    let dump = e.last_flight_dump().expect("frozen above");
    let ev = dump
        .events
        .iter()
        .find(|ev| matches!(ev.kind, FlightKind::InstallRefused))
        .expect("install_refused event");
    assert_eq!(ev.b, LinkError::OverBudget(VmError::StackOverflow).code());
    // under the default limits the same bytes link and run
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.try_install_function(deep()).expect("6 slots fit 64");
    assert_eq!(e.link_info(f).envelope.unwrap().bound.unwrap().stack, 6);

    // recursion has no bound: refused under any limits
    let mut b = ProgramBuilder::new();
    b.call(0).pop().halt();
    let f = b.begin_func(0, 0);
    b.call(f).ret();
    let recursive = InstalledFunction::from_shipped(&ShippedFunction {
        name: "rec".into(),
        bytecode: encode_program(&b.build().expect("recursion verifies")),
        schema: Schema::new(),
        concurrency: Concurrency::Parallel,
    })
    .unwrap();
    assert_eq!(
        refusal(recursive),
        LinkError::OverBudget(VmError::CallDepthExceeded)
    );
}

#[test]
#[should_panic(expected = "does not link: declared parallel")]
fn install_function_panics_with_the_link_error() {
    let schema = Schema::new().msg_field("M", Access::ReadWrite);
    Enclave::new(EnclaveConfig::default()).install_function(shipped(
        |b| {
            b.incr_msg(0, 1).halt();
        },
        schema,
        Concurrency::Parallel,
    ));
}

/// "Why did this epoch not commit?" has an answer in the agent's nack and
/// in the enclave's flight recorder, and the refused epoch left nothing.
#[test]
fn an_unlinkable_epoch_is_nacked_with_its_reason_and_leaves_nothing() {
    let schema = Schema::new().global_field("G", Access::ReadWrite);
    let mut b = ProgramBuilder::new();
    b.incr_glob(0, 1).halt();
    let ops = vec![
        EnclaveOp::Reset,
        EnclaveOp::InstallFunction(Box::new(ShippedFunction {
            name: "counter".into(),
            bytecode: encode_program(&b.build().unwrap()),
            schema: schema.clone(),
            concurrency: Concurrency::PerMessage, // writes a global
        })),
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1)),
            func: 0,
        },
    ];
    let mut agent = EnclaveAgent::new(Enclave::new(EnclaveConfig::default()));
    let digest = agent.enclave().config_digest();
    let prepare = CtrlMsg::Prepare {
        epoch: 1,
        ops: ops.clone(),
    };
    match agent.handle(1, prepare.into(), 0).body {
        CtrlReply::Nack { reason, .. } => assert_eq!(
            reason,
            "op 1: function does not link: declared per-message but the program's stores need \
             serialized"
        ),
        other => panic!("expected a nack, got {other:?}"),
    }
    let e = agent.enclave_mut();
    assert_eq!(
        (e.staged_epoch(), e.active_epoch(), e.config_digest()),
        (None, 0, digest)
    );
    assert!(matches!(
        e.stage_epoch(1, &ops[..]),
        Err(ApplyError::Unlinkable { op: 1, .. })
    ));
    e.freeze_flight("test");
    let dump = e.last_flight_dump().expect("frozen above");
    let refused: Vec<_> = dump
        .events
        .iter()
        .filter(|ev| matches!(ev.kind, FlightKind::InstallRefused))
        .collect();
    assert_eq!(refused.len(), 2, "one per refused staging");
    assert!(refused.iter().all(|ev| ev.a == 1), "a = the epoch refused");
    use eden::telemetry::ToJson;
    assert!(dump.to_json().render().contains("install_refused"));
}

#[test]
fn link_info_names_what_every_slot_is_bound_to() {
    let bundle = eden::apps::functions::pias();
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(bundle.interpreted());
    let info = e.link_info(f);
    assert_eq!(info.concurrency, Concurrency::PerMessage);
    let bound = info.envelope.expect("interpreted").bound.expect("bounded");
    assert_eq!((bound.stack, bound.heap, bound.call_depth), (3, 3, 1));
    assert_eq!(
        info.slots.len(),
        bundle.schema().fields().len() + bundle.schema().arrays().len()
    );
    let size = info
        .slots
        .iter()
        .find(|s| s.name == "Size" && matches!(s.target, SlotTarget::Packet(_)))
        .expect("pias reads packet.Size");
    assert_eq!(
        size.target,
        SlotTarget::Packet(PktSlot::Header(HeaderField::Ipv4TotalLength))
    );
    assert!(size.read && !size.written);
    assert_eq!(size.writers(), "host stack");
    let written: Vec<&str> = info
        .slots
        .iter()
        .filter(|s| s.written)
        .map(|s| s.name.as_str())
        .collect();
    assert!(
        written.iter().all(|name| info
            .slots
            .iter()
            .any(|s| s.name == *name && s.access == Access::ReadWrite)),
        "a linked program writes only read-write slots: {written:?}"
    );
    assert!(info
        .slots
        .iter()
        .any(|s| s.target == SlotTarget::Message && s.written));

    // a native function has the same table, and no code to read
    let n = e.install_function(bundle.native());
    let native = e.link_info(n);
    assert_eq!(native.envelope, None);
    assert_eq!(native.slots.len(), info.slots.len());
    assert!(native.slots.iter().all(|s| !s.read && !s.written));
}

/// Compiled Rust cannot be linked, so a native function meets the same
/// rules per access, in `NativeEnv`: each violation is the trap it always
/// was, and the packet fails open.
#[test]
fn native_functions_keep_per_access_enforcement() {
    use eden::core::native_function;
    use eden::vm::{Outcome, StateScope};
    use std::cell::RefCell;
    use std::rc::Rc;

    let schema = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .msg_field("M", Access::ReadWrite)
        .global_field("G", Access::ReadWrite)
        .global_array("Xs", &["V"], Access::ReadWrite);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&seen);
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(native_function(
        "prober",
        schema,
        Concurrency::PerMessage,
        Box::new(move |env| {
            let mut log = log.borrow_mut();
            log.push(env.set_pkt(0, 1).unwrap_err()); // read-only field
            log.push(env.pkt(1).unwrap_err()); // no such slot
            log.push(env.msg(1).unwrap_err());
            log.push(env.global(1).unwrap_err());
            log.push(env.set_global(0, 1).unwrap_err()); // PerMessage
            log.push(env.set_arr(0, 0, 1).unwrap_err());
            log.push(env.arr(1, 0).unwrap_err()); // no such array
            log.push(env.arr_len(1).unwrap_err());
            log.push(env.arr(0, 5).unwrap_err()); // index past the end
            env.set_msg(0, 7)?; // allowed at this level
            assert_eq!((env.msg(0)?, env.global(0)?, env.pkt(0)?), (7, 0, 128));
            env.set_global(0, 1)?; // the trap the packet fails open on
            Ok(Outcome::Dropped)
        }),
    ));
    e.install_rule(TableId(0), MatchSpec::Any, f);
    e.set_array(f, 0, vec![1, 2, 3]);
    let mut p = Packet::udp(1, 2, UdpHeader::default(), 100);
    let verdict = e.process(&mut p, &mut SimRng::new(1), Time::ZERO);
    assert_eq!(verdict, eden::transport::HookVerdict::Pass, "fails open");
    assert_eq!(e.stats.faults, 1);
    assert_eq!(e.global(f, 0), 0, "the refused store did not land");
    let slot = |scope, slot| VmError::BadStateSlot { scope, slot };
    let read_only = |scope, slot| VmError::ReadOnlyViolation { scope, slot };
    assert_eq!(
        *seen.borrow(),
        vec![
            read_only(StateScope::Packet, 0),
            slot(StateScope::Packet, 1),
            slot(StateScope::Message, 1),
            slot(StateScope::Global, 1),
            read_only(StateScope::Global, 0),
            read_only(StateScope::Global, 0),
            VmError::BadArrayAccess { array: 1, index: 0 },
            VmError::BadArrayAccess {
                array: 1,
                index: -1
            },
            VmError::BadArrayAccess { array: 0, index: 5 },
        ]
    );
}
