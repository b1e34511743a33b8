//! Full-pipeline integration: controller programs a stage and an enclave;
//! an application classifies messages; the enclave's interpreted action
//! function sets packet priorities that take effect at the simulated
//! switch.

use eden_core::{
    ClassId, Controller, Enclave, EnclaveConfig, FiveTupleMatch, InstalledFunction, MatchSpec,
    Matcher, NativeEnv, Stage, TableId,
};
use eden_lang::{Access, Concurrency, HeaderField, Schema};
use eden_vm::Outcome;
use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
use transport::HookVerdict;

fn pias_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .msg_field("Size", Access::ReadWrite)
        .msg_field("Priority", Access::ReadOnly)
        .global_array(
            "Priorities",
            &["MessageSizeLimit", "Priority"],
            Access::ReadOnly,
        )
}

const PIAS_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let msg_size = msg.Size + packet.Size
    msg.Size <- msg_size
    let priorities = _global.Priorities
    let rec search index =
        if index >= priorities.Length then 0
        elif msg_size <= priorities.[index].MessageSizeLimit then
            priorities.[index].Priority
        else search (index + 1)
    packet.Priority <-
        let desired = msg.Priority
        if desired < 1 then desired
        else search (0)
"#;

fn tagged_packet(msg_id: u64, classes: Vec<u32>, payload: usize) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 1234,
            dst_port: 80,
            ..Default::default()
        },
        payload,
    );
    p.meta = Some(EdenMeta {
        classes,
        msg_id,
        ..Default::default()
    });
    p
}

/// Rule removal reports success, and callers must check it: a removed
/// rule stops classifying, a bogus id returns `false` (with a stderr
/// warning) and changes nothing.
#[test]
fn remove_stage_rule_result_reflects_what_happened() {
    let mut controller = Controller::new();
    let mut stage = Stage::new("memcached", &["msg_type", "key"], &["msg_id", "msg_size"]);
    let rule = controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("GET".into()))],
        "GET",
    );
    let get_class = controller.class("memcached.r1.GET");

    let meta = stage.classify(&[("msg_type", "GET".into()), ("msg_size", 100.into())]);
    assert_eq!(
        meta.classes,
        vec![get_class.0],
        "rule classifies while live"
    );

    assert!(
        controller.remove_stage_rule(&mut stage, "r1", rule),
        "existing rule removes"
    );
    let meta = stage.classify(&[("msg_type", "GET".into()), ("msg_size", 100.into())]);
    assert!(meta.classes.is_empty(), "removed rule no longer classifies");

    assert!(
        !controller.remove_stage_rule(&mut stage, "r1", rule),
        "double removal reports false"
    );
    assert!(
        !controller.remove_stage_rule(&mut stage, "nope", rule),
        "unknown rule set reports false"
    );
}

#[test]
fn stage_to_enclave_pias_pipeline() {
    let mut controller = Controller::new();

    // --- stage side: memcached classifies GETs and PUTs -----------------
    let mut stage = Stage::new("memcached", &["msg_type", "key"], &["msg_id", "msg_size"]);
    controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("GET".into()))],
        "GET",
    );
    controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("PUT".into()))],
        "PUT",
    );
    let get_class = controller.class("memcached.r1.GET");

    // --- enclave side: PIAS on GET traffic -------------------------------
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let schema = pias_schema();
    let pias = controller
        .install_program(&mut enclave, "pias", PIAS_SRC, &schema)
        .expect("compiles");
    enclave.install_rule(TableId(0), MatchSpec::Class(get_class), pias);
    enclave.set_array(
        pias,
        0,
        Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
    );

    // message priority desire defaults to 0 (respected directly): make the
    // msg state's Priority field 1 via... it defaults to 0, so desired=0 is
    // respected and priority stays 0. Instead set desired >= 1 by writing
    // msg state before: simpler — check desired<1 path first.
    let mut rng = SimRng::new(1);

    // classify a GET message through the stage
    let meta = stage.classify(&[("msg_type", "GET".into()), ("msg_size", 2048.into())]);
    assert_eq!(meta.classes, vec![get_class.0]);

    // run its packets through the enclave: desired priority is 0 at first
    // (msg.Priority state defaults to 0 → respected → pcp 0)
    let mut p = tagged_packet(meta.msg_id, meta.classes.clone(), 1000);
    let verdict = enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(verdict, HookVerdict::Pass);
    assert_eq!(p.priority(), 0, "desired<1 is respected");

    assert_eq!(enclave.stats.packets, 1);
    assert_eq!(enclave.stats.matched, 1);
}

/// Helper: make an enclave with PIAS installed where msg.Priority defaults
/// are not consulted (desired set to 7 via a native setup function is
/// overkill — instead use a variant program without the desired check).
const PIAS_NO_DESIRE: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let msg_size = msg.Size + packet.Size
    msg.Size <- msg_size
    let priorities = _global.Priorities
    let rec search index =
        if index >= priorities.Length then 0
        elif msg_size <= priorities.[index].MessageSizeLimit then
            priorities.[index].Priority
        else search (index + 1)
    packet.Priority <- search (0)
"#;

#[test]
fn pias_demotes_growing_messages() {
    let mut controller = Controller::new();
    let c = controller.class("app.r1.FLOW");
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = controller
        .install_program(&mut enclave, "pias", PIAS_NO_DESIRE, &pias_schema())
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);
    enclave.set_array(
        f,
        0,
        Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
    );

    let mut rng = SimRng::new(1);
    let mut priorities_seen = Vec::new();
    // 1000 packets of 1460B: crosses 10KB after 8 packets, 1MB after ~719
    for _ in 0..1000 {
        let mut p = tagged_packet(42, vec![c.0], 1460);
        enclave.process(&mut p, &mut rng, Time::ZERO);
        priorities_seen.push(p.priority());
    }
    assert_eq!(priorities_seen[0], 7, "starts at highest priority");
    assert_eq!(priorities_seen[20], 5, "demoted past 10KB");
    assert_eq!(priorities_seen[999], 1, "background priority past 1MB");
    // never promoted back
    let mut last = 7;
    for &p in &priorities_seen {
        assert!(p <= last, "priorities only demote");
        last = p;
    }
}

#[test]
fn per_message_state_is_isolated() {
    let mut controller = Controller::new();
    let c = controller.class("app.r1.FLOW");
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = controller
        .install_program(&mut enclave, "pias", PIAS_NO_DESIRE, &pias_schema())
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);
    enclave.set_array(
        f,
        0,
        Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
    );
    let mut rng = SimRng::new(1);

    // grow message 1 past the first threshold
    for _ in 0..20 {
        let mut p = tagged_packet(1, vec![c.0], 1460);
        enclave.process(&mut p, &mut rng, Time::ZERO);
    }
    // message 2 still starts fresh
    let mut p = tagged_packet(2, vec![c.0], 1460);
    enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(p.priority(), 7, "new message unaffected by message 1");
    assert_eq!(enclave.function_state(f).live_messages(), 2);
}

#[test]
fn native_and_interpreted_agree() {
    // The same PIAS logic as a native closure must produce identical
    // priorities — the premise of the paper's native/Eden comparison.
    let mut controller = Controller::new();
    let c = controller.class("app.r1.FLOW");
    let schema = pias_schema();

    let build_interp = |controller: &Controller| {
        let mut e = Enclave::new(EnclaveConfig::default());
        let f = controller
            .install_program(&mut e, "pias", PIAS_NO_DESIRE, &pias_schema())
            .unwrap();
        e.install_rule(TableId(0), MatchSpec::Class(c), f);
        e.set_array(
            f,
            0,
            Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
        );
        e
    };

    // slots per schema: pkt 0=Size 1=Priority; msg 0=Size; arrays 0=Priorities
    let native = move |env: &mut NativeEnv<'_>| -> Result<Outcome, eden_vm::VmError> {
        let msg_size = env.msg(0)? + env.pkt(0)?;
        env.set_msg(0, msg_size)?;
        let n = env.arr_len(0)? / 2;
        let mut prio = 0;
        for i in 0..n {
            if msg_size <= env.arr(0, i * 2)? {
                prio = env.arr(0, i * 2 + 1)?;
                break;
            }
        }
        env.set_pkt(1, prio)?;
        Ok(Outcome::Done)
    };
    let mut native_enclave = Enclave::new(EnclaveConfig::default());
    let nf = native_enclave.install_function(InstalledFunction::native(
        "pias-native",
        Box::new(native),
        schema.clone(),
        Concurrency::PerMessage,
    ));
    native_enclave.install_rule(TableId(0), MatchSpec::Class(c), nf);
    native_enclave.set_array(
        nf,
        0,
        Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
    );

    let mut interp_enclave = build_interp(&controller);
    let mut rng1 = SimRng::new(1);
    let mut rng2 = SimRng::new(1);
    for i in 0..2000 {
        let mut a = tagged_packet(i % 7, vec![c.0], 1460);
        let mut b = a.clone();
        interp_enclave.process(&mut a, &mut rng1, Time::ZERO);
        native_enclave.process(&mut b, &mut rng2, Time::ZERO);
        assert_eq!(a.priority(), b.priority(), "packet {i}");
    }
    assert_eq!(interp_enclave.stats.faults, 0);
    assert_eq!(native_enclave.stats.faults, 0);
}

#[test]
fn flow_rules_classify_unmodified_traffic() {
    // Enclave-level classification (Table 2's last row): packets with no
    // stage metadata still match via five-tuple rules, and the flow is the
    // message.
    let mut controller = Controller::new();
    let c = controller.class("enclave.flows.WEB");
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = controller
        .install_program(&mut enclave, "pias", PIAS_NO_DESIRE, &pias_schema())
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);
    enclave.set_array(
        f,
        0,
        Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
    );
    enclave.add_flow_rule(
        FiveTupleMatch {
            dst_port: Some(80),
            ..Default::default()
        },
        c,
    );

    let mut rng = SimRng::new(1);
    // packets of one TCP flow, no meta at all
    let mut last_prio = 7;
    for i in 0..30 {
        let mut p = Packet::tcp(
            9,
            8,
            TcpHeader {
                src_port: 5555,
                dst_port: 80,
                ..Default::default()
            },
            1460,
        );
        let v = enclave.process(&mut p, &mut rng, Time::ZERO);
        assert_eq!(v, HookVerdict::Pass);
        if i == 0 {
            assert_eq!(p.priority(), 7);
        }
        last_prio = p.priority();
    }
    assert_eq!(last_prio, 5, "flow crossed 10KB and was demoted");

    // different flow → different message → fresh priority
    let mut p = Packet::tcp(
        9,
        8,
        TcpHeader {
            src_port: 6666,
            dst_port: 80,
            ..Default::default()
        },
        1460,
    );
    enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(p.priority(), 7);

    // non-matching port → no rule → untouched
    let mut p = Packet::tcp(
        9,
        8,
        TcpHeader {
            src_port: 6666,
            dst_port: 443,
            ..Default::default()
        },
        1460,
    );
    enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(p.priority(), 0);
}

#[test]
fn faulting_function_fails_open_and_isolates() {
    // A function that divides by zero must not affect forwarding.
    let mut controller = Controller::new();
    let c = controller.class("x.r.ALL");
    let schema =
        Schema::new().packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength));
    let src = "fun (p, m, g) -> p.Size / (p.Size - p.Size) // div by zero\n";
    // note: expression result is discarded; the div traps at runtime
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = controller
        .install_program(&mut enclave, "broken", src, &schema)
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);

    let mut rng = SimRng::new(1);
    let mut p = tagged_packet(1, vec![c.0], 100);
    let v = enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(v, HookVerdict::Pass, "fail-open forwards");
    assert_eq!(enclave.stats.faults, 1);
    assert_eq!(enclave.stats_snapshot().functions[f.0].counts.faults, 1);

    // fail-closed configuration drops instead
    let mut enclave = Enclave::new(EnclaveConfig {
        fail_open: false,
        ..Default::default()
    });
    let f = controller
        .install_program(&mut enclave, "broken", src, &schema)
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);
    let mut p = tagged_packet(1, vec![c.0], 100);
    let v = enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(v, HookVerdict::Drop);
}

#[test]
fn goto_table_chains_functions() {
    // table 0: tag priority 3 then goto table 1; table 1: bump route label.
    let mut controller = Controller::new();
    let c = controller.class("x.r.ALL");
    let schema = Schema::new()
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .packet_field("Label", Access::ReadWrite, Some(HeaderField::Dot1qVid));
    let first = "fun (p, m, g) ->\n    p.Priority <- 3\n    gotoTable (1)\n";
    let second = "fun (p, m, g) -> p.Label <- 77";

    let mut enclave = Enclave::new(EnclaveConfig::default());
    let t1 = enclave.create_table();
    let f1 = controller
        .install_program(&mut enclave, "first", first, &schema)
        .unwrap();
    let f2 = controller
        .install_program(&mut enclave, "second", second, &schema)
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f1);
    enclave.install_rule(t1, MatchSpec::Any, f2);

    let mut rng = SimRng::new(1);
    let mut p = tagged_packet(1, vec![c.0], 100);
    enclave.process(&mut p, &mut rng, Time::ZERO);
    assert_eq!(p.priority(), 3);
    assert_eq!(p.route_label(), 77);
}

#[test]
fn drop_verdict_from_dsl() {
    let mut controller = Controller::new();
    let c = controller.class("fw.r.BLOCKED");
    let schema = Schema::new();
    let src = "fun (p, m, g) -> drop ()";
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = controller
        .install_program(&mut enclave, "fw", src, &schema)
        .unwrap();
    enclave.install_rule(TableId(0), MatchSpec::Class(c), f);

    let mut rng = SimRng::new(1);
    let mut p = tagged_packet(1, vec![c.0], 100);
    assert_eq!(
        enclave.process(&mut p, &mut rng, Time::ZERO),
        HookVerdict::Drop
    );
    assert_eq!(enclave.stats.dropped, 1);

    // unmatched packets pass
    let mut p = tagged_packet(1, vec![999], 100);
    assert_eq!(
        enclave.process(&mut p, &mut rng, Time::ZERO),
        HookVerdict::Pass
    );
}

/// A packet's random draw is reserved when it is classified and computed
/// only if one of its functions reads it. A rule set that never calls
/// `rand()` — PIAS interpreted, priority tagging native, and the misses —
/// therefore runs the generator's cipher not once, per packet or in bursts,
/// and still leaves the caller's RNG one draw per packet on.
#[test]
fn rand_free_rule_sets_generate_no_keystream() {
    use eden_apps::functions;

    fn rand_free() -> Enclave {
        let mut e = Enclave::new(EnclaveConfig::default());
        let pias = e.install_function(functions::pias().interpreted());
        e.set_array(pias, 0, vec![10_000, 7, 1_000_000, 5, i64::MAX, 1]);
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), pias);
        // a native function is not lane-safe: bursts stay on this thread
        let tag = e.install_function(functions::fixed_priority().native());
        e.set_global(tag, 0, 3);
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(2)), tag);
        e
    }
    let stream = || (0..1000u64).map(|i| tagged_packet(i % 7, vec![1 + (i % 3) as u32], 700));
    let thousand_and_first = {
        let mut eager = SimRng::new(5);
        for _ in 0..1000 {
            eager.next_u64();
        }
        assert_eq!(eager.blocks_generated(), 125);
        eager.next_u64()
    };

    // one packet at a time
    let (mut e, mut rng) = (rand_free(), SimRng::new(5));
    for mut p in stream() {
        e.process(&mut p, &mut rng, Time::ZERO);
    }
    assert_eq!((e.stats.matched, e.stats.missed), (667, 333));
    assert_eq!(rng.blocks_generated(), 0);
    assert_eq!(rng.next_u64(), thousand_and_first);

    // bursts of 64, lookahead and all
    let (mut e, mut rng) = (rand_free(), SimRng::new(5));
    for burst in stream().collect::<Vec<_>>().chunks_mut(64) {
        e.process_batch(burst, &mut rng, Time::ZERO);
    }
    assert_eq!(e.batch_path_counts(), (16, 0));
    assert_eq!(e.stats.matched, 667);
    assert_eq!(rng.blocks_generated(), 0);
    assert_eq!(rng.next_u64(), thousand_and_first);

    // an enclave with no rule at all: every packet a table miss
    let (mut e, mut rng) = (Enclave::new(EnclaveConfig::default()), SimRng::new(5));
    for mut p in stream() {
        e.process(&mut p, &mut rng, Time::ZERO);
    }
    assert_eq!(e.stats.missed, 1000);
    assert_eq!(rng.blocks_generated(), 0);
    assert_eq!(rng.next_u64(), thousand_and_first);

    // and the count is not vacuous: WCMP draws for every packet it is
    // handed, a third of this stream, so blocks are generated — the eager
    // 125 or fewer, since a block no class-1 packet fell in stays unread
    let (mut e, mut rng) = (rand_free(), SimRng::new(5));
    let wcmp = e.install_function(functions::wcmp().interpreted());
    e.set_array(wcmp, 0, vec![11, 3, 22, 2, 33, 5]);
    e.set_global(wcmp, 0, 10);
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(3)), wcmp);
    for mut p in stream() {
        e.process(&mut p, &mut rng, Time::ZERO);
    }
    assert_eq!(e.stats.matched, 1000);
    assert!((100..=125).contains(&rng.blocks_generated()));
    assert_eq!(rng.next_u64(), thousand_and_first);
}
