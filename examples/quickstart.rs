//! Quickstart: the whole Eden pipeline in one file.
//!
//! 1. The controller interns a class and programs a *stage* with a
//!    classification rule (Table 3's API).
//! 2. It compiles the paper's Figure 7 action function (PIAS priority
//!    selection) from DSL source to bytecode and installs it into an
//!    *enclave*, with a match-action rule keyed on the class.
//! 3. The application classifies a message through its stage, and the
//!    message's packets run through the enclave: watch the priority demote
//!    as the message grows.
//!
//! Run with `cargo run --example quickstart`.

use eden::core::{Controller, Enclave, EnclaveConfig, EnclaveOp, Matcher, Stage};
use eden::lang::{compile, Access, HeaderField, Schema};
use eden::vm::{disassemble, encode_program};
use netsim::{Packet, SimRng, TcpHeader, Time};

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
    packet.Priority <- search (0)
"#;

fn main() {
    // --- 1. controller programs a stage ---------------------------------
    let mut controller = Controller::new();
    let mut stage = Stage::new(
        "memcached",
        &["msg_type", "key"],
        &["msg_id", "msg_type", "key", "msg_size"],
    );
    controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("GET".into()))],
        "GET",
    );
    let get_class = controller.class("memcached.r1.GET");

    // Rule lifecycle: removal reports whether it found the rule — always
    // check it, a `false` usually means the id came from the wrong rule
    // set (and logs a warning on stderr).
    let scratch = controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("STATS".into()))],
        "STATS",
    );
    assert!(
        controller.remove_stage_rule(&mut stage, "r1", scratch),
        "freshly created rule must remove cleanly"
    );
    assert!(
        !controller.remove_stage_rule(&mut stage, "r1", scratch),
        "second removal finds nothing"
    );
    println!("stage info: {:?}\n", stage.get_info());

    // --- 2. compile Figure 7 and install it into an enclave --------------
    let schema = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .msg_field("Size", Access::ReadWrite)
        .msg_field("Priority", Access::ReadOnly)
        .global_array(
            "Priorities",
            &["MessageSizeLimit", "Priority"],
            Access::ReadOnly,
        );

    let compiled = compile("pias", PIAS_SRC, &schema).expect("figure 7 compiles");
    println!(
        "compiled: {} ops, concurrency = {}, ships as {} bytes",
        compiled.program.ops().len(),
        compiled.concurrency,
        encode_program(&compiled.program).len()
    );
    println!("{}", disassemble(&compiled.program));

    // the controller plans the host's configuration as one op list: the
    // function as shipped bytecode, its rule, and the PIAS thresholds
    let thresholds = Controller::fixed_thresholds([7, 5, 1]);
    let ops = vec![
        EnclaveOp::ship("pias", &compiled),
        EnclaveOp::class_rule(get_class, 0),
        EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: Controller::flatten_pairs(&thresholds),
        },
    ];
    let mut enclave = Enclave::new(EnclaveConfig::default());
    enclave.apply(ops).expect("installs");

    // --- 3. classify a message and run its packets -----------------------
    let meta = stage.classify(&[
        ("msg_type", "GET".into()),
        ("key", "user:42".into()),
        ("msg_size", 3_000_000.into()),
    ]);
    println!(
        "classified message {} into classes {:?}\n",
        meta.msg_id, meta.classes
    );

    let mut rng = SimRng::new(1);
    println!("packet#   msg bytes   802.1p priority");
    for i in 0..800u32 {
        let mut packet = Packet::tcp(
            0x0A000001,
            0x0A000002,
            TcpHeader {
                src_port: 40000,
                dst_port: 11211,
                seq: i * 1460,
                ..Default::default()
            },
            1460,
        );
        packet.meta = Some(meta.clone());
        enclave.process(&mut packet, &mut rng, Time::from_nanos(u64::from(i)));
        if [0, 6, 7, 8, 700, 719, 720, 799].contains(&i) {
            println!("{:>7}   {:>9}   {}", i, (i + 1) * 1500, packet.priority());
        }
    }
    println!("\nthe message started at priority 7, crossed 10KB into priority 5,");
    println!("and crossed 1MB into the background priority 1 — PIAS, end to end.");
}
