//! End-to-end tests: DSL source → bytecode → execution on a [`VecHost`].
//!
//! The centerpiece is the paper's Figure 7 program (PIAS priority
//! selection), which must compile with the schema of Figure 8 and behave
//! per the pseudo-code of Figure 4.

use eden_lang::{compile, Access, Concurrency, HeaderField, Schema};
use eden_vm::{Effect, Interpreter, Limits, Outcome, VecHost};

fn run_with(src: &str, schema: &Schema, host: &mut VecHost) -> (Outcome, eden_vm::Usage) {
    let compiled = compile("test", src, schema).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let mut interp = Interpreter::new(Limits::default());
    let outcome = interp
        .run(&compiled.program, host)
        .expect("program must not trap");
    (outcome, interp.usage())
}

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

#[test]
fn figure7_pias_selects_priorities_by_message_size() {
    let schema = pias_schema();
    // thresholds: <=10KB -> prio 7, <=1MB -> prio 5, else prio 1
    let thresholds = vec![10_240, 7, 1_048_576, 5, i64::MAX, 1];

    // small message: first packet of 1 KB
    let mut h = VecHost::with_slots(2, 2, 0);
    h.arrays.push(thresholds.clone());
    h.packet[0] = 1024; // Size
    h.msg[1] = 7; // desired priority >= 1 → consult thresholds
    let (outcome, _) = run_with(PIAS_SRC, &schema, &mut h);
    assert_eq!(outcome, Outcome::Done);
    assert_eq!(h.msg[0], 1024, "message size accumulated");
    assert_eq!(h.packet[1], 7, "small message gets top priority");

    // grow the same message past 10KB: priority demoted to 5
    for _ in 0..10 {
        let (_, _) = run_with(PIAS_SRC, &schema, &mut h);
    }
    assert!(h.msg[0] > 10_240);
    assert_eq!(h.packet[1], 5, "intermediate message demoted");

    // background flows can pin a low priority class (desired < 1)
    let mut h = VecHost::with_slots(2, 2, 0);
    h.arrays.push(thresholds);
    h.packet[0] = 1500;
    h.msg[1] = 0; // desired priority 0 → respected directly
    let (_, _) = run_with(PIAS_SRC, &schema, &mut h);
    assert_eq!(h.packet[1], 0);
}

#[test]
fn figure7_concurrency_is_per_message() {
    // The function writes msg.Size but only reads global state, so the
    // paper's rule (§3.4.4) gives one-packet-per-message concurrency.
    let compiled = compile("pias", PIAS_SRC, &pias_schema()).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::PerMessage);
    let state = &compiled.program.envelope().state;
    assert!(state.message.writes().contains(0));
    assert!(state.packet.writes().contains(1));
    assert!(state.global.writes().is_empty());
}

#[test]
fn figure7_fits_paper_footprint() {
    // §5.4: "stack and heap space … in the order of 64 and 256 bytes".
    let compiled = compile("pias", PIAS_SRC, &pias_schema()).unwrap();
    let mut h = VecHost::with_slots(2, 2, 0);
    h.arrays.push(vec![10_240, 7, 1_048_576, 5, i64::MAX, 1]);
    h.packet[0] = 100_000; // force the search loop to iterate
    h.msg[1] = 7;
    let mut interp = Interpreter::new(Limits::paper_footprint());
    interp
        .run(&compiled.program, &mut h)
        .expect("fig7 must fit the paper's 64B/256B footprint");
    let usage = interp.usage();
    assert!(
        usage.peak_stack_bytes() <= 64,
        "stack {}B",
        usage.peak_stack_bytes()
    );
    assert!(
        usage.peak_heap_bytes() <= 256,
        "heap {}B",
        usage.peak_heap_bytes()
    );
}

#[test]
fn tail_recursion_compiles_to_loop_constant_stack() {
    // A 1000-deep tail recursion must not consume call frames.
    let schema = Schema::new().packet_field("Out", Access::ReadWrite, None);
    let src = r#"
fun (p, m, g) ->
    let rec count i acc =
        if i = 0 then acc
        else count (i - 1, acc + i)
    p.Out <- count (1000, 0)
"#;
    let mut h = VecHost::with_slots(1, 0, 0);
    let (_, usage) = run_with(src, &schema, &mut h);
    assert_eq!(h.packet[0], 500_500);
    assert_eq!(usage.peak_call_depth, 1, "loop, not recursion");
}

#[test]
fn non_tail_recursion_is_refused_at_admission() {
    // A self-call outside tail position stays a `call`: every level of
    // the recursion holds a frame, so the program has no static bound and
    // fits no finite call-depth budget — it never starts.
    let schema = Schema::new().packet_field("Out", Access::ReadWrite, None);
    let src = r#"
fun (p, m, g) ->
    let rec tri n =
        if n = 0 then 0
        else n + tri (n - 1)
    p.Out <- tri (10)
"#;
    let compiled = compile("t", src, &schema).expect("compiles");
    assert_eq!(compiled.program.envelope().bound, None);
    let mut h = VecHost::with_slots(1, 0, 0);
    let mut interp = Interpreter::new(Limits::default());
    assert_eq!(
        interp.run(&compiled.program, &mut h),
        Err(eden_vm::VmError::CallDepthExceeded)
    );
    assert_eq!(interp.usage().steps, 0);
    assert_eq!(h.packet[0], 0);
}

#[test]
fn captures_are_rewritten_as_parameters() {
    // `limit` is captured by `clamp`; the call sites must thread it.
    let schema = Schema::new()
        .packet_field("In", Access::ReadOnly, None)
        .packet_field("Out", Access::ReadWrite, None);
    let src = r#"
fun (p, m, g) ->
    let limit = 100
    let rec clamp x =
        if x > limit then limit
        else x
    p.Out <- clamp (p.In)
"#;
    let mut h = VecHost::with_slots(2, 0, 0);
    h.packet[0] = 250;
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[1], 100);

    let mut h = VecHost::with_slots(2, 0, 0);
    h.packet[0] = 42;
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[1], 42);
}

#[test]
fn mutable_locals() {
    let schema = Schema::new().packet_field("Out", Access::ReadWrite, None);
    let src = r#"
fun (p, m, g) ->
    let mutable x = 1
    x <- x + 10
    x <- x * 2
    p.Out <- x
"#;
    let mut h = VecHost::with_slots(1, 0, 0);
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[0], 22);
}

#[test]
fn immutable_assignment_rejected() {
    let schema = Schema::new().packet_field("Out", Access::ReadWrite, None);
    let src = "fun (p, m, g) ->\n    let x = 1\n    x <- 2\n    p.Out <- x";
    let err = compile("t", src, &schema).unwrap_err();
    assert!(err.to_string().contains("immutable"), "{err}");
}

#[test]
fn read_only_field_write_rejected_statically() {
    let schema = Schema::new().packet_field("Size", Access::ReadOnly, None);
    let src = "fun (p, m, g) -> p.Size <- 0";
    let err = compile("t", src, &schema).unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
}

#[test]
fn unknown_field_rejected() {
    let schema = Schema::new();
    let err = compile("t", "fun (p, m, g) -> p.Nope <- 1", &schema).unwrap_err();
    assert!(err.to_string().contains("no field 'Nope'"), "{err}");
}

#[test]
fn short_circuit_and_or() {
    // `1 = 1 || (1 / 0) = 0` must not trap: RHS unevaluated.
    let schema = Schema::new().packet_field("Out", Access::ReadWrite, None);
    let src = "fun (p, m, g) -> p.Out <- (1 = 1) || (1 / 0 = 0)";
    let mut h = VecHost::with_slots(1, 0, 0);
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[0], 1);

    let src = "fun (p, m, g) -> p.Out <- (1 = 2) && (1 / 0 = 0)";
    let mut h = VecHost::with_slots(1, 0, 0);
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[0], 0);
}

#[test]
fn drop_builtin_terminates() {
    let schema = Schema::new().packet_field("Flag", Access::ReadOnly, None);
    let src = r#"
fun (p, m, g) ->
    if p.Flag = 1 then drop ()
    p.Flag
"#;
    let mut h = VecHost::with_slots(1, 0, 0);
    h.packet[0] = 1;
    let (outcome, _) = run_with(src, &schema, &mut h);
    assert_eq!(outcome, Outcome::Dropped);
    assert_eq!(h.effects, vec![Effect::Drop]);

    let mut h = VecHost::with_slots(1, 0, 0);
    h.packet[0] = 0;
    let (outcome, _) = run_with(src, &schema, &mut h);
    assert_eq!(outcome, Outcome::Done);
}

#[test]
fn set_queue_with_charge() {
    // Pulsar-style: charge READ packets by request size (§2.1.2).
    let schema = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("MsgType", Access::ReadOnly, Some(HeaderField::MetaMsgType))
        .packet_field("MsgSize", Access::ReadOnly, Some(HeaderField::MetaMsgSize))
        .packet_field("Tenant", Access::ReadOnly, Some(HeaderField::MetaTenant));
    let src = r#"
fun (packet, msg, _global) ->
    let size =
        if packet.MsgType = 1 then packet.MsgSize
        else packet.Size
    setQueue (packet.Tenant, size)
"#;
    // READ (type 1): charged the 64KB request size, not the 100B packet
    let mut h = VecHost::with_slots(4, 0, 0);
    h.packet = vec![100, 1, 65536, 3];
    run_with(src, &schema, &mut h);
    assert_eq!(
        h.effects,
        vec![Effect::SetQueue {
            queue: 3,
            charge: 65536
        }]
    );

    // WRITE (type 2): charged the packet size
    let mut h = VecHost::with_slots(4, 0, 0);
    h.packet = vec![1500, 2, 65536, 4];
    run_with(src, &schema, &mut h);
    assert_eq!(
        h.effects,
        vec![Effect::SetQueue {
            queue: 4,
            charge: 1500
        }]
    );
}

#[test]
fn wcmp_weighted_choice_is_roughly_proportional() {
    // WCMP data function (paper Figure 2): weighted random path choice.
    let schema = Schema::new()
        .packet_field("PathLabel", Access::ReadWrite, Some(HeaderField::Dot1qVid))
        .global_array("Weights", &[""], Access::ReadOnly)
        .global_field("TotalWeight", Access::ReadOnly);
    let src = r#"
fun (packet, msg, _global) ->
    let weights = _global.Weights
    let pick = randRange (_global.TotalWeight)
    let rec walk index acc =
        let acc2 = acc + weights.[index]
        if pick < acc2 then index
        else walk (index + 1, acc2)
    packet.PathLabel <- walk (0, 0)
"#;
    let compiled = compile("wcmp", src, &schema).unwrap();
    let mut h = VecHost::with_slots(1, 0, 1);
    h.arrays.push(vec![10, 1]); // 10:1, like Figure 1
    h.global[0] = 11;
    h.seed(123);
    let mut interp = Interpreter::new(Limits::default());
    let mut counts = [0u32; 2];
    for _ in 0..11_000 {
        interp.run(&compiled.program, &mut h).unwrap();
        counts[h.packet[0] as usize] += 1;
    }
    // expected ~10000 : ~1000
    assert!(counts[0] > 9_300 && counts[0] < 10_700, "{counts:?}");
    assert!(counts[1] > 600 && counts[1] < 1_400, "{counts:?}");
}

#[test]
fn global_writes_serialize_concurrency() {
    let schema = Schema::new().global_field("Counter", Access::ReadWrite);
    let src = "fun (p, m, g) -> g.Counter <- g.Counter + 1";
    let compiled = compile("ctr", src, &schema).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::Serialized);
}

#[test]
fn read_only_function_is_parallel() {
    let schema = Schema::new()
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_field("Level", Access::ReadOnly);
    let src = "fun (p, m, g) -> p.Priority <- g.Level";
    let compiled = compile("fix", src, &schema).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::Parallel);
}

#[test]
fn array_struct_field_round_trip() {
    let schema = Schema::new()
        .packet_field("I", Access::ReadOnly, None)
        .packet_field("Out", Access::ReadWrite, None)
        .global_array("Table", &["Key", "Value"], Access::ReadWrite);
    let src = r#"
fun (p, m, g) ->
    let t = g.Table
    t.[p.I].Value <- t.[p.I].Key * 2
    p.Out <- t.[p.I].Value
"#;
    let mut h = VecHost::with_slots(2, 0, 0);
    h.arrays.push(vec![7, 0, 9, 0]); // two elements {Key,Value}
    h.packet[0] = 1;
    run_with(src, &schema, &mut h);
    assert_eq!(h.packet[1], 18);
    assert_eq!(h.arrays[0], vec![7, 0, 9, 18]);
}

#[test]
fn goto_table_chains() {
    let schema = Schema::new().packet_field("Class", Access::ReadOnly, None);
    let src = r#"
fun (p, m, g) ->
    if p.Class = 5 then gotoTable (2)
"#;
    let mut h = VecHost::with_slots(1, 0, 0);
    h.packet[0] = 5;
    let (outcome, _) = run_with(src, &schema, &mut h);
    assert_eq!(outcome, Outcome::GotoTable(2));
}

#[test]
fn error_rendering_points_at_source() {
    let schema = Schema::new();
    let src = "fun (p, m, g) ->\n    p.Ghost <- 1";
    let err = compile("t", src, &schema).unwrap_err();
    let rendered = err.render(src);
    assert!(rendered.contains("p.Ghost <- 1"));
    assert!(rendered.contains('^'));
}

#[test]
fn hash_and_now_builtins() {
    let schema = Schema::new()
        .packet_field("A", Access::ReadOnly, None)
        .packet_field("B", Access::ReadOnly, None)
        .packet_field("H", Access::ReadWrite, None)
        .packet_field("T", Access::ReadWrite, None);
    let src = r#"
fun (p, m, g) ->
    p.H <- hash (p.A, p.B)
    p.T <- now ()
"#;
    let mut h = VecHost::with_slots(4, 0, 0);
    h.packet[0] = 5;
    h.packet[1] = 6;
    run_with(src, &schema, &mut h);
    let h1 = h.packet[2];
    assert!(h1 >= 0);
    assert!(h.packet[3] > 0, "clock advanced");
    // hash is deterministic
    let mut h2 = VecHost::with_slots(4, 0, 0);
    h2.packet[0] = 5;
    h2.packet[1] = 6;
    run_with(src, &schema, &mut h2);
    assert_eq!(h2.packet[2], h1);
}
