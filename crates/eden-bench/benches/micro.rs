//! Criterion microbenchmarks of the Eden data plane:
//!
//! * interpreter throughput on the Figure 7 program (packets/second);
//! * native vs interpreted enclave `process` (the Figure 12 ratio, here
//!   with Criterion statistics);
//! * stage classification cost;
//! * wire encode/decode;
//! * raw VM dispatch (arithmetic loop, ns/op);
//! * bytecode compilation (controller-side cost of a function update).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use eden_apps::functions;
use eden_core::{
    ClassId, Controller, Enclave, EnclaveConfig, FieldValue, MatchSpec, Stage, TableId,
};
use eden_vm::{Interpreter, Limits, ProgramBuilder, VecHost};
use netsim::{wire, EdenMeta, Packet, SimRng, TcpHeader, Time};

fn make_packet(i: u64) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 40000,
            dst_port: 7000,
            seq: (i * 1460) as u32,
            ..Default::default()
        },
        1460,
    );
    p.meta = Some(EdenMeta {
        classes: vec![1],
        msg_id: 1 + i % 8,
        msg_size: 100_000,
        ..Default::default()
    });
    p
}

fn build_enclave(interpreted: bool) -> Enclave {
    let bundle = functions::pias();
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(if interpreted {
        bundle.interpreted()
    } else {
        bundle.native()
    });
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    e.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
    e
}

fn bench_enclave(c: &mut Criterion) {
    let mut group = c.benchmark_group("enclave_process");
    group.throughput(Throughput::Elements(1));
    for (name, interpreted) in [("native", false), ("interpreted", true)] {
        let mut enclave = build_enclave(interpreted);
        let mut rng = SimRng::new(1);
        let mut i = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut p = make_packet(i);
                i += 1;
                black_box(enclave.process(&mut p, &mut rng, Time::from_nanos(i)))
            })
        });
    }
    group.finish();
}

fn bench_interpreter_dispatch(c: &mut Criterion) {
    // tight arithmetic loop: ~6 ops/iteration, 1000 iterations
    let mut b = ProgramBuilder::new().named("loop").with_entry_locals(1);
    let head = b.new_label();
    let done = b.new_label();
    b.push(1000).store_local(0);
    b.bind(head);
    b.load_local(0).jmp_if_not(done);
    b.load_local(0).push(1).sub().store_local(0);
    b.jmp(head);
    b.bind(done);
    b.halt();
    let program = b.build().expect("valid");

    let mut host = VecHost::default();
    let mut interp = Interpreter::new(Limits::default());
    let mut group = c.benchmark_group("vm");
    // ~6 ops per loop iteration × 1000 iterations
    group.throughput(Throughput::Elements(6_000));
    group.bench_function("dispatch_6k_ops", |b| {
        b.iter(|| black_box(interp.run(&program, &mut host).expect("runs")))
    });
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let mut controller = Controller::new();
    let mut stage = Stage::new("memcached", &["msg_type", "key"], &["msg_id"]);
    controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![(
            "msg_type".into(),
            eden_core::Matcher::Exact(FieldValue::Str("GET".into())),
        )],
        "GET",
    );
    controller.create_stage_rule(&mut stage, "r2", vec![], "DEFAULT");
    c.bench_function("stage_classify", |b| {
        b.iter(|| {
            black_box(stage.classify(&[
                ("msg_type", FieldValue::Str("GET".into())),
                ("key", FieldValue::Str("user:1234".into())),
            ]))
        })
    });
}

fn bench_wire(c: &mut Criterion) {
    let mut p = make_packet(1);
    p.set_priority(5);
    p.set_route_label(7);
    let bytes = wire::encode(&p);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_1514B", |b| b.iter(|| black_box(wire::encode(&p))));
    group.bench_function("decode_1514B", |b| {
        b.iter(|| black_box(wire::decode(&bytes).expect("valid frame")))
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let bundle = functions::pias_fig7();
    let schema = bundle.schema();
    c.bench_function("compile_fig7", |b| {
        b.iter(|| black_box(eden_lang::compile("pias", &bundle.source, &schema).expect("ok")))
    });
}

/// Ablation: match-action lookup cost as the table grows. The paper argues
/// class matching keeps the data path cheap; this quantifies the walk for
/// tables of 1, 8, and 32 rules where the packet matches the *last* one.
fn bench_table_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_table_scaling");
    for rules in [1usize, 8, 32] {
        let bundle = functions::fixed_priority();
        let mut enclave = Enclave::new(EnclaveConfig::default());
        let f = enclave.install_function(bundle.native());
        enclave.set_global(f, 0, 3);
        // rules 2..=rules+1 miss; the matching class is installed last
        for miss in 0..rules - 1 {
            enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(1000 + miss as u32)), f);
        }
        enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
        let mut rng = SimRng::new(1);
        let mut i = 0u64;
        group.bench_function(format!("{rules}_rules_last_match"), |b| {
            b.iter(|| {
                let mut p = make_packet(i);
                i += 1;
                black_box(enclave.process(&mut p, &mut rng, Time::from_nanos(i)))
            })
        });
    }
    group.finish();
}

/// Ablation: per-packet cost as the live message-state table grows — the
/// enclave's per-message state is a flat open-addressing table over a
/// slab (`eden_core::state::MsgShard`, one probe per packet on a hit), and
/// the paper's functions touch it on every packet. Past a few thousand
/// live messages the rows measure cache misses, not probing.
fn bench_message_state_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_msg_state");
    for live in [16u64, 4_096, 65_000] {
        let mut enclave = build_enclave(true);
        let mut rng = SimRng::new(1);
        // pre-populate `live` message-state blocks
        for m in 0..live {
            let mut p = make_packet(m);
            p.meta.as_mut().expect("meta set").msg_id = 10 + m;
            enclave.process(&mut p, &mut rng, Time::from_nanos(m));
        }
        let mut i = 0u64;
        group.bench_function(format!("{live}_live_messages"), |b| {
            b.iter(|| {
                let mut p = make_packet(i);
                p.meta.as_mut().expect("meta set").msg_id = 10 + (i % live);
                i += 1;
                black_box(enclave.process(&mut p, &mut rng, Time::from_nanos(i)))
            })
        });
    }
    group.finish();
}

/// Ablation: interpreted-over-native ratio per catalogue function — the
/// interpreter's cost depends on the program, not just the packet.
fn bench_catalogue_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalogue");
    group.sample_size(30);
    for bundle in functions::catalogue() {
        // conntrack needs ingress context and port-knock is stateful across
        // the exact packet sequence; benchmark the stateless-enough ones
        if matches!(bundle.name, "conntrack" | "port-knock") {
            continue;
        }
        for interpreted in [false, true] {
            let mut enclave = Enclave::new(EnclaveConfig::default());
            let f = enclave.install_function(if interpreted {
                bundle.interpreted()
            } else {
                bundle.native()
            });
            enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
            let schema = bundle.schema();
            for (i, _) in schema.arrays().iter().enumerate() {
                enclave.set_array(f, i, vec![1_000_000, 1, i64::MAX, 0]);
            }
            for sl in 0..schema.scope_len(eden_lang::Scope::Global) {
                enclave.set_global(f, sl, 1);
            }
            let mut rng = SimRng::new(1);
            let mut i = 0u64;
            let tag = if interpreted { "interp" } else { "native" };
            group.bench_function(format!("{}_{tag}", bundle.name), |b| {
                b.iter(|| {
                    let mut p = make_packet(i);
                    i += 1;
                    black_box(enclave.process(&mut p, &mut rng, Time::from_nanos(i)))
                })
            });
        }
    }
    group.finish();
}

/// The batched data path vs the per-packet loop: same SFF policy, same
/// packets, batch sizes that stay serial vs fan out to worker lanes.
fn bench_batch_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("enclave_batch");
    group.sample_size(30);
    for (name, lanes, batch) in [
        ("serial_64", 1usize, 64usize),
        ("lanes4_64", 4, 64),
        ("lanes4_512", 4, 512),
    ] {
        let bundle = functions::sff();
        let mut enclave = Enclave::new(EnclaveConfig {
            lanes,
            ..EnclaveConfig::default()
        });
        let f = enclave.install_function(bundle.interpreted());
        enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
        enclave.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
        let mut rng = SimRng::new(1);
        let mut i = 0u64;
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut pkts: Vec<Packet> = (0..batch as u64).map(|k| make_packet(i + k)).collect();
                i += batch as u64;
                black_box(enclave.process_batch(&mut pkts, &mut rng, Time::from_nanos(i)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enclave,
    bench_batch_process,
    bench_interpreter_dispatch,
    bench_classification,
    bench_wire,
    bench_compile,
    bench_table_scaling,
    bench_message_state_scaling,
    bench_catalogue_ratio
);
criterion_main!(benches);
