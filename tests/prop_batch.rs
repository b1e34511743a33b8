//! Batch/serial equivalence (§3.4.4).
//!
//! `Enclave::process_batch` must be indistinguishable from calling
//! `process` on each packet in order — verdict for verdict, header byte
//! for header byte, state word for state word — for every concurrency
//! level: `Parallel` and `PerMessage` functions actually execute on
//! worker lanes (the per-lane minimum is forced to 1 here, so even tiny
//! chunks fan out), `Serialized` and native functions take the serial
//! fallback. The properties below drive both paths over arbitrary packet
//! streams, chunkings, and RNG seeds, then compare everything observable:
//! verdicts, the packets themselves, enclave counters, punt mailboxes,
//! per-function message state, globals, arrays, eviction counts, and every
//! per-table, per-rule, per-function and interpreter count — the last four
//! are what pin "a lookahead hint counts nothing" on the caller-thread
//! burst loop.

use eden::apps::functions::{self, FunctionBundle};
use eden::core::{
    native_function, ClassId, Enclave, EnclaveConfig, EnclaveStats, FiveTupleMatch, FuncId,
    InstalledFunction, MatchSpec, TableId,
};
use eden::lang::{compile, Access, Concurrency, HeaderField, Schema};
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time, UdpHeader};
use eden::vm::{encode_program, Outcome};
use proptest::prelude::*;

/// Install a catalogue function (interpreted or native) with the state its
/// logic expects, and route one class to it.
fn install(e: &mut Enclave, bundle: &FunctionBundle, interpreted: bool, class: u32) -> FuncId {
    let f = if interpreted {
        e.install_function(bundle.interpreted())
    } else {
        e.install_function(bundle.native())
    };
    match bundle.name {
        "sff" | "pias" => e.set_array(f, 0, vec![10_000, 7, 1_000_000, 5, i64::MAX, 1]),
        "wcmp" | "message-wcmp" => {
            e.set_array(f, 0, vec![11, 3, 22, 2, 33, 5]);
            e.set_global(f, 0, 10);
        }
        "fixed-priority" => e.set_global(f, 0, 3),
        _ => {}
    }
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(class)), f);
    f
}

/// Enclave config that forces the parallel path whenever the installed
/// functions allow it: four lanes, one packet a lane is enough.
fn batchy_config() -> EnclaveConfig {
    EnclaveConfig {
        lanes: 4,
        parallel_per_lane_min: 1,
        ..EnclaveConfig::default()
    }
}

/// A packet carrying `class` (0 = no metadata at all, so it misses unless
/// a flow rule classifies it) and a message id from a small pool, to force
/// same-message collisions within and across batches. Classes from 5 up
/// are not classes but the other shapes a burst can hold, drawn only by
/// the lookahead arm: 5 a metadata-less UDP datagram (no TCP flow rule
/// matches it), 6 the placeholder a punt leaves behind, 7 metadata without
/// a message id (stage classes, flow-as-message identity).
fn packet(class: u32, msg: u64, payload: usize, port: u16) -> Packet {
    match class {
        5 => {
            let hdr = UdpHeader {
                src_port: 9000 + port,
                dst_port: 53,
            };
            return Packet::udp(1, 2, hdr, payload.max(1));
        }
        6 => return Packet::consumed(),
        7 => return packet(1 + u32::from(port) % 4, 0, payload, port),
        _ => {}
    }
    let hdr = TcpHeader {
        src_port: 9000 + port,
        dst_port: 80,
        ..TcpHeader::default()
    };
    let mut p = Packet::tcp(1, 2, hdr, payload.max(1));
    if class > 0 {
        p.meta = Some(EdenMeta {
            classes: vec![class],
            msg_id: msg,
            msg_size: payload as i64,
            ..EdenMeta::default()
        });
    }
    p
}

/// Run the same stream through a per-packet enclave and a batched enclave
/// (both built by `mk`) and require every observable to match. The batched
/// side exercises the zero-copy entry point the stack uses: every chunk
/// travels in one reused batch buffer, drained after each chunk, and all
/// verdicts accumulate in one reused buffer via
/// [`Enclave::process_batch_into`] — so buffer reuse itself is under test
/// at every concurrency level.
fn assert_equivalent(
    mk: impl Fn() -> (Enclave, Vec<FuncId>),
    stream: &[(u32, u64, usize, u16)],
    chunk: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let chunks: Vec<_> = stream.chunks(chunk).collect();
    assert_chunks_equivalent(mk, &chunks, seed).map(|_| ())
}

/// [`assert_equivalent`] over chunks of any sizes, in order; returns how
/// the batched side ran them (`Enclave::batch_path_counts`).
fn assert_chunks_equivalent(
    mk: impl Fn() -> (Enclave, Vec<FuncId>),
    chunks: &[&[(u32, u64, usize, u16)]],
    seed: u64,
) -> Result<(u64, u64), TestCaseError> {
    let (mut serial, funcs) = mk();
    let (mut batched, _) = mk();
    let mut serial_rng = SimRng::new(seed);
    let mut batched_rng = SimRng::new(seed);
    let mut batch: Vec<Packet> = Vec::new();

    let mut serial_pkts: Vec<Packet> = Vec::new();
    let mut serial_verdicts = Vec::new();
    let mut batched_pkts: Vec<Packet> = Vec::new();
    let mut batched_verdicts = Vec::new();

    for (ci, &chunk_specs) in chunks.iter().enumerate() {
        // a batch leaves at one simulated instant, so the per-packet
        // reference uses the same timestamp for the whole chunk
        let now = Time::from_nanos(1 + ci as u64);
        for &(class, msg, payload, port) in chunk_specs {
            let mut p = packet(class, msg, payload, port);
            serial_verdicts.push(serial.process(&mut p, &mut serial_rng, now));
            serial_pkts.push(p);
        }
        prop_assert!(batch.is_empty(), "the batch buffer must come back drained");
        batch.extend(
            chunk_specs
                .iter()
                .map(|&(class, msg, payload, port)| packet(class, msg, payload, port)),
        );
        let before = batched_verdicts.len();
        batched.process_batch_into(&mut batch, &mut batched_rng, now, &mut batched_verdicts);
        prop_assert_eq!(batched_verdicts.len() - before, batch.len());
        batched_pkts.append(&mut batch);
    }

    prop_assert_eq!(&serial_verdicts, &batched_verdicts);
    prop_assert_eq!(&serial_pkts, &batched_pkts, "header bytes must match");
    // how the batches ran is the one thing the per-packet side never counts
    let packet_counts = EnclaveStats {
        batches_serial: 0,
        batches_parallel: 0,
        ..batched.stats
    };
    prop_assert_eq!(serial.stats, packet_counts);
    prop_assert!(serial.stats.conserved());
    prop_assert_eq!(serial.take_punted(), batched.take_punted());
    // a hint counts nothing: what a peek of the burst loop resolves must
    // not show in any table, rule, function or interpreter count
    let (a, b) = (serial.stats_snapshot(), batched.stats_snapshot());
    prop_assert_eq!(&a.tables, &b.tables);
    prop_assert_eq!(&a.rules, &b.rules);
    prop_assert_eq!(&a.functions, &b.functions);
    prop_assert_eq!(&a.opcode_counts, &b.opcode_counts);
    prop_assert_eq!(a.vm, b.vm);
    for &f in &funcs {
        let (a, b) = (serial.function_state(f), batched.function_state(f));
        prop_assert_eq!(a.msg_dump(), b.msg_dump(), "message state of func {}", f.0);
        prop_assert_eq!(&a.global, &b.global, "globals of func {}", f.0);
        prop_assert_eq!(&a.arrays, &b.arrays, "arrays of func {}", f.0);
        prop_assert_eq!(a.evictions, b.evictions, "evictions of func {}", f.0);
    }
    // both RNGs stand exactly one draw per packet on, whether a packet's
    // draw was read (by a function, or by the lanes' deal) or only reserved
    let mut eager = SimRng::new(seed);
    for _ in chunks.iter().flat_map(|c| c.iter()) {
        eager.next_u64();
    }
    let next = eager.next_u64();
    prop_assert_eq!(serial_rng.next_u64(), next);
    prop_assert_eq!(batched_rng.next_u64(), next);
    Ok(batched.batch_path_counts())
}

/// Stream generator: (class, message id, payload, source port).
fn streams() -> impl Strategy<Value = Vec<(u32, u64, usize, u16)>> {
    proptest::collection::vec((0u32..5, 0u64..6, 1usize..1460, 0u16..4), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Read-only (`Parallel`) interpreted functions on worker lanes: SFF
    /// and fixed-priority on separate classes, plus missing classes.
    #[test]
    fn parallel_interpreted_matches_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        assert_equivalent(|| {
            let mut e = Enclave::new(batchy_config());
            let a = install(&mut e, &functions::sff(), true, 1);
            let b = install(&mut e, &functions::fixed_priority(), true, 2);
            (e, vec![a, b])
        }, &stream, chunk, seed)?;
    }

    /// Message-writing (`PerMessage`) interpreted functions on worker
    /// lanes: PIAS accumulates message bytes, message-WCMP caches a
    /// randomly chosen path label — covering lane-side state writes,
    /// lane-side block creation, and per-packet RNG in one go.
    #[test]
    fn per_message_interpreted_matches_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        assert_equivalent(|| {
            let mut e = Enclave::new(batchy_config());
            let a = install(&mut e, &functions::pias(), true, 1);
            let b = install(&mut e, &functions::message_wcmp(), true, 2);
            (e, vec![a, b])
        }, &stream, chunk, seed)?;
    }

    /// Global-writing (`Serialized`) functions force the serial fallback —
    /// which must still agree with the per-packet path, including FIFO
    /// eviction under a tiny message cap.
    #[test]
    fn serialized_interpreted_matches_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        assert_equivalent(|| {
            let mut e = Enclave::new(EnclaveConfig {
                max_messages_per_function: 3,
                ..batchy_config()
            });
            let f = install(&mut e, &functions::flow_counter(), true, 1);
            (e, vec![f])
        }, &stream, chunk, seed)?;
    }

    /// Native closures are not lane-safe, so they also take the serial
    /// fallback; WCMP's weighted random pick checks that the per-packet
    /// RNG forking is chunk-size independent.
    #[test]
    fn native_functions_match_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        assert_equivalent(|| {
            let mut e = Enclave::new(batchy_config());
            let a = install(&mut e, &functions::wcmp(), false, 1);
            let b = install(&mut e, &functions::pias(), false, 2);
            let c = install(&mut e, &functions::flow_counter(), false, 3);
            (e, vec![a, b, c])
        }, &stream, chunk, seed)?;
    }

    /// A mixed interpreted table — all three lane-safe catalogue levels at
    /// once (`Parallel` + `PerMessage`), message ids drawn from one pool so
    /// different functions share lane assignments.
    #[test]
    fn mixed_interpreted_table_matches_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        assert_equivalent(|| {
            let mut e = Enclave::new(batchy_config());
            let a = install(&mut e, &functions::sff(), true, 1);
            let b = install(&mut e, &functions::pias(), true, 2);
            let c = install(&mut e, &functions::qjump(), true, 3);
            let d = install(&mut e, &functions::message_wcmp(), true, 4);
            (e, vec![a, b, c, d])
        }, &stream, chunk, seed)?;
    }

    /// Lanes are made at the first fan-out. The first chunks here are too
    /// thin for it (under 4 packets a lane), so message state is created
    /// on the caller's path in one shard per function; the first thick
    /// chunk fans out, which splits every function's table into one shard
    /// per lane, moving those blocks. Every observable must still equal
    /// the per-packet run, through the split and the fan-outs after it.
    #[test]
    fn caller_path_state_is_resharded_by_the_first_fan_out(
        stream in proptest::collection::vec((0u32..5, 0u64..24, 1usize..1460, 0u16..4), 80..200),
        thin in proptest::collection::vec(1usize..16, 1..5),
        thick in 16usize..80,
        seed in any::<u64>(),
    ) {
        let (head, tail) = stream.split_at(thin.iter().sum());
        let mut rest = head;
        let mut chunks: Vec<&[_]> = thin
            .iter()
            .map(|&n| {
                let (chunk, r) = rest.split_at(n);
                rest = r;
                chunk
            })
            .collect();
        chunks.extend(tail.chunks(thick));
        let (serial, parallel) = assert_chunks_equivalent(|| {
            let mut e = Enclave::new(EnclaveConfig {
                parallel_per_lane_min: 4,
                ..batchy_config()
            });
            let a = install(&mut e, &functions::pias(), true, 1);
            let b = install(&mut e, &functions::message_wcmp(), true, 2);
            let c = install(&mut e, &functions::sff(), true, 3);
            (e, vec![a, b, c])
        }, &chunks, seed)?;
        prop_assert!(serial >= thin.len() as u64, "thin chunks stay on the caller's path");
        prop_assert!(parallel >= 1, "the first thick chunk fans out");
    }

    /// A packet's draw is reserved when it is classified and computed only
    /// if a function reads its stream; `dice` reads it for the packets whose
    /// length says so — once, twice, or not at all — so which draws get
    /// computed differs from packet to packet and, between the caller's
    /// thread (on demand) and the lanes (all of them, at the deal), from
    /// path to path. What every packet sees must not: per-packet against
    /// the lane fan-out, then per-packet against the caller-thread burst.
    #[test]
    fn draws_read_by_some_packets_only_match_serial(
        stream in streams(), chunk in 1usize..80, seed in any::<u64>(),
    ) {
        for config in [batchy_config(), EnclaveConfig { lanes: 1, ..batchy_config() }] {
            assert_equivalent(|| {
                let mut e = Enclave::new(config);
                let dice = e.install_function(dice());
                e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), dice);
                let pias = install(&mut e, &functions::pias(), true, 2);
                (e, vec![dice, pias])
            }, &stream, chunk, seed)?;
        }
    }

    /// What the caller-thread burst loop reads ahead of the walk, before
    /// the walk has vetted any of it: packets without metadata (classes
    /// from flow rules, flow-as-message ids), datagrams no flow rule
    /// matches, consumed placeholders, an `Any` fallback behind the class
    /// rules, a table-0 function that goes on to a second table (the
    /// function whose state was asked for is not the last one run), and a
    /// punting function inside the lookahead window (its slot is emptied
    /// behind the peek). Bursts of one, of the lookahead distance (four)
    /// and of one more sit beside arbitrary ones; a cap of three messages
    /// makes most creations evict, so evict-ahead runs too.
    #[test]
    fn lookahead_reads_unvetted_packets_and_changes_nothing(
        stream in proptest::collection::vec((0u32..8, 0u64..6, 1usize..1460, 0u16..5), 1..200),
        chunk in prop_oneof![Just(1usize), Just(4), Just(5), 2usize..80],
        seed in any::<u64>(),
    ) {
        assert_equivalent(lookahead_enclave, &stream, chunk, seed)?;
    }
}

/// An interpreted function that reads its packet's random stream twice,
/// once or not at all, as the packet's length decides.
fn dice() -> InstalledFunction {
    let schema = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Label", Access::ReadWrite, Some(HeaderField::Dot1qVid))
        .msg_field("Rolls", Access::ReadWrite)
        .msg_field("Last", Access::ReadWrite);
    let src = "fun (p, m, g) ->\n    \
        if p.Size % 3 = 0 then (\n        \
            m.Rolls <- m.Rolls + 1\n        \
            p.Label <- 1 + randRange (4000)\n        \
            if p.Size % 2 = 0 then m.Last <- randRange (1000)\n    \
        )\n";
    let compiled = compile("dice", src, &schema).expect("dice compiles");
    InstalledFunction::interpreted("dice", compiled)
}

/// A native function that punts every packet it is handed.
fn punt_everything() -> InstalledFunction {
    native_function(
        "punt-everything",
        Schema::new(),
        Concurrency::Parallel,
        Box::new(|env| {
            env.to_controller()?;
            Ok(Outcome::SentToController)
        }),
    )
}

/// The enclave of the lookahead arm: a `Serialized` function keeps every
/// burst on the caller's thread.
fn lookahead_enclave() -> (Enclave, Vec<FuncId>) {
    let mut e = Enclave::new(EnclaveConfig {
        max_messages_per_function: 3,
        ..batchy_config()
    });
    e.set_opcode_profiling(true);
    let counter = install(&mut e, &functions::flow_counter(), true, 1);
    // class 2: count the hop in message state, then on to table 1
    let schema = Schema::new().msg_field("Hops", Access::ReadWrite);
    let src = "fun (p, m, g) ->\n    m.Hops <- m.Hops + 1\n    gotoTable (1)\n";
    let compiled = compile("hop", src, &schema).expect("hop compiles");
    let hop = e.install_function(InstalledFunction::interpreted("hop", compiled));
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(2)), hop);
    let t1 = e.create_table();
    let pias = e.install_function(functions::pias().interpreted());
    e.set_array(pias, 0, vec![10_000, 7, 1_000_000, 5, i64::MAX, 1]);
    e.install_rule(t1, MatchSpec::Any, pias);
    let punt = e.install_function(punt_everything());
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(3)), punt);
    let fallback = e.install_function(functions::fixed_priority().interpreted());
    e.set_global(fallback, 0, 3);
    e.install_rule(TableId(0), MatchSpec::Any, fallback);
    // metadata-less TCP packets get their classes here, by source port
    for class in 1..=3u16 {
        let spec = FiveTupleMatch {
            src_port: Some(9000 + class),
            proto: Some(6),
            ..FiveTupleMatch::default()
        };
        e.add_flow_rule(spec, ClassId(u32::from(class)));
    }
    (e, vec![counter, hop, pias, punt, fallback])
}

/// Concurrency enforcement: a function *declared* read-only but shipped
/// with message-writing bytecode is refused where it arrives — at install,
/// and as a whole epoch at staging — instead of being installed and then
/// trapping (and failing open) on every packet it is handed.
#[test]
fn dishonest_concurrency_declaration_is_refused_at_install() {
    use eden::core::{ApplyError, EnclaveOp, LinkError, ShippedFunction};

    let bundle = functions::pias(); // writes msg.Size; honestly PerMessage
    let compiled = compile(bundle.name, &bundle.source, &bundle.schema()).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::PerMessage);
    let bytecode = encode_program(&compiled.program);
    let shipped = |concurrency| ShippedFunction {
        name: "dishonest-pias".into(),
        bytecode: bytecode.clone(),
        schema: bundle.schema(),
        concurrency,
    };
    let installed = |declared| {
        InstalledFunction::from_shipped(&shipped(declared))
            .expect("the bytecode itself decodes and verifies")
    };

    let mut e = Enclave::new(batchy_config());
    let honest = install(&mut e, &functions::sff(), true, 1);
    let refusal = e
        .try_install_function(installed(Concurrency::Parallel)) // lie: claims read-only
        .expect_err("code that writes message state is not Parallel");
    assert_eq!(
        refusal,
        LinkError::ConcurrencyTooWeak {
            declared: Concurrency::Parallel,
            needs: Concurrency::PerMessage,
        }
    );
    // declared at its true level, or a stricter one, the same bytes link
    let mut other = Enclave::new(batchy_config());
    other
        .try_install_function(installed(Concurrency::PerMessage))
        .expect("honest declaration");
    other
        .try_install_function(installed(Concurrency::Serialized))
        .expect("a stricter level than needed is safe");

    // the same function inside an epoch: the whole epoch is refused and
    // nothing of it shows — not the rule that follows the function, not a
    // staged epoch, not a changed digest
    let (digest, epoch) = (e.config_digest(), e.active_epoch());
    let ops = vec![
        EnclaveOp::InstallFunction(Box::new(shipped(Concurrency::Parallel))),
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(2)),
            func: 1,
        },
    ];
    let err = e
        .stage_epoch(epoch + 1, ops)
        .expect_err("epoch carries an unlinkable function");
    assert!(
        matches!(&err, ApplyError::Unlinkable { op: 0, error } if *error == refusal),
        "{err:?}"
    );
    assert_eq!(e.staged_epoch(), None);
    assert!(!e.commit_epoch(epoch + 1), "nothing to commit");
    assert_eq!((e.config_digest(), e.active_epoch()), (digest, epoch));

    // and the data path never met the function: class-2 traffic misses,
    // class-1 traffic still runs the honest function, nothing faults
    let mut rng = SimRng::new(7);
    let now = Time::from_nanos(1);
    let mut pkts: Vec<Packet> = (0..64)
        .map(|i| packet(1 + i % 2, i as u64 % 4, 700, 0))
        .collect();
    e.process_batch(&mut pkts, &mut rng, now);
    assert_eq!(e.stats.faults, 0);
    assert_eq!(e.stats.matched, 32);
    assert_eq!(e.stats.missed, 32);
    let snap = e.stats_snapshot();
    assert_eq!(snap.functions.len(), 1);
    assert_eq!(snap.functions[honest.0].counts.invocations, 32);
}

/// The punt mailbox is bounded: overflowing it evicts the oldest punt and
/// counts the eviction, so a punt-heavy workload cannot grow memory
/// without bound. What stays is the newest `max_punted` punts in arrival
/// order — whether the packets came one by one through a native function
/// or as one burst through an interpreted one on the lanes, whose punts
/// reach the mailbox through the packet-order replay.
#[test]
fn punt_mailbox_is_bounded() {
    let stream: Vec<Packet> = (0..40u64)
        .map(|i| {
            let mut p = packet(1, i, 100, (i % 4) as u16);
            p.id = i;
            p
        })
        .collect();
    for cap in [0usize, 1, 8] {
        let config = EnclaveConfig {
            lanes: 4,
            max_punted: cap,
            ..EnclaveConfig::default()
        };
        let mut e = Enclave::new(config);
        let f = e.install_function(punt_everything());
        e.install_rule(TableId(0), MatchSpec::Any, f);
        let mut rng = SimRng::new(1);
        for (i, p) in stream.iter().enumerate() {
            e.process(&mut p.clone(), &mut rng, Time::from_nanos(i as u64));
        }

        let mut laned = Enclave::new(config);
        let compiled = compile("punt", "fun (p, m, g) -> toController ()", &Schema::new())
            .expect("punt compiles");
        let f = laned.install_function(InstalledFunction::interpreted("punt", compiled));
        laned.install_rule(TableId(0), MatchSpec::Any, f);
        let mut burst = stream.clone();
        laned.process_batch(&mut burst, &mut SimRng::new(1), Time::from_nanos(1));
        assert_eq!(
            laned.batch_path_counts(),
            (0, 1),
            "the burst took the lanes"
        );
        assert!(burst.iter().all(|p| *p == Packet::consumed()));

        let dropped = (stream.len() - cap) as u64;
        for e in [&mut e, &mut laned] {
            assert_eq!(e.stats.punted_to_controller, 40);
            assert_eq!(e.stats.punt_drops, dropped, "evicted punts are counted");
            assert_eq!(e.stats_snapshot().enclave.punt_drops, dropped);
            assert_eq!(e.punted_len(), cap, "mailbox stays at its cap");
            let kept = e.take_punted();
            assert_eq!(kept, stream[stream.len() - cap..], "newest, oldest first");
            assert_eq!(e.punted_len(), 0);
        }
    }
}

/// Small batches take the serial fallback, large ones fan out — and the
/// enclave counts which path each batch took, so operators can see when a
/// deployment's batch sizes defeat its lane configuration.
#[test]
fn batch_path_choice_is_counted() {
    let mut e = Enclave::new(EnclaveConfig {
        lanes: 4,
        parallel_per_lane_min: 4,
        ..EnclaveConfig::default()
    });
    install(&mut e, &functions::sff(), true, 1);
    let mut rng = SimRng::new(3);

    // 32 packets across 4 lanes = 8 per lane: clears the threshold
    let mut big: Vec<Packet> = (0..32).map(|i| packet(1, i, 100, 0)).collect();
    e.process_batch(&mut big, &mut rng, Time::from_nanos(1));
    assert_eq!(e.batch_path_counts(), (0, 1), "large batch fans out");

    // 8 packets spread only 2 per lane: the per-lane gate routes the
    // batch to the serial path
    let mut small: Vec<Packet> = (0..8).map(|i| packet(1, i, 100, 0)).collect();
    e.process_batch(&mut small, &mut rng, Time::from_nanos(2));
    assert_eq!(e.batch_path_counts(), (1, 1), "thin batch stays serial");

    let snap = e.stats_snapshot();
    assert_eq!(snap.enclave.batches_serial, 1);
    assert_eq!(snap.enclave.batches_parallel, 1);
}
