//! The enclave's packet path allocates nothing once its tables are warm.
//!
//! A counting global allocator wraps `System` and counts the allocation
//! calls (`alloc`, `alloc_zeroed`, `realloc`) its own thread makes while
//! armed. The enclave holds all 19 catalogue bundles, interpreted, with
//! the case-study state the fuzzer's execution oracle gives them, at a
//! cap of 256 message blocks a function. Once every function is warm past
//! its cap (a function's free list allocates on its first eviction) and
//! conn-steer's sequenced outbox is at its bound, none of these makes an
//! allocation call, per packet through `process` or per burst through
//! `process_batch_into`: floods of ids never seen (every one evicts),
//! recurring ids, punts past a full mailbox, and bursts between delta
//! epochs staged and committed.
//!
//! Trace sampling is off. A sampled packet still allocates (its
//! per-function latency samples and its root span's name), and so does a
//! trap: it freezes the flight recorder, which copies the rings into a
//! dump. A burst in which every packet traps freezes once, not once a
//! packet.
//!
//! One `#[test]`: the counter is per thread, and one test keeps the
//! harness's own work off the thread being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eden::apps::functions::{catalogue, catalogue_rules};
use eden::core::{ClassId, Enclave, EnclaveConfig, EnclaveOp, FuncId, MatchSpec, ShippedFunction};
use eden::lang::{compile, Concurrency, Schema};
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
use eden::repl::SEQ_PENDING_CAP;
use eden::transport::HookVerdict;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread locals are torn down
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            CALLS.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `alloc`'s contract; forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocation calls it makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    CALLS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    CALLS.with(Cell::get)
}

const CAP: u64 = 256;
const BURST: usize = 64;
/// Class of the function that punts every packet to the controller.
const PUNT: u32 = 100;
/// Class of the function that traps on every packet.
const TRAP: u32 = 101;

fn packet(class: u32, msg: u64) -> Packet {
    let hdr = TcpHeader {
        src_port: 40000 + (msg % 5) as u16,
        dst_port: [80, 22, 1001, 1002, 1003][(msg % 5) as usize],
        ..TcpHeader::default()
    };
    let mut p = Packet::tcp(1, 2, hdr, 1 + (msg * 37 % 1400) as usize);
    p.meta = Some(EdenMeta {
        classes: vec![class],
        msg_id: msg,
        msg_type: 1 + (msg % 2) as i64,
        msg_size: (msg * 7919 % 2_000_000) as i64,
        tenant: (msg % 3) as i64,
        key_hash: msg.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64,
        ..EdenMeta::default()
    });
    p
}

/// Every catalogue bundle on its own class (1..=19), a punting function
/// and a trapping one.
fn enclave() -> (Enclave, Vec<u32>) {
    let mut e = Enclave::new(EnclaveConfig {
        max_messages_per_function: CAP as usize,
        max_punted: 16,
        trace_sample: 0,
        ..EnclaveConfig::default()
    });
    let bundles = catalogue();
    let classes: Vec<u32> = (1..=bundles.len() as u32).collect();
    assert_eq!(classes.len(), 19);
    let punt =
        compile("punt", "fun (p, m, g) -> toController ()", &Schema::new()).expect("punt compiles");
    let mut b = eden::vm::ProgramBuilder::new();
    b.push(1).push(0).div().pop().halt();
    let trap = EnclaveOp::InstallFunction(Box::new(ShippedFunction {
        name: "divzero".into(),
        bytecode: eden::vm::encode_program(&b.build().expect("builds")),
        schema: Schema::new(),
        concurrency: Concurrency::Parallel,
    }));
    let rule = |class, func| EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(ClassId(class)),
        func,
    };
    let mut ops: Vec<EnclaveOp> = bundles.iter().map(|b| b.shipped()).collect();
    ops.extend(catalogue_rules(&bundles));
    ops.extend([EnclaveOp::ship("punt", &punt), rule(PUNT, 19)]);
    ops.extend([trap, rule(TRAP, 20)]);
    e.apply(ops).expect("the catalogue host applies");
    (e, classes)
}

/// `n` packets of each class in turn, message ids `first..first + n`.
fn stream(classes: &[u32], first: u64, n: u64) -> Vec<Packet> {
    (first..first + n)
        .flat_map(|msg| classes.iter().map(move |&c| packet(c, msg)))
        .collect()
}

/// Allocation calls of `packets` through `process`, one by one.
fn per_packet(e: &mut Enclave, rng: &mut SimRng, now: Time, mut packets: Vec<Packet>) -> u64 {
    let calls = allocs(|| {
        for p in packets.iter_mut() {
            std::hint::black_box(e.process(p, rng, now));
        }
    });
    drop(packets);
    calls
}

/// Allocation calls of `packets` through `process_batch_into`, in bursts
/// of [`BURST`] into one verdict buffer with room for a burst.
fn bursts(e: &mut Enclave, rng: &mut SimRng, now: Time, mut packets: Vec<Packet>) -> u64 {
    let mut out: Vec<HookVerdict> = Vec::with_capacity(BURST);
    let calls = allocs(|| {
        for burst in packets.chunks_mut(BURST) {
            out.clear();
            e.process_batch_into(burst, rng, now, &mut out);
            std::hint::black_box(&out);
        }
    });
    drop(packets);
    calls
}

/// One delta epoch, as an agent applies one between bursts: a rule for an
/// unused class, added after the rules table 0 holds or removed again.
fn flip_epoch(e: &mut Enclave, add: bool, rules: usize) {
    let op = if add {
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1000)),
            func: 0,
        }
    } else {
        EnclaveOp::RemoveRule {
            table: 0,
            rule: rules,
        }
    };
    let epoch = e.active_epoch() + 1;
    e.stage_epoch_delta(epoch, e.config_digest(), vec![op])
        .expect("delta stages against its own digest");
    assert!(e.commit_epoch(epoch));
}

#[test]
fn the_warm_packet_path_allocates_nothing() {
    let (mut e, classes) = enclave();
    let rules = classes.len() + 2;
    let mut rng = SimRng::new(7);
    let now = Time::from_nanos(1);

    // warm: every function past its cap through both entry points;
    // conn-steer's sequenced outbox (one write a new message, and no
    // controller drains it here) at its bound; the punt mailbox full; an
    // epoch flipped both ways; the trap path run
    let mut next = SEQ_PENDING_CAP as u64;
    bursts(&mut e, &mut rng, now, stream(&classes, 0, next));
    per_packet(&mut e, &mut rng, now, stream(&classes, next, CAP));
    next += CAP;
    let outboxes: Vec<usize> = (e.repl_funcs().iter())
        .map(|&f| e.repl_host(f).expect("replicated").pending_len())
        .collect();
    assert!(outboxes.contains(&SEQ_PENDING_CAP), "{outboxes:?}");
    assert!(outboxes.iter().all(|&n| n == 0 || n == SEQ_PENDING_CAP));
    bursts(&mut e, &mut rng, now, stream(&[PUNT], 0, 2 * CAP));
    flip_epoch(&mut e, true, rules);
    flip_epoch(&mut e, false, rules);
    bursts(&mut e, &mut rng, now, stream(&[TRAP], 0, 2 * CAP));
    for (f, _) in classes.iter().enumerate() {
        let st = e.function_state(FuncId(f));
        assert_eq!(st.live_messages() as u64, CAP, "function {f} is at its cap");
    }
    let evictions = |e: &Enclave| -> u64 {
        (0..classes.len())
            .map(|f| e.function_state(FuncId(f)).evictions)
            .sum()
    };
    let evicted = evictions(&e);

    // new ids: every packet creates a block and evicts the oldest
    for through_bursts in [true, false, true] {
        let packets = stream(&classes, next, 2 * CAP);
        next += 2 * CAP;
        let calls = if through_bursts {
            bursts(&mut e, &mut rng, now, packets)
        } else {
            per_packet(&mut e, &mut rng, now, packets)
        };
        assert_eq!(calls, 0, "new-id flood (bursts: {through_bursts})");
    }
    let flooded = 3 * 2 * CAP * classes.len() as u64;
    assert_eq!(evictions(&e), evicted + flooded, "every new id evicted");

    // recurring ids: the last cap's worth, hit again and again
    for _ in 0..3 {
        let calls = bursts(&mut e, &mut rng, now, stream(&classes, next - CAP, CAP));
        assert_eq!(calls, 0, "recurring ids through bursts");
        let calls = per_packet(&mut e, &mut rng, now, stream(&classes, next - CAP, CAP));
        assert_eq!(calls, 0, "recurring ids per packet");
    }
    assert_eq!(evictions(&e), evicted + flooded, "recurring ids hit");

    // punts past a full mailbox: the oldest punt makes room
    let drops = e.stats.punt_drops;
    let calls = bursts(
        &mut e,
        &mut rng,
        now,
        stream(&[PUNT], 2 * CAP, 4 * BURST as u64),
    );
    assert_eq!(calls, 0, "punts through bursts");
    let calls = per_packet(&mut e, &mut rng, now, stream(&[PUNT], 0, 40));
    assert_eq!(calls, 0, "punts per packet");
    assert_eq!(e.stats.punt_drops, drops + 4 * BURST as u64 + 40);

    // delta epochs staged and committed between bursts
    for k in 0..6 {
        flip_epoch(&mut e, k % 2 == 0, rules);
        let packets = stream(&classes, next, 8);
        next += 8;
        let calls = if k % 3 == 0 {
            per_packet(&mut e, &mut rng, now, packets)
        } else {
            bursts(&mut e, &mut rng, now, packets)
        };
        assert_eq!(calls, 0, "burst after epoch {}", e.active_epoch());
    }

    // a trap storm: a burst in which every packet traps freezes the
    // flight recorder once, so it makes the calls of one freeze
    let one_freeze = allocs(|| e.freeze_flight("vm_trap"));
    assert!(one_freeze > 0, "a freeze copies the rings");
    let faults = e.stats.faults;
    let calls = bursts(&mut e, &mut rng, now, stream(&[TRAP], 0, BURST as u64));
    assert_eq!(
        e.stats.faults,
        faults + BURST as u64,
        "every packet trapped"
    );
    assert_eq!(calls, one_freeze, "one freeze for the burst, not {BURST}");

    assert_eq!(
        e.batch_path_counts().1,
        0,
        "every burst stayed on the caller's thread"
    );
    assert_eq!(
        e.stats.packets,
        e.stats.forwarded + e.stats.dropped + e.stats.punted_to_controller
    );
}
