//! What a configuration costs a host to hold (§5.4: the enclave may sit on
//! a NIC), counted in live heap bytes and allocation calls.
//!
//! A counting global allocator wraps `System` and keeps a running total of
//! the bytes its own thread holds: `alloc` adds, `dealloc` subtracts,
//! `realloc` adds the difference. The difference of two readings is what
//! the code between them left allocated. A second total counts the
//! allocation calls (`alloc`, `alloc_zeroed`, `realloc`) the thread makes.
//!
//! Four bounds, on the configuration the control plane ships most — a
//! Reset-led epoch of one function and [`RULES`] single-class rules:
//!
//! - committed, it holds at most [`COMMITTED_MAX`] bytes beyond an empty
//!   enclave: each rule one packed word, its prefix digest, its hit
//!   counter and at most two class buckets ([`TABLE_BYTES_PER_RULE`]),
//!   beside one linked function;
//! - staged again on top of it (the moment a two-phase update holds the
//!   old and the new configuration at once), at most [`STAGED_MAX`] bytes
//!   more: each rule one step of word and table ([`STAGED_BYTES_PER_RULE`]),
//!   beside the function linked at validation;
//! - committing that epoch again, to an enclave that holds it, makes no
//!   more allocation calls than committing its one function alone does:
//!   a `Reset` keeps the tables, and a rule it ships again costs a
//!   compare. Both measure 5 calls. When a `Reset` dropped the tables,
//!   the epoch's commit measured 9: the rule list, the prefix digests,
//!   the class index and the hit counters, each made again;
//! - an enclave that has run no packet holds no interpreter: the first
//!   packet makes one.
//!
//! One `#[test]`: the total is per thread, and one test keeps the
//! harness's own work off the thread being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eden::core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden::lang::{Access, HeaderField, Schema};
use eden::netsim::{EdenMeta, Packet, SimRng, Time, UdpHeader};
use eden::vm::Interpreter;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: the allocator also runs while thread locals are torn down
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

fn call() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        call();
        // SAFETY: the caller upholds `alloc`'s contract; forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        call();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        call();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return what it returned and the bytes it left allocated on
/// this thread.
fn held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// Run `f` and return what it returned and the allocation calls it made
/// on this thread.
fn calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Rules in the epoch: `ctrl-churn`'s table.
const RULES: usize = 256;

/// A committed single-class rule: its 8-byte word, its 8-byte prefix
/// digest and its 8-byte hit counter, and two 8-byte class buckets (the
/// class index keeps its load at or under one half).
const TABLE_BYTES_PER_RULE: i64 = 8 + 8 + 8 + 2 * 8;

/// A staged single-class rule: one 16-byte step, its word and its table.
const STAGED_BYTES_PER_RULE: i64 = 16;

/// The committed function besides its rules: the linked program, its
/// state and one entry in each of the enclave's per-function rows, none
/// of them a latency histogram while sampling is off. Measured at
/// 1,288 B; a 528-byte histogram a function, kept whether or not anything
/// was sampled, made it 1,816 B.
const FUNCTION_BYTES: i64 = 2048 - 528;

/// The staged function: the linked program, before any state. Measured
/// at 680 B.
const STAGED_FUNCTION_BYTES: i64 = 1024;

/// Each bound is its layout's bytes plus an eighth.
const fn with_margin(bytes: i64) -> i64 {
    bytes + bytes / 8
}

/// Committed, beyond an empty enclave: 13,230 B. The packed layout
/// measures 11,528 B, and 72-byte rules (a `MatchSpec` and a `usize`
/// function, 12-byte class buckets) came to 24,592 B.
const COMMITTED_MAX: i64 = with_margin(RULES as i64 * TABLE_BYTES_PER_RULE + FUNCTION_BYTES);

/// Staged again on top of the committed epoch: 5,760 B. The packed form
/// measures 4,808 B, and holding the 48-byte ops with the shipped
/// bytecode beside the linked function came to 14,747 B.
const STAGED_MAX: i64 = with_margin(RULES as i64 * STAGED_BYTES_PER_RULE + STAGED_FUNCTION_BYTES);

/// A Reset-led epoch: one function that sets the packet's priority, then
/// one rule per class `0..rules`, all selecting it.
fn epoch_ops(rules: usize) -> Vec<EnclaveOp> {
    let schema =
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
    let install = Controller::new()
        .plan_function(
            "set_prio",
            "fun (packet, msg, _global) -> packet.Priority <- 5",
            &schema,
        )
        .expect("compiles");
    let rules = (0..rules as u32).map(|c| EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(ClassId(c)),
        func: 0,
    });
    [EnclaveOp::Reset, install]
        .into_iter()
        .chain(rules)
        .collect()
}

/// Stage `ops` (copied from the slice, so the copy's bytes count only for
/// what staging keeps of it) and commit them as `epoch`.
fn commit(e: &mut Enclave, epoch: u64, ops: &[EnclaveOp]) {
    e.stage_epoch(epoch, ops).expect("a valid epoch");
    assert!(e.commit_epoch(epoch));
}

#[test]
fn a_configuration_costs_its_packed_words() {
    let ops = epoch_ops(RULES);
    let bare = epoch_ops(0);
    let interp = std::mem::size_of::<Interpreter>() as i64;

    let (mut empty, empty_bytes) = held(|| Enclave::new(EnclaveConfig::default()));
    assert!(
        empty_bytes < interp,
        "an empty enclave holds {empty_bytes} B, an interpreter is {interp} B"
    );

    // the function alone, to report what the rules cost apart from it
    let ((), function_bytes) = held(|| commit(&mut empty, 1, &bare));

    let (mut e, built) = held(|| {
        let mut e = Enclave::new(EnclaveConfig::default());
        commit(&mut e, 1, &ops);
        e
    });
    let committed = built - empty_bytes;
    let per_rule = (committed - function_bytes) as f64 / RULES as f64;
    eprintln!(
        "empty {empty_bytes} B, committed {committed} B ({function_bytes} B the function, \
         {per_rule:.1} B a rule)"
    );
    assert!(
        committed <= COMMITTED_MAX,
        "committed {committed} B beyond an empty enclave, at most {COMMITTED_MAX} B"
    );

    let ((), staged) = held(|| e.stage_epoch(2, &ops[..]).expect("a valid epoch"));
    eprintln!("staged again {staged} B");
    assert!(
        staged <= STAGED_MAX,
        "staging the epoch again held {staged} B, at most {STAGED_MAX} B"
    );
    let (((), committed_again), commit_calls) = calls(|| held(|| assert!(e.commit_epoch(2))));
    assert!(
        committed_again <= 0,
        "the commit releases what it replaced: {committed_again} B"
    );

    // what committing the function costs on its own, staged outside the
    // count as the epoch above was
    let mut alone = Enclave::new(EnclaveConfig::default());
    commit(&mut alone, 1, &bare);
    alone.stage_epoch(2, &bare[..]).expect("a valid epoch");
    let ((), function_calls) = calls(|| assert!(alone.commit_epoch(2)));
    eprintln!(
        "committing the epoch again: {commit_calls} allocation calls, \
         the function alone {function_calls}"
    );
    assert!(
        commit_calls <= function_calls,
        "committing {RULES} rules the enclave holds made {commit_calls} allocation calls, \
         its one function alone {function_calls}"
    );

    // no packet, no interpreter: the first one makes it
    let mut packet = Packet::udp(1, 2, UdpHeader::default(), 100);
    packet.meta = Some(EdenMeta {
        classes: vec![7],
        msg_id: 1,
        ..EdenMeta::default()
    });
    let (_, first_packet) = held(|| e.process(&mut packet, &mut SimRng::new(1), Time::ZERO));
    assert_eq!(packet.priority(), 5, "class 7's rule ran the function");
    assert!(
        first_packet >= interp,
        "the first packet made the interpreter: {first_packet} B, an interpreter is {interp} B"
    );
}
