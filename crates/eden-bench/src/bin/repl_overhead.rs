//! Replication overhead gate: the interpreted data path reading and
//! writing a `replicated(merged)` global versus the identical function on
//! a host-local global. Takes no arguments.
//!
//! The paper's premise — and the subsystem's design constraint — is that
//! action functions make *local* decisions against a replica view with
//! zero hot-path synchronization: a replicated read folds the last
//! synced remote snapshot into the local value with plain arithmetic, no
//! locks, no atomics. This gate holds the implementation to that claim.
//! Both enclaves run the same compiled token-bucket-style function (read
//! a budget global, compare, debit); the replicated enclave additionally
//! carries a merged remote view installed via `apply_repl_view`, so its
//! loads take the real shared-state path, not the trivially-empty one.
//!
//! Configurations are compared on their per-batch *floor* (minimum
//! per-packet nanoseconds across batches), the noise-resistant estimate
//! the obs-overhead gate established. Exits 0 within the 5 % budget, 1
//! over it. Emits `BENCH_repl_overhead.json` (honours `EDEN_BENCH_DIR`).

use std::process::ExitCode;
use std::time::Instant;

use eden_bench::report::{emit_json, interleaved};
use eden_core::{ClassId, Enclave, EnclaveConfig, InstalledFunction, MatchSpec, TableId};
use eden_lang::{compile, Access, HeaderField, ReplMode, Schema};
use eden_repl::FuncView;
use eden_telemetry::Json;
use netsim::{wire, EdenMeta, Packet, SimRng, TcpHeader, Time};

/// The function under test: read the budget, compare, debit. One
/// replicated-global load and one store per packet — the hot-path shape
/// of the distributed rate limiter.
const SOURCE: &str = "fun (packet: Packet, msg: Message, _global: Global) ->
    if _global.Used + packet.Size > _global.Limit then drop ()
    else _global.Used <- _global.Used + packet.Size";

/// The largest data-path cost replica reads may add, as a fraction.
const MAX_OVERHEAD: f64 = 0.05;
// batches are cheap here (the function is ~260ns/pkt), so long ones buy a
// stable floor: short batches make the minimum track scheduler luck
// instead of the code under test
const BATCHES: usize = 300;
const PER_BATCH: usize = 10_000;

fn schema(replicated: bool) -> Schema {
    let s = Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .global_field("Limit", Access::ReadOnly)
        .global_field("Used", Access::ReadWrite);
    if replicated {
        s.replicated(ReplMode::MergedSum)
    } else {
        s
    }
}

fn make_packet(i: u64) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 40000 + (i % 12) as u16,
            dst_port: 7000,
            seq: (i * 1460) as u32,
            ack: 0,
            flags: netsim::TcpFlags {
                ack: true,
                ..Default::default()
            },
            window: 8192,
        },
        1460,
    );
    p.meta = Some(EdenMeta {
        classes: vec![1],
        msg_id: 1 + i % 12,
        ..Default::default()
    });
    p
}

fn build_enclave(replicated: bool) -> Enclave {
    let schema = schema(replicated);
    let compiled = compile("repl_gate", SOURCE, &schema)
        .unwrap_or_else(|e| panic!("gate function does not compile: {}", e.render(SOURCE)));
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(InstalledFunction::interpreted("repl_gate", compiled));
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    // a budget no run exhausts, so both arms stay on the debit path
    e.set_global(f, 0, i64::MAX / 2);
    if replicated {
        // install a non-trivial remote view so replicated loads fold a
        // real synced snapshot, not the empty default
        e.apply_repl_view(
            &FuncView {
                func: 0,
                version: 1,
                remote: vec![(1, 5_000_000)],
                ..FuncView::default()
            },
            0,
        );
    }
    e
}

/// One timed batch through `e`; returns per-packet nanoseconds.
fn one_batch(e: &mut Enclave, rng: &mut SimRng, n: &mut u64) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..PER_BATCH {
        let mut p = make_packet(*n);
        let _ = e.process(&mut p, rng, Time::from_nanos(*n));
        sink = sink.wrapping_add(u64::from(wire::encode(&p)[20]));
        *n += 1;
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    elapsed / PER_BATCH as f64
}

fn main() -> ExitCode {
    println!("== Replication overhead: replicated(merged) global vs host-local ==");
    println!("interpreted budget-debit data path, {BATCHES} batches x {PER_BATCH} packets\n");

    let mut local = build_enclave(false);
    let mut repl = build_enclave(true);
    let (mut rng_a, mut rng_b) = (SimRng::new(7), SimRng::new(7));
    let (mut na, mut nb) = (0u64, 0u64);
    let (local_cost, repl_cost) = interleaved(
        BATCHES,
        || one_batch(&mut local, &mut rng_a, &mut na),
        || one_batch(&mut repl, &mut rng_b, &mut nb),
    );
    assert_eq!(
        local.stats.dropped, 0,
        "budget exhausted: the arms stopped doing the same work"
    );
    assert_eq!(repl.stats.dropped, 0, "replicated arm hit the budget");

    let (local_floor, repl_floor) = (local_cost.floor, repl_cost.floor);
    let overhead = (repl_floor - local_floor) / local_floor;

    println!(
        "host-local : floor {local_floor:.1} ns/pkt (mean {:.1})",
        local_cost.mean
    );
    println!(
        "replicated : floor {repl_floor:.1} ns/pkt (mean {:.1})",
        repl_cost.mean
    );
    println!(
        "overhead   : {:+.2}% (budget {:.1}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    let artifact = Json::obj(vec![
        ("local_floor_ns", local_floor.into()),
        ("repl_floor_ns", repl_floor.into()),
        ("overhead_fraction", overhead.into()),
        ("budget_fraction", MAX_OVERHEAD.into()),
        ("within_budget", (overhead <= MAX_OVERHEAD).into()),
    ]);
    match emit_json("repl_overhead", &artifact) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_repl_overhead.json: {e}"),
    }

    if overhead > MAX_OVERHEAD {
        eprintln!(
            "repl_overhead: replica reads cost {:.2}% > {:.1}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("repl_overhead: ok");
        ExitCode::SUCCESS
    }
}
