//! Observability overhead gate: the Figure-12 interpreted data path with
//! trace sampling at 1-in-64 versus tracing disabled. Takes no arguments.
//!
//! Times the same per-packet work as the fig12 `+ interp` point (packet
//! build, enclave match-action walk running the interpreted SFF function,
//! wire encode) on two enclaves, one with `trace_sample = 0` and one with
//! `trace_sample = 64`, the sampling rate the control plane defaults to,
//! alternating batches between them. Spans are drained between batches,
//! mirroring the heartbeat piggyback, so the sink never grows unbounded
//! while the timed loop runs.
//!
//! Both configurations are compared on their per-batch *floor* (the
//! minimum per-packet nanoseconds across batches): floors estimate the
//! uncontended cost of the code itself and are far less noisy than means
//! on shared CI machines. Exits 0 within the 5 % budget, 1 over it.
//! Emits `BENCH_obs_overhead.json` (honours `EDEN_BENCH_DIR`).

use std::process::ExitCode;
use std::time::Instant;

use eden_apps::functions;
use eden_bench::report::{emit_json, interleaved};
use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden_telemetry::Json;
use netsim::{wire, EdenMeta, Packet, SimRng, TcpHeader, Time};

/// The trace sampling rate under test: one packet in 64, the default the
/// observability docs recommend for always-on production tracing.
const SAMPLE: u32 = 64;
/// The largest data-path cost sampled tracing may add, as a fraction.
const MAX_OVERHEAD: f64 = 0.05;
const BATCHES: usize = 200;
const PER_BATCH: usize = 5_000;

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
        msg_size: 5_000_000,
        ..Default::default()
    });
    p
}

fn build_enclave(trace_sample: u32) -> Enclave {
    let bundle = functions::sff();
    let mut e = Enclave::new(EnclaveConfig {
        trace_sample,
        ..EnclaveConfig::default()
    });
    let f = e.install_function(bundle.interpreted());
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    e.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
    e
}

/// One timed batch through `e`; returns per-packet nanoseconds. Spans are
/// drained outside the timed region (that cost rides the control path,
/// not the data path).
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
    e.drain_spans(usize::MAX);
    elapsed / PER_BATCH as f64
}

fn main() -> ExitCode {
    println!("== Observability overhead: trace_sample {SAMPLE} vs disabled ==");
    println!("interpreted SFF data path, {BATCHES} batches x {PER_BATCH} packets\n");

    let mut off = build_enclave(0);
    let mut traced = build_enclave(SAMPLE);
    let (mut rng_a, mut rng_b) = (SimRng::new(7), SimRng::new(7));
    let (mut na, mut nb) = (0u64, 0u64);
    let (off_cost, traced_cost) = interleaved(
        BATCHES,
        || one_batch(&mut off, &mut rng_a, &mut na),
        || one_batch(&mut traced, &mut rng_b, &mut nb),
    );
    assert!(traced.pending_spans() == 0, "spans drained between batches");

    let (off_floor, traced_floor) = (off_cost.floor, traced_cost.floor);
    let overhead = (traced_floor - off_floor) / off_floor;

    println!(
        "tracing off : floor {off_floor:.1} ns/pkt (mean {:.1})",
        off_cost.mean
    );
    println!(
        "tracing 1/{SAMPLE}: floor {traced_floor:.1} ns/pkt (mean {:.1})",
        traced_cost.mean
    );
    println!(
        "overhead    : {:+.2}% (budget {:.1}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    let artifact = Json::obj(vec![
        ("sample", u64::from(SAMPLE).into()),
        ("off_floor_ns", off_floor.into()),
        ("traced_floor_ns", traced_floor.into()),
        ("overhead_fraction", overhead.into()),
        ("budget_fraction", MAX_OVERHEAD.into()),
        ("within_budget", (overhead <= MAX_OVERHEAD).into()),
    ]);
    match emit_json("obs_overhead", &artifact) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_obs_overhead.json: {e}"),
    }

    if overhead > MAX_OVERHEAD {
        eprintln!(
            "obs_overhead: sampled tracing costs {:.2}% > {:.1}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("obs_overhead: ok");
        ExitCode::SUCCESS
    }
}
