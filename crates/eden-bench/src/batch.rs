//! Micro: batch-size and parallel-speedup curves of the enclave's batched
//! data path (`Enclave::process_batch`).
//!
//! For each catalogue function this measures real wall-clock ns/packet as
//! a function of (a) batch size and (b) worker-lane count:
//!
//! * **lanes = 1** — the serial fallback, the per-packet baseline;
//! * **lanes = 4** — the staged classify/match/execute pipeline fanning
//!   message lanes out to scoped worker threads. The per-batch fan-out
//!   cost (thread handoff, shard split, merge) is fixed, so per-packet
//!   cost falls as the batch grows — the curve the paper's batching
//!   argument predicts.
//!
//! `Serialized` functions (global writers) are measured too: they always
//! take the serial fallback regardless of lanes, so their curve is flat —
//! which is the point, §3.4.4's concurrency levels decide what may fan
//! out. On a single-core host the lanes=4 curve still amortizes the
//! fan-out overhead but cannot show wall-clock speedup from concurrency;
//! the batch-size trend is the machine-independent signal.

use std::time::Instant;

use eden_apps::functions::{self, FunctionBundle};
use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden_lang::Concurrency;
use eden_telemetry::{Json, ToJson};
use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};

/// One measured (function, lanes, batch size) point.
#[derive(Debug, Clone)]
pub struct Point {
    pub function: &'static str,
    pub concurrency: &'static str,
    pub lanes: usize,
    pub batch_size: usize,
    pub ns_per_packet: f64,
    /// Whether this configuration actually ran on worker lanes (false for
    /// the serial fallback: lanes = 1, batch below the minimum, or a
    /// `Serialized` function).
    pub parallel: bool,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("function", self.function.into()),
            ("concurrency", self.concurrency.into()),
            ("lanes", self.lanes.into()),
            ("batch_size", self.batch_size.into()),
            ("ns_per_packet", self.ns_per_packet.into()),
            ("parallel", self.parallel.into()),
        ])
    }
}

fn concurrency_name(c: Concurrency) -> &'static str {
    match c {
        Concurrency::Parallel => "parallel",
        Concurrency::PerMessage => "per-message",
        Concurrency::Serialized => "serialized",
    }
}

fn make_packet(i: u64) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 40000 + (i % 16) as u16,
            dst_port: 7000,
            seq: (i * 1460) as u32,
            ..Default::default()
        },
        1460,
    );
    p.meta = Some(EdenMeta {
        classes: vec![1],
        // 64 live messages spread work across every lane
        msg_id: 1 + i % 64,
        msg_size: 100_000,
        ..Default::default()
    });
    p
}

/// Interpreted enclave running `bundle` behind class 1, with generic state
/// (same initialization as the catalogue microbench).
fn build(bundle: &FunctionBundle, lanes: usize) -> Enclave {
    let mut e = Enclave::new(EnclaveConfig {
        lanes,
        // the smallest parallel point is batch 8 on 4 lanes = 2 per lane;
        // keep the per-lane headroom gate below that so the series stays
        // on the worker-lane path
        parallel_per_lane_min: 2,
        ..EnclaveConfig::default()
    });
    let f = e.install_function(bundle.interpreted());
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    let schema = bundle.schema();
    for (i, _) in schema.arrays().iter().enumerate() {
        e.set_array(f, i, vec![1_000_000, 1, i64::MAX, 0]);
    }
    for slot in 0..schema.scope_len(eden_lang::Scope::Global) {
        e.set_global(f, slot, 1);
    }
    e
}

fn measure(bundle: &FunctionBundle, lanes: usize, batch_size: usize, rounds: usize) -> Point {
    let mut e = build(bundle, lanes);
    let mut rng = SimRng::new(1);
    let mut n = 0u64;
    // One batch buffer and one verdict buffer for the whole series, the
    // way the stack's arena drives the enclave: the timed region sees
    // warm reused allocations, not per-round Vec churn.
    let mut batch: Vec<Packet> = (0..64).map(make_packet).collect();
    let mut verdicts = Vec::with_capacity(batch_size.max(64));
    // warmup: touch every message block once
    e.process_batch_into(&mut batch, &mut rng, Time::from_nanos(1), &mut verdicts);
    let mut elapsed = 0u128;
    for r in 0..rounds {
        batch.clear();
        batch.extend((0..batch_size).map(|k| make_packet(n + k as u64)));
        verdicts.clear();
        let start = Instant::now();
        e.process_batch_into(
            &mut batch,
            &mut rng,
            Time::from_nanos(2 + r as u64),
            &mut verdicts,
        );
        elapsed += start.elapsed().as_nanos();
        n += batch_size as u64;
        std::hint::black_box((&mut batch, &mut verdicts));
    }
    // the per-lane headroom gate (2/lane here) keeps every configured
    // parallel point on the worker lanes; trust the enclave's own count
    let (_, parallel_batches) = e.batch_path_counts();
    Point {
        function: bundle.name,
        concurrency: concurrency_name(bundle.concurrency),
        lanes,
        batch_size,
        ns_per_packet: elapsed as f64 / n as f64,
        parallel: lanes > 1
            && batch_size >= 2
            && bundle.concurrency != Concurrency::Serialized
            && parallel_batches > 0,
    }
}

/// Measure the batch curves. `smoke` shrinks sizes and rounds so CI can
/// afford a run; the full version is for real measurement sessions.
pub fn run(smoke: bool) -> Vec<Point> {
    let (parallel_sizes, serial_sizes, rounds): (&[usize], &[usize], usize) = if smoke {
        (&[8, 64, 256], &[1, 64], 8)
    } else {
        (&[8, 64, 512, 4096], &[1, 64, 4096], 60)
    };
    let bundles = [
        functions::sff(),            // Parallel (read-only)
        functions::fixed_priority(), // Parallel
        functions::qjump(),          // Parallel
        functions::pias(),           // PerMessage
        functions::message_wcmp(),   // PerMessage
        functions::flow_counter(),   // Serialized: always the serial path
        functions::l4lb(),           // Serialized + rendezvous-hash helper
    ];
    let mut points = Vec::new();
    for bundle in &bundles {
        for &bs in serial_sizes {
            points.push(measure(bundle, 1, bs, rounds));
        }
        for &bs in parallel_sizes {
            points.push(measure(bundle, 4, bs, rounds));
        }
    }
    points
}

/// The machine-independent signal: within one function's lanes>1 series,
/// per-packet cost at the largest batch is below the smallest batch
/// (fan-out overhead amortized). Returns the (smallest, largest) pair per
/// parallel function for reporting.
pub fn amortization_check(points: &[Point]) -> Vec<(&'static str, f64, f64)> {
    let mut out = Vec::new();
    let mut names: Vec<&'static str> = points.iter().map(|p| p.function).collect();
    names.dedup();
    for name in names {
        let series: Vec<&Point> = points
            .iter()
            .filter(|p| p.function == name && p.parallel)
            .collect();
        if series.len() < 2 {
            continue;
        }
        let first = series
            .iter()
            .min_by_key(|p| p.batch_size)
            .expect("nonempty");
        let last = series
            .iter()
            .max_by_key(|p| p.batch_size)
            .expect("nonempty");
        out.push((name, first.ns_per_packet, last.ns_per_packet));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_curves() {
        let points = run(true);
        assert!(!points.is_empty());
        // every function contributes a serial and a lanes=4 series
        assert!(points.iter().any(|p| p.function == "sff" && p.parallel));
        assert!(points.iter().any(|p| p.function == "sff" && !p.parallel));
        // Serialized functions never report a parallel point
        assert!(points
            .iter()
            .filter(|p| p.function == "flow-counter")
            .all(|p| !p.parallel));
        assert!(points.iter().all(|p| p.ns_per_packet > 0.0));
        let checks = amortization_check(&points);
        assert!(checks.iter().any(|(name, _, _)| *name == "sff"));
    }
}
