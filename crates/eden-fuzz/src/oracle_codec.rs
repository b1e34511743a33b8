//! Codec robustness: round-trip fidelity and mutation/garbage tolerance
//! for both wire formats — `eden-vm` bytecode blobs and `eden-ctrl`
//! control frames (including MTU fragmentation/reassembly).
//!
//! The contract under test: a decoder fed *any* bytes either returns a
//! value or returns an error. It never panics, and the reassembler never
//! buffers beyond its declared capacity no matter what fragment headers
//! claim. Round-trips of honestly encoded values must reproduce the value
//! exactly (`PartialEq`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::gen_bytecode::{gen_structured, mutate_bytes};
use crate::gen_source::gen_schema;
use crate::report::{Failure, OracleReport};
use crate::rng::FuzzRng;
use eden_core::{ClassId, EnclaveOp, MatchSpec, ShippedFunction};
use eden_ctrl::proto::{
    fragment, repl_deltas_wire_len, Reassembler, MAX_CHUNK, MAX_FRAGS, MAX_SPAN_NAME, TRACE_TRAILER,
};
use eden_ctrl::{AckPhase, CtrlMsg, CtrlReply, Request, Response};
use eden_lang::Concurrency;
use eden_repl::{FuncDelta, FuncView, SeqEntry, SeqOp, SeqSnapshot, SeqTarget};
use eden_telemetry::{EnclaveCounters, LatencyStat, LogHistogram, Span, TraceContext};
use eden_vm::{decode_program, encode_program, Program};

/// Reassembler capacity used by the bombardment check; small so the
/// eviction path is actually exercised.
const REASM_CAP: usize = 8;

fn gen_enclave_op(rng: &mut FuzzRng) -> EnclaveOp {
    match rng.below(8) {
        0 => EnclaveOp::Reset,
        1 => EnclaveOp::CreateTable,
        2 => EnclaveOp::ClearTable {
            table: rng.below(4) as usize,
        },
        3 => {
            let desc = gen_schema(rng);
            let n = rng.range(0, 64);
            EnclaveOp::InstallFunction(Box::new(ShippedFunction {
                name: format!("f{}", rng.below(1000)),
                bytecode: (0..n).map(|_| rng.next_u64() as u8).collect(),
                schema: desc.to_schema(),
                concurrency: *rng.pick(&[
                    Concurrency::Parallel,
                    Concurrency::PerMessage,
                    Concurrency::Serialized,
                ]),
            }))
        }
        4 => {
            let spec = match rng.below(3) {
                0 => MatchSpec::Any,
                1 => MatchSpec::Class(ClassId(rng.next_u64() as u32)),
                _ => MatchSpec::AnyOf(
                    (0..rng.range(0, 5))
                        .map(|_| ClassId(rng.next_u64() as u32))
                        .collect(),
                ),
            };
            EnclaveOp::InstallRule {
                table: rng.below(4) as usize,
                spec,
                func: rng.below(8) as usize,
            }
        }
        5 => EnclaveOp::RemoveRule {
            table: rng.below(4) as usize,
            rule: rng.below(8) as usize,
        },
        6 => EnclaveOp::SetGlobal {
            func: rng.below(8) as usize,
            slot: rng.below(8) as usize,
            value: rng.interesting_i64(),
        },
        _ => EnclaveOp::SetArray {
            func: rng.below(8) as usize,
            array: rng.below(4) as usize,
            values: (0..rng.range(0, 12))
                .map(|_| rng.interesting_i64())
                .collect(),
        },
    }
}

fn gen_ctrl_msg(rng: &mut FuzzRng) -> CtrlMsg {
    match rng.below(8) {
        0 => CtrlMsg::Prepare {
            epoch: rng.next_u64(),
            ops: (0..rng.range(0, 6)).map(|_| gen_enclave_op(rng)).collect(),
        },
        1 => CtrlMsg::Commit {
            epoch: rng.next_u64(),
        },
        2 => CtrlMsg::Abort {
            epoch: rng.next_u64(),
        },
        3 => CtrlMsg::Heartbeat {
            nonce: rng.next_u64(),
        },
        4 => CtrlMsg::PullTrace {
            max: rng.next_u64() as u16,
        },
        5 => CtrlMsg::DeltaPrepare {
            epoch: rng.next_u64(),
            base_digest: rng.next_u64(),
            ops: (0..rng.range(0, 6)).map(|_| gen_enclave_op(rng)).collect(),
        },
        6 => CtrlMsg::AggSync {
            nonce: rng.next_u64(),
            views: (0..rng.range(0, 3))
                .map(|_| (rng.next_u64() as u32, gen_view(rng)))
                .collect(),
        },
        _ => CtrlMsg::PullStats,
    }
}

fn gen_span(rng: &mut FuzzRng) -> Span {
    let start = rng.below(1 << 40);
    Span {
        trace_id: rng.next_u64(),
        span_id: rng.next_u64(),
        parent_span: rng.next_u64(),
        host: rng.next_u64() as u32,
        // names up to (and occasionally exactly at) the wire bound
        name: "s".repeat(rng.range(0, MAX_SPAN_NAME)),
        start_ns: start,
        end_ns: start + rng.below(1 << 20),
    }
}

fn gen_latencies(rng: &mut FuzzRng) -> Vec<LatencyStat> {
    (0..rng.range(0, 4))
        .map(|i| {
            let mut h = LogHistogram::new();
            for _ in 0..rng.range(0, 32) {
                h.record(rng.below(1 << 40));
            }
            LatencyStat::new(format!("fuzz.stat{i}"), h)
        })
        .collect()
}

fn gen_ctrl_reply(rng: &mut FuzzRng) -> CtrlReply {
    match rng.below(6) {
        0 => CtrlReply::Ack {
            re: rng.next_u64() as u32,
            epoch: rng.next_u64(),
            phase: *rng.pick(&[AckPhase::Prepare, AckPhase::Commit, AckPhase::Abort]),
        },
        1 => CtrlReply::Nack {
            re: rng.next_u64() as u32,
            epoch: rng.next_u64(),
            reason: format!("fuzz reason {}", rng.below(100)),
        },
        2 => CtrlReply::Pong {
            re: rng.next_u64() as u32,
            nonce: rng.next_u64(),
            epoch: rng.next_u64(),
            digest: rng.next_u64(),
            spans: (0..rng.range(0, 4)).map(|_| gen_span(rng)).collect(),
        },
        3 => CtrlReply::Spans {
            re: rng.next_u64() as u32,
            spans: (0..rng.range(0, 8)).map(|_| gen_span(rng)).collect(),
        },
        4 => CtrlReply::AggPong {
            re: rng.next_u64() as u32,
            nonce: rng.next_u64(),
            epoch: rng.next_u64(),
            digest: rng.next_u64(),
            hosts_total: rng.next_u64() as u32,
            hosts_synced: rng.next_u64() as u32,
            max_epoch: rng.next_u64(),
            diverged: rng.chance(1, 2),
            deltas: (0..rng.range(0, 3))
                .map(|_| (rng.next_u64() as u32, gen_delta(rng)))
                .collect(),
            spans: (0..rng.range(0, 4)).map(|_| gen_span(rng)).collect(),
        },
        _ => CtrlReply::Stats {
            re: rng.next_u64() as u32,
            epoch: rng.next_u64(),
            digest: rng.next_u64(),
            captured_at_ns: rng.next_u64(),
            counters: EnclaveCounters::from_values(std::array::from_fn(|_| rng.below(1 << 20))),
            latencies: gen_latencies(rng),
        },
    }
}

fn gen_seq_target(rng: &mut FuzzRng) -> SeqTarget {
    if rng.chance(1, 2) {
        SeqTarget::Global {
            slot: rng.below(16) as u8,
        }
    } else {
        SeqTarget::Array {
            id: rng.below(8) as u8,
            index: rng.next_u64() as u32,
        }
    }
}

fn gen_seq_op(rng: &mut FuzzRng) -> SeqOp {
    SeqOp {
        op_id: rng.next_u64(),
        target: gen_seq_target(rng),
        value: rng.interesting_i64(),
    }
}

fn gen_seq_entry(rng: &mut FuzzRng) -> SeqEntry {
    SeqEntry {
        seq: rng.next_u64(),
        host: rng.next_u64() as u32,
        op: gen_seq_op(rng),
    }
}

fn gen_snapshot(rng: &mut FuzzRng) -> SeqSnapshot {
    SeqSnapshot {
        seq: rng.next_u64(),
        globals: (0..rng.range(0, 5))
            .map(|_| (rng.below(16) as u8, rng.interesting_i64()))
            .collect(),
        cells: (0..rng.range(0, 5))
            .map(|_| {
                (
                    rng.below(8) as u8,
                    rng.next_u64() as u32,
                    rng.interesting_i64(),
                )
            })
            .collect(),
    }
}

fn gen_view(rng: &mut FuzzRng) -> FuncView {
    FuncView {
        func: rng.below(8) as u32,
        version: rng.next_u64(),
        remote: (0..rng.range(0, 5))
            .map(|_| (rng.below(16) as u8, rng.interesting_i64()))
            .collect(),
        remote_arrays: (0..rng.range(0, 3))
            .map(|_| {
                (
                    rng.below(8) as u8,
                    (0..rng.range(0, 8))
                        .map(|_| rng.interesting_i64())
                        .collect(),
                )
            })
            .collect(),
        snapshot: if rng.chance(1, 3) {
            Some(gen_snapshot(rng))
        } else {
            None
        },
        entries: (0..rng.range(0, 6)).map(|_| gen_seq_entry(rng)).collect(),
        acked_op_id: rng.next_u64(),
        digest: rng.next_u64(),
        divergent: rng.chance(1, 4),
    }
}

fn gen_delta(rng: &mut FuzzRng) -> FuncDelta {
    FuncDelta {
        func: rng.below(8) as u32,
        merged: (0..rng.range(0, 5))
            .map(|_| (rng.below(16) as u8, rng.interesting_i64()))
            .collect(),
        merged_arrays: (0..rng.range(0, 3))
            .map(|_| {
                (
                    rng.below(8) as u8,
                    (0..rng.range(0, 8))
                        .map(|_| rng.interesting_i64())
                        .collect(),
                )
            })
            .collect(),
        seq_ops: (0..rng.range(0, 6)).map(|_| gen_seq_op(rng)).collect(),
        applied_seq: rng.next_u64(),
        digest: rng.next_u64(),
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Run `f` trapping panics; `Some(())` means it panicked.
fn panics<F: FnOnce()>(f: F) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

fn check_vm_roundtrip(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    let raw = gen_structured(rng);
    let p = Program::new("codec", raw.ops, raw.funcs, raw.entry_locals)
        .expect("structured programs verify");
    let bytes = encode_program(&p);
    match decode_program(&bytes) {
        Ok(q) if q == p => rep.note("vm.roundtrip_ok", 1),
        Ok(_) => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "vm bytecode round-trip decoded to a different program".into(),
            repro: hex(&bytes),
        }),
        Err(e) => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("honestly encoded program failed to decode: {e}"),
            repro: hex(&bytes),
        }),
    }
}

fn check_vm_mutation(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    let raw = gen_structured(rng);
    let p = Program::new("codec", raw.ops, raw.funcs, raw.entry_locals)
        .expect("structured programs verify");
    let mut bytes = encode_program(&p);
    if rng.chance(1, 4) {
        // pure garbage instead of a mutated valid blob
        bytes = (0..rng.range(0, 200))
            .map(|_| rng.next_u64() as u8)
            .collect();
    } else {
        mutate_bytes(rng, &mut bytes);
    }
    let mut outcome = "vm.mutate_err";
    if panics(|| {
        if decode_program(&bytes).is_ok() {
            outcome = "vm.mutate_ok";
        }
    }) {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "decode_program panicked on mutated bytes".into(),
            repro: hex(&bytes),
        });
        return;
    }
    rep.note(outcome, 1);
}

/// Encode a frame the generators built: those always fit the wire.
fn encoded(frame: Result<Vec<u8>, eden_ctrl::ProtoError>) -> Vec<u8> {
    frame.expect("generated frames fit the wire")
}

fn gen_trace(rng: &mut FuzzRng) -> TraceContext {
    TraceContext {
        trace_id: rng.next_u64(),
        parent_span: rng.next_u64(),
        sampled: rng.chance(1, 2),
    }
}

fn check_ctrl_roundtrip(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    let bare = Request::from(gen_ctrl_msg(rng));
    let bytes = encoded(bare.encode());
    match Request::decode(&bytes) {
        Ok(back) if back == bare => rep.note("ctrl.msg_roundtrip_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("CtrlMsg round-trip mismatch: sent {bare:?}, got {other:?}"),
            repro: hex(&bytes),
        }),
    }
    // traced: the trailer must round-trip, and must be exactly the
    // fixed-size tail after the bytes of the untraced frame
    let traced = Request {
        trace: Some(gen_trace(rng)),
        ..bare
    };
    let with_trailer = encoded(traced.encode());
    match Request::decode(&with_trailer) {
        Ok(back) if back == traced => rep.note("ctrl.traced_roundtrip_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("traced CtrlMsg round-trip mismatch: sent {traced:?}, got {other:?}"),
            repro: hex(&with_trailer),
        }),
    }
    if with_trailer.len() == bytes.len() + TRACE_TRAILER && with_trailer.starts_with(&bytes) {
        rep.note("ctrl.traced_backcompat_ok", 1);
    } else {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "the trace trailer is not a fixed-size tail of the untraced frame".into(),
            repro: hex(&with_trailer),
        });
    }
    let reply = Response::from(gen_ctrl_reply(rng));
    let bytes = encoded(reply.encode());
    match Response::decode(&bytes) {
        Ok(back) if back == reply => rep.note("ctrl.reply_roundtrip_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("CtrlReply round-trip mismatch: sent {reply:?}, got {other:?}"),
            repro: hex(&bytes),
        }),
    }
}

fn check_repl_roundtrip(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    // heartbeat-direction: message + view section (+ optional trailer)
    let msg = gen_ctrl_msg(rng);
    let views: Vec<FuncView> = (0..rng.range(1, 4)).map(|_| gen_view(rng)).collect();
    let trace = rng.chance(1, 2).then(|| gen_trace(rng));
    let synced = Request {
        body: msg,
        repl: views,
        trace,
    };
    let bytes = encoded(synced.encode());
    match Request::decode(&bytes) {
        Ok(back) if back == synced => rep.note("repl.msg_roundtrip_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("synced CtrlMsg round-trip mismatch: sent {synced:?}, got {other:?}"),
            repro: hex(&bytes),
        }),
    }
    // an empty view section is no section at all: the frame is the body
    // (and trailer) a sender that never heard of replication writes, and
    // it decodes with no views
    let plain = Request {
        repl: Vec::new(),
        ..synced
    };
    let plain_bytes = encoded(plain.encode());
    let body_len = plain_bytes.len() - trace.map_or(0, |_| TRACE_TRAILER);
    if bytes.starts_with(&plain_bytes[..body_len]) {
        rep.note("repl.msg_backcompat_ok", 1);
    } else {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "the view section is not a tail after the message's own bytes".into(),
            repro: hex(&bytes),
        });
    }
    match Request::decode(&plain_bytes) {
        Ok(back) if back == plain => rep.note("repl.msg_plain_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("a frame without a view section was misread: {other:?}"),
            repro: hex(&plain_bytes),
        }),
    }

    // pong-direction: reply + delta section
    let reply = gen_ctrl_reply(rng);
    let deltas: Vec<FuncDelta> = (0..rng.range(1, 4)).map(|_| gen_delta(rng)).collect();
    let synced = Response {
        repl: deltas,
        ..reply.into()
    };
    let bytes = encoded(synced.encode());
    match Response::decode(&bytes) {
        Ok(back) if back == synced => rep.note("repl.reply_roundtrip_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("synced CtrlReply round-trip mismatch: sent {synced:?}, got {other:?}"),
            repro: hex(&bytes),
        }),
    }
    let plain = Response::from(synced.body.clone());
    let plain_bytes = encoded(plain.encode());
    if bytes.starts_with(&plain_bytes) {
        rep.note("repl.reply_backcompat_ok", 1);
    } else {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "the delta section is not a tail after the reply's own bytes".into(),
            repro: hex(&bytes),
        });
    }
    match Response::decode(&plain_bytes) {
        Ok(back) if back == plain => rep.note("repl.reply_plain_ok", 1),
        other => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!("a reply without a delta section was misread: {other:?}"),
            repro: hex(&plain_bytes),
        }),
    }
    // the telemetry helper must agree with the real encoder about the
    // section's wire cost
    if bytes.len() != plain_bytes.len() + repl_deltas_wire_len(&synced.repl) {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: format!(
                "repl_deltas_wire_len disagrees with the encoder: {} != {} + {}",
                bytes.len(),
                plain_bytes.len(),
                repl_deltas_wire_len(&synced.repl)
            ),
            repro: hex(&bytes),
        });
    }
}

fn check_ctrl_mutation(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    let mut bytes = encoded(match rng.below(5) {
        0 => Request::from(gen_ctrl_msg(rng)).encode(),
        1 => Request {
            body: gen_ctrl_msg(rng),
            repl: Vec::new(),
            trace: Some(TraceContext::sampled(rng.next_u64(), 0)),
        }
        .encode(),
        2 => {
            let views: Vec<FuncView> = (0..rng.range(1, 3)).map(|_| gen_view(rng)).collect();
            Request {
                body: gen_ctrl_msg(rng),
                repl: views,
                trace: None,
            }
            .encode()
        }
        3 => {
            let deltas: Vec<FuncDelta> = (0..rng.range(1, 3)).map(|_| gen_delta(rng)).collect();
            Response {
                body: gen_ctrl_reply(rng),
                repl: deltas,
                trace: None,
            }
            .encode()
        }
        _ => Response::from(gen_ctrl_reply(rng)).encode(),
    });
    if rng.chance(1, 4) {
        bytes = (0..rng.range(0, 200))
            .map(|_| rng.next_u64() as u8)
            .collect();
    } else {
        mutate_bytes(rng, &mut bytes);
    }
    let mut outcome = "ctrl.mutate_err";
    if panics(|| {
        let a = Request::decode(&bytes).is_ok();
        let b = Response::decode(&bytes).is_ok();
        if a || b {
            outcome = "ctrl.mutate_ok";
        }
    }) {
        rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "ctrl decoder panicked on mutated bytes".into(),
            repro: hex(&bytes),
        });
        return;
    }
    rep.note(outcome, 1);
}

fn check_reassembly(rng: &mut FuzzRng, rep: &mut OracleReport, index: u64) {
    // honest path: a multi-fragment message survives duplication and
    // arbitrary arrival order
    let payload: Vec<u8> = (0..rng.range(1, MAX_CHUNK * 3))
        .map(|_| rng.next_u64() as u8)
        .collect();
    let msg_id = rng.next_u64() as u32;
    let mut frames = fragment(msg_id, &payload);
    // deterministic shuffle + one duplicated frame
    for i in (1..frames.len()).rev() {
        frames.swap(i, rng.below(i as u64 + 1) as usize);
    }
    if !frames.is_empty() && rng.chance(1, 2) {
        frames.push(frames[0].clone());
    }
    let mut reasm = Reassembler::new(REASM_CAP);
    let mut delivered = None;
    for f in &frames {
        if let Ok(Some(got)) = reasm.accept(1, f) {
            delivered = Some(got);
        }
    }
    match delivered {
        Some((id, got)) if id == msg_id && got == payload => rep.note("frag.reassembled_ok", 1),
        Some(_) => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "reassembled message id or payload differs from the original".into(),
            repro: format!("msg_id={msg_id} payload_len={}", payload.len()),
        }),
        None => rep.failures.push(Failure {
            oracle: "codec",
            index,
            detail: "all fragments delivered but message never completed".into(),
            repro: format!(
                "msg_id={msg_id} payload_len={} frames={}",
                payload.len(),
                frames.len()
            ),
        }),
    }

    // hostile path: spray random frames (some well-formed headers with
    // lying counts, some garbage) and hold the reassembler to its bound
    let mut bomb = Reassembler::new(REASM_CAP);
    for _ in 0..rng.range(10, 50) {
        let frame: Vec<u8> = if rng.chance(1, 2) {
            // well-formed header, random body
            let mut f = Vec::new();
            f.extend_from_slice(&eden_ctrl::proto::MAGIC.to_le_bytes());
            f.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
            let count = rng.range(1, 2048) as u16;
            let idx = rng.below(count as u64 + 2) as u16;
            f.extend_from_slice(&idx.to_le_bytes());
            f.extend_from_slice(&count.to_le_bytes());
            f.extend((0..rng.range(0, MAX_CHUNK)).map(|_| rng.next_u64() as u8));
            f
        } else {
            (0..rng.range(0, 64))
                .map(|_| rng.next_u64() as u8)
                .collect()
        };
        let from = rng.below(4) as u32;
        if panics(|| {
            let _ = bomb.accept(from, &frame);
        }) {
            rep.failures.push(Failure {
                oracle: "codec",
                index,
                detail: "Reassembler::accept panicked on hostile frame".into(),
                repro: hex(&frame),
            });
            return;
        }
        if bomb.pending_messages() > REASM_CAP {
            rep.failures.push(Failure {
                oracle: "codec",
                index,
                detail: format!(
                    "reassembler holds {} pending messages, capacity {REASM_CAP}",
                    bomb.pending_messages()
                ),
                repro: String::new(),
            });
            return;
        }
        let bound = REASM_CAP * MAX_FRAGS * MAX_CHUNK;
        if bomb.buffered_bytes() > bound {
            rep.failures.push(Failure {
                oracle: "codec",
                index,
                detail: format!(
                    "reassembler buffers {} bytes, bound {bound}",
                    bomb.buffered_bytes()
                ),
                repro: String::new(),
            });
            return;
        }
    }
    rep.note("frag.bombardment_ok", 1);
}

pub fn run(seed: u64, start: u64, cases: u64) -> OracleReport {
    let mut rep = OracleReport::new("codec");
    for index in start..start + cases {
        rep.cases += 1;
        let mut rng = FuzzRng::for_case(seed, "codec", index);
        match index % 6 {
            0 => check_vm_roundtrip(&mut rng, &mut rep, index),
            1 => check_vm_mutation(&mut rng, &mut rep, index),
            2 => check_ctrl_roundtrip(&mut rng, &mut rep, index),
            3 => check_ctrl_mutation(&mut rng, &mut rep, index),
            4 => check_repl_roundtrip(&mut rng, &mut rep, index),
            _ => check_reassembly(&mut rng, &mut rep, index),
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_clean() {
        let a = run(23, 0, 100);
        let b = run(23, 0, 100);
        assert_eq!(a.failures.len(), 0, "codec failures: {:?}", a.failures);
        assert_eq!(a.notes, b.notes);
        // all six activities must have run
        for key in [
            "vm.roundtrip_ok",
            "ctrl.msg_roundtrip_ok",
            "repl.msg_roundtrip_ok",
            "repl.reply_roundtrip_ok",
            "frag.reassembled_ok",
            "frag.bombardment_ok",
        ] {
            assert!(
                a.notes.iter().any(|(k, _)| k == key),
                "activity {key} never ran: {:?}",
                a.notes
            );
        }
    }
}
