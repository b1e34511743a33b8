//! The control-plane wire protocol: messages, replies, and fragmentation.
//!
//! Control traffic is *in-band* — frames ride the same links as data
//! packets (as UDP payloads, see [`netsim::Packet::ctrl`]) and therefore
//! respect the 1500-byte MTU. A logical message is encoded to bytes here,
//! split into numbered fragments by [`fragment`], and put back together by
//! a [`Reassembler`] on the far side. Retransmissions reuse the message id,
//! so duplicate and reordered fragments are harmless; receivers must treat
//! duplicate *messages* as idempotent (every handler in this crate does).
//!
//! A message is one [`Frame`] in either direction:
//!
//! ```text
//! body                   tag byte, then the verb's fields
//! [REPL_MARK  u16 n  n × item]   replication section: views down, deltas up
//! [TRACE_MARK  trace id  parent span  flags]   the trace trailer, always last
//! ```
//!
//! Both sections are optional and sit *after* the body, where a decoder
//! that predates them never looks; an absent section costs no byte, so a
//! frame without them is the bare body such a decoder always read.
//!
//! Encoding is little-endian TLV written with [`eden_telemetry::le`]'s
//! `Writer` and `Reader` — the workspace builds offline, and the message
//! set is small enough that a serde dependency would be all cost. Each
//! `put_*` function sits beside the `get_*` that reads it back; each enum
//! tag is the value's position in one `const` table; every count is
//! narrowed to its prefix by the writer, which refuses a message whose
//! count does not fit ([`ProtoError::TooLong`]) instead of wrapping it.
//! A decoder reserves memory for a sequence in proportion to the bytes
//! left, so a lying count truncates instead of allocating.

#![deny(clippy::cast_possible_truncation)]

use std::borrow::Cow;

use eden_core::{ClassId, EnclaveOp, MatchSpec, ShippedFunction};
use eden_lang::{Access, Concurrency, HeaderField, ReplMode, Schema, Scope};
use eden_repl::{FuncDelta, FuncView, SeqEntry, SeqOp, SeqSnapshot, SeqTarget};
use eden_telemetry::le::{self, Reader, Writer};
use eden_telemetry::{
    EnclaveCounters, LatencyStat, LogHistogram, Span, TraceContext, HIST_BUCKETS,
};

/// First two bytes of every control frame.
pub const MAGIC: u16 = 0xED0C;

/// Marker opening the optional trace-context trailer that closes a
/// [`Frame`] whose `trace` is set.
pub const TRACE_MARK: u16 = 0x7E57;

/// Wire size of the trace trailer: mark (2) + trace id (8) + parent
/// span (8) + flags (1).
pub const TRACE_TRAILER: usize = 19;

/// Marker opening the optional replication sync section. It rides the
/// existing heartbeat cadence: a Heartbeat grows a [`FuncView`] section
/// (controller → host), its Pong grows a [`FuncDelta`] section (host →
/// controller). Distinct from [`TRACE_MARK`], so the decoder tells the
/// two apart by peeking.
pub const REPL_MARK: u16 = 0x5EED;

/// Longest span name accepted off the wire. Real names are short dotted
/// words ("prepare", "stage.classify"); anything bigger is hostile.
pub const MAX_SPAN_NAME: usize = 256;

/// Fragment header: magic (2) + msg id (4) + index (2) + count (2).
pub const FRAG_HEADER: usize = 10;

/// Payload bytes per fragment. With UDP (8) + IPv4 (20) + the header this
/// stays well under a 1500-byte MTU while still exercising multi-fragment
/// reassembly for any realistic program push.
pub const MAX_CHUNK: usize = 1024;

/// Maximum fragments per logical message (1 MiB of payload at
/// [`MAX_CHUNK`]). The fragment header carries `count` as an untrusted
/// u16; without this bound a single 10-byte frame claiming 65535
/// fragments would make the reassembler pre-allocate for all of them,
/// letting a spoofed-frame stream pin megabytes per pending entry.
/// [`fragment`] asserts the same bound on the send side, and the encoder
/// refuses a frame that would not fit it.
pub const MAX_FRAGS: usize = 1024;

/// Controller → enclave-agent messages. `InstallFunction` / `InstallRule`
/// / `RemoveRule` travel as [`EnclaveOp`]s inside `Prepare`: configuration
/// only ever changes as an epoch, never as a lone op on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Phase one of a two-phase update: validate and hold `ops` as epoch
    /// `epoch`. Re-sending (retry) restages and re-acks.
    Prepare { epoch: u64, ops: Vec<EnclaveOp> },
    /// Phase two: atomically apply the staged epoch.
    Commit { epoch: u64 },
    /// Roll back a prepared epoch.
    Abort { epoch: u64 },
    /// Liveness probe; also carries the reconciliation state in its reply.
    Heartbeat { nonce: u64 },
    /// Ask for the enclave's counters.
    PullStats,
    /// Ask for up to `max` buffered spans (heartbeat piggybacking keeps
    /// the steady-state flow; this drains a backlog).
    PullTrace { max: u16 },
    /// Phase one of a two-phase update shipped as a *diff*: `ops` were
    /// planned against the configuration whose digest is `base_digest`,
    /// and the receiver must hold exactly that configuration to stage
    /// them ([`Enclave::stage_epoch_delta`](eden_core::Enclave::stage_epoch_delta)).
    /// A digest mismatch nacks, and the sender falls back to a full
    /// [`CtrlMsg::Prepare`] — a pre-delta receiver drops the unknown tag
    /// and the same fallback covers it.
    DeltaPrepare {
        epoch: u64,
        base_digest: u64,
        ops: Vec<EnclaveOp>,
    },
    /// Root → aggregator heartbeat: a liveness probe that also fans
    /// replication views *down* through the tier, host-tagged so the
    /// aggregator can forward each host its own view. Answered by
    /// [`CtrlReply::AggPong`].
    AggSync {
        nonce: u64,
        views: Vec<(u32, FuncView)>,
    },
}

/// Tag of [`CtrlMsg::Prepare`].
const PREPARE: u8 = 1;

impl CtrlMsg {
    /// The verb's tag: the first byte of its encoding.
    pub fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Prepare { .. } => PREPARE,
            CtrlMsg::Commit { .. } => 2,
            CtrlMsg::Abort { .. } => 3,
            CtrlMsg::Heartbeat { .. } => 4,
            CtrlMsg::PullStats => 5,
            CtrlMsg::PullTrace { .. } => 6,
            CtrlMsg::DeltaPrepare { .. } => 7,
            CtrlMsg::AggSync { .. } => 8,
        }
    }
}

/// Which request an [`CtrlReply::Ack`] acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPhase {
    Prepare,
    Commit,
    Abort,
}

/// [`AckPhase`] in wire-tag order.
const ACK_PHASES: [AckPhase; 3] = [AckPhase::Prepare, AckPhase::Commit, AckPhase::Abort];

/// Enclave-agent → controller replies. Every reply carries `re`, the
/// message id of the request it answers, so a late duplicate reply can
/// never be mistaken for the answer to a newer request.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlReply {
    /// The request succeeded; `epoch` echoes the request's epoch.
    Ack {
        re: u32,
        epoch: u64,
        phase: AckPhase,
    },
    /// The request failed (validation error, unknown epoch, …).
    Nack { re: u32, epoch: u64, reason: String },
    /// Heartbeat reply: the enclave's served epoch and config digest,
    /// plus a bounded batch of completed spans piggybacked for free
    /// (the section is optional on the wire, so pre-tracing pongs still
    /// decode).
    Pong {
        re: u32,
        nonce: u64,
        epoch: u64,
        digest: u64,
        spans: Vec<Span>,
    },
    /// Stats reply. `latencies` carries the host's named histograms
    /// (empty when sampling is off; optional on the wire).
    Stats {
        re: u32,
        epoch: u64,
        digest: u64,
        captured_at_ns: u64,
        counters: EnclaveCounters,
        latencies: Vec<LatencyStat>,
    },
    /// Answer to [`CtrlMsg::PullTrace`]: drained spans, oldest first.
    Spans { re: u32, spans: Vec<Span> },
    /// Aggregator → root heartbeat reply: the aggregator's own committed
    /// `epoch`/`digest` plus a *summary* of its shard — how many children
    /// it manages and how many have converged to that epoch — so the root
    /// tracks a whole rack through one message. `deltas` fans the shard's
    /// replication contributions *up*, host-tagged for per-host ingest;
    /// `spans` piggybacks the shard's completed trace spans.
    AggPong {
        re: u32,
        nonce: u64,
        epoch: u64,
        digest: u64,
        hosts_total: u32,
        hosts_synced: u32,
        /// Highest epoch any child reports — lets the root spot a shard
        /// that ran ahead (divergence) without per-host messages.
        max_epoch: u64,
        /// True when some child serves `epoch` with the wrong digest.
        diverged: bool,
        deltas: Vec<(u32, FuncDelta)>,
        spans: Vec<Span>,
    },
}

/// Codec failures. A malformed frame or message is dropped by the
/// receiver — the sender's retry (same message id) covers the loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    Truncated,
    BadMagic,
    BadTag(u8),
    BadString,
    BadFragment,
    /// A decoded schema is internally inconsistent (duplicate field or
    /// array names, or more entries than slot numbering allows). Caught
    /// here so crafted bytes can never reach the panicking
    /// [`Schema`] builder asserts.
    BadSchema,
    /// The encoder's refusal: a sequence longer than its count prefix can
    /// say, or a message over [`MAX_FRAGS`] fragments. Never sent
    /// truncated or with a wrapped count.
    TooLong,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadMagic => write!(f, "bad frame magic"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtoError::BadString => write!(f, "invalid utf-8 string"),
            ProtoError::BadFragment => write!(f, "inconsistent fragment header"),
            ProtoError::BadSchema => write!(f, "inconsistent schema"),
            ProtoError::TooLong => write!(f, "message does not fit the wire"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<le::Error> for ProtoError {
    fn from(e: le::Error) -> ProtoError {
        match e {
            le::Error::Truncated => ProtoError::Truncated,
            le::Error::BadTag(t) => ProtoError::BadTag(t),
        }
    }
}

fn get_str(r: &mut Reader<'_>) -> Result<String, ProtoError> {
    String::from_utf8(r.bytes()?.to_vec()).map_err(|_| ProtoError::BadString)
}

/// A string no longer than [`MAX_SPAN_NAME`].
fn get_name(r: &mut Reader<'_>) -> Result<String, ProtoError> {
    let name = get_str(r)?;
    if name.len() > MAX_SPAN_NAME {
        return Err(ProtoError::BadString);
    }
    Ok(name)
}

// ----------------------------------------------------------------------
// schema / op codecs
// ----------------------------------------------------------------------

// Each enum the schema carries, in wire-tag order: a value's tag is its
// position in its table.
const HEADERS: [HeaderField; 17] = [
    HeaderField::Ipv4TotalLength,
    HeaderField::Ipv4Src,
    HeaderField::Ipv4Dst,
    HeaderField::Ipv4Protocol,
    HeaderField::Ipv4Dscp,
    HeaderField::SrcPort,
    HeaderField::DstPort,
    HeaderField::TcpSeq,
    HeaderField::Dot1qPcp,
    HeaderField::Dot1qVid,
    HeaderField::MetaMsgId,
    HeaderField::MetaMsgType,
    HeaderField::MetaMsgSize,
    HeaderField::MetaTenant,
    HeaderField::MetaKeyHash,
    HeaderField::MetaMsgStart,
    HeaderField::Direction,
];
const SCOPES: [Scope; 3] = [Scope::Packet, Scope::Message, Scope::Global];
const ACCESS: [Access; 2] = [Access::ReadOnly, Access::ReadWrite];
const REPL_MODES: [ReplMode; 3] = [
    ReplMode::MergedSum,
    ReplMode::MergedMax,
    ReplMode::Sequenced,
];
const CONCURRENCY: [Concurrency; 3] = [
    Concurrency::Parallel,
    Concurrency::PerMessage,
    Concurrency::Serialized,
];

fn put_schema(w: &mut Writer, s: &Schema) {
    w.seq(2, s.fields(), |w, f| {
        w.str(&f.name);
        w.tag(&SCOPES, &f.scope);
        w.tag(&ACCESS, &f.access);
        // Flags byte: bit 0 = header mapping follows, bit 1 = replication
        // mode follows. The pre-replication encoding wrote exactly 0 or 1
        // here (header present/absent), so old frames parse as flags with
        // bit 1 clear — byte-compatible in both directions when no field
        // is replicated.
        w.u8(u8::from(f.header.is_some()) | u8::from(f.repl.is_some()) << 1);
        if let Some(h) = &f.header {
            w.tag(&HEADERS, h);
        }
        if let Some(m) = &f.repl {
            w.tag(&REPL_MODES, m);
        }
    });
    w.seq(2, s.arrays(), |w, a| {
        w.str(&a.name);
        w.seq(2, &a.fields, |w, f| w.str(f));
        // Same trick as the field flags: bit 0 is the access tag (the
        // whole byte in the pre-replication encoding), bit 1 announces a
        // replication-mode byte.
        w.u8(u8::from(a.access == ACCESS[1]) | u8::from(a.repl.is_some()) << 1);
        if let Some(m) = &a.repl {
            w.tag(&REPL_MODES, m);
        }
    });
}

fn get_schema(r: &mut Reader<'_>) -> Result<Schema, ProtoError> {
    // The Schema builder asserts on duplicate names and slot-number
    // overflow — fine for programmer-built schemas, fatal for bytes off
    // the wire. Validate everything here and return errors instead.
    let mut s = Schema::new();
    let fields = r.seq(2, |r| {
        let name = get_str(r)?;
        let scope = r.tag(&SCOPES)?;
        let access = r.tag(&ACCESS)?;
        let flags = r.u8()?;
        if flags & !0x03 != 0 {
            return Err(ProtoError::BadTag(flags));
        }
        let header = if flags & 1 != 0 {
            Some(r.tag(&HEADERS)?)
        } else {
            None
        };
        let repl = if flags & 2 != 0 {
            Some(r.tag(&REPL_MODES)?)
        } else {
            None
        };
        Ok((scope, name, access, header, repl))
    })?;
    for (i, (scope, name, access, header, repl)) in fields.iter().enumerate() {
        let same_scope = || fields[..i].iter().filter(|f| f.0 == *scope);
        if same_scope().any(|f| f.1 == *name) || same_scope().count() > u8::MAX as usize {
            return Err(ProtoError::BadSchema);
        }
        s = match scope {
            Scope::Packet => s.packet_field(name, *access, *header),
            Scope::Message => s.msg_field(name, *access),
            Scope::Global => s.global_field(name, *access),
        };
        if let Some(m) = repl {
            s = s.replicated(*m);
        }
    }
    let arrays = r.seq(2, |r| {
        let name = get_str(r)?;
        let fields = r.seq(2, get_str)?;
        let flags = r.u8()?;
        if flags & !0x03 != 0 {
            return Err(ProtoError::BadTag(flags));
        }
        let access = ACCESS[usize::from(flags & 1)];
        let repl = if flags & 2 != 0 {
            Some(r.tag(&REPL_MODES)?)
        } else {
            None
        };
        Ok((name, fields, access, repl))
    })?;
    if arrays.len() > u8::MAX as usize + 1 {
        return Err(ProtoError::BadSchema);
    }
    for (name, fields, access, repl) in arrays {
        if s.arrays().iter().any(|a| a.name == name) {
            return Err(ProtoError::BadSchema);
        }
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        s = s.global_array(&name, &refs, access);
        if let Some(m) = repl {
            s = s.replicated(m);
        }
    }
    // Replication annotations on per-packet/per-message scope are a type
    // error at compile time; crafted bytes must not smuggle them past that.
    if s.validate_repl().is_err() {
        return Err(ProtoError::BadSchema);
    }
    Ok(s)
}

fn put_spec(w: &mut Writer, spec: &MatchSpec) {
    match spec {
        MatchSpec::Any => w.u8(0),
        MatchSpec::Class(c) => {
            w.u8(1);
            w.u32(c.0);
        }
        MatchSpec::AnyOf(cs) => {
            w.u8(2);
            w.seq(2, cs, |w, c| w.u32(c.0));
        }
    }
}

fn get_spec(r: &mut Reader<'_>) -> Result<MatchSpec, ProtoError> {
    Ok(match r.u8()? {
        0 => MatchSpec::Any,
        1 => MatchSpec::Class(ClassId(r.u32()?)),
        2 => MatchSpec::AnyOf(r.seq(2, |r| r.u32().map(ClassId))?),
        other => return Err(ProtoError::BadTag(other)),
    })
}

fn put_op(w: &mut Writer, op: &EnclaveOp) {
    match op {
        EnclaveOp::Reset => w.u8(0),
        EnclaveOp::CreateTable => w.u8(1),
        EnclaveOp::ClearTable { table } => {
            w.u8(2);
            w.count(4, *table);
        }
        EnclaveOp::InstallFunction(f) => {
            w.u8(3);
            w.str(&f.name);
            w.bytes(&f.bytecode);
            put_schema(w, &f.schema);
            w.tag(&CONCURRENCY, &f.concurrency);
        }
        EnclaveOp::InstallRule { table, spec, func } => put_rule(w, *table, spec, *func),
        EnclaveOp::RemoveRule { table, rule } => {
            w.u8(5);
            w.count(4, *table);
            w.count(4, *rule);
        }
        EnclaveOp::SetGlobal { func, slot, value } => {
            w.u8(6);
            w.count(4, *func);
            w.count(4, *slot);
            w.i64(*value);
        }
        EnclaveOp::SetArray {
            func,
            array,
            values,
        } => put_array(w, *func, *array, values),
    }
}

/// An `InstallRule` op, from its fields.
fn put_rule(w: &mut Writer, table: usize, spec: &MatchSpec, func: usize) {
    w.u8(4);
    w.count(4, table);
    put_spec(w, spec);
    w.count(4, func);
}

/// A `SetArray` op, from its fields.
fn put_array(w: &mut Writer, func: usize, array: usize, values: &[i64]) {
    w.u8(7);
    w.count(4, func);
    w.count(4, array);
    put_i64s(w, values);
}

fn get_op(r: &mut Reader<'_>) -> Result<EnclaveOp, ProtoError> {
    Ok(match r.u8()? {
        0 => EnclaveOp::Reset,
        1 => EnclaveOp::CreateTable,
        2 => EnclaveOp::ClearTable { table: r.count(4)? },
        3 => {
            let name = get_str(r)?;
            let bytecode = r.bytes()?.to_vec();
            let schema = get_schema(r)?;
            let concurrency = r.tag(&CONCURRENCY)?;
            EnclaveOp::InstallFunction(Box::new(ShippedFunction {
                name,
                bytecode,
                schema,
                concurrency,
            }))
        }
        4 => {
            let table = r.count(4)?;
            let spec = get_spec(r)?;
            let func = r.count(4)?;
            EnclaveOp::InstallRule { table, spec, func }
        }
        5 => EnclaveOp::RemoveRule {
            table: r.count(4)?,
            rule: r.count(4)?,
        },
        6 => {
            let func = r.count(4)?;
            let slot = r.count(4)?;
            let value = r.i64()?;
            EnclaveOp::SetGlobal { func, slot, value }
        }
        7 => EnclaveOp::SetArray {
            func: r.count(4)?,
            array: r.count(4)?,
            values: get_i64s(r)?,
        },
        other => return Err(ProtoError::BadTag(other)),
    })
}

/// An epoch's ops.
fn put_ops(w: &mut Writer, ops: &[EnclaveOp]) {
    w.seq(2, ops, put_op);
}

fn get_ops(r: &mut Reader<'_>) -> Result<Vec<EnclaveOp>, ProtoError> {
    r.seq(2, get_op)
}

/// Array elements, counted in four bytes.
fn put_i64s(w: &mut Writer, values: &[i64]) {
    w.seq(4, values, |w, v| w.i64(*v));
}

fn get_i64s(r: &mut Reader<'_>) -> Result<Vec<i64>, ProtoError> {
    Ok(r.seq(4, Reader::i64)?)
}

/// The `Stats` counter section: the enclave group's rows as `u64`s, in
/// table order.
fn put_counters(w: &mut Writer, c: &EnclaveCounters) {
    for v in c.values() {
        w.u64(v);
    }
}

fn get_counters(r: &mut Reader<'_>) -> Result<EnclaveCounters, ProtoError> {
    let mut values = [0; EnclaveCounters::ROWS.len()];
    for v in &mut values {
        *v = r.u64()?;
    }
    Ok(EnclaveCounters::from_values(values))
}

fn put_span(w: &mut Writer, s: &Span) {
    w.u64(s.trace_id);
    w.u64(s.span_id);
    w.u64(s.parent_span);
    w.u32(s.host);
    w.str(&s.name);
    w.u64(s.start_ns);
    w.u64(s.end_ns);
}

fn get_span(r: &mut Reader<'_>) -> Result<Span, ProtoError> {
    Ok(Span {
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_span: r.u64()?,
        host: r.u32()?,
        name: get_name(r)?,
        start_ns: r.u64()?,
        end_ns: r.u64()?,
    })
}

fn put_spans(w: &mut Writer, spans: &[Span]) {
    w.seq(2, spans, put_span);
}

fn get_spans(r: &mut Reader<'_>) -> Result<Vec<Span>, ProtoError> {
    r.seq(2, get_span)
}

/// Histograms travel sparse: name, sample sum, then only the non-zero
/// buckets as (index, count) pairs — a mostly-empty 64-bucket histogram
/// costs a handful of bytes instead of 512.
fn put_latency(w: &mut Writer, l: &LatencyStat) {
    w.str(&l.name);
    w.u64(l.hist.sum());
    let nonzero: Vec<(usize, u64)> = l
        .hist
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| (i, c))
        .collect();
    w.seq(1, &nonzero, |w, &(i, c)| {
        w.count(1, i);
        w.u64(c);
    });
}

fn get_latency(r: &mut Reader<'_>) -> Result<LatencyStat, ProtoError> {
    let name = get_name(r)?;
    let sum = r.u64()?;
    let mut buckets = [0u64; HIST_BUCKETS];
    for _ in 0..r.count(1)? {
        let i = r.u8()?;
        if i as usize >= HIST_BUCKETS {
            return Err(ProtoError::BadTag(i));
        }
        buckets[i as usize] = r.u64()?;
    }
    Ok(LatencyStat::new(
        name,
        LogHistogram::from_buckets(buckets, sum),
    ))
}

// ----------------------------------------------------------------------
// replication sync codecs
// ----------------------------------------------------------------------

fn put_seq_target(w: &mut Writer, t: SeqTarget) {
    match t {
        SeqTarget::Global { slot } => {
            w.u8(0);
            w.u8(slot);
        }
        SeqTarget::Array { id, index } => {
            w.u8(1);
            w.u8(id);
            w.u32(index);
        }
    }
}

fn get_seq_target(r: &mut Reader<'_>) -> Result<SeqTarget, ProtoError> {
    Ok(match r.u8()? {
        0 => SeqTarget::Global { slot: r.u8()? },
        1 => SeqTarget::Array {
            id: r.u8()?,
            index: r.u32()?,
        },
        other => return Err(ProtoError::BadTag(other)),
    })
}

fn put_seq_op(w: &mut Writer, op: &SeqOp) {
    w.u64(op.op_id);
    put_seq_target(w, op.target);
    w.i64(op.value);
}

fn get_seq_op(r: &mut Reader<'_>) -> Result<SeqOp, ProtoError> {
    Ok(SeqOp {
        op_id: r.u64()?,
        target: get_seq_target(r)?,
        value: r.i64()?,
    })
}

fn put_seq_entry(w: &mut Writer, e: &SeqEntry) {
    w.u64(e.seq);
    w.u32(e.host);
    put_seq_op(w, &e.op);
}

fn get_seq_entry(r: &mut Reader<'_>) -> Result<SeqEntry, ProtoError> {
    Ok(SeqEntry {
        seq: r.u64()?,
        host: r.u32()?,
        op: get_seq_op(r)?,
    })
}

/// `(slot, value)` pair lists — merged contributions and views.
fn put_slot_pairs(w: &mut Writer, pairs: &[(u8, i64)]) {
    w.seq(2, pairs, |w, &(slot, v)| {
        w.u8(slot);
        w.i64(v);
    });
}

fn get_slot_pairs(r: &mut Reader<'_>) -> Result<Vec<(u8, i64)>, ProtoError> {
    r.seq(2, |r| Ok((r.u8()?, r.i64()?)))
}

/// `(array id, elements)` lists — merged array contributions and views.
fn put_array_pairs(w: &mut Writer, arrays: &[(u8, Vec<i64>)]) {
    w.seq(2, arrays, |w, (id, vals)| {
        w.u8(*id);
        put_i64s(w, vals);
    });
}

fn get_array_pairs(r: &mut Reader<'_>) -> Result<Vec<(u8, Vec<i64>)>, ProtoError> {
    r.seq(2, |r| Ok((r.u8()?, get_i64s(r)?)))
}

fn put_snapshot(w: &mut Writer, s: &SeqSnapshot) {
    w.u64(s.seq);
    put_slot_pairs(w, &s.globals);
    w.seq(4, &s.cells, |w, &(id, index, v)| {
        w.u8(id);
        w.u32(index);
        w.i64(v);
    });
}

fn get_snapshot(r: &mut Reader<'_>) -> Result<SeqSnapshot, ProtoError> {
    Ok(SeqSnapshot {
        seq: r.u64()?,
        globals: get_slot_pairs(r)?,
        cells: r.seq(4, |r| Ok::<_, le::Error>((r.u8()?, r.u32()?, r.i64()?)))?,
    })
}

fn put_delta(w: &mut Writer, d: &FuncDelta) {
    w.u32(d.func);
    put_slot_pairs(w, &d.merged);
    put_array_pairs(w, &d.merged_arrays);
    w.seq(2, &d.seq_ops, put_seq_op);
    w.u64(d.applied_seq);
    w.u64(d.digest);
}

fn get_delta(r: &mut Reader<'_>) -> Result<FuncDelta, ProtoError> {
    Ok(FuncDelta {
        func: r.u32()?,
        merged: get_slot_pairs(r)?,
        merged_arrays: get_array_pairs(r)?,
        seq_ops: r.seq(2, get_seq_op)?,
        applied_seq: r.u64()?,
        digest: r.u64()?,
    })
}

fn put_view(w: &mut Writer, v: &FuncView) {
    w.u32(v.func);
    w.u64(v.version);
    put_slot_pairs(w, &v.remote);
    put_array_pairs(w, &v.remote_arrays);
    match &v.snapshot {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            put_snapshot(w, s);
        }
    }
    w.seq(2, &v.entries, put_seq_entry);
    w.u64(v.acked_op_id);
    w.u64(v.digest);
    w.u8(u8::from(v.divergent));
}

fn get_view(r: &mut Reader<'_>) -> Result<FuncView, ProtoError> {
    Ok(FuncView {
        func: r.u32()?,
        version: r.u64()?,
        remote: get_slot_pairs(r)?,
        remote_arrays: get_array_pairs(r)?,
        snapshot: match r.u8()? {
            0 => None,
            1 => Some(get_snapshot(r)?),
            other => return Err(ProtoError::BadTag(other)),
        },
        entries: r.seq(2, get_seq_entry)?,
        acked_op_id: r.u64()?,
        digest: r.u64()?,
        divergent: r.u8()? != 0,
    })
}

/// The replication section: [`REPL_MARK`], then the counted items. An
/// empty section is not written at all.
fn put_repl<T>(w: &mut Writer, items: &[T], put: impl FnMut(&mut Writer, &T)) {
    if !items.is_empty() {
        w.u16(REPL_MARK);
        w.seq(2, items, put);
    }
}

/// Wire size of the delta section carrying `deltas` (0 when empty) — the
/// sample telemetry records as `repl.delta_bytes` without re-encoding
/// the surrounding frame.
pub fn repl_deltas_wire_len(deltas: &[FuncDelta]) -> usize {
    let mut w = Writer::default();
    put_repl(&mut w, deltas, put_delta);
    w.buf.len()
}

// ----------------------------------------------------------------------
// message codecs
// ----------------------------------------------------------------------

fn put_msg(w: &mut Writer, msg: &CtrlMsg) {
    w.u8(msg.tag());
    match msg {
        CtrlMsg::Prepare { epoch, ops } => {
            w.u64(*epoch);
            put_ops(w, ops);
        }
        CtrlMsg::Commit { epoch } | CtrlMsg::Abort { epoch } => w.u64(*epoch),
        CtrlMsg::Heartbeat { nonce } => w.u64(*nonce),
        CtrlMsg::PullStats => {}
        CtrlMsg::PullTrace { max } => w.u16(*max),
        CtrlMsg::DeltaPrepare {
            epoch,
            base_digest,
            ops,
        } => {
            w.u64(*epoch);
            w.u64(*base_digest);
            put_ops(w, ops);
        }
        CtrlMsg::AggSync { nonce, views } => {
            w.u64(*nonce);
            w.seq(2, views, |w, (host, v)| {
                w.u32(*host);
                put_view(w, v);
            });
        }
    }
}

fn get_msg(r: &mut Reader<'_>) -> Result<CtrlMsg, ProtoError> {
    Ok(match r.u8()? {
        1 => CtrlMsg::Prepare {
            epoch: r.u64()?,
            ops: get_ops(r)?,
        },
        2 => CtrlMsg::Commit { epoch: r.u64()? },
        3 => CtrlMsg::Abort { epoch: r.u64()? },
        4 => CtrlMsg::Heartbeat { nonce: r.u64()? },
        5 => CtrlMsg::PullStats,
        6 => CtrlMsg::PullTrace { max: r.u16()? },
        7 => CtrlMsg::DeltaPrepare {
            epoch: r.u64()?,
            base_digest: r.u64()?,
            ops: get_ops(r)?,
        },
        8 => CtrlMsg::AggSync {
            nonce: r.u64()?,
            views: r.seq(2, |r| Ok::<_, ProtoError>((r.u32()?, get_view(r)?)))?,
        },
        other => return Err(ProtoError::BadTag(other)),
    })
}

fn put_reply(w: &mut Writer, reply: &CtrlReply) {
    match reply {
        CtrlReply::Ack { re, epoch, phase } => {
            w.u8(1);
            w.u32(*re);
            w.u64(*epoch);
            w.tag(&ACK_PHASES, phase);
        }
        CtrlReply::Nack { re, epoch, reason } => {
            w.u8(2);
            w.u32(*re);
            w.u64(*epoch);
            w.str(reason);
        }
        CtrlReply::Pong {
            re,
            nonce,
            epoch,
            digest,
            spans,
        } => {
            w.u8(3);
            w.u32(*re);
            w.u64(*nonce);
            w.u64(*epoch);
            w.u64(*digest);
            put_spans(w, spans);
        }
        CtrlReply::Stats {
            re,
            epoch,
            digest,
            captured_at_ns,
            counters,
            latencies,
        } => {
            w.u8(4);
            w.u32(*re);
            w.u64(*epoch);
            w.u64(*digest);
            w.u64(*captured_at_ns);
            put_counters(w, counters);
            w.seq(2, latencies, put_latency);
        }
        CtrlReply::Spans { re, spans } => {
            w.u8(5);
            w.u32(*re);
            put_spans(w, spans);
        }
        CtrlReply::AggPong {
            re,
            nonce,
            epoch,
            digest,
            hosts_total,
            hosts_synced,
            max_epoch,
            diverged,
            deltas,
            spans,
        } => {
            w.u8(6);
            w.u32(*re);
            w.u64(*nonce);
            w.u64(*epoch);
            w.u64(*digest);
            w.u32(*hosts_total);
            w.u32(*hosts_synced);
            w.u64(*max_epoch);
            w.u8(u8::from(*diverged));
            w.seq(2, deltas, |w, (host, d)| {
                w.u32(*host);
                put_delta(w, d);
            });
            put_spans(w, spans);
        }
    }
}

fn get_reply(r: &mut Reader<'_>) -> Result<CtrlReply, ProtoError> {
    Ok(match r.u8()? {
        1 => CtrlReply::Ack {
            re: r.u32()?,
            epoch: r.u64()?,
            phase: r.tag(&ACK_PHASES)?,
        },
        2 => CtrlReply::Nack {
            re: r.u32()?,
            epoch: r.u64()?,
            reason: get_str(r)?,
        },
        3 => CtrlReply::Pong {
            re: r.u32()?,
            nonce: r.u64()?,
            epoch: r.u64()?,
            digest: r.u64()?,
            // The span section was appended to Pong later; a frame from
            // a pre-tracing encoder simply ends here.
            spans: if r.remaining() == 0 {
                Vec::new()
            } else {
                get_spans(r)?
            },
        },
        4 => CtrlReply::Stats {
            re: r.u32()?,
            epoch: r.u64()?,
            digest: r.u64()?,
            captured_at_ns: r.u64()?,
            counters: get_counters(r)?,
            // Same append-only evolution as Pong's span section.
            latencies: if r.remaining() == 0 {
                Vec::new()
            } else {
                r.seq(2, get_latency)?
            },
        },
        5 => CtrlReply::Spans {
            re: r.u32()?,
            spans: get_spans(r)?,
        },
        6 => CtrlReply::AggPong {
            re: r.u32()?,
            nonce: r.u64()?,
            epoch: r.u64()?,
            digest: r.u64()?,
            hosts_total: r.u32()?,
            hosts_synced: r.u32()?,
            max_epoch: r.u64()?,
            diverged: r.u8()? != 0,
            deltas: r.seq(2, |r| Ok::<_, ProtoError>((r.u32()?, get_delta(r)?)))?,
            spans: get_spans(r)?,
        },
        other => return Err(ProtoError::BadTag(other)),
    })
}

// ----------------------------------------------------------------------
// the frame
// ----------------------------------------------------------------------

/// One logical message, either direction: the body, then the optional
/// trailing sections in their fixed wire order (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<B, R> {
    pub body: B,
    /// The replication section: a host's [`FuncView`]s on the way down,
    /// its [`FuncDelta`]s on the way up. Empty means no section.
    pub repl: Vec<R>,
    /// The trace context the sender parents this exchange's spans under.
    pub trace: Option<TraceContext>,
}

/// Controller → participant.
pub type Request = Frame<CtrlMsg, FuncView>;
/// Participant → controller.
pub type Response = Frame<CtrlReply, FuncDelta>;

/// A bare body: no sections.
impl<B, R> From<B> for Frame<B, R> {
    fn from(body: B) -> Frame<B, R> {
        Frame {
            body,
            repl: Vec::new(),
            trace: None,
        }
    }
}

impl Request {
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let body = |w: &mut Writer| put_msg(w, &self.body);
        encode(body, &self.repl, put_view, self.trace.as_ref())
    }

    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        decode(buf, get_msg, get_view)
    }
}

impl Response {
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let body = |w: &mut Writer| put_reply(w, &self.body);
        encode(body, &self.repl, put_delta, self.trace.as_ref())
    }

    pub fn decode(buf: &[u8]) -> Result<Response, ProtoError> {
        decode(buf, get_reply, get_delta)
    }
}

/// The untraced [`Request`] carrying `Prepare { epoch, ops }`, for a
/// caller that keeps the ops: the root encodes each version of desired
/// state from the ops it was given, without cloning them into a message.
pub fn encode_prepare(epoch: u64, ops: &[EnclaveOp]) -> Result<Vec<u8>, ProtoError> {
    encode_prepare_with(epoch, |w| {
        for op in ops {
            w.op(op);
        }
    })
}

/// The untraced [`Request`] carrying a `Prepare` of `epoch` whose ops
/// `write_ops` writes: how a configuration held as something other than
/// an op list ships in full without first being rebuilt as one. The op
/// count is the number of ops written, filled in after them.
pub(crate) fn encode_prepare_with(
    epoch: u64,
    write_ops: impl FnOnce(&mut OpWriter<'_>),
) -> Result<Vec<u8>, ProtoError> {
    let body = |w: &mut Writer| {
        w.u8(PREPARE);
        w.u64(epoch);
        let at = w.buf.len();
        w.u16(0);
        let mut ops = OpWriter { w, count: 0 };
        write_ops(&mut ops);
        let count = ops.count;
        w.fill_count(at, 2, count);
    };
    encode(body, &[], put_view, None)
}

/// The ops of a `Prepare` being written by [`encode_prepare_with`], each
/// counted as it goes.
pub(crate) struct OpWriter<'a> {
    w: &'a mut Writer,
    count: usize,
}

impl OpWriter<'_> {
    pub(crate) fn op(&mut self, op: &EnclaveOp) {
        put_op(self.w, op);
        self.count += 1;
    }
    /// An `InstallRule`, without building the op.
    pub(crate) fn rule(&mut self, table: usize, spec: &MatchSpec, func: usize) {
        put_rule(self.w, table, spec, func);
        self.count += 1;
    }
    /// A `SetArray`, without building the op.
    pub(crate) fn array(&mut self, func: usize, array: usize, values: &[i64]) {
        put_array(self.w, func, array, values);
        self.count += 1;
    }
}

/// The encoded frame `untraced` with the trace trailer `trace` appended:
/// the bytes its encoder would have written with `trace` set. Every frame
/// is encoded with room for the trailer, so this one fits the wire too.
pub(crate) fn with_trailer(untraced: &[u8], trace: &TraceContext) -> Vec<u8> {
    let mut w = Writer::with_capacity(untraced.len() + TRACE_TRAILER);
    w.raw(untraced);
    put_trailer(&mut w, trace);
    w.finish().expect("a trailer holds no count")
}

fn put_trailer(w: &mut Writer, t: &TraceContext) {
    w.u16(TRACE_MARK);
    w.u64(t.trace_id);
    w.u64(t.parent_span);
    w.u8(u8::from(t.sampled));
}

/// The one encoder: body, replication section, trace trailer. Refuses
/// ([`ProtoError::TooLong`]) what cannot go on the wire as written: a
/// count that does not fit its prefix, or a message over [`MAX_FRAGS`]
/// fragments. Every message must leave room for a trace trailer, so
/// tracing a round never pushes a configuration that fit over the limit.
fn encode<R>(
    body: impl FnOnce(&mut Writer),
    repl: &[R],
    put_item: impl FnMut(&mut Writer, &R),
    trace: Option<&TraceContext>,
) -> Result<Vec<u8>, ProtoError> {
    let mut w = Writer::default();
    body(&mut w);
    put_repl(&mut w, repl, put_item);
    if let Some(t) = trace {
        put_trailer(&mut w, t);
    }
    let room = if trace.is_some() { 0 } else { TRACE_TRAILER };
    match w.finish() {
        Some(buf) if buf.len() + room <= MAX_FRAGS * MAX_CHUNK => Ok(buf),
        _ => Err(ProtoError::TooLong),
    }
}

/// The one decoder. A frame without a section decodes with it empty —
/// never an error — and trailing bytes that are not a trailer are not a
/// context either. A frame whose trailing bytes *open* with
/// [`REPL_MARK`] must carry a well-formed section: garbage there is
/// rejected (the sender's retry covers the drop), exactly like any other
/// malformed message.
fn decode<'a, B, R>(
    buf: &'a [u8],
    get_body: impl FnOnce(&mut Reader<'a>) -> Result<B, ProtoError>,
    get_item: impl FnMut(&mut Reader<'a>) -> Result<R, ProtoError>,
) -> Result<Frame<B, R>, ProtoError> {
    let mut r = Reader::new(buf);
    let body = get_body(&mut r)?;
    let repl = if r.peek_u16() == Some(REPL_MARK) {
        r.u16()?; // consume the marker
        r.seq(2, get_item)?
    } else {
        Vec::new()
    };
    // the trailer is recognised by its fixed size from the end
    let trace = if r.remaining() == TRACE_TRAILER && r.peek_u16() == Some(TRACE_MARK) {
        r.u16()?;
        Some(TraceContext {
            trace_id: r.u64()?,
            parent_span: r.u64()?,
            sampled: r.u8()? != 0,
        })
    } else {
        None
    };
    Ok(Frame { body, repl, trace })
}

// ----------------------------------------------------------------------
// fragmentation
// ----------------------------------------------------------------------

/// A control frame's fragment header: which message, which of its
/// fragments, out of how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FragHeader {
    pub(crate) msg_id: u32,
    pub(crate) idx: u16,
    pub(crate) count: u16,
}

/// Split an encoded message into MTU-sized control frames. Always emits
/// at least one frame; retransmissions must reuse `msg_id` so duplicates
/// collapse in the reassembler.
pub fn fragment(msg_id: u32, payload: &[u8]) -> Vec<Vec<u8>> {
    let count = payload.len().div_ceil(MAX_CHUNK).max(1);
    assert!(count <= MAX_FRAGS, "message too large");
    let mut frames = Vec::with_capacity(count);
    for idx in 0..count {
        let chunk = &payload[idx * MAX_CHUNK..((idx + 1) * MAX_CHUNK).min(payload.len())];
        let mut w = Writer::with_capacity(FRAG_HEADER + chunk.len());
        w.u16(MAGIC);
        w.u32(msg_id);
        w.count(2, idx);
        w.count(2, count);
        w.raw(chunk);
        frames.push(w.finish().expect("MAX_FRAGS fits the u16 count"));
    }
    frames
}

/// A frame's fragment header and the payload chunk after it: the one
/// parse of the header [`fragment`] writes.
pub(crate) fn read_fragment(frame: &[u8]) -> Result<(FragHeader, &[u8]), ProtoError> {
    let mut r = Reader::new(frame);
    let (magic, msg_id, idx, count) = (r.u16()?, r.u32()?, r.u16()?, r.u16()?);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    if count == 0 || idx >= count || usize::from(count) > MAX_FRAGS {
        return Err(ProtoError::BadFragment);
    }
    let header = FragHeader { msg_id, idx, count };
    Ok((header, r.take(r.remaining())?))
}

struct Pending {
    from: u32,
    msg_id: u32,
    count: u16,
    parts: Vec<Option<Vec<u8>>>,
    received: usize,
}

/// A whole message off the wire: its id (a request's doubles as the
/// reply's `re`) and its payload, borrowed from the frame when the message
/// fit in one.
pub type Reassembled<'f> = (u32, Cow<'f, [u8]>);

/// Per-receiver fragment reassembly, keyed by `(sender, msg id)`.
/// Bounded: when `capacity` incomplete messages are pending, the oldest
/// is evicted — its sender's retry rebuilds it.
pub struct Reassembler {
    pending: Vec<Pending>,
    capacity: usize,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new(64)
    }
}

impl Reassembler {
    /// A reassembler holding at most `capacity` incomplete messages.
    pub fn new(capacity: usize) -> Reassembler {
        Reassembler {
            pending: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Feed one received frame; returns the message id and the full
    /// message payload once the last missing fragment arrives. Duplicate
    /// fragments are ignored; a frame whose `count` disagrees with the
    /// pending entry is rejected.
    /// A one-frame message nothing is pending for — every delta, commit,
    /// ack, heartbeat and pong — is its own payload, borrowed from the
    /// frame, and never enters the pending list, so a duplicate of it
    /// yields the payload again (handlers are idempotent).
    pub fn accept<'f>(
        &mut self,
        from: u32,
        frame: &'f [u8],
    ) -> Result<Option<Reassembled<'f>>, ProtoError> {
        let (FragHeader { msg_id, idx, count }, chunk) = read_fragment(frame)?;

        let pos = match self
            .pending
            .iter()
            .position(|p| p.from == from && p.msg_id == msg_id)
        {
            Some(pos) => {
                if self.pending[pos].count != count {
                    return Err(ProtoError::BadFragment);
                }
                pos
            }
            None if count == 1 => return Ok(Some((msg_id, Cow::Borrowed(chunk)))),
            None => {
                if self.pending.len() >= self.capacity {
                    self.pending.remove(0);
                }
                self.pending.push(Pending {
                    from,
                    msg_id,
                    count,
                    parts: vec![None; count as usize],
                    received: 0,
                });
                self.pending.len() - 1
            }
        };

        let p = &mut self.pending[pos];
        if p.parts[idx as usize].is_none() {
            p.parts[idx as usize] = Some(chunk.to_vec());
            p.received += 1;
        }
        if p.received < p.count as usize {
            return Ok(None);
        }
        let done = self.pending.remove(pos);
        let mut payload = Vec::new();
        for part in done.parts {
            payload.extend_from_slice(&part.expect("all fragments received"));
        }
        Ok(Some((msg_id, Cow::Owned(payload))))
    }

    /// Number of incomplete messages currently held.
    pub fn pending_messages(&self) -> usize {
        self.pending.len()
    }

    /// Total payload bytes buffered across all incomplete messages — what
    /// the codec-robustness fuzzer checks against its memory bound.
    pub fn buffered_bytes(&self) -> usize {
        self.pending
            .iter()
            .map(|p| {
                p.parts
                    .iter()
                    .map(|part| part.as_ref().map_or(0, Vec::len))
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_msg(msg: &CtrlMsg) -> Vec<u8> {
        Request::from(msg.clone()).encode().expect("fits the wire")
    }

    fn decode_msg(buf: &[u8]) -> Result<CtrlMsg, ProtoError> {
        Request::decode(buf).map(|f| f.body)
    }

    fn encode_reply(reply: &CtrlReply) -> Vec<u8> {
        Response::from(reply.clone())
            .encode()
            .expect("fits the wire")
    }

    fn decode_reply(buf: &[u8]) -> Result<CtrlReply, ProtoError> {
        Response::decode(buf).map(|f| f.body)
    }

    /// A writer that continues the encoded message `bytes`.
    fn continuing(bytes: Vec<u8>) -> Writer {
        let mut w = Writer::default();
        w.buf = bytes;
        w
    }

    fn sample_ops() -> Vec<EnclaveOp> {
        vec![
            EnclaveOp::Reset,
            EnclaveOp::CreateTable,
            EnclaveOp::InstallFunction(Box::new(ShippedFunction {
                name: "f".into(),
                bytecode: vec![1, 2, 3, 4],
                schema: Schema::new()
                    .packet_field("Prio", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
                    .msg_field("Seen", Access::ReadWrite)
                    .global_field("Cap", Access::ReadOnly)
                    .global_field("Tokens", Access::ReadWrite)
                    .replicated(ReplMode::MergedSum)
                    .global_array("Map", &["A", "B"], Access::ReadOnly)
                    .global_array("Conns", &[""], Access::ReadWrite)
                    .replicated(ReplMode::Sequenced),
                concurrency: Concurrency::PerMessage,
            })),
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::AnyOf(vec![ClassId(3), ClassId(9)]),
                func: 0,
            },
            EnclaveOp::InstallRule {
                table: 1,
                spec: MatchSpec::Class(ClassId(5)),
                func: 0,
            },
            EnclaveOp::RemoveRule { table: 1, rule: 0 },
            EnclaveOp::ClearTable { table: 1 },
            EnclaveOp::SetGlobal {
                func: 0,
                slot: 0,
                value: -7,
            },
            EnclaveOp::SetArray {
                func: 0,
                array: 0,
                values: vec![1, -2, 3],
            },
        ]
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            CtrlMsg::Prepare {
                epoch: 42,
                ops: sample_ops(),
            },
            CtrlMsg::Commit { epoch: 42 },
            CtrlMsg::Abort { epoch: 42 },
            CtrlMsg::Heartbeat { nonce: 7 },
            CtrlMsg::PullStats,
            CtrlMsg::PullTrace { max: 128 },
        ];
        for m in msgs {
            assert_eq!(decode_msg(&encode_msg(&m)).unwrap(), m);
        }
    }

    // A count that does not fit its prefix used to be written `len() as
    // u16`: 65,542 ops went out as a well-formed Prepare of 6.
    #[test]
    fn a_sequence_longer_than_its_count_prefix_is_refused_not_wrapped() {
        let prepare = |n: usize| CtrlMsg::Prepare {
            epoch: 1,
            ops: vec![EnclaveOp::Reset; n],
        };
        let most = Request::from(prepare(u16::MAX as usize));
        assert_eq!(Request::decode(&most.encode().unwrap()), Ok(most));
        let over = Request::from(prepare(u16::MAX as usize + 7));
        assert_eq!(over.encode(), Err(ProtoError::TooLong));
        assert_eq!(
            encode_prepare(1, &vec![EnclaveOp::Reset; 65_542]),
            Err(ProtoError::TooLong)
        );
    }

    #[test]
    fn a_message_over_the_fragment_limit_is_refused_with_or_without_its_trailer() {
        let array = |n: usize| CtrlMsg::Prepare {
            epoch: 1,
            ops: vec![EnclaveOp::SetArray {
                func: 0,
                array: 0,
                values: vec![7; n],
            }],
        };
        // tag, epoch, op count, op tag, func, array, element count
        let fixed = 1 + 8 + 2 + 1 + 4 + 4 + 4;
        let fits = (MAX_FRAGS * MAX_CHUNK - TRACE_TRAILER - fixed) / 8;
        let ctx = TraceContext::sampled(1, 2);
        for trace in [None, Some(ctx)] {
            let frame = Request {
                trace,
                ..array(fits).into()
            };
            let bytes = frame.encode().expect("leaves room for the trailer");
            assert_eq!(fragment(1, &bytes).len(), MAX_FRAGS);
            let frame = Request {
                trace,
                ..array(fits + 1).into()
            };
            assert_eq!(frame.encode(), Err(ProtoError::TooLong));
        }
    }

    fn sample_spans() -> Vec<Span> {
        vec![
            Span {
                trace_id: 0x1_0000_0001,
                span_id: (9u64 << 40) | 1,
                parent_span: 0,
                host: 9,
                name: "prepare".into(),
                start_ns: 100,
                end_ns: 250,
            },
            Span {
                trace_id: 0x1_0000_0001,
                span_id: (9u64 << 40) | 2,
                parent_span: (9u64 << 40) | 1,
                host: 9,
                name: "stage.classify".into(),
                start_ns: 120,
                end_ns: 130,
            },
        ]
    }

    #[test]
    fn trace_trailer_round_trips_and_costs_an_untraced_frame_nothing() {
        let msg = CtrlMsg::Commit { epoch: 8 };
        let ctx = TraceContext::sampled(0xABCD, (3u64 << 40) | 7);
        let traced = Request {
            trace: Some(ctx),
            ..msg.clone().into()
        };
        let bytes = traced.encode().unwrap();
        assert_eq!(Request::decode(&bytes), Ok(traced));

        // the trailer follows the bare body, which is all an untraced
        // frame is
        let bare = encode_msg(&msg);
        assert_eq!(bytes.len(), bare.len() + TRACE_TRAILER);
        assert_eq!(bytes[..bare.len()], bare[..]);
        assert_eq!(Request::decode(&bare), Ok(msg.clone().into()));

        // trailing bytes that are not a trailer are not a context either
        let mut junk = bare;
        junk.extend_from_slice(&[0u8; TRACE_TRAILER]);
        assert_eq!(Request::decode(&junk), Ok(msg.into()));
    }

    fn sample_views() -> Vec<FuncView> {
        vec![FuncView {
            func: 0,
            version: 9,
            remote: vec![(0, 41), (1, -3)],
            remote_arrays: vec![(0, vec![5, 0, 7])],
            snapshot: Some(SeqSnapshot {
                seq: 12,
                globals: vec![(2, 99)],
                cells: vec![(1, 4, -8)],
            }),
            entries: vec![SeqEntry {
                seq: 13,
                host: 2,
                op: SeqOp {
                    op_id: 5,
                    target: SeqTarget::Array { id: 1, index: 4 },
                    value: 6,
                },
            }],
            acked_op_id: 5,
            digest: 0xFEED,
            divergent: true,
        }]
    }

    fn sample_deltas() -> Vec<FuncDelta> {
        vec![
            FuncDelta {
                func: 0,
                merged: vec![(0, 7)],
                merged_arrays: vec![(0, vec![1, 2])],
                seq_ops: vec![SeqOp {
                    op_id: 3,
                    target: SeqTarget::Global { slot: 2 },
                    value: -1,
                }],
                applied_seq: 11,
                digest: 0xD1CE,
            },
            FuncDelta {
                func: 3,
                ..FuncDelta::default()
            },
        ]
    }

    #[test]
    fn repl_view_section_rides_heartbeats_next_to_the_trace_trailer() {
        let msg = CtrlMsg::Heartbeat { nonce: 4 };
        let ctx = TraceContext::sampled(0x77, 0x2000);
        let bare = encode_msg(&msg);

        // body → views → trailer, all three recovered, with and without
        // the trailer
        for trace in [Some(ctx), None] {
            let frame = Request {
                body: msg.clone(),
                repl: sample_views(),
                trace,
            };
            let buf = frame.encode().unwrap();
            assert_eq!(buf[..bare.len()], bare[..], "the body leads");
            assert_eq!(Request::decode(&buf), Ok(frame));

            // no views: no section, not an empty one
            let plain = Request {
                body: msg.clone(),
                repl: Vec::new(),
                trace,
            };
            let trailer = trace.map_or(0, |_| TRACE_TRAILER);
            assert_eq!(plain.encode().unwrap().len(), bare.len() + trailer);
        }
    }

    #[test]
    fn repl_delta_section_rides_pongs() {
        let reply = CtrlReply::Pong {
            re: 3,
            nonce: 4,
            epoch: 5,
            digest: 6,
            spans: sample_spans(),
        };
        let plain = encode_reply(&reply);
        let frame = Response {
            repl: sample_deltas(),
            ..reply.clone().into()
        };
        let buf = frame.encode().unwrap();
        assert_eq!(
            buf[..plain.len()],
            plain[..],
            "the body leads, spans intact"
        );
        assert_eq!(Response::decode(&buf), Ok(frame));
        // a frame without the section decodes with no deltas
        assert_eq!(Response::decode(&plain), Ok(reply.into()));
        // the telemetry sample matches the actual section size
        assert_eq!(
            repl_deltas_wire_len(&sample_deltas()),
            buf.len() - plain.len()
        );
        assert_eq!(repl_deltas_wire_len(&[]), 0);
    }

    #[test]
    fn hostile_repl_sections_rejected_without_overallocation() {
        // view count lie: u16::MAX views claimed, no data follows
        let mut w = continuing(encode_msg(&CtrlMsg::Heartbeat { nonce: 1 }));
        w.u16(REPL_MARK);
        w.u16(u16::MAX);
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::Truncated));

        // bad snapshot flag inside a view
        let mut views = sample_views();
        views[0].snapshot = None;
        views[0].entries.clear();
        let frame = Request {
            repl: views,
            ..CtrlMsg::Heartbeat { nonce: 1 }.into()
        };
        let mut buf = frame.encode().unwrap();
        // the tail after the flag: empty entry count + acked + digest +
        // divergent byte
        let flag_at = buf.len() - (2 + 8 + 8 + 1) - 1;
        assert_eq!(buf[flag_at], 0, "located the snapshot flag");
        buf[flag_at] = 9;
        assert_eq!(decode_msg(&buf), Err(ProtoError::BadTag(9)));

        // bad sequenced-target tag inside a delta
        let mut w = continuing(encode_reply(&CtrlReply::Ack {
            re: 1,
            epoch: 1,
            phase: AckPhase::Commit,
        }));
        w.u16(REPL_MARK);
        w.u16(1);
        w.u32(0); // func
        w.u16(0); // merged
        w.u16(0); // merged arrays
        w.u16(1); // one seq op
        w.u64(1); // op id
        w.u8(7); // bogus target tag
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::BadTag(7)));

        // delta count lie on a pong
        let mut w = continuing(encode_reply(&CtrlReply::Pong {
            re: 1,
            nonce: 1,
            epoch: 1,
            digest: 1,
            spans: Vec::new(),
        }));
        w.u16(REPL_MARK);
        w.u16(u16::MAX);
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::Truncated));
    }

    #[test]
    fn span_replies_round_trip() {
        let replies = vec![
            CtrlReply::Spans {
                re: 5,
                spans: sample_spans(),
            },
            CtrlReply::Spans {
                re: 6,
                spans: Vec::new(),
            },
            CtrlReply::Pong {
                re: 7,
                nonce: 1,
                epoch: 2,
                digest: 3,
                spans: sample_spans(),
            },
        ];
        for r in replies {
            assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r);
        }
    }

    #[test]
    fn pre_tracing_pong_and_stats_frames_still_decode() {
        // A pong encoded by the previous protocol revision: fields end at
        // the digest, no span section.
        let mut w = Writer::default();
        w.u8(3);
        w.u32(12);
        w.u64(5);
        w.u64(3);
        w.u64(0xDEADBEEF);
        assert_eq!(
            decode_reply(&w.buf).unwrap(),
            CtrlReply::Pong {
                re: 12,
                nonce: 5,
                epoch: 3,
                digest: 0xDEADBEEF,
                spans: Vec::new(),
            }
        );
        // Same for stats: counters end the old frame.
        let mut w = Writer::default();
        w.u8(4);
        w.u32(13);
        w.u64(3);
        w.u64(1);
        w.u64(99);
        put_counters(&mut w, &EnclaveCounters::default());
        assert!(matches!(
            decode_reply(&w.buf).unwrap(),
            CtrlReply::Stats { re: 13, latencies, .. } if latencies.is_empty()
        ));
    }

    #[test]
    fn hostile_span_frames_rejected_without_overallocation() {
        // span name longer than the bound
        let mut w = Writer::default();
        w.u8(5); // Spans
        w.u32(1);
        w.u16(1);
        w.u64(1);
        w.u64(2);
        w.u64(0);
        w.u32(9);
        w.bytes(&[b'x'; MAX_SPAN_NAME + 1]);
        w.u64(0);
        w.u64(0);
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::BadString));

        // span count lie: u16::MAX spans claimed, no data follows
        let mut w = Writer::default();
        w.u8(5);
        w.u32(1);
        w.u16(u16::MAX);
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::Truncated));

        // latency bucket index out of range
        let mut w = Writer::default();
        w.u8(4);
        w.u32(1);
        w.u64(1);
        w.u64(1);
        w.u64(1);
        put_counters(&mut w, &EnclaveCounters::default());
        w.u16(1); // one latency stat
        w.str("ctrl.rtt");
        w.u64(10); // sum
        w.u8(1); // one bucket pair
        w.u8(64); // index >= HIST_BUCKETS
        w.u64(1);
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::BadTag(64)));
    }

    #[test]
    fn latency_histograms_round_trip_sparse() {
        let mut h = LogHistogram::new();
        for v in [100u64, 100, 7000, 0] {
            h.record(v);
        }
        let reply = CtrlReply::Stats {
            re: 1,
            epoch: 2,
            digest: 3,
            captured_at_ns: 4,
            counters: EnclaveCounters::default(),
            latencies: vec![
                LatencyStat::new("ctrl.rtt", h.clone()),
                LatencyStat::new("epoch.converge", LogHistogram::new()),
            ],
        };
        let decoded = decode_reply(&encode_reply(&reply)).unwrap();
        let CtrlReply::Stats { latencies, .. } = decoded else {
            panic!("expected stats");
        };
        assert_eq!(latencies.len(), 2);
        assert_eq!(latencies[0].name, "ctrl.rtt");
        assert_eq!(latencies[0].hist, h, "count, sum, and buckets survive");
        assert_eq!(latencies[0].hist.p50(), h.p50());
        assert!(latencies[1].hist.is_empty());
    }

    /// The bytes of one `Stats` reply, captured from the hand-written codec
    /// before the counter section was derived from the enclave group's
    /// table: field order is wire order, so a reordered, inserted or
    /// removed row shows here.
    #[test]
    fn stats_reply_bytes_are_pinned() {
        let mut h = LogHistogram::new();
        for v in [100u64, 100, 7000] {
            h.record(v);
        }
        let reply = CtrlReply::Stats {
            re: 0x0D0C_0B0A,
            epoch: 3,
            digest: 0x1122_3344_5566_7788,
            captured_at_ns: 99,
            counters: EnclaveCounters::from_values(std::array::from_fn(|i| 101 + i as u64)),
            latencies: vec![LatencyStat::new("vm.exec", h)],
        };
        let pinned = "040a0b0c0d030000000000000088776655443322116300000000000000650000\
             0000000000660000000000000067000000000000006800000000000000690000\
             00000000006a000000000000006b000000000000006c000000000000006d0000\
             00000000006e000000000000006f000000000000007000000000000000710000\
             00000000007200000000000000010007000000766d2e65786563201c00000000\
             0000020702000000000000000d0100000000000000";
        let hex: String = encode_reply(&reply)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, pinned);
        let bytes: Vec<u8> = (0..pinned.len() / 2)
            .map(|i| u8::from_str_radix(&pinned[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert_eq!(decode_reply(&bytes), Ok(reply));
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            CtrlReply::Ack {
                re: 9,
                epoch: 1,
                phase: AckPhase::Prepare,
            },
            CtrlReply::Ack {
                re: 10,
                epoch: 1,
                phase: AckPhase::Commit,
            },
            CtrlReply::Nack {
                re: 11,
                epoch: 2,
                reason: "op 3: no such table 7".into(),
            },
            CtrlReply::Pong {
                re: 12,
                nonce: 5,
                epoch: 3,
                digest: 0xDEADBEEF,
                spans: Vec::new(),
            },
            CtrlReply::Stats {
                re: 13,
                epoch: 3,
                digest: 1,
                captured_at_ns: 99,
                counters: EnclaveCounters {
                    packets: 10,
                    forwarded: 9,
                    dropped: 1,
                    ..Default::default()
                },
                latencies: Vec::new(),
            },
        ];
        for r in replies {
            assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r);
        }
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        let full = encode_msg(&CtrlMsg::Prepare {
            epoch: 1,
            ops: sample_ops(),
        });
        for cut in [0, 1, 5, full.len() - 1] {
            assert!(decode_msg(&full[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(decode_msg(&[99]), Err(ProtoError::BadTag(99)));
        assert_eq!(decode_reply(&[0]), Err(ProtoError::BadTag(0)));
    }

    #[test]
    fn fragmentation_round_trips_any_size() {
        for size in [0usize, 1, MAX_CHUNK - 1, MAX_CHUNK, MAX_CHUNK + 1, 5000] {
            let payload: Vec<u8> = (0..size).map(|i| (i % 251).to_le_bytes()[0]).collect();
            let frames = fragment(7, &payload);
            assert_eq!(frames.len(), size.div_ceil(MAX_CHUNK).max(1));
            for f in &frames {
                // every frame fits a 1500B MTU as a UDP payload
                assert!(20 + 8 + f.len() <= 1500);
            }
            let mut r = Reassembler::new(4);
            let mut out = None;
            for f in &frames {
                if let Some((id, p)) = r.accept(1, f).unwrap() {
                    assert_eq!(id, 7, "the message id rides with the payload");
                    out = Some(p.into_owned());
                }
            }
            assert_eq!(out.expect("reassembled"), payload);
        }
    }

    #[test]
    fn reassembly_survives_reorder_duplication_interleaving() {
        let a: Vec<u8> = vec![0xAA; MAX_CHUNK * 2 + 10];
        let b: Vec<u8> = vec![0xBB; MAX_CHUNK + 1];
        let fa = fragment(1, &a);
        let fb = fragment(2, &b);
        let mut r = Reassembler::new(4);
        let mut done = Vec::new();
        // interleave, reversed order, with duplicates
        let sequence = [&fb[1], &fa[2], &fb[1], &fa[0], &fb[0], &fa[1], &fa[1]];
        for f in sequence {
            if let Some((id, p)) = r.accept(9, f).unwrap() {
                done.push((id, p.into_owned()));
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.contains(&(1, a)));
        assert!(done.contains(&(2, b)));
    }

    #[test]
    fn reassembler_keys_by_sender() {
        let msg = vec![1u8; MAX_CHUNK + 1];
        let frames = fragment(1, &msg);
        let mut r = Reassembler::new(4);
        assert_eq!(r.accept(1, &frames[0]).unwrap(), None);
        // same msg id, different sender: must not complete host 1's message
        assert_eq!(r.accept(2, &frames[1]).unwrap(), None);
        assert_eq!(
            r.accept(1, &frames[1]).unwrap().map(|(_, p)| p).as_deref(),
            Some(&msg[..])
        );
    }

    #[test]
    fn reassembler_evicts_oldest_when_full() {
        let msg = vec![3u8; MAX_CHUNK + 1];
        let mut r = Reassembler::new(2);
        for id in 0..3u32 {
            let frames = fragment(id, &msg);
            assert_eq!(r.accept(1, &frames[0]).unwrap(), None);
        }
        // msg 0 was evicted; completing it now only starts a new entry
        let frames = fragment(0, &msg);
        assert_eq!(r.accept(1, &frames[1]).unwrap(), None);
        // but the sender's full retry still lands
        assert_eq!(
            r.accept(1, &frames[0]).unwrap().map(|(_, p)| p).as_deref(),
            Some(&msg[..])
        );
    }

    #[test]
    fn bad_frames_rejected() {
        let mut r = Reassembler::new(4);
        assert_eq!(r.accept(1, &[0; 5]), Err(ProtoError::Truncated));
        let mut f = fragment(1, &[1, 2, 3]).remove(0);
        f[0] ^= 0xFF;
        assert_eq!(r.accept(1, &f), Err(ProtoError::BadMagic));
        let mut f = fragment(1, &[1, 2, 3]).remove(0);
        f[6] = 9; // idx >= count
        assert_eq!(r.accept(1, &f), Err(ProtoError::BadFragment));
    }

    /// Build a raw fragment frame without going through [`fragment`], so
    /// tests can claim whatever `count` they like.
    fn raw_frame(msg_id: u32, idx: u16, count: u16, chunk: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC.to_le_bytes());
        f.extend_from_slice(&msg_id.to_le_bytes());
        f.extend_from_slice(&idx.to_le_bytes());
        f.extend_from_slice(&count.to_le_bytes());
        f.extend_from_slice(chunk);
        f
    }

    #[test]
    fn single_fragment_messages_bypass_the_pending_list() {
        let mut r = Reassembler::new(4);
        let f = fragment(7, &[1, 2, 3]).remove(0);
        let payload = r.accept(1, &f).unwrap();
        assert!(
            matches!(payload, Some((7, Cow::Borrowed(p))) if *p == [1, 2, 3]),
            "the frame's own bytes: {payload:?}"
        );
        assert_eq!(
            r.accept(1, &f).unwrap().map(|(_, p)| p).as_deref(),
            Some(&[1, 2, 3][..]),
            "a duplicated frame yields the payload again"
        );
        assert_eq!(r.pending_messages(), 0);

        // a one-frame message colliding with a pending multi-fragment
        // entry is still an inconsistent count, and does not disturb it
        let big = vec![5u8; MAX_CHUNK + 1];
        let frames = fragment(9, &big);
        assert_eq!(r.accept(1, &frames[0]).unwrap(), None);
        assert_eq!(
            r.accept(1, &raw_frame(9, 0, 1, &[1])),
            Err(ProtoError::BadFragment)
        );
        assert_eq!(r.pending_messages(), 1);
        assert_eq!(
            r.accept(1, &frames[1]).unwrap().map(|(_, p)| p).as_deref(),
            Some(&big[..])
        );
    }

    // Pinned by the fuzz harness: a single 11-byte spoofed frame used to
    // make the reassembler pre-allocate 65535 fragment slots; repeated
    // across msg ids that pinned ~1.5 MB per pending entry.
    #[test]
    fn oversized_fragment_count_rejected() {
        let mut r = Reassembler::new(64);
        let f = raw_frame(1, 0, u16::MAX, &[0xAB]);
        assert_eq!(r.accept(1, &f), Err(ProtoError::BadFragment));
        assert_eq!(r.pending_messages(), 0);
        // the largest legal count is fine
        let f = raw_frame(2, 0, u16::try_from(MAX_FRAGS).unwrap(), &[0xAB]);
        assert_eq!(r.accept(1, &f), Ok(None));
        assert_eq!(r.pending_messages(), 1);
        assert_eq!(r.buffered_bytes(), 1);
    }

    // Pinned by the fuzz harness: a crafted `Prepare` whose InstallFunction
    // schema declares the same field twice reached the Schema builder's
    // `assert!` and panicked the decoder.
    #[test]
    fn crafted_duplicate_schema_field_is_error_not_panic() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7); // epoch
        w.u16(1); // one op
        w.u8(3); // InstallFunction
        w.str("f");
        w.bytes(&[]); // bytecode
        w.u16(2); // two schema fields...
        for _ in 0..2 {
            w.str("A"); // ...with the same name
            w.u8(0); // scope: packet
            w.u8(0); // access: read-only
            w.u8(0); // no header
        }
        w.u16(0); // no arrays
        w.u8(0); // concurrency
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::BadSchema));
    }

    // Pinned by the fuzz harness: same panic through the duplicate-array
    // assert.
    #[test]
    fn crafted_duplicate_schema_array_is_error_not_panic() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7);
        w.u16(1);
        w.u8(3); // InstallFunction
        w.str("f");
        w.bytes(&[]);
        w.u16(0); // no fields
        w.u16(2); // two arrays...
        for _ in 0..2 {
            w.str("Xs"); // ...with the same name
            w.u16(1);
            w.str("V");
            w.u8(0); // access
        }
        w.u8(0);
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::BadSchema));
    }

    // A frame no honest controller sends: bytecode that stores message
    // state (`mstore 0`), shipped under a `Parallel` declaration. Nothing
    // about it is malformed, so it decodes; the agent's enclave links the
    // function against its declaration while staging, nacks the epoch with
    // the reason, and keeps serving what it served.
    #[test]
    fn crafted_parallel_function_with_mstore_is_nacked_at_prepare() {
        use crate::agent::EnclaveAgent;
        use eden_core::{Enclave, EnclaveConfig};

        let honest = eden_core::Controller::new()
            .plan_function(
                "quiet-writer",
                "fun (packet, msg, _global) -> msg.Seen <- 1",
                &Schema::new().msg_field("Seen", Access::ReadWrite),
            )
            .expect("compiles");
        let EnclaveOp::InstallFunction(f) = honest else {
            panic!("not an InstallFunction: {honest:?}");
        };
        assert_eq!(
            f.concurrency,
            Concurrency::PerMessage,
            "a message writer compiles to a PerMessage function"
        );
        let bytecode = f.bytecode;
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(1); // epoch
        w.u16(3); // three ops
        w.u8(0); // Reset
        w.u8(3); // InstallFunction
        w.str("quiet-writer");
        w.bytes(&bytecode);
        w.u16(1); // one field
        w.str("Seen");
        w.u8(1); // scope: message
        w.u8(1); // access: read-write
        w.u8(0); // no header, not replicated
        w.u16(0); // no arrays
        w.u8(0); // concurrency: parallel — the lie
        w.u8(4); // InstallRule
        w.u32(0); // table 0
        w.u8(0); // MatchSpec::Any
        w.u32(0); // func 0
        let msg = decode_msg(&w.buf).expect("well-formed frame");
        assert!(matches!(&msg, CtrlMsg::Prepare { epoch: 1, ops } if ops.len() == 3));

        let mut agent = EnclaveAgent::new(Enclave::new(EnclaveConfig::default()));
        let digest = agent.enclave().config_digest();
        match agent.handle(1, msg.into(), 0).body {
            CtrlReply::Nack { re, epoch, reason } => {
                assert_eq!((re, epoch), (1, 1));
                assert!(
                    reason.contains("op 1") && reason.contains("declared parallel"),
                    "nack names the op and the check: {reason}"
                );
            }
            other => panic!("expected a nack, got {other:?}"),
        }
        let e = agent.enclave();
        assert_eq!(e.staged_epoch(), None);
        assert_eq!((e.active_epoch(), e.config_digest()), (0, digest));
        assert!(matches!(
            agent.handle(2, CtrlMsg::Commit { epoch: 1 }.into(), 0).body,
            CtrlReply::Nack { re: 2, .. }
        ));
    }

    // A schema frame from the pre-replication encoder: the field's third
    // byte is exactly 0/1 (header absent/present) and the array's trailing
    // byte is exactly the access mode. Both parse unchanged as flag bytes
    // with the repl bit clear.
    #[test]
    fn pre_replication_schema_bytes_still_decode() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7);
        w.u16(1);
        w.u8(3); // InstallFunction
        w.str("f");
        w.bytes(&[]);
        w.u16(2); // two fields
        w.str("Prio");
        w.u8(0); // scope: packet
        w.u8(1); // access: read-write
        w.u8(1); // old encoding: header follows
        w.u8(8); // Dot1qPcp
        w.str("Cap");
        w.u8(2); // scope: global
        w.u8(0); // access: read-only
        w.u8(0); // old encoding: no header
        w.u16(1); // one array
        w.str("Map");
        w.u16(1);
        w.str("V");
        w.u8(1); // old encoding: bare access byte (read-write)
        w.u8(1); // concurrency
        let CtrlMsg::Prepare { ops, .. } = decode_msg(&w.buf).unwrap() else {
            panic!("expected prepare");
        };
        let EnclaveOp::InstallFunction(f) = &ops[0] else {
            panic!("expected install");
        };
        let schema = &f.schema;
        let expect = Schema::new()
            .packet_field("Prio", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
            .global_field("Cap", Access::ReadOnly)
            .global_array("Map", &["V"], Access::ReadWrite);
        assert_eq!(*schema, expect);
        assert!(!schema.has_replicated());
    }

    // Crafted bytes claiming a replicated per-message field must be
    // rejected at decode, the same way typeck rejects the source form.
    #[test]
    fn crafted_replicated_message_field_is_error_not_panic() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7);
        w.u16(1);
        w.u8(3); // InstallFunction
        w.str("f");
        w.bytes(&[]);
        w.u16(1); // one field
        w.str("Seen");
        w.u8(1); // scope: message
        w.u8(1); // access: read-write
        w.u8(2); // flags: repl follows, no header
        w.u8(0); // MergedSum
        w.u16(0); // no arrays
        w.u8(1); // concurrency
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::BadSchema));
    }

    #[test]
    fn hostile_schema_flag_bits_rejected() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7);
        w.u16(1);
        w.u8(3); // InstallFunction
        w.str("f");
        w.bytes(&[]);
        w.u16(1);
        w.str("A");
        w.u8(0); // scope: packet
        w.u8(0); // access
        w.u8(0x84); // flags with undefined bits set
        w.u16(0);
        w.u8(0);
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::BadTag(0x84)));
    }

    // Pinned by the fuzz harness: a `SetArray` op whose length field says
    // u32::MAX elements made the decoder reserve 32 GiB up front before
    // the first element read could fail.
    #[test]
    fn set_array_length_lie_is_truncated_not_oom() {
        let mut w = Writer::default();
        w.u8(1); // Prepare
        w.u64(7);
        w.u16(1);
        w.u8(7); // SetArray
        w.u32(0); // func
        w.u32(0); // array
        w.u32(u32::MAX); // claimed element count, no data follows
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::Truncated));
    }

    #[test]
    fn delta_and_agg_messages_round_trip() {
        let msgs = vec![
            CtrlMsg::DeltaPrepare {
                epoch: 9,
                base_digest: 0xFACE_0FF5,
                ops: sample_ops(),
            },
            CtrlMsg::DeltaPrepare {
                epoch: 10,
                base_digest: 0,
                ops: Vec::new(),
            },
            CtrlMsg::AggSync {
                nonce: 77,
                views: vec![
                    (11, sample_views().remove(0)),
                    (12, sample_views().remove(0)),
                ],
            },
            CtrlMsg::AggSync {
                nonce: 78,
                views: Vec::new(),
            },
        ];
        for m in msgs {
            assert_eq!(decode_msg(&encode_msg(&m)).unwrap(), m);
        }
        let replies = vec![
            CtrlReply::AggPong {
                re: 4,
                nonce: 77,
                epoch: 9,
                digest: 0xFACE,
                hosts_total: 32,
                hosts_synced: 31,
                max_epoch: 10,
                diverged: true,
                deltas: vec![
                    (11, sample_deltas().remove(0)),
                    (13, sample_deltas().remove(1)),
                ],
                spans: sample_spans(),
            },
            CtrlReply::AggPong {
                re: 5,
                nonce: 78,
                epoch: 0,
                digest: 0,
                hosts_total: 0,
                hosts_synced: 0,
                max_epoch: 0,
                diverged: false,
                deltas: Vec::new(),
                spans: Vec::new(),
            },
        ];
        for r in replies {
            assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r);
        }
    }

    // The delta/aggregation verbs compose with the optional trailing
    // sections the same way every verb before them does: repl section
    // after the message, trace trailer always last.
    #[test]
    fn delta_and_agg_verbs_compose_with_trailing_sections() {
        let frame = Request {
            body: CtrlMsg::DeltaPrepare {
                epoch: 3,
                base_digest: 0xB00,
                ops: vec![EnclaveOp::RemoveRule { table: 0, rule: 2 }],
            },
            repl: sample_views(),
            trace: Some(TraceContext::sampled(0x99, 0x4000)),
        };
        let buf = frame.encode().unwrap();
        let bare = encode_msg(&frame.body);
        assert_eq!(buf[..bare.len()], bare[..]);
        assert_eq!(Request::decode(&buf), Ok(frame));

        // AggPong's deltas and spans live inside the verb, not in the
        // sections: it decodes with an empty replication section.
        let pong = CtrlReply::AggPong {
            re: 1,
            nonce: 2,
            epoch: 3,
            digest: 4,
            hosts_total: 5,
            hosts_synced: 5,
            max_epoch: 3,
            diverged: false,
            deltas: vec![(9, sample_deltas().remove(0))],
            spans: sample_spans(),
        };
        assert_eq!(Response::decode(&encode_reply(&pong)), Ok(pong.into()));
    }

    // Wire pin for `DeltaPrepare`: byte-for-byte layout a third-party
    // encoder could produce today. If this test breaks, the protocol
    // revision changed and pre-delta peers can no longer be upgraded
    // in place.
    #[test]
    fn delta_prepare_pinned_bytes_decode() {
        let mut w = Writer::default();
        w.u8(7); // DeltaPrepare — first tag past the pre-delta verb space
        w.u64(21); // epoch
        w.u64(0xC0FFEE); // base digest anchor
        w.u16(2); // op count
        w.u8(4); // InstallRule
        w.u32(0);
        w.u8(1); // MatchSpec::Class
        w.u32(6);
        w.u32(0); // func
        w.u8(5); // RemoveRule
        w.u32(0);
        w.u32(1);
        assert_eq!(
            decode_msg(&w.buf).unwrap(),
            CtrlMsg::DeltaPrepare {
                epoch: 21,
                base_digest: 0xC0FFEE,
                ops: vec![
                    EnclaveOp::InstallRule {
                        table: 0,
                        spec: MatchSpec::Class(ClassId(6)),
                        func: 0,
                    },
                    EnclaveOp::RemoveRule { table: 0, rule: 1 },
                ],
            }
        );
    }

    // Interop with pre-delta peers: the new verbs claim fresh tags
    // *above* the pre-delta space (msgs 0..=6, replies 0..=5), so an
    // old decoder meeting one fails with `BadTag` and drops the frame —
    // the sender's retry/backoff covers it, exactly like any loss. It
    // can never misparse one as a verb it knows. Conversely the current
    // decoder rejects tags beyond the new space the same way.
    #[test]
    fn pre_delta_decoders_drop_new_verbs_cleanly() {
        let dp = encode_msg(&CtrlMsg::DeltaPrepare {
            epoch: 1,
            base_digest: 2,
            ops: Vec::new(),
        });
        assert_eq!(dp[0], 7);
        let sync = encode_msg(&CtrlMsg::AggSync {
            nonce: 1,
            views: Vec::new(),
        });
        assert_eq!(sync[0], 8);
        let pong = encode_reply(&CtrlReply::AggPong {
            re: 0,
            nonce: 0,
            epoch: 0,
            digest: 0,
            hosts_total: 0,
            hosts_synced: 0,
            max_epoch: 0,
            diverged: false,
            deltas: Vec::new(),
            spans: Vec::new(),
        });
        assert_eq!(pong[0], 6);
        // one-past-the-end tags stay errors, not silent misparses
        assert_eq!(decode_msg(&[9]), Err(ProtoError::BadTag(9)));
        assert_eq!(decode_reply(&[7]), Err(ProtoError::BadTag(7)));
    }

    // Count-field lies in the new verbs must truncate, not preallocate.
    #[test]
    fn agg_count_lies_are_truncated_not_oom() {
        // AggSync claiming u16::MAX host-tagged views with no data
        let mut w = Writer::default();
        w.u8(8);
        w.u64(1); // nonce
        w.u16(u16::MAX);
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::Truncated));

        // AggPong claiming u16::MAX host-tagged deltas with no data
        let mut w = Writer::default();
        w.u8(6);
        w.u32(1); // re
        w.u64(1); // nonce
        w.u64(1); // epoch
        w.u64(1); // digest
        w.u32(1); // hosts_total
        w.u32(1); // hosts_synced
        w.u64(1); // max_epoch
        w.u8(0); // diverged
        w.u16(u16::MAX);
        assert_eq!(decode_reply(&w.buf), Err(ProtoError::Truncated));

        // DeltaPrepare claiming u16::MAX ops with no data
        let mut w = Writer::default();
        w.u8(7);
        w.u64(1);
        w.u64(1);
        w.u16(u16::MAX);
        assert_eq!(decode_msg(&w.buf), Err(ProtoError::Truncated));
    }
}
