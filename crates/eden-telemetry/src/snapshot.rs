//! The stats-pull API: point-in-time counter snapshots.
//!
//! The paper's controller "can poll the enclave for statistics" (§3.2) —
//! `Enclave::stats_snapshot` is that pull. A [`StatsSnapshot`] aggregates
//! counters from every layer that has them: the enclave's match-action
//! pipeline (per-table, per-rule, per-function), the interpreter, the
//! host stack's flows, and host-level drop counters. All fields are plain
//! integers copied out at snapshot time; taking a snapshot never perturbs
//! the counters themselves.

use crate::counters::LabelValue::{Num, Text};
use crate::counters::{counters, Block, Label, Row};
use crate::hist::LatencyStat;
use crate::json::{Json, ToJson};

counters! {
    /// Enclave-level packet accounting: the block the data path
    /// increments (`eden_core::EnclaveStats` is this type), the one a
    /// stats pull ships and the one cluster totals sum.
    ///
    /// Conservation invariant (checked by [`EnclaveCounters::conserved`],
    /// pinned by a property test): every packet the enclave processed
    /// left it exactly one way, so `packets == forwarded + dropped +
    /// punted_to_controller` at all times.
    pub struct EnclaveCounters, group "enclave" {
        packets as processed: Counter, "Packets that entered the match-action pipeline.";
        matched: Counter, "Packets that matched at least one rule.";
        missed as misses: Counter, "Packets that matched no rule in any table walked.";
        forwarded: Counter, "Packets that left toward the NIC (pass or queue verdicts).";
        dropped: Counter, "Packets dropped by an action function (or a fail-closed fault).";
        punted_to_controller as punted: Counter, "Packets punted to the controller.";
        queued: Counter, "Of the forwarded packets, those steered to a NIC priority queue.";
        faults: Counter, "Action-function faults (trap, fuel exhaustion, ...).";
        header_modifies: Counter, "Packet-header fields written by action functions.";
        enqueue_charge_bytes: Counter, "Bytes charged to queue verdicts (Pulsar-style accounting, §2.1.2).";
        punt_drops: Counter, "Punted packets evicted from the bounded controller mailbox before the controller picked them up.";
        table_loop_aborts: Counter, "Table walks aborted by the `GotoTable` loop guard; the packet still fails open, but the pipeline is looping.";
        batches_serial: Counter, "Batches that ran packet by packet on the caller's thread (one lane, the default; a small batch, a thin per-lane share, or a lane-unsafe function mix).";
        batches_parallel: Counter, "Batches that fanned out to the parallel worker lanes; always 0 unless the enclave was configured with more than one lane (opt-in).";
    }
}

impl EnclaveCounters {
    /// Every processed packet left the enclave exactly one way.
    pub fn conserved(&self) -> bool {
        self.packets == self.forwarded + self.dropped + self.punted_to_controller
    }
}

counters! {
    /// What lookups against one match-action table came to.
    pub struct TableLookups, group "table" {
        lookups: Counter, "Lookups performed against this table.";
        matched as matches: Counter, "Lookups that hit some rule.";
        missed as misses: Counter, "Lookups that hit no rule.";
    }
}

counters! {
    /// How often one rule won a lookup.
    pub struct RuleHits, group "rule" {
        hits: Counter, "Packets that matched this rule.";
    }
}

counters! {
    /// Per-action-function accounting.
    pub struct FuncCounts, group "function" {
        invocations: Counter, "Invocations completed without a trap.";
        faults: Counter, "Invocations terminated by a trap (the packet then fails open or closed, §3.4.3).";
        drops: Counter, "Invocations that returned a drop verdict.";
        punts: Counter, "Invocations that punted the packet to the controller.";
        header_modifies: Counter, "Packet-header fields this function wrote.";
        enqueue_charge_bytes: Counter, "Bytes this function charged to queue verdicts.";
        evictions: Counter, "Message-state blocks evicted to keep the function's table under its cap.";
        live_messages: Gauge, "Message-state blocks the function holds.";
    }
}

counters! {
    /// Interpreter accounting, accumulated across `Interpreter::run`
    /// calls and summed over an enclave's lanes.
    pub struct VmCounters, group "vm" {
        invocations: Counter, "Bytecode program runs (including trapped ones).";
        traps: Counter, "Runs that ended in a trap.";
        steps: Counter, "Instructions executed, across all runs.";
    }
}

counters! {
    /// Per-connection transport accounting. The counters are kept by the
    /// connection; the gauges are read off it when the block is copied
    /// out.
    pub struct ConnStats, group "flow" {
        packets_sent: Counter, "Segments sent, retransmissions included.";
        bytes_acked: Counter, "Payload bytes the peer acknowledged.";
        retransmits: Counter, "Segments sent again, for any reason.";
        fast_retransmits: Counter, "Retransmissions triggered by duplicate ACKs.";
        timeouts: Counter, "Retransmission timeouts fired.";
        dup_acks_received as dup_acks: Counter, "Duplicate ACKs received.";
        reorder_events: Counter, "Dup-ACK episodes that resolved as reordering (no window cut).";
        cwnd_bytes: Gauge, "Congestion window, bytes.";
        srtt_ns: Gauge, "Smoothed RTT, nanoseconds (0 if unsampled).";
        in_flight: Gauge, "Bytes in flight.";
    }
}

counters! {
    /// Host-stack accounting outside the enclave: the drops the stack
    /// counts as they happen.
    pub struct HostCounters, group "host" {
        hook_drops: Counter, "Packets dropped by packet hooks (egress + ingress).";
        nic_drops: Counter, "Packets dropped at the NIC queue (overflow).";
        bad_queue_drops: Counter, "Packets dropped for targeting a nonexistent NIC queue.";
    }
}

/// One table's [`TableLookups`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Table index in the enclave pipeline.
    pub table: usize,
    pub counts: TableLookups,
}

/// One rule's [`RuleHits`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleCounters {
    /// Table index the rule lives in.
    pub table: usize,
    /// Rule index within the table.
    pub rule: usize,
    /// Function id the rule invokes.
    pub func: usize,
    pub counts: RuleHits,
}

/// One installed function's [`FuncCounts`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionCounters {
    /// Function id in the enclave's function store.
    pub func: usize,
    pub name: String,
    pub counts: FuncCounts,
}

/// One TCP connection's [`ConnStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Connection index within the host stack.
    pub conn: usize,
    /// Connection state name (e.g. `"Established"`).
    pub state: String,
    pub counts: ConnStats,
}

/// [`Block`] for a snapshot row that holds labels beside its group's
/// block (`counts`): which group, and the labels read off the row.
macro_rules! labelled {
    ($row:ident holds $group:ident, |$r:ident| $labels:expr) => {
        impl Block for $row {
            const ROWS: &'static [Row] = $group::ROWS;

            fn labels(&self) -> impl AsRef<[Label<'_>]> {
                let $r = self;
                $labels
            }

            fn values(&self) -> impl AsRef<[u64]> {
                self.counts.values()
            }
        }
    };
}

labelled!(TableCounters holds TableLookups, |t| [("table", "table", Num(t.table as u64))]);
labelled!(RuleCounters holds RuleHits, |r| [
    ("table", "table", Num(r.table as u64)),
    ("rule", "rule", Num(r.rule as u64)),
    ("func", "func", Num(r.func as u64)),
]);
// Prometheus identifies a function by its name alone.
labelled!(FunctionCounters holds FuncCounts, |f| [
    ("func", "", Num(f.func as u64)),
    ("name", "function", Text(&f.name)),
]);
// The state changes over a connection's life, so it stays out of the
// series' identity.
labelled!(FlowCounters holds ConnStats, |f| [
    ("conn", "conn", Num(f.conn as u64)),
    ("state", "", Text(&f.state)),
]);

/// A point-in-time snapshot of every counter a layer exposes.
///
/// Produced by `Enclave::stats_snapshot`; sections not applicable to the
/// producing layer are empty (`flows` for a bare enclave) or `None`
/// (`host` unless the controller merged host-stack counters in).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Simulated time the snapshot was taken, nanoseconds.
    pub captured_at_ns: u64,
    pub enclave: EnclaveCounters,
    pub tables: Vec<TableCounters>,
    pub rules: Vec<RuleCounters>,
    pub functions: Vec<FunctionCounters>,
    pub vm: VmCounters,
    /// Per-opcode execution counts, present only when opcode profiling
    /// was enabled; `(mnemonic, count)` pairs with non-zero counts.
    /// Rendered inside the `vm` section.
    pub opcode_counts: Vec<(String, u64)>,
    pub flows: Vec<FlowCounters>,
    pub host: Option<HostCounters>,
    /// Named latency histograms (`stage.*`, `vm.exec`, `func.*`, ...),
    /// empty when sampling is disabled so snapshot equality between the
    /// serial and batched paths is unaffected by wall-clock noise.
    pub latencies: Vec<LatencyStat>,
}

impl ToJson for StatsSnapshot {
    fn to_json(&self) -> Json {
        let mut vm = self.vm.to_json();
        if let Json::Obj(fields) = &mut vm {
            let counts = self.opcode_counts.iter();
            let counts = counts.map(|(name, n)| (name.clone(), (*n).into()));
            fields.push(("opcode_counts".to_string(), Json::Obj(counts.collect())));
        }
        Json::obj(vec![
            ("captured_at_ns", self.captured_at_ns.into()),
            ("enclave", self.enclave.to_json()),
            ("tables", Json::arr(&self.tables)),
            ("rules", Json::arr(&self.rules)),
            ("functions", Json::arr(&self.functions)),
            ("vm", vm),
            ("flows", Json::arr(&self.flows)),
            (
                "host",
                match &self.host {
                    Some(h) => h.to_json(),
                    None => Json::Null,
                },
            ),
            ("latencies", Json::arr(&self.latencies)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_and_breaks() {
        let mut c = EnclaveCounters::default();
        assert!(c.conserved());
        c.packets = 10;
        c.forwarded = 7;
        c.dropped = 2;
        c.punted_to_controller = 1;
        assert!(c.conserved());
        c.dropped = 3;
        assert!(!c.conserved());
    }

    #[test]
    fn snapshot_renders_all_sections() {
        let snap = StatsSnapshot {
            captured_at_ns: 42,
            enclave: EnclaveCounters {
                packets: 1,
                matched: 1,
                forwarded: 1,
                ..Default::default()
            },
            tables: vec![TableCounters {
                table: 0,
                counts: TableLookups {
                    lookups: 1,
                    matched: 1,
                    missed: 0,
                },
            }],
            rules: vec![RuleCounters {
                table: 0,
                rule: 0,
                func: 3,
                counts: RuleHits { hits: 1 },
            }],
            functions: vec![FunctionCounters {
                func: 3,
                name: "pias".into(),
                counts: FuncCounts {
                    invocations: 1,
                    ..Default::default()
                },
            }],
            vm: VmCounters {
                invocations: 1,
                steps: 12,
                ..Default::default()
            },
            opcode_counts: vec![("push".into(), 5)],
            flows: vec![],
            host: None,
            latencies: vec![],
        };
        let text = snap.to_json().render();
        assert!(text.contains(r#""captured_at_ns":42"#));
        assert!(text.contains(r#""processed":1"#));
        assert!(text.contains(r#""name":"pias""#));
        assert!(text.contains(r#""opcode_counts":{"push":5}"#));
        assert!(text.contains(r#""host":null"#));
        assert!(text.contains(r#""punt_drops":0"#));
        assert!(text.contains(r#""table_loop_aborts":0"#));
    }
}
