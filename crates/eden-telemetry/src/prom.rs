//! Prometheus text exposition (version 0.0.4) for snapshots and cluster
//! aggregates.
//!
//! Hand-rolled like the JSON tree: the environment is offline and the
//! format is lines of `name{label="v"} value`. Output order is fully
//! deterministic (struct field order, then collection order) so the
//! exposition can be pinned by a golden test. The exported metric names
//! are the `prom` column of the counter tables; [`metric_table_markdown`]
//! prints them as the table README's Telemetry section carries.

use std::fmt::Write as _;

use crate::cluster::{ClusterStats, WireCounters};
use crate::counters::Block;
use crate::counters::LabelValue::{self, Num, Text};
use crate::hist::LatencyStat;
use crate::snapshot::{
    EnclaveCounters, FlowCounters, FunctionCounters, HostCounters, RuleCounters, StatsSnapshot,
    TableCounters, VmCounters,
};

/// Append `v` in decimal. An exposition is mostly numbers, and going
/// through `fmt` for each costs a fifth of a whole render.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Append `{k="v",...}` — nothing for no labels — escaping text values.
fn label_set<'a>(out: &mut String, labels: impl Iterator<Item = (&'a str, LabelValue<'a>)>) {
    let mut open = false;
    for (k, v) in labels {
        out.push(if open { ',' } else { '{' });
        open = true;
        out.push_str(k);
        out.push_str("=\"");
        match v {
            Num(n) => push_u64(out, n),
            // minimal escaping: the only hostile chars possible in our
            // label values (function names) are quotes and backslashes
            Text(s) => {
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
            }
        }
        out.push('"');
    }
    if open {
        out.push('}');
    }
}

/// One sample; `labels` is a rendered [`label_set`].
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    out.push_str(labels);
    out.push(' ');
    push_u64(out, value);
    out.push('\n');
}

fn line(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    let mut set = String::new();
    label_set(&mut set, labels.iter().map(|&(k, v)| (k, Text(v))));
    sample(out, name, &set, value);
}

fn typ(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// One sample per row of `block`, labelled with the block's own labels
/// and then `host` if the exposition covers several; `typed` puts each
/// row's `# TYPE` line before it.
fn block<B: Block>(out: &mut String, block: &B, host: Option<&str>, typed: bool) {
    let own = block.labels();
    let own = own.as_ref().iter().map(|l| (l.1, l.2));
    let own = own.filter(|l| !l.0.is_empty());
    let mut labels = String::new();
    label_set(&mut labels, own.chain(host.map(|h| ("host", Text(h)))));
    for (row, &v) in B::ROWS.iter().zip(block.values().as_ref()) {
        if typed {
            typ(out, row.prom, row.kind.as_str());
        }
        sample(out, row.prom, &labels, v);
    }
}

/// A snapshot section holding one block per table, rule, function or
/// flow: every row's `# TYPE` line once, then each block's samples.
fn section<B: Block>(out: &mut String, blocks: &[B]) {
    if blocks.is_empty() {
        return;
    }
    for row in B::ROWS {
        typ(out, row.prom, row.kind.as_str());
    }
    for b in blocks {
        block(out, b, None, false);
    }
}

fn latencies(out: &mut String, stats: &[LatencyStat], extra: &[(&str, &str)]) {
    if stats.is_empty() {
        return;
    }
    typ(out, "eden_latency_ns", "summary");
    typ(out, "eden_latency_samples_total", "counter");
    for s in stats {
        for (q, v) in [
            ("0.5", s.hist.p50()),
            ("0.99", s.hist.p99()),
            ("0.999", s.hist.p999()),
        ] {
            let mut labels: Vec<(&str, &str)> = vec![("name", s.name.as_str())];
            labels.extend_from_slice(extra);
            labels.push(("quantile", q));
            line(out, "eden_latency_ns", &labels, v.unwrap_or(0));
        }
        let mut labels: Vec<(&str, &str)> = vec![("name", s.name.as_str())];
        labels.extend_from_slice(extra);
        line(out, "eden_latency_samples_total", &labels, s.hist.count());
    }
}

/// Render one host's [`StatsSnapshot`] as Prometheus text exposition.
pub fn render_snapshot(snap: &StatsSnapshot) -> String {
    let mut out = String::new();
    typ(&mut out, "eden_captured_at_ns", "gauge");
    line(&mut out, "eden_captured_at_ns", &[], snap.captured_at_ns);
    block(&mut out, &snap.enclave, None, true);
    section(&mut out, &snap.tables);
    section(&mut out, &snap.rules);
    section(&mut out, &snap.functions);
    block(&mut out, &snap.vm, None, true);
    if !snap.opcode_counts.is_empty() {
        typ(&mut out, "eden_vm_opcode_total", "counter");
        for (op, n) in &snap.opcode_counts {
            line(&mut out, "eden_vm_opcode_total", &[("op", op.as_str())], *n);
        }
    }
    section(&mut out, &snap.flows);
    if let Some(h) = &snap.host {
        block(&mut out, h, None, true);
    }
    latencies(&mut out, &snap.latencies, &[]);
    out
}

/// Render the controller's [`ClusterStats`] as Prometheus text
/// exposition: fleet totals plus per-host counters labelled by address.
pub fn render_cluster(cluster: &ClusterStats) -> String {
    let mut out = String::new();
    typ(&mut out, "eden_cluster_hosts", "gauge");
    line(
        &mut out,
        "eden_cluster_hosts",
        &[],
        cluster.host_count() as u64,
    );
    block(&mut out, &cluster.totals(), Some("all"), false);
    typ(&mut out, "eden_host_epoch", "gauge");
    for r in cluster.reports() {
        let host = r.host.to_string();
        line(
            &mut out,
            "eden_host_epoch",
            &[("host", host.as_str())],
            r.epoch,
        );
    }
    for r in cluster.reports() {
        let host = r.host.to_string();
        block(&mut out, &r.enclave, Some(&host), false);
        latencies(&mut out, &r.latencies, &[("host", host.as_str())]);
    }
    latencies(&mut out, &cluster.ctrl_latencies, &[("host", "controller")]);
    if !cluster.repl_lags.is_empty() {
        typ(&mut out, "eden_repl_lag_ns", "gauge");
        typ(&mut out, "eden_repl_divergent", "gauge");
        for l in &cluster.repl_lags {
            let host = l.host.to_string();
            line(
                &mut out,
                "eden_repl_lag_ns",
                &[("host", host.as_str())],
                l.lag_ns,
            );
            line(
                &mut out,
                "eden_repl_divergent",
                &[("host", host.as_str())],
                u64::from(l.divergent),
            );
        }
    }
    block(&mut out, &cluster.wire, None, true);
    out
}

/// The README's metric table: a line per row of every group's table, in
/// exposition order (a test holds `README.md` to it).
pub fn metric_table_markdown() -> String {
    fn group<B: Block + Default>(out: &mut String) {
        let block = B::default();
        let labels = block.labels();
        let labels = labels.as_ref().iter().map(|l| l.1);
        let labels: Vec<&str> = labels.filter(|l| !l.is_empty()).collect();
        let labels = labels.join(", ");
        for row in B::ROWS {
            let (prom, kind, help) = (row.prom, row.kind.as_str(), row.help);
            let (key, field) = (row.name, row.field);
            let _ = writeln!(
                out,
                "| `{prom}` | {kind} | `{key}` | `{field}` | {labels} | {help} |"
            );
        }
    }
    let mut out = String::from("| Metric | Type | JSON key | Field | Labels | Counts |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    group::<EnclaveCounters>(&mut out);
    group::<TableCounters>(&mut out);
    group::<RuleCounters>(&mut out);
    group::<FunctionCounters>(&mut out);
    group::<VmCounters>(&mut out);
    group::<FlowCounters>(&mut out);
    group::<HostCounters>(&mut out);
    group::<WireCounters>(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;
    use crate::snapshot::{ConnStats, FuncCounts, TableLookups};

    /// Golden: the exposition for a fixed snapshot is pinned byte-for-byte.
    /// If this fails because of an intentional format change, update the
    /// expected text *and* the README metric table together.
    #[test]
    fn golden_snapshot_exposition() {
        let mut hist = LogHistogram::new();
        for _ in 0..99 {
            hist.record(100);
        }
        hist.record(7000);
        let snap = StatsSnapshot {
            captured_at_ns: 42,
            enclave: EnclaveCounters {
                packets: 10,
                matched: 9,
                missed: 1,
                forwarded: 8,
                dropped: 1,
                punted_to_controller: 1,
                queued: 2,
                faults: 1,
                header_modifies: 4,
                enqueue_charge_bytes: 3000,
                punt_drops: 0,
                table_loop_aborts: 0,
                batches_serial: 2,
                batches_parallel: 1,
            },
            tables: vec![TableCounters {
                table: 0,
                counts: TableLookups {
                    lookups: 10,
                    matched: 9,
                    missed: 1,
                },
            }],
            rules: vec![],
            functions: vec![FunctionCounters {
                func: 0,
                name: "sff".into(),
                counts: FuncCounts {
                    invocations: 9,
                    faults: 1,
                    evictions: 3,
                    live_messages: 64,
                    ..Default::default()
                },
            }],
            vm: VmCounters {
                invocations: 9,
                traps: 1,
                steps: 120,
                elapsed_ns: 900,
            },
            opcode_counts: vec![("push".into(), 5)],
            flows: vec![FlowCounters {
                conn: 0,
                state: "Established".into(),
                counts: ConnStats {
                    packets_sent: 7,
                    dup_acks_received: 3,
                    cwnd_bytes: 14600,
                    ..Default::default()
                },
            }],
            host: None,
            latencies: vec![LatencyStat::new("vm.exec", hist)],
        };
        let expected = "\
# TYPE eden_captured_at_ns gauge
eden_captured_at_ns 42
# TYPE eden_enclave_processed_total counter
eden_enclave_processed_total 10
# TYPE eden_enclave_matched_total counter
eden_enclave_matched_total 9
# TYPE eden_enclave_misses_total counter
eden_enclave_misses_total 1
# TYPE eden_enclave_forwarded_total counter
eden_enclave_forwarded_total 8
# TYPE eden_enclave_dropped_total counter
eden_enclave_dropped_total 1
# TYPE eden_enclave_punted_total counter
eden_enclave_punted_total 1
# TYPE eden_enclave_queued_total counter
eden_enclave_queued_total 2
# TYPE eden_enclave_faults_total counter
eden_enclave_faults_total 1
# TYPE eden_enclave_header_modifies_total counter
eden_enclave_header_modifies_total 4
# TYPE eden_enclave_enqueue_charge_bytes_total counter
eden_enclave_enqueue_charge_bytes_total 3000
# TYPE eden_enclave_punt_drops_total counter
eden_enclave_punt_drops_total 0
# TYPE eden_enclave_table_loop_aborts_total counter
eden_enclave_table_loop_aborts_total 0
# TYPE eden_enclave_batches_serial_total counter
eden_enclave_batches_serial_total 2
# TYPE eden_enclave_batches_parallel_total counter
eden_enclave_batches_parallel_total 1
# TYPE eden_table_lookups_total counter
# TYPE eden_table_matches_total counter
# TYPE eden_table_misses_total counter
eden_table_lookups_total{table=\"0\"} 10
eden_table_matches_total{table=\"0\"} 9
eden_table_misses_total{table=\"0\"} 1
# TYPE eden_function_invocations_total counter
# TYPE eden_function_faults_total counter
# TYPE eden_function_drops_total counter
# TYPE eden_function_punts_total counter
# TYPE eden_function_header_modifies_total counter
# TYPE eden_function_enqueue_charge_bytes_total counter
# TYPE eden_function_evictions_total counter
# TYPE eden_function_live_messages gauge
eden_function_invocations_total{function=\"sff\"} 9
eden_function_faults_total{function=\"sff\"} 1
eden_function_drops_total{function=\"sff\"} 0
eden_function_punts_total{function=\"sff\"} 0
eden_function_header_modifies_total{function=\"sff\"} 0
eden_function_enqueue_charge_bytes_total{function=\"sff\"} 0
eden_function_evictions_total{function=\"sff\"} 3
eden_function_live_messages{function=\"sff\"} 64
# TYPE eden_vm_invocations_total counter
eden_vm_invocations_total 9
# TYPE eden_vm_traps_total counter
eden_vm_traps_total 1
# TYPE eden_vm_steps_total counter
eden_vm_steps_total 120
# TYPE eden_vm_elapsed_ns_total counter
eden_vm_elapsed_ns_total 900
# TYPE eden_vm_opcode_total counter
eden_vm_opcode_total{op=\"push\"} 5
# TYPE eden_flow_packets_sent_total counter
# TYPE eden_flow_bytes_acked_total counter
# TYPE eden_flow_retransmits_total counter
# TYPE eden_flow_fast_retransmits_total counter
# TYPE eden_flow_timeouts_total counter
# TYPE eden_flow_dup_acks_total counter
# TYPE eden_flow_reorder_events_total counter
# TYPE eden_flow_cwnd_bytes gauge
# TYPE eden_flow_srtt_ns gauge
# TYPE eden_flow_in_flight gauge
eden_flow_packets_sent_total{conn=\"0\"} 7
eden_flow_bytes_acked_total{conn=\"0\"} 0
eden_flow_retransmits_total{conn=\"0\"} 0
eden_flow_fast_retransmits_total{conn=\"0\"} 0
eden_flow_timeouts_total{conn=\"0\"} 0
eden_flow_dup_acks_total{conn=\"0\"} 3
eden_flow_reorder_events_total{conn=\"0\"} 0
eden_flow_cwnd_bytes{conn=\"0\"} 14600
eden_flow_srtt_ns{conn=\"0\"} 0
eden_flow_in_flight{conn=\"0\"} 0
# TYPE eden_latency_ns summary
# TYPE eden_latency_samples_total counter
eden_latency_ns{name=\"vm.exec\",quantile=\"0.5\"} 127
eden_latency_ns{name=\"vm.exec\",quantile=\"0.99\"} 127
eden_latency_ns{name=\"vm.exec\",quantile=\"0.999\"} 8191
eden_latency_samples_total{name=\"vm.exec\"} 100
";
        assert_eq!(render_snapshot(&snap), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let snap = StatsSnapshot {
            functions: vec![FunctionCounters {
                func: 0,
                name: "we\"ird\\name".into(),
                ..Default::default()
            }],
            ..Default::default()
        };
        let text = render_snapshot(&snap);
        assert!(text.contains(r#"function="we\"ird\\name""#), "{text}");
    }

    #[test]
    fn cluster_exposition_labels_hosts() {
        use crate::cluster::{ClusterStats, HostReport};
        let mut c = ClusterStats::new();
        c.record(HostReport {
            host: 3,
            epoch: 2,
            digest: 7,
            captured_at_ns: 1,
            enclave: EnclaveCounters {
                packets: 5,
                forwarded: 5,
                ..Default::default()
            },
            latencies: vec![],
        });
        let text = render_cluster(&c);
        assert!(text.contains(r#"eden_cluster_hosts 1"#), "{text}");
        assert!(
            !text.contains("eden_repl_lag_ns"),
            "no repl section without replicated functions: {text}"
        );
        assert!(
            text.contains(r#"eden_enclave_processed_total{host="all"} 5"#),
            "{text}"
        );
        assert!(text.contains(r#"eden_host_epoch{host="3"} 2"#), "{text}");
        let wire =
            "# TYPE eden_ctrl_wire_msgs_sent_total counter\neden_ctrl_wire_msgs_sent_total 0\n";
        assert!(text.contains(wire), "{text}");
        assert!(
            text.contains(r#"eden_enclave_processed_total{host="3"} 5"#),
            "{text}"
        );
    }

    /// Golden: the replication rows of the cluster exposition are pinned
    /// byte-for-byte. Update the README metric table together with this.
    #[test]
    fn golden_repl_exposition() {
        use crate::cluster::{ClusterStats, ReplLag};
        let mut c = ClusterStats::new();
        c.repl_lags = vec![
            ReplLag {
                host: 1,
                lag_ns: 950_000,
                divergent: false,
            },
            ReplLag {
                host: 2,
                lag_ns: 12_000_000,
                divergent: true,
            },
        ];
        let text = render_cluster(&c);
        let repl: Vec<&str> = text.lines().filter(|l| l.contains("eden_repl")).collect();
        let expected = [
            "# TYPE eden_repl_lag_ns gauge",
            "# TYPE eden_repl_divergent gauge",
            "eden_repl_lag_ns{host=\"1\"} 950000",
            "eden_repl_divergent{host=\"1\"} 0",
            "eden_repl_lag_ns{host=\"2\"} 12000000",
            "eden_repl_divergent{host=\"2\"} 1",
        ];
        assert_eq!(repl, expected, "full text:\n{text}");
    }
}
