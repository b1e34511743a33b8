//! Cluster-wide stats aggregation, keyed by host.
//!
//! The distributed control plane (`eden-ctrl`) pulls
//! [`EnclaveCounters`] from every host enclave over the wire;
//! [`ClusterStats`] collects those per-host reports — together with each
//! host's configuration epoch and digest — and exposes fleet totals. One
//! struct, one JSON shape, so convergence benchmarks and dashboards read
//! the same thing the controller acts on.

use crate::counters::counters;
use crate::hist::LatencyStat;
use crate::json::{Json, ToJson};
use crate::snapshot::EnclaveCounters;

counters! {
    /// Message/byte tallies for everything a control-plane endpoint puts
    /// on or takes off the wire — the root-load metric the hierarchical
    /// tier exists to shrink. Counted at message granularity (encoded
    /// payload bytes, before fragmentation headers).
    pub struct WireCounters, group "ctrl_wire" {
        msgs_sent: Counter, "Control messages sent, retries included.";
        bytes_sent: Counter, "Encoded payload bytes of the messages sent.";
        msgs_received: Counter, "Control messages reassembled off the wire.";
        bytes_received: Counter, "Encoded payload bytes of the messages received.";
        config_bytes_sent: Counter, "Of the bytes sent, epoch configuration only (Prepare / DeltaPrepare / Commit / Abort) — the delta-vs-full comparison metric.";
        delta_fallbacks: Counter, "Delta prepares a child nacked (its digest anchor missed or the diff did not validate there) and that were re-sent as the full configuration.";
        unknown_base_fulls: Counter, "Prepares planned as the full configuration up front because the peer's reported epoch and digest match no version the bounded history still remembers.";
    }
}

impl WireCounters {
    /// Record one sent message of `payload_len` encoded bytes;
    /// `epoch_config` marks a Prepare / DeltaPrepare / Commit / Abort.
    pub fn sent(&mut self, payload_len: usize, epoch_config: bool) {
        self.msgs_sent += 1;
        self.bytes_sent += payload_len as u64;
        if epoch_config {
            self.config_bytes_sent += payload_len as u64;
        }
    }
}

/// One host's most recent report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostReport {
    /// The host's IPv4 address (the cluster key).
    pub host: u32,
    /// Configuration epoch the host's enclave serves.
    pub epoch: u64,
    /// Structural configuration digest reported by the enclave.
    pub digest: u64,
    /// Simulated time the report was captured, nanoseconds.
    pub captured_at_ns: u64,
    pub enclave: EnclaveCounters,
    /// Named latency histograms shipped in the host's stats reply
    /// (empty when the host has sampling disabled).
    pub latencies: Vec<LatencyStat>,
}

impl ToJson for HostReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("host", self.host.into()),
            ("epoch", self.epoch.into()),
            ("digest", self.digest.into()),
            ("captured_at_ns", self.captured_at_ns.into()),
            ("enclave", self.enclave.to_json()),
            ("latencies", Json::arr(&self.latencies)),
        ])
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}

/// One host's replication health, as the controller's hub sees it: how
/// old the host's last state delta is, and whether the anti-entropy
/// digest exchange has flagged its replica as divergent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplLag {
    /// The host's IPv4 address.
    pub host: u32,
    /// Nanoseconds since the host's last delta was ingested.
    pub lag_ns: u64,
    /// True when the host's replica digest stayed wrong long enough for
    /// the divergence detector to fire.
    pub divergent: bool,
}

impl ToJson for ReplLag {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("host", self.host.into()),
            ("lag_ns", Json::UInt(self.lag_ns)),
            ("divergent", Json::Bool(self.divergent)),
        ])
    }
}

/// Per-host reports plus fleet totals, maintained by the controller as
/// stats replies arrive. Reports are keyed by host address; a fresh
/// report replaces the previous one (counters are cumulative on the
/// enclave side).
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    reports: Vec<HostReport>,
    /// Controller-side latency histograms (`ctrl.rtt`,
    /// `epoch.converge`, `repl.staleness`, `repl.delta_bytes`),
    /// maintained by the controller itself.
    pub ctrl_latencies: Vec<LatencyStat>,
    /// Per-host replica lag, refreshed from the replication hub whenever
    /// replicated functions are installed (empty otherwise).
    pub repl_lags: Vec<ReplLag>,
    /// Control-wire load at the endpoint that keeps these stats (the
    /// root).
    pub wire: WireCounters,
}

impl ClusterStats {
    /// Empty aggregation.
    pub fn new() -> ClusterStats {
        ClusterStats::default()
    }

    /// Insert or replace the report for `report.host`.
    pub fn record(&mut self, report: HostReport) {
        match self.reports.iter_mut().find(|r| r.host == report.host) {
            Some(slot) => *slot = report,
            None => self.reports.push(report),
        }
    }

    /// All per-host reports, in first-seen order.
    pub fn reports(&self) -> &[HostReport] {
        &self.reports
    }

    /// The report for `host`, if one arrived.
    pub fn host(&self, host: u32) -> Option<&HostReport> {
        self.reports.iter().find(|r| r.host == host)
    }

    /// Number of hosts that have reported.
    pub fn host_count(&self) -> usize {
        self.reports.len()
    }

    /// Sum of every host's enclave counters.
    pub fn totals(&self) -> EnclaveCounters {
        let mut t = EnclaveCounters::default();
        for r in &self.reports {
            t.merge(&r.enclave);
        }
        t
    }

    /// Every host's latency histograms, merged by name in first-seen
    /// order.
    pub fn merged_latencies(&self) -> Vec<LatencyStat> {
        let mut merged: Vec<LatencyStat> = Vec::new();
        for l in self.reports.iter().flat_map(|r| &r.latencies) {
            match merged.iter_mut().find(|m| m.name == l.name) {
                Some(m) => m.hist.merge(&l.hist),
                None => merged.push(l.clone()),
            }
        }
        merged
    }

    /// Whether every reporting host serves `epoch` with `digest` — the
    /// controller's convergence predicate (it additionally requires that
    /// every *known* host has reported).
    pub fn all_at(&self, epoch: u64, digest: u64) -> bool {
        self.reports
            .iter()
            .all(|r| r.epoch == epoch && r.digest == digest)
    }
}

impl ToJson for ClusterStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hosts", self.host_count().into()),
            ("totals", self.totals().to_json()),
            ("reports", Json::arr(&self.reports)),
            ("ctrl_latencies", Json::arr(&self.ctrl_latencies)),
            ("repl_lags", Json::arr(&self.repl_lags)),
            ("wire", self.wire.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host: u32, epoch: u64, processed: u64) -> HostReport {
        HostReport {
            host,
            epoch,
            digest: 7,
            captured_at_ns: 1,
            enclave: EnclaveCounters {
                packets: processed,
                forwarded: processed,
                ..Default::default()
            },
            latencies: vec![],
        }
    }

    #[test]
    fn record_replaces_per_host() {
        let mut c = ClusterStats::new();
        c.record(report(1, 1, 10));
        c.record(report(2, 1, 20));
        c.record(report(1, 2, 15));
        assert_eq!(c.host_count(), 2);
        assert_eq!(c.host(1).unwrap().enclave.packets, 15);
        assert_eq!(c.totals().packets, 35);
    }

    #[test]
    fn convergence_predicate() {
        let mut c = ClusterStats::new();
        c.record(report(1, 2, 1));
        c.record(report(2, 2, 1));
        assert!(c.all_at(2, 7));
        assert!(!c.all_at(1, 7), "wrong epoch");
        c.record(report(3, 1, 1));
        assert!(!c.all_at(2, 7), "one host lags");
    }

    #[test]
    fn json_shape() {
        let mut c = ClusterStats::new();
        c.record(report(9, 3, 5));
        let text = c.to_json().render();
        assert!(text.contains(r#""hosts":1"#));
        assert!(text.contains(r#""host":9"#));
        assert!(text.contains(r#""epoch":3"#));
        assert!(text.contains(r#""processed":5"#));
        assert!(text.contains(r#""wire":{"msgs_sent":0,"#), "{text}");
    }
}
