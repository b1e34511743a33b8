//! Flight events: the fixed-size records every bounded event trail in
//! the workspace is made of, and the black-box dump they freeze into.
//!
//! A [`FlightRing`] is a [`Ring`] of [`FlightEvent`]s, used two ways:
//!
//! * **Frozen on a fault.** Each enclave worker lane owns its own ring —
//!   single-writer, so recording is lock-free by construction (ownership,
//!   not atomics). On a VM trap, an epoch abort, or a reconciliation
//!   divergence the owner freezes the rings into a [`FlightDump`]: the
//!   last N events from every lane (merged in time order) and a counter
//!   snapshot. The dump is handed to a writer chosen by the `EDEN_FLIGHT`
//!   environment variable, and kept in memory for tests and the fuzzer's
//!   repro attachments.
//! * **Taken whole.** A host stack with tracing enabled records one event
//!   per layer a packet crosses — `send_message`, the enclave's verdict,
//!   the rate limiter, the NIC queue, the wire — and
//!   `Stack::take_trace` hands the ring over; `a` is the packet id (the
//!   application's message tag at send) and `b` its first Eden class.

use crate::json::{Json, ToJson};
use crate::ring::Ring;
use crate::snapshot::EnclaveCounters;

/// What a flight event records. Codes are stable (they appear in dumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A batch entered the staged pipeline; `a` = batch size.
    BatchStart,
    /// A sampled packet was classified; `a` = first class id.
    Classify,
    /// A sampled packet matched a rule; `a` = table, `b` = function id.
    Match,
    /// A sampled packet's action function ran; `a` = function id,
    /// `b` = elapsed ns.
    Execute,
    /// A packet was punted to the controller; `a` = class id.
    Punt,
    /// An action function trapped; `a` = opcode kind index, `b` = pc.
    VmTrap,
    /// An epoch was staged; `a` = epoch.
    EpochStage,
    /// An epoch was committed; `a` = epoch.
    EpochCommit,
    /// An epoch was aborted; `a` = epoch.
    EpochAbort,
    /// A table walk hit the loop guard; `a` = table id.
    TableLoop,
    /// A control-plane message was handled; `a` = message tag.
    CtrlMsg,
    /// The controller observed divergence on a host; `a` = host addr.
    Divergence,
    /// A function failed install-time linking and was refused; `a` = the
    /// epoch being staged (the active one for a direct install), `b` = the
    /// link error's code.
    InstallRefused,
    /// The application handed a message to the host stack; `a` = the
    /// message's app tag (the packet does not exist yet).
    StackSend,
    /// The enclave passed an egress packet on to the NIC.
    EnclavePass,
    /// The enclave dropped a packet (egress, or ingress before TCP).
    EnclaveDrop,
    /// The enclave steered an egress packet to a rate-limited queue.
    EnclaveQueue,
    /// A packet entered its rate limiter's queue.
    LimiterEnqueue,
    /// A packet named a rate-limited queue that does not exist.
    LimiterDrop,
    /// A packet waits in the NIC queue.
    NicEnqueue,
    /// The NIC queue was full and dropped the packet.
    NicDrop,
    /// A packet started transmitting on the wire.
    WireTx,
    /// A packet arrived from the wire.
    WireDeliver,
}

impl FlightKind {
    /// Stable lowercase name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::BatchStart => "batch_start",
            FlightKind::Classify => "classify",
            FlightKind::Match => "match",
            FlightKind::Execute => "execute",
            FlightKind::Punt => "punt",
            FlightKind::VmTrap => "vm_trap",
            FlightKind::EpochStage => "epoch_stage",
            FlightKind::EpochCommit => "epoch_commit",
            FlightKind::EpochAbort => "epoch_abort",
            FlightKind::TableLoop => "table_loop",
            FlightKind::CtrlMsg => "ctrl_msg",
            FlightKind::Divergence => "divergence",
            FlightKind::InstallRefused => "install_refused",
            FlightKind::StackSend => "stack_send",
            FlightKind::EnclavePass => "enclave_pass",
            FlightKind::EnclaveDrop => "enclave_drop",
            FlightKind::EnclaveQueue => "enclave_queue",
            FlightKind::LimiterEnqueue => "limiter_enqueue",
            FlightKind::LimiterDrop => "limiter_drop",
            FlightKind::NicEnqueue => "nic_enqueue",
            FlightKind::NicDrop => "nic_drop",
            FlightKind::WireTx => "wire_tx",
            FlightKind::WireDeliver => "wire_deliver",
        }
    }
}

/// One recorded event: fixed-size, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time of the event, nanoseconds.
    pub at_ns: u64,
    /// Worker lane that recorded it (0 = serial path / control plane).
    pub lane: u16,
    pub kind: FlightKind,
    /// Kind-specific detail (see [`FlightKind`]).
    pub a: u64,
    /// Kind-specific detail (see [`FlightKind`]).
    pub b: u64,
}

impl ToJson for FlightEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("at_ns", self.at_ns.into()),
            ("lane", u64::from(self.lane).into()),
            ("kind", self.kind.name().into()),
            ("a", self.a.into()),
            ("b", self.b.into()),
        ])
    }
}

/// A bounded trail of flight events, oldest first. Single-writer: the
/// owner (one lane, the control plane, or a host stack) records without
/// locks.
pub type FlightRing = Ring<FlightEvent>;

/// The frozen black box: everything known at the moment of the fault.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the recorder froze (`"vm_trap"`, `"epoch_abort"`, ...).
    pub reason: String,
    /// Host that produced the dump (0 = controller/standalone).
    pub host: u32,
    /// Virtual time of the freeze, nanoseconds.
    pub at_ns: u64,
    /// Retained events from every lane, merged in time order.
    pub events: Vec<FlightEvent>,
    /// Counter snapshot at freeze time.
    pub counters: EnclaveCounters,
}

impl FlightDump {
    /// Freeze `rings` (one per lane) into a dump. Events are merged by a
    /// stable sort on `(at_ns, lane)`: each ring holds one lane's events
    /// oldest first, so interleavings are deterministic.
    pub fn freeze(
        reason: impl Into<String>,
        host: u32,
        at_ns: u64,
        rings: &[FlightRing],
        counters: EnclaveCounters,
    ) -> FlightDump {
        let mut events: Vec<FlightEvent> =
            rings.iter().flat_map(FlightRing::iter).copied().collect();
        events.sort_by_key(|e| (e.at_ns, e.lane));
        FlightDump {
            reason: reason.into(),
            host,
            at_ns,
            events,
            counters,
        }
    }

    /// The most recent event, if any — the thing that tripped the freeze.
    pub fn last_event(&self) -> Option<&FlightEvent> {
        self.events.last()
    }

    /// Hand the dump to the writer selected by the `EDEN_FLIGHT`
    /// environment variable:
    ///
    /// * unset, empty, or `0` — do nothing;
    /// * `stderr` — render to standard error;
    /// * `stdout` or `-` — render to standard output;
    /// * anything else — treat as a directory, create it, and write
    ///   `flight-<host>-<reason>-<at_ns>.json` inside it.
    ///
    /// Returns the path written, if a file was produced.
    pub fn emit(&self) -> Option<std::path::PathBuf> {
        let target = match std::env::var("EDEN_FLIGHT") {
            Ok(v) if !v.is_empty() && v != "0" => v,
            _ => return None,
        };
        let text = self.to_json().render();
        match target.as_str() {
            "stderr" => {
                eprintln!("{text}");
                None
            }
            "stdout" | "-" => {
                println!("{text}");
                None
            }
            dir => {
                let reason: String = self
                    .reason
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                    .collect();
                let path = std::path::Path::new(dir).join(format!(
                    "flight-{}-{}-{}.json",
                    self.host, reason, self.at_ns
                ));
                if std::fs::create_dir_all(dir).is_ok() && std::fs::write(&path, text).is_ok() {
                    Some(path)
                } else {
                    eprintln!("eden: EDEN_FLIGHT target {dir} not writable; dump dropped");
                    None
                }
            }
        }
    }
}

impl ToJson for FlightDump {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("reason", self.reason.as_str().into()),
            ("host", self.host.into()),
            ("at_ns", self.at_ns.into()),
            (
                "events",
                Json::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
            ("counters", self.counters.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, lane: u16, a: u64) -> FlightEvent {
        FlightEvent {
            at_ns: at,
            lane,
            kind: FlightKind::Execute,
            a,
            b: 0,
        }
    }

    #[test]
    fn freeze_keeps_each_rings_order_at_equal_times() {
        let mut lane0 = FlightRing::new(3);
        for i in 0..5u64 {
            lane0.push(ev(7, 0, i));
        }
        let dump = FlightDump::freeze("t", 0, 7, &[lane0], EnclaveCounters::default());
        let kept: Vec<u64> = dump.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn freeze_merges_lanes_by_time() {
        let mut lane0 = FlightRing::new(8);
        let mut lane1 = FlightRing::new(8);
        lane0.push(ev(10, 0, 1));
        lane1.push(ev(5, 1, 2));
        lane0.push(ev(20, 0, 3));
        let dump = FlightDump::freeze(
            "vm_trap",
            7,
            21,
            &[lane0, lane1],
            EnclaveCounters::default(),
        );
        let order: Vec<u64> = dump.events.iter().map(|e| e.a).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(dump.last_event().unwrap().a, 3);
    }

    #[test]
    fn dump_json_names_events() {
        let mut r = FlightRing::new(4);
        r.push(FlightEvent {
            at_ns: 1,
            lane: 0,
            kind: FlightKind::VmTrap,
            a: 9,
            b: 3,
        });
        let dump = FlightDump::freeze("vm_trap", 1, 2, &[r], EnclaveCounters::default());
        let text = dump.to_json().render();
        assert!(text.contains(r#""reason":"vm_trap""#), "{text}");
        assert!(text.contains(r#""kind":"vm_trap""#), "{text}");
        assert!(text.contains(r#""counters""#), "{text}");
    }
}
