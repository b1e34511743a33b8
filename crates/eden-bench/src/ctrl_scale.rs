//! Control-plane scale benchmark: root load and convergence of a **flat**
//! controller (every host managed directly) against the **hierarchical**
//! tier ([`eden_ctrl::AggregatorApp`]) at fleet sizes the flat design was
//! never meant for, plus the wire savings of digest-anchored delta
//! updates over full-table ships.
//!
//! Three experiments:
//!
//! * **flat vs hier push** — per `(mode, hosts)` point: virtual time from
//!   `set_desired` to `all_in_sync`, and the root's control-wire load
//!   (messages and KiB in both directions) over that window. Flat root
//!   load grows linearly with hosts; the hierarchy (√n racks of √n hosts)
//!   keeps root messages O(√n) — the [`headline`] reduction and
//!   sub-linearity come from the 256- and 1024-host points.
//! * **delta vs full ship** — a one-rule change to a 64-rule table,
//!   reconverged with `delta_updates` on and off; the ratio of epoch
//!   config bytes is `delta_reduction_rate` (claimed ≥10×).
//! * **virtual point** — [`run_virtual`] models six-figure fleets: real
//!   root and aggregator nodes over the simulated fabric, each aggregator
//!   fronting thousands of in-process template children, wire cost
//!   tallied arithmetically (see
//!   [`eden_ctrl::AggregatorApp::with_virtual_children`]).
//!
//! Every metric here is virtual-time/deterministic — identical across
//! machines at a given seed — so a run equals its baseline byte for byte.

use eden_core::{ClassId, EnclaveConfig, EnclaveOp, MatchSpec};
use eden_ctrl::fleet::{prio_epoch, Fleet};
use eden_ctrl::CtrlConfig;
use eden_telemetry::{Json, ToJson};
use netsim::Time;

/// One `(mode, hosts)` sweep point, aggregated over seeds.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// `"flat"` or `"hier"`.
    pub mode: &'static str,
    pub hosts: usize,
    pub seeds: usize,
    /// Mean virtual µs from `set_desired` to `all_in_sync`.
    pub push_mean_us: f64,
    /// Mean control messages through the root (sent + received) during
    /// the push window.
    pub root_msgs_mean: f64,
    /// Mean KiB through the root during the push window.
    pub root_kb_mean: f64,
}

impl ToJson for ScalePoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::Str(self.mode.into())),
            ("hosts", Json::UInt(self.hosts as u64)),
            // no `seeds` field: the seed lists are constants of the bench,
            // so the count would say nothing its source does not
            ("push_mean_us", Json::Float(self.push_mean_us)),
            ("root_msgs_mean", Json::Float(self.root_msgs_mean)),
            ("root_kb_mean", Json::Float(self.root_kb_mean)),
        ])
    }
}

/// Result of the delta-vs-full-ship experiment.
#[derive(Debug, Clone)]
pub struct DeltaPoint {
    pub hosts: usize,
    pub rules: usize,
    pub seeds: usize,
    /// Mean epoch-config KiB the root sent reconverging after a one-rule
    /// change with deltas off (Reset-led full table every time).
    pub full_kb_mean: f64,
    /// Same change with digest-anchored deltas on.
    pub delta_kb_mean: f64,
}

impl DeltaPoint {
    /// Full-ship bytes over delta bytes — the ≥10× headline.
    pub fn reduction(&self) -> f64 {
        self.full_kb_mean / self.delta_kb_mean.max(1e-9)
    }

    /// The headline claim: deltas ship at least 10× fewer config bytes.
    pub fn reduction_10x(&self) -> bool {
        self.reduction() >= 10.0
    }
}

/// The hierarchy against flat 2PC between a small and a large fleet.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Flat over hier root messages at the large fleet.
    pub reduction: f64,
    /// Root message growth from the small fleet to the large one.
    pub flat_growth: f64,
    pub hier_growth: f64,
    /// Hier root messages grow by a clearly smaller factor than the
    /// (linear) flat design's, and the large fleet needs ≥2× fewer.
    pub sublinear: bool,
}

/// The headline comparison over sweep `points` holding a `flat` and a
/// `hier` point at both `small` and `large` hosts.
pub fn headline(points: &[ScalePoint], small: usize, large: usize) -> Headline {
    let msgs = |mode: &str, hosts: usize| {
        points
            .iter()
            .find(|p| p.mode == mode && p.hosts == hosts)
            .expect("sweep point present")
            .root_msgs_mean
    };
    let reduction = msgs("flat", large) / msgs("hier", large);
    let flat_growth = msgs("flat", large) / msgs("flat", small);
    let hier_growth = msgs("hier", large) / msgs("hier", small);
    Headline {
        reduction,
        flat_growth,
        hier_growth,
        sublinear: hier_growth < 0.75 * flat_growth && reduction >= 2.0,
    }
}

impl ToJson for DeltaPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hosts", Json::UInt(self.hosts as u64)),
            ("rules", Json::UInt(self.rules as u64)),
            ("full_config_kb_mean", Json::Float(self.full_kb_mean)),
            ("delta_config_kb_mean", Json::Float(self.delta_kb_mean)),
            ("delta_reduction_rate", Json::Float(self.reduction())),
        ])
    }
}

const SLICE: Time = Time::from_micros(50);
const DEADLINE: Time = Time::from_millis(2_000);

/// Host sizing for thousand-node fleets: one lane, small mailboxes. The
/// control plane never touches the data path here, so only the footprint
/// matters.
fn lean_enclave() -> EnclaveConfig {
    EnclaveConfig {
        lanes: 1,
        max_punted: 16,
        max_messages_per_function: 64,
        flight_capacity: 16,
        ..EnclaveConfig::default()
    }
}

/// Rack count for `hosts`: √n racks of √n hosts (the root-load sweet
/// spot for a two-level tree).
pub fn rack_count(hosts: usize) -> usize {
    ((hosts as f64).sqrt().round() as usize).max(1)
}

/// Desired state: one priority-stamping function and `rules` match rules.
/// `salt` varies the final rule so successive epochs differ by exactly
/// one rule — the delta experiment's one-line change.
fn desired_ops(rules: usize, salt: u16) -> Vec<EnclaveOp> {
    let mut ops = prio_epoch(5);
    ops.pop();
    ops.extend((0..rules).map(|i| {
        let class = if i == rules - 1 {
            1000 + u32::from(salt)
        } else {
            i as u32
        };
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(class)),
            func: 0,
        }
    }));
    ops
}

/// One push at one seed: bootstrap, push a fresh epoch, return
/// `(push_us, root_msgs, root_bytes)` over the push window.
fn run_push(mut fleet: Fleet, rules: usize) -> (f64, u64, u64) {
    let t = fleet.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());

    let before = fleet.root().wire();
    fleet
        .root()
        .set_desired(desired_ops(rules, 0))
        .expect("valid ops");
    let push_start = t;
    let t = fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
    let after = fleet.root().wire();

    let msgs = (after.msgs_sent - before.msgs_sent) + (after.msgs_received - before.msgs_received);
    let bytes =
        (after.bytes_sent - before.bytes_sent) + (after.bytes_received - before.bytes_received);
    let push_us = (t - push_start).as_nanos() as f64 / 1_000.0;
    (push_us, msgs, bytes)
}

/// One push per seed on the fleet `build` makes, aggregated.
fn sweep(
    mode: &'static str,
    hosts: usize,
    rules: usize,
    seeds: &[u64],
    build: impl Fn(u64) -> Fleet,
) -> ScalePoint {
    let samples: Vec<_> = seeds.iter().map(|&s| run_push(build(s), rules)).collect();
    let n = samples.len() as f64;
    ScalePoint {
        mode,
        hosts,
        seeds: samples.len(),
        push_mean_us: samples.iter().map(|s| s.0).sum::<f64>() / n,
        root_msgs_mean: samples.iter().map(|s| s.1 as f64).sum::<f64>() / n,
        root_kb_mean: samples.iter().map(|s| s.2 as f64).sum::<f64>() / n / 1024.0,
    }
}

/// Flat sweep point: root manages every host directly.
pub fn run_flat(hosts: usize, rules: usize, seeds: &[u64]) -> ScalePoint {
    sweep("flat", hosts, rules, seeds, |s| {
        Fleet::flat(s, hosts, CtrlConfig::default(), lean_enclave())
    })
}

/// Hierarchical sweep point: root manages √n aggregators.
pub fn run_hier(hosts: usize, rules: usize, seeds: &[u64]) -> ScalePoint {
    let racks = rack_count(hosts);
    sweep("hier", hosts, rules, seeds, |s| {
        Fleet::tiered(s, hosts, racks, CtrlConfig::default(), lean_enclave())
    })
}

/// Virtual hierarchical sweep point for six-figure fleets.
pub fn run_virtual(hosts: usize, rules: usize, seeds: &[u64]) -> ScalePoint {
    let racks = rack_count(hosts);
    sweep("virtual", hosts, rules, seeds, |s| {
        Fleet::tiered_virtual(s, hosts, racks, CtrlConfig::default(), lean_enclave())
    })
}

/// Delta-vs-full experiment: converge a `rules`-sized table, change one
/// rule, and measure the root's epoch-config bytes reconverging — once
/// with `delta_updates` off, once on.
pub fn run_delta(hosts: usize, rules: usize, seeds: &[u64]) -> DeltaPoint {
    let mut full = Vec::new();
    let mut delta = Vec::new();
    for &seed in seeds {
        for enable in [false, true] {
            // Round tracing rides a 19-byte trailer on every config
            // frame; it is orthogonal to the delta-vs-full question and
            // would dilute the ratio, so both arms run untraced.
            let cfg = CtrlConfig {
                delta_updates: enable,
                trace_rounds: false,
                ..CtrlConfig::default()
            };
            let mut fleet = Fleet::flat(seed, hosts, cfg, lean_enclave());
            let t = fleet.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());

            // epoch 1: the big table, fully shipped either way
            let root = fleet.root();
            root.set_desired(desired_ops(rules, 0)).expect("valid ops");
            let t = fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());

            // epoch 2: one rule changes
            let root = fleet.root();
            let before = root.wire().config_bytes_sent;
            root.set_desired(desired_ops(rules, 1)).expect("valid ops");
            fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
            let bytes = fleet.root().wire().config_bytes_sent - before;
            if enable {
                delta.push(bytes as f64);
            } else {
                full.push(bytes as f64);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    DeltaPoint {
        hosts,
        rules,
        seeds: seeds.len(),
        full_kb_mean: mean(&full) / 1024.0,
        delta_kb_mean: mean(&delta) / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hier_beats_flat_on_root_messages() {
        let flat = run_flat(16, 4, &[3]);
        let hier = run_hier(16, 4, &[3]);
        assert!(
            hier.root_msgs_mean < flat.root_msgs_mean,
            "hier {} vs flat {}",
            hier.root_msgs_mean,
            flat.root_msgs_mean
        );
    }

    #[test]
    fn delta_ships_far_fewer_config_bytes() {
        let p = run_delta(4, 64, &[5]);
        assert!(
            p.reduction_10x(),
            "full {:.2} KiB vs delta {:.2} KiB ({}x)",
            p.full_kb_mean,
            p.delta_kb_mean,
            p.reduction()
        );
    }

    #[test]
    fn virtual_mode_converges() {
        let p = run_virtual(64, 4, &[7]);
        assert_eq!(p.hosts, 64);
        assert!(p.push_mean_us > 0.0);
    }
}
