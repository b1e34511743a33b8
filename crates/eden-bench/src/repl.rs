//! Replication-plane benchmark: how stale are replica views, and what
//! does keeping them fresh cost on the wire, as the fleet grows and the
//! control channel degrades?
//!
//! Each `(host count, control loss)` point installs a fleet-wide merged
//! counter (`replicated(merged)` global), drives data-plane load on every
//! host while the replication loop piggybacks deltas/views on the
//! heartbeat cadence, and reads the controller's own telemetry:
//!
//! * **staleness** — the `repl.staleness` histogram: age of each host's
//!   contribution at ingest time. Bounded by the heartbeat cadence while
//!   connected; loss stretches the tail.
//! * **delta bytes** — the `repl.delta_bytes` histogram: wire cost of the
//!   delta section riding each Pong.
//!
//! After the load window the loss is healed and the point asserts the
//! merged total is *exact* on the hub and on every replica — the
//! lost-increment check from `tests/repl_cluster.rs`, here as a quality
//! flag the baseline pins (`exact_after_heal` flipping true -> false
//! fails CI).
//!
//! Everything runs in virtual time on the simulated fabric, so every
//! metric is deterministic for a given seed: CI compares the file with
//! its baseline byte for byte, not noisy wall-clock samples.

use eden_core::{Controller, EnclaveConfig, EnclaveOp, FuncId};
use eden_ctrl::fleet::Fleet;
use eden_ctrl::CtrlConfig;
use eden_lang::{Access, ReplMode, Schema};
use eden_telemetry::{Json, LatencyStat, ToJson};
use netsim::{Packet, Time, UdpHeader};

/// One measured `(hosts, loss)` sweep point, aggregated over seeds.
#[derive(Debug, Clone)]
pub struct Point {
    pub hosts: usize,
    pub loss_permille: u32,
    pub seeds: usize,
    /// Mean replica staleness at ingest across the load window, µs.
    pub staleness_mean_us: f64,
    /// Worst p99 staleness across the seeds, µs.
    pub staleness_p99_us: f64,
    /// Worst median delta-section wire cost across the seeds, bytes.
    pub delta_bytes_p50: f64,
    /// Worst p99 delta-section wire cost across the seeds, bytes.
    pub delta_bytes_p99: f64,
    /// After the loss heals, the hub total and every host's replica view
    /// equal the exact number of increments — in every seed.
    pub exact_after_heal: bool,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hosts", Json::UInt(self.hosts as u64)),
            ("loss_permille", Json::UInt(u64::from(self.loss_permille))),
            ("seeds", Json::UInt(self.seeds as u64)),
            ("staleness_mean_us", Json::Float(self.staleness_mean_us)),
            ("staleness_p99_us", Json::Float(self.staleness_p99_us)),
            ("delta_bytes_p50", Json::Float(self.delta_bytes_p50)),
            ("delta_bytes_p99", Json::Float(self.delta_bytes_p99)),
            ("exact_after_heal", Json::Bool(self.exact_after_heal)),
        ])
    }
}

/// Convergence polling granularity.
const SLICE: Time = Time::from_micros(50);
/// Data-plane slices per load window and packets a host processes in one.
const LOAD_SLICES: u64 = 40;
const PKTS_PER_SLICE: u64 = 3;

/// The fleet-wide counter: one `replicated(merged)` global, bumped once
/// per packet.
fn counter_ops() -> Vec<EnclaveOp> {
    let controller = Controller::new();
    let schema = Schema::new()
        .global_field("Count", Access::ReadWrite)
        .replicated(ReplMode::MergedSum);
    let source = "fun (packet, msg, _global) -> _global.Count <- _global.Count + 1";
    controller
        .plan_epoch("fleet_count", source, &schema)
        .expect("compiles")
}

/// Process `count` packets through host `i`'s enclave at virtual `now`.
fn drive(fleet: &mut Fleet, i: usize, count: u64) {
    let now = fleet.net.now();
    let mut rng = netsim::SimRng::new(now.as_nanos() ^ (i as u64) << 32);
    let enclave = fleet.enclave(i);
    for _ in 0..count {
        let mut p = Packet::udp(1, 2, UdpHeader::default(), 200);
        enclave.process(&mut p, &mut rng, now);
    }
}

fn hist_stat<'a>(stats: &'a [LatencyStat], name: &str) -> Option<&'a LatencyStat> {
    stats.iter().find(|l| l.name == name)
}

/// One full scenario at one seed. Returns
/// `(staleness_mean_us, staleness_p99_us, delta_p50, delta_p99, exact)`.
fn run_once(seed: u64, hosts: usize, loss_permille: u32) -> (f64, f64, f64, f64, bool) {
    let mut fleet = Fleet::flat(seed, hosts, CtrlConfig::default(), EnclaveConfig::default());
    fleet
        .net
        .set_link_loss_permille(fleet.root_link(), loss_permille);
    let deadline = Time::from_millis(400);

    // Bootstrap, then push the replicated counter to the whole fleet.
    let t = fleet.run_until(Time::ZERO, SLICE, deadline, |app| app.all_in_sync());
    fleet.root().set_desired(counter_ops()).expect("valid ops");
    let mut t = fleet.run_until(t, SLICE, deadline, |app| app.all_in_sync());

    // Load window: every host counts packets while the replication loop
    // syncs under the configured loss.
    for _ in 0..LOAD_SLICES {
        for i in 0..hosts {
            drive(&mut fleet, i, PKTS_PER_SLICE);
        }
        t += Time::from_micros(500);
        fleet.net.run_until(t);
    }

    let (stale_mean, stale_p99, d50, d99) = {
        let lat = &fleet.root().cluster().ctrl_latencies;
        let stale = hist_stat(lat, "repl.staleness").expect("staleness recorded");
        let bytes = hist_stat(lat, "repl.delta_bytes").expect("delta bytes recorded");
        (
            stale.hist.mean().unwrap_or(0.0) / 1_000.0,
            stale.hist.p99().unwrap_or(0) as f64 / 1_000.0,
            bytes.hist.p50().unwrap_or(0) as f64,
            bytes.hist.p99().unwrap_or(0) as f64,
        )
    };

    // Heal and settle: every increment must land exactly once.
    fleet.net.set_link_loss_permille(fleet.root_link(), 0);
    let settle = t + Time::from_millis(50);
    fleet.net.run_until(settle);
    let expected = (hosts as u64 * LOAD_SLICES * PKTS_PER_SLICE) as i64;
    let mut exact = fleet.root().repl().merged_total(0, 0) == expected;
    for i in 0..hosts {
        exact &= fleet.enclave(i).global_effective(FuncId(0), 0) == expected;
    }
    (stale_mean, stale_p99, d50, d99, exact)
}

/// Run the scenario at one sweep point across `seeds` and aggregate:
/// staleness means average, tail metrics take the worst seed, and the
/// exactness flag must hold in every seed.
pub fn run(hosts: usize, loss_permille: u32, seeds: &[u64]) -> Point {
    assert!(!seeds.is_empty());
    let mut mean_acc = 0.0;
    let mut p99 = 0.0f64;
    let mut d50 = 0.0f64;
    let mut d99 = 0.0f64;
    let mut exact = true;
    for &seed in seeds {
        let (m, p, b50, b99, e) = run_once(seed, hosts, loss_permille);
        mean_acc += m;
        p99 = p99.max(p);
        d50 = d50.max(b50);
        d99 = d99.max(b99);
        exact &= e;
    }
    Point {
        hosts,
        loss_permille,
        seeds: seeds.len(),
        staleness_mean_us: mean_acc / seeds.len() as f64,
        staleness_p99_us: p99,
        delta_bytes_p50: d50,
        delta_bytes_p99: d99,
        exact_after_heal: exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_point_is_fresh_and_exact() {
        let p = run(2, 0, &[7]);
        assert!(p.exact_after_heal, "increments lost without loss");
        // staleness is bounded by the 1ms heartbeat cadence
        assert!(
            p.staleness_p99_us < 2_000.0,
            "staleness p99 {}us",
            p.staleness_p99_us
        );
        assert!(p.delta_bytes_p50 > 0.0, "no delta traffic recorded");
    }

    #[test]
    fn lossy_point_still_lands_every_increment() {
        let p = run(3, 100, &[11]);
        assert!(p.exact_after_heal, "increments lost under 10% ctrl loss");
        assert!(p.staleness_mean_us > 0.0);
    }
}
