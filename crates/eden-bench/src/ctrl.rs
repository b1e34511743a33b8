//! Control-plane convergence benchmark: how long does it take the
//! [`eden_ctrl`] runtime to drive a whole fleet to a new desired state?
//!
//! Two scenarios per `(host count, control loss)` point, averaged over
//! seeds:
//!
//! * **push** — all hosts reachable; the controller pushes a fresh epoch
//!   and we measure virtual time from `set_desired` until every host
//!   reports the desired `(epoch, digest)` (`all_in_sync`). This is the
//!   cost of a two-phase prepare/commit round plus retries under loss.
//! * **rejoin** — one host is partitioned, misses an epoch, gets marked
//!   Down, and the link heals. We measure from the heal until the fleet
//!   is back in sync: failure detection, heartbeat-driven rediscovery,
//!   and desired-state resync.
//!
//! Loss is applied to the controller's own access link, so it impairs
//! exactly the control channel (both directions) without touching the
//! data plane.

use eden_core::EnclaveConfig;
use eden_ctrl::fleet::{prio_epoch, Fleet};
use eden_ctrl::CtrlConfig;
use eden_telemetry::{Json, ToJson};
use netsim::Time;

/// One measured `(hosts, loss)` sweep point, aggregated over seeds.
#[derive(Debug, Clone)]
pub struct Point {
    pub hosts: usize,
    pub loss_permille: u32,
    pub seeds: usize,
    /// Mean virtual µs from `set_desired` to `all_in_sync`.
    pub push_mean_us: f64,
    /// Worst observed push convergence across the seeds, in µs.
    pub push_max_us: f64,
    /// Mean virtual µs from partition heal to `all_in_sync`.
    pub rejoin_mean_us: f64,
    /// Worst observed rejoin convergence across the seeds, in µs.
    pub rejoin_max_us: f64,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hosts", Json::UInt(self.hosts as u64)),
            ("loss_permille", Json::UInt(u64::from(self.loss_permille))),
            ("seeds", Json::UInt(self.seeds as u64)),
            ("push_mean_us", Json::Float(self.push_mean_us)),
            ("push_max_us", Json::Float(self.push_max_us)),
            ("rejoin_mean_us", Json::Float(self.rejoin_mean_us)),
            ("rejoin_max_us", Json::Float(self.rejoin_max_us)),
        ])
    }
}

/// Measurement granularity: convergence times are resolved to one slice.
const SLICE: Time = Time::from_micros(50);

/// One full scenario at one seed. Returns `(push_us, rejoin_us)`.
fn run_once(seed: u64, hosts: usize, loss_permille: u32) -> (f64, f64) {
    let mut fleet = Fleet::flat(seed, hosts, CtrlConfig::default(), EnclaveConfig::default());
    fleet
        .net
        .set_link_loss_permille(fleet.root_link(), loss_permille);
    let deadline = Time::from_millis(400);

    // Bootstrap: heartbeats find every host and establish epoch 0.
    let t = fleet.run_until(Time::ZERO, SLICE, deadline, |app| app.all_in_sync());

    // Scenario 1: push a fresh epoch to a fully reachable fleet.
    fleet
        .root()
        .set_desired(prio_epoch(5))
        .expect("valid desired ops");
    let push_start = t;
    let t = fleet.run_until(t, SLICE, deadline, |app| app.all_in_sync());
    let push_us = (t - push_start).as_nanos() as f64 / 1_000.0;

    // Scenario 2: partition one host, push an epoch past it, wait until
    // the controller has written off the victim and finished with the
    // rest, then heal and measure the resync.
    fleet.net.set_link_down(fleet.leaf_link(0), true);
    fleet
        .root()
        .set_desired(prio_epoch(7))
        .expect("valid desired ops");
    let t = fleet.run_until(t, SLICE, deadline, |app| {
        app.in_sync_count() == hosts - 1 && !app.round_active()
    });
    fleet.net.set_link_down(fleet.leaf_link(0), false);
    let heal = t;
    let t = fleet.run_until(t, SLICE, deadline, |app| app.all_in_sync());
    let rejoin_us = (t - heal).as_nanos() as f64 / 1_000.0;

    (push_us, rejoin_us)
}

/// Run the scenario at one sweep point across `seeds` and aggregate.
pub fn run(hosts: usize, loss_permille: u32, seeds: &[u64]) -> Point {
    assert!(!seeds.is_empty());
    let mut push = Vec::new();
    let mut rejoin = Vec::new();
    for &seed in seeds {
        let (p, r) = run_once(seed, hosts, loss_permille);
        push.push(p);
        rejoin.push(r);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    Point {
        hosts,
        loss_permille,
        seeds: seeds.len(),
        push_mean_us: mean(&push),
        push_max_us: max(&push),
        rejoin_mean_us: mean(&rejoin),
        rejoin_max_us: max(&rejoin),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_point_converges_quickly() {
        let p = run(3, 0, &[7]);
        assert_eq!(p.hosts, 3);
        // A lossless push is one prepare/commit round-trip plus tick
        // latency — well under 2ms of virtual time.
        assert!(p.push_mean_us < 2_000.0, "push took {}us", p.push_mean_us);
        assert!(p.rejoin_mean_us > 0.0);
    }

    #[test]
    fn lossy_point_still_converges() {
        let p = run(2, 200, &[11]);
        assert!(p.push_mean_us > 0.0);
        assert!(p.rejoin_mean_us > 0.0);
    }
}
