//! End-to-end distributed control plane: a controller host managing three
//! enclave hosts over the simulated fabric, entirely in-band.
//!
//! Covers the full lifecycle: bootstrap (heartbeats establish liveness and
//! initial sync), an epoch push (two-phase prepare/commit across the
//! fleet), stats pulls feeding [`ClusterStats`], failure detection when a
//! host's link goes down, and desired-state reconciliation after the
//! partition heals.

use eden::core::{ClassId, EnclaveConfig, EnclaveOp, MatchSpec};
use eden::ctrl::fleet::{prio_epoch, Fleet};
use eden::ctrl::{CtrlConfig, HostStatus, WireCounters};
use eden::netsim::Time;

#[test]
fn cluster_bootstraps_and_pushes_an_epoch_atomically() {
    let mut c = Fleet::flat(7, 3, CtrlConfig::default(), EnclaveConfig::default());

    // Bootstrap: heartbeats establish liveness and report the initial
    // (empty, epoch-0) configuration, which already matches desired.
    c.net.run_until(Time::from_millis(2));
    {
        let app = c.root();
        assert_eq!(app.desired_epoch(), 0);
        assert!(app.all_in_sync(), "fleet reports the initial config");
        for addr in 1..=3 {
            assert_eq!(app.host_status(addr), Some(HostStatus::Up));
        }
    }

    // Push epoch 1 across the fleet.
    let epoch = c.root().set_desired(prio_epoch(5)).expect("valid");
    assert_eq!(epoch, 1);
    c.net.run_until(Time::from_millis(8));

    let want_digest = {
        let app = c.root();
        assert!(app.all_in_sync(), "fleet converged on epoch 1");
        assert!(!app.round_active(), "round completed");
        assert_eq!(app.desired_epoch(), 1);
        app.desired_digest()
    };
    for i in 0..3 {
        let e = c.enclave(i);
        assert_eq!(e.active_epoch(), 1, "host {i} committed");
        assert!(e.serves_single_epoch());
        assert_eq!(e.config_digest(), want_digest, "host {i} digest matches");
    }
}

#[test]
fn stats_pull_aggregates_the_cluster() {
    let cfg = CtrlConfig {
        stats_every: Time::from_micros(1_000),
        ..CtrlConfig::default()
    };
    let mut c = Fleet::flat(8, 3, cfg, EnclaveConfig::default());
    c.root().set_desired(prio_epoch(4)).expect("valid");
    c.net.run_until(Time::from_millis(10));

    let app = c.root();
    let stats = app.cluster();
    assert_eq!(stats.host_count(), 3, "every host reported");
    let (epoch, digest) = (app.desired_epoch(), app.desired_digest());
    assert!(
        stats.all_at(epoch, digest),
        "all reports carry the desired epoch and digest"
    );
    for addr in 1..=3u32 {
        assert!(stats.host(addr).is_some(), "host {addr} in the aggregate");
    }
    // No data traffic in this scenario: totals are all-zero but present.
    assert_eq!(stats.totals().packets, 0);
}

#[test]
fn partitioned_host_goes_down_and_reconciles_after_heal() {
    let mut c = Fleet::flat(9, 3, CtrlConfig::default(), EnclaveConfig::default());
    c.net.run_until(Time::from_millis(1));

    // Partition host 3 (addr 3, index 2), then push an update.
    let cut = c.leaf_link(2);
    c.net.set_link_down(cut, true);
    c.root().set_desired(prio_epoch(6)).expect("valid");

    c.net.run_until(Time::from_millis(14));
    {
        let app = c.root();
        assert_eq!(
            app.host_status(3),
            Some(HostStatus::Down),
            "silent host detected"
        );
        assert_eq!(app.in_sync_count(), 2, "reachable hosts converged");
        assert!(!app.all_in_sync());
        assert!(!app.round_active(), "round must not wait for a dead host");
    }
    for i in 0..2 {
        assert_eq!(c.enclave(i).active_epoch(), 1);
    }
    assert_eq!(
        c.enclave(2).active_epoch(),
        0,
        "partitioned host still on the old epoch"
    );

    // Heal. Heartbeats resume, the controller notices the stale report
    // and resyncs the host individually.
    c.net.set_link_down(cut, false);
    c.net.run_until(Time::from_millis(30));
    {
        let app = c.root();
        assert_eq!(app.host_status(3), Some(HostStatus::Up), "rejoin noticed");
        assert!(app.all_in_sync(), "lagging host reconciled");
    }
    let e = c.enclave(2);
    assert_eq!(e.active_epoch(), 1);
    assert!(e.serves_single_epoch());
}

#[test]
fn nacked_prepare_aborts_the_round_everywhere_and_rolls_back() {
    let mut c = Fleet::flat(10, 3, CtrlConfig::default(), EnclaveConfig::default());
    c.net.run_until(Time::from_millis(1));
    let empty_digest = c.root().desired_digest();

    // Push an update, let the round open and the prepares leave the
    // controller...
    c.root().set_desired(prio_epoch(2)).expect("valid");
    c.net.run_until(Time::from_micros(1_100));

    // ...then sabotage host 2 before its prepare lands: a local bump to a
    // far-future epoch makes the in-flight Prepare{1} stale there, so the
    // agent nacks and the controller must abort the round everywhere.
    {
        let e = c.enclave(1);
        e.stage_epoch(50, &[]).unwrap();
        assert!(e.commit_epoch(50));
    }

    // Atomicity across the abort + re-heal churn: the nacked update's
    // content (the prio-2 function) must never become active on any host.
    let mut t = Time::from_micros(1_200);
    while t <= Time::from_millis(10) {
        c.net.run_until(t);
        for i in 0..3 {
            let e = c.enclave(i);
            assert!(e.serves_single_epoch(), "host {i} mixed epochs at {t:?}");
            assert_eq!(
                e.config_digest(),
                empty_digest,
                "host {i} activated aborted content at {t:?}"
            );
        }
        t += Time::from_micros(200);
    }

    // Desired state rolled back to the empty config; the reconciler then
    // re-absorbed the diverged host under a fresh epoch above its bump.
    let app = c.root();
    assert_eq!(app.desired_digest(), empty_digest, "content rolled back");
    assert!(app.all_in_sync(), "fleet re-converged");
    assert!(
        app.desired_epoch() > 50,
        "fresh epoch outbids the divergence (got {})",
        app.desired_epoch()
    );
}

/// What goes on the wire, and when, is part of the control plane's
/// contract: a two-rack tree under loss, driven through full pushes, delta
/// pushes and the retries both need, must leave every reconciler's wire
/// counters exactly where they were recorded (at commit 9792264, before
/// plans were encoded once and shared). A change that alters a message's
/// bytes, sends one more or one fewer, or moves a retry shows up here.
#[test]
fn wire_load_under_loss_is_pinned() {
    let mut fleet = Fleet::tiered(
        0x5eed,
        8,
        2,
        CtrlConfig::default(),
        EnclaveConfig::default(),
    );
    for leaf in 0..8 {
        fleet.net.set_link_loss_permille(fleet.leaf_link(leaf), 50);
    }
    for rack in 0..2 {
        fleet.net.set_link_loss_permille(fleet.uplink(rack), 100);
    }

    // A 100-rule table (a multi-fragment full prepare), three pushes that
    // change its last rule (deltas), then a new function (full again).
    let table = |prio: u8, last: u32| -> Vec<EnclaveOp> {
        let mut ops = prio_epoch(prio);
        ops.pop();
        ops.extend((0..99).chain([last]).map(|c| EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(c)),
            func: 0,
        }));
        ops
    };
    let mut now = Time::from_millis(3);
    fleet.net.run_until(now);
    for (prio, last) in [(1, 100), (1, 101), (1, 102), (1, 103), (2, 103)] {
        fleet.root().set_desired(table(prio, last)).expect("valid");
        now += Time::from_millis(40);
        fleet.net.run_until(now);
    }

    let app = fleet.root();
    assert!(app.all_in_sync(), "tree converged on the last push");
    let want = app.desired_digest();
    let root_wire = app.wire();
    for leaf in 0..8 {
        let e = fleet.enclave(leaf);
        assert_eq!(e.config_digest(), want);
    }
    let tuple = |w: WireCounters| {
        [
            w.msgs_sent,
            w.bytes_sent,
            w.msgs_received,
            w.bytes_received,
            w.config_bytes_sent,
        ]
    };
    let agg_wires: Vec<[u64; 5]> = (0..2)
        .map(|rack| tuple(fleet.aggregator(rack).wire()))
        .collect();
    assert_eq!(tuple(root_wire), [431, 15662, 353, 16930, 11174], "root");
    assert_eq!(
        agg_wires,
        [
            [1055, 35107, 971, 28822, 18573],
            [1057, 33744, 955, 29739, 17046]
        ],
        "aggregators"
    );
}
