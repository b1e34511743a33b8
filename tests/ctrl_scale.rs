//! End-to-end hierarchical control plane: a root controller at the core
//! of a two-tier fabric, one `AggregatorApp` per rack fronting that
//! rack's enclave hosts, configuration flowing root → aggregator → host
//! with delta updates on every hop.
//!
//! Covers: whole-tree convergence with per-leaf verification, shard
//! autonomy (a partitioned host stalls only its own rack's tail, and the
//! root still sees every other shard converge), delta-update wire
//! savings through the tree, the digest-mismatch → full-resync fallback,
//! and the virtual-shard mode the six-figure sweeps use.

use eden::core::{ClassId, EnclaveConfig, EnclaveOp, EnclaveStats, MatchSpec};
use eden::ctrl::fleet::{prio_epoch, Fleet, AGG_BASE};
use eden::ctrl::{CtrlConfig, HostStatus};
use eden::netsim::{Packet, SimRng, Time, UdpHeader};

const SLICE: Time = Time::from_micros(100);
const DEADLINE: Time = Time::from_millis(200);

#[test]
fn hierarchy_converges_and_every_leaf_serves_the_epoch() {
    let mut tree = Fleet::tiered(11, 6, 2, CtrlConfig::default(), EnclaveConfig::default());
    assert_eq!(tree.root().fleet_size(), 6);

    let t = tree.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());
    tree.root().set_desired(prio_epoch(5)).expect("valid ops");
    tree.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());

    let (want_epoch, want_digest) = {
        let app = tree.root();
        (app.desired_epoch(), app.desired_digest())
    };
    assert_eq!(want_epoch, 1);
    assert_eq!(tree.root().in_sync_hosts(), 6);
    for rack in 0..2 {
        for child in 0..3 {
            let e = tree.enclave(3 * rack + child);
            assert_eq!(e.active_epoch(), want_epoch, "rack {rack} child {child}");
            assert_eq!(e.config_digest(), want_digest, "rack {rack} child {child}");
            assert!(e.serves_single_epoch());
        }
    }
}

#[test]
fn stats_pulled_through_an_aggregator_are_the_leaves_stats() {
    let pull_every = Time::from_millis(1);
    let cfg = CtrlConfig {
        stats_every: pull_every,
        ..CtrlConfig::default()
    };
    let mut tree = Fleet::tiered(19, 6, 2, cfg, EnclaveConfig::default());
    let t = tree.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());
    tree.root().set_desired(prio_epoch(5)).expect("valid ops");
    let t = tree.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());

    // Traffic on the leaves, a different amount on each.
    let mut rng = SimRng::new(5);
    let mut sum = EnclaveStats::default();
    for rack in 0..2 {
        for child in 0..3 {
            let enclave = tree.enclave(3 * rack + child);
            for _ in 0..10 * (1 + rack * 3 + child) {
                let mut p = Packet::udp(1, 2, UdpHeader::default(), 200);
                enclave.process(&mut p, &mut rng, t);
            }
            sum.merge(&enclave.stats);
        }
    }
    assert_eq!(sum.packets, 10 * (1 + 2 + 3 + 4 + 5 + 6));

    // One pull makes each aggregator ask its children, the next one
    // brings their answers up.
    tree.net.run_until(t + pull_every + pull_every + pull_every);
    let cluster = tree.root().cluster();
    assert_eq!(cluster.host_count(), 2, "one report per rack");
    assert_eq!(cluster.totals(), sum);
    assert!(cluster.totals().conserved());
}

#[test]
fn partitioned_host_stalls_only_its_own_shard() {
    let mut tree = Fleet::tiered(13, 6, 2, CtrlConfig::default(), EnclaveConfig::default());
    let t = tree.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());

    // Cut one rack-0 host off, then push an epoch past it.
    let victim_link = tree.leaf_link(0);
    tree.net.set_link_down(victim_link, true);
    tree.root().set_desired(prio_epoch(5)).expect("valid ops");

    // Every reachable leaf converges: both rack-1 children and rack 0's
    // two survivors — five of six. The root's round itself finishes (it
    // only waits on aggregators), which is the point of the tier.
    let t = tree.run_until(t, SLICE, DEADLINE, |app| {
        app.in_sync_hosts() == 5 && !app.round_active()
    });
    assert!(!tree.root().all_in_sync());
    for (rack, child) in [(1usize, 0usize), (1, 1), (1, 2), (0, 1), (0, 2)] {
        assert_eq!(
            tree.enclave(3 * rack + child).active_epoch(),
            1,
            "rack {rack} child {child} should have the epoch"
        );
    }
    assert_eq!(tree.enclave(0).active_epoch(), 0);

    // Heal: the aggregator's reconciliation catches the victim up.
    tree.net.set_link_down(victim_link, false);
    tree.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
    assert_eq!(tree.enclave(0).active_epoch(), 1);
}

#[test]
fn rack_uplink_loss_is_survived_by_retries() {
    let mut tree = Fleet::tiered(17, 4, 2, CtrlConfig::default(), EnclaveConfig::default());
    // 10% loss on rack 0's uplink: every root↔agg exchange for that
    // shard runs under loss, covered by retry/backoff.
    let uplink = tree.uplink(0);
    tree.net.set_link_loss_permille(uplink, 100);

    let t = tree.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());
    tree.root().set_desired(prio_epoch(3)).expect("valid ops");
    tree.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
    assert_eq!(tree.enclave(0).active_epoch(), 1);
}

#[test]
fn sabotaged_leaf_falls_back_to_full_resync() {
    // Flat single-host cluster: converge a table, then corrupt the
    // host's config *behind the controller's back* so the next planned
    // delta anchors on a digest the enclave no longer has. The agent
    // nacks with `DigestMismatch` and the controller re-ships the full
    // Reset-led table on the same track — convergence must still happen
    // with `delta_updates` on.
    let mut fleet = Fleet::flat(23, 1, CtrlConfig::default(), EnclaveConfig::default());
    let t = fleet.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());
    fleet.root().set_desired(prio_epoch(5)).expect("valid ops");
    let t = fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());

    // Sabotage: extra rule straight into the live enclave. Its digest
    // now matches no history entry, but the controller still believes
    // the last report.
    fleet
        .enclave(0)
        .apply([EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Any,
            func: 0,
        }])
        .expect("sabotage applies");

    // Push the next epoch immediately — before a heartbeat can refresh
    // the report — so the controller plans a delta against the stale
    // digest and must take the Nack → full-Prepare fallback. The same
    // function and one more rule: a one-op diff, which is what makes the
    // plan a delta at all (a changed function ships as the full table).
    let mut next = prio_epoch(5);
    next.push(EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(ClassId(9)),
        func: 0,
    });
    fleet.root().set_desired(next).expect("valid ops");
    fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
    let e = fleet.enclave(0);
    assert_eq!(e.active_epoch(), 2);
    assert!(e.serves_single_epoch());
    // the fallback is counted, and rendered with the cluster's stats
    let app = fleet.root();
    assert_eq!(app.wire().delta_fallbacks, 1);
    let prom = eden::telemetry::render_cluster(app.cluster());
    assert!(
        prom.contains("eden_ctrl_wire_delta_fallbacks_total 1\n"),
        "{prom}"
    );
}

#[test]
fn virtual_shards_report_their_whole_fleet() {
    let enclave = EnclaveConfig::default();
    let mut fleet = Fleet::tiered_virtual(29, 1000, 2, CtrlConfig::default(), enclave);
    let t = fleet.run_until(Time::ZERO, SLICE, DEADLINE, |app| app.all_in_sync());
    let app = fleet.root();
    assert_eq!(app.fleet_size(), 1000);
    app.set_desired(prio_epoch(5)).expect("valid ops");
    fleet.run_until(t, SLICE, DEADLINE, |app| app.all_in_sync());
    let app = fleet.root();
    assert_eq!(app.in_sync_hosts(), 1000);
    assert_eq!(app.host_status(AGG_BASE), Some(HostStatus::Up));
}
