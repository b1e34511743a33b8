//! End-to-end distributed control plane: a controller host managing three
//! enclave hosts over the simulated fabric, entirely in-band.
//!
//! Covers the full lifecycle: bootstrap (heartbeats establish liveness and
//! initial sync), an epoch push (two-phase prepare/commit across the
//! fleet), stats pulls feeding [`ClusterStats`], failure detection when a
//! host's link goes down, and desired-state reconciliation after the
//! partition heals.

use eden::core::{ClassId, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden::ctrl::{
    AggConfig, AggregatorApp, ControllerApp, CtrlConfig, EnclaveAgent, HostStatus, WireCounters,
    TICK,
};
use eden::lang::{Access, HeaderField, Schema};
use eden::netsim::{LinkId, LinkSpec, Network, NodeId, Switch, SwitchConfig, Time, TwoTier};
use eden::transport::{app_timer_token, App, Host, Stack, StackConfig};

/// Agent hosts run no application — the enclave agent on the hook does
/// all the talking.
struct Idle;
impl App for Idle {}

const CTRL_ADDR: u32 = 100;

struct Cluster {
    net: Network,
    ctrl: NodeId,
    hosts: Vec<(NodeId, u32)>,
    host_links: Vec<LinkId>,
}

fn build_cluster(seed: u64, n: usize, cfg: CtrlConfig) -> Cluster {
    let mut net = Network::new(seed);
    let sw = net.add_node(Switch::new(SwitchConfig::default()));

    let mut hosts = Vec::new();
    let mut host_links = Vec::new();
    for i in 0..n {
        let addr = (i + 1) as u32;
        let mut stack = Stack::new(addr, StackConfig::default());
        stack.set_hook(EnclaveAgent::new(Enclave::new(EnclaveConfig::default())));
        stack.set_ctrl_port(cfg.ctrl_port);
        let node = net.add_node(Host::new(stack, Idle));
        let (host_port, sw_port) = net.connect(node, sw, LinkSpec::ten_gbps());
        net.node_mut::<Switch>(sw).install_route(addr, sw_port);
        hosts.push((node, addr));
        host_links.push(net.port_link(node, host_port).0);
    }

    let addrs: Vec<u32> = hosts.iter().map(|&(_, a)| a).collect();
    let ctrl = net.add_node(Host::new(
        Stack::new(CTRL_ADDR, StackConfig::default()),
        ControllerApp::new(cfg, &addrs),
    ));
    let (_, port) = net.connect(ctrl, sw, LinkSpec::ten_gbps());
    net.node_mut::<Switch>(sw).install_route(CTRL_ADDR, port);

    net.schedule_timer(ctrl, Time::ZERO, app_timer_token(TICK));
    Cluster {
        net,
        ctrl,
        hosts,
        host_links,
    }
}

fn prio_schema() -> Schema {
    Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
}

/// A full desired-state description: wipe, install a fixed-priority
/// function, match everything.
fn prio_ops(prio: u8) -> Vec<EnclaveOp> {
    let controller = eden::core::Controller::new();
    let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
    let func = controller
        .plan_function("set_prio", &source, &prio_schema())
        .expect("compiles");
    vec![
        EnclaveOp::Reset,
        func,
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Any,
            func: 0,
        },
    ]
}

fn controller(cluster: &mut Cluster) -> &mut ControllerApp {
    &mut cluster
        .net
        .node_mut::<Host<ControllerApp>>(cluster.ctrl)
        .app
}

fn agent_enclave(cluster: &mut Cluster, i: usize) -> &Enclave {
    let node = cluster.hosts[i].0;
    cluster
        .net
        .node_mut::<Host<Idle>>(node)
        .stack
        .hook_mut::<EnclaveAgent>()
        .expect("agent installed")
        .enclave()
}

#[test]
fn cluster_bootstraps_and_pushes_an_epoch_atomically() {
    let mut c = build_cluster(7, 3, CtrlConfig::default());

    // Bootstrap: heartbeats establish liveness and report the initial
    // (empty, epoch-0) configuration, which already matches desired.
    c.net.run_until(Time::from_millis(2));
    {
        let app = controller(&mut c);
        assert_eq!(app.desired_epoch(), 0);
        assert!(app.all_in_sync(), "fleet reports the initial config");
        for addr in 1..=3 {
            assert_eq!(app.host_status(addr), Some(HostStatus::Up));
        }
    }

    // Push epoch 1 across the fleet.
    let epoch = controller(&mut c).set_desired(prio_ops(5)).expect("valid");
    assert_eq!(epoch, 1);
    c.net.run_until(Time::from_millis(8));

    let want_digest = {
        let app = controller(&mut c);
        assert!(app.all_in_sync(), "fleet converged on epoch 1");
        assert!(!app.round_active(), "round completed");
        assert_eq!(app.desired_epoch(), 1);
        app.desired_digest()
    };
    for i in 0..3 {
        let e = agent_enclave(&mut c, i);
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
    let mut c = build_cluster(8, 3, cfg);
    controller(&mut c).set_desired(prio_ops(4)).expect("valid");
    c.net.run_until(Time::from_millis(10));

    let app = controller(&mut c);
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
    let mut c = build_cluster(9, 3, CtrlConfig::default());
    c.net.run_until(Time::from_millis(1));

    // Partition host 3 (addr 3, index 2), then push an update.
    let cut = c.host_links[2];
    c.net.set_link_down(cut, true);
    controller(&mut c).set_desired(prio_ops(6)).expect("valid");

    c.net.run_until(Time::from_millis(14));
    {
        let app = controller(&mut c);
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
        assert_eq!(agent_enclave(&mut c, i).active_epoch(), 1);
    }
    assert_eq!(
        agent_enclave(&mut c, 2).active_epoch(),
        0,
        "partitioned host still on the old epoch"
    );

    // Heal. Heartbeats resume, the controller notices the stale report
    // and resyncs the host individually.
    c.net.set_link_down(cut, false);
    c.net.run_until(Time::from_millis(30));
    {
        let app = controller(&mut c);
        assert_eq!(app.host_status(3), Some(HostStatus::Up), "rejoin noticed");
        assert!(app.all_in_sync(), "lagging host reconciled");
    }
    let e = agent_enclave(&mut c, 2);
    assert_eq!(e.active_epoch(), 1);
    assert!(e.serves_single_epoch());
}

#[test]
fn nacked_prepare_aborts_the_round_everywhere_and_rolls_back() {
    let mut c = build_cluster(10, 3, CtrlConfig::default());
    c.net.run_until(Time::from_millis(1));
    let empty_digest = controller(&mut c).desired_digest();

    // Push an update, let the round open and the prepares leave the
    // controller...
    controller(&mut c).set_desired(prio_ops(2)).expect("valid");
    c.net.run_until(Time::from_micros(1_100));

    // ...then sabotage host 2 before its prepare lands: a local bump to a
    // far-future epoch makes the in-flight Prepare{1} stale there, so the
    // agent nacks and the controller must abort the round everywhere.
    {
        let node = c.hosts[1].0;
        let agent = c
            .net
            .node_mut::<Host<Idle>>(node)
            .stack
            .hook_mut::<EnclaveAgent>()
            .unwrap();
        let e = agent.enclave_mut();
        e.stage_epoch(50, &[]).unwrap();
        assert!(e.commit_epoch(50));
    }

    // Atomicity across the abort + re-heal churn: the nacked update's
    // content (the prio-2 function) must never become active on any host.
    let mut t = Time::from_micros(1_200);
    while t <= Time::from_millis(10) {
        c.net.run_until(t);
        for i in 0..3 {
            let e = agent_enclave(&mut c, i);
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
    let app = controller(&mut c);
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
    const RACKS: usize = 2;
    const PER_RACK: u32 = 4;
    let cfg = CtrlConfig::default();
    let mut net = Network::new(0x5eed);
    let topo = TwoTier::build(&mut net, RACKS, LinkSpec::forty_gbps());
    let mut ctrl = ControllerApp::new(cfg.clone(), &[]);
    let mut aggs = Vec::new();
    let mut leaves = Vec::new();
    for rack in 0..RACKS {
        let children: Vec<u32> = (1..=PER_RACK).map(|i| rack as u32 * PER_RACK + i).collect();
        for &addr in &children {
            let mut stack = Stack::new(addr, StackConfig::default());
            stack.set_hook(EnclaveAgent::new(Enclave::new(EnclaveConfig::default())));
            stack.set_ctrl_port(cfg.ctrl_port);
            let node = net.add_node(Host::new(stack, Idle));
            let link = topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps());
            net.set_link_loss_permille(link, 50);
            leaves.push(node);
        }
        let addr = 50 + rack as u32;
        let agg = net.add_node(Host::new(
            Stack::new(addr, StackConfig::default()),
            AggregatorApp::new(AggConfig { ctrl: cfg.clone() }, &children),
        ));
        topo.attach(&mut net, rack, agg, addr, LinkSpec::ten_gbps());
        net.set_link_loss_permille(topo.racks[rack].uplink, 100);
        net.schedule_timer(agg, Time::ZERO, app_timer_token(TICK));
        ctrl.manage_aggregator(addr, children);
        aggs.push(agg);
    }
    let root = net.add_node(Host::new(
        Stack::new(CTRL_ADDR, StackConfig::default()),
        ctrl,
    ));
    topo.attach_core(&mut net, root, CTRL_ADDR, LinkSpec::forty_gbps());
    net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));

    // A 100-rule table (a multi-fragment full prepare), three pushes that
    // change its last rule (deltas), then a new function (full again).
    let table = |prio: u8, last: u32| -> Vec<EnclaveOp> {
        let mut ops = prio_ops(prio);
        ops.pop();
        ops.extend((0..99).chain([last]).map(|c| EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(c)),
            func: 0,
        }));
        ops
    };
    let mut now = Time::from_millis(3);
    net.run_until(now);
    for (prio, last) in [(1, 100), (1, 101), (1, 102), (1, 103), (2, 103)] {
        let app = &mut net.node_mut::<Host<ControllerApp>>(root).app;
        app.set_desired(table(prio, last)).expect("valid");
        now += Time::from_millis(40);
        net.run_until(now);
    }

    let app = &net.node_mut::<Host<ControllerApp>>(root).app;
    assert!(app.all_in_sync(), "tree converged on the last push");
    let want = app.desired_digest();
    let root_wire = app.wire();
    for leaf in leaves {
        let stack = &mut net.node_mut::<Host<Idle>>(leaf).stack;
        let e = stack.hook_mut::<EnclaveAgent>().unwrap().enclave();
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
    let agg_wires: Vec<[u64; 5]> = aggs
        .iter()
        .map(|&a| tuple(net.node_mut::<Host<AggregatorApp>>(a).app.wire()))
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
