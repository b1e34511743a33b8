//! End-to-end hierarchical control plane: a root controller at the core
//! of a two-tier fabric, one [`AggregatorApp`] per rack fronting that
//! rack's enclave hosts, configuration flowing root → aggregator → host
//! with delta updates on every hop.
//!
//! Covers: whole-tree convergence with per-leaf verification, shard
//! autonomy (a partitioned host stalls only its own rack's tail, and the
//! root still sees every other shard converge), delta-update wire
//! savings through the tree, the digest-mismatch → full-resync fallback,
//! and the virtual-shard mode the six-figure sweeps use.

use eden::core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, EnclaveStats, MatchSpec};
use eden::ctrl::{
    AggConfig, AggregatorApp, ControllerApp, CtrlConfig, EnclaveAgent, HostStatus, TICK,
};
use eden::lang::{Access, HeaderField, Schema};
use eden::netsim::{LinkId, LinkSpec, Network, NodeId, Packet, SimRng, Time, TwoTier, UdpHeader};
use eden::transport::{app_timer_token, App, Host, Stack, StackConfig};

struct Idle;
impl App for Idle {}

const ROOT_ADDR: u32 = 100;
const AGG_BASE: u32 = 50;
const SLICE: Time = Time::from_micros(100);
const DEADLINE: Time = Time::from_millis(200);

struct Tree {
    net: Network,
    topo: TwoTier,
    root: NodeId,
    /// `[rack][child]` — host node ids with their addresses.
    racks: Vec<Vec<(NodeId, u32)>>,
    /// `[rack][child]` — each host's access link.
    child_links: Vec<Vec<LinkId>>,
}

fn prio_ops(prio: u8) -> Vec<EnclaveOp> {
    let controller = Controller::new();
    let schema =
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
    let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
    let func = controller
        .plan_function("set_prio", &source, &schema)
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

fn build_tree(seed: u64, racks: usize, per_rack: usize, cfg: CtrlConfig) -> Tree {
    let mut net = Network::new(seed);
    let topo = TwoTier::build(&mut net, racks, LinkSpec::forty_gbps());

    let mut ctrl = ControllerApp::new(cfg.clone(), &[]);
    let mut rack_hosts = Vec::new();
    let mut child_links = Vec::new();
    let mut next = 1u32;
    for rack in 0..racks {
        let mut hosts = Vec::new();
        let mut links = Vec::new();
        let children: Vec<u32> = (0..per_rack)
            .map(|_| {
                let addr = next;
                next += 1;
                let mut stack = Stack::new(addr, StackConfig::default());
                stack.set_hook(EnclaveAgent::new(Enclave::new(EnclaveConfig::default())));
                stack.set_ctrl_port(cfg.ctrl_port);
                let node = net.add_node(Host::new(stack, Idle));
                links.push(topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps()));
                hosts.push((node, addr));
                addr
            })
            .collect();
        let agg_addr = AGG_BASE + rack as u32;
        let agg = net.add_node(Host::new(
            Stack::new(agg_addr, StackConfig::default()),
            AggregatorApp::new(AggConfig { ctrl: cfg.clone() }, &children),
        ));
        topo.attach(&mut net, rack, agg, agg_addr, LinkSpec::ten_gbps());
        net.schedule_timer(agg, Time::ZERO, app_timer_token(TICK));
        ctrl.manage_aggregator(agg_addr, children);
        rack_hosts.push(hosts);
        child_links.push(links);
    }

    let root = net.add_node(Host::new(
        Stack::new(ROOT_ADDR, StackConfig::default()),
        ctrl,
    ));
    topo.attach_core(&mut net, root, ROOT_ADDR, LinkSpec::forty_gbps());
    net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));
    Tree {
        net,
        topo,
        root,
        racks: rack_hosts,
        child_links,
    }
}

fn root(tree: &mut Tree) -> &mut ControllerApp {
    &mut tree.net.node_mut::<Host<ControllerApp>>(tree.root).app
}

fn leaf_enclave(tree: &mut Tree, rack: usize, child: usize) -> &Enclave {
    let node = tree.racks[rack][child].0;
    tree.net
        .node_mut::<Host<Idle>>(node)
        .stack
        .hook_mut::<EnclaveAgent>()
        .expect("agent installed")
        .enclave()
}

/// Step until `done(root)` or panic at the deadline.
fn run_until(tree: &mut Tree, mut t: Time, done: impl Fn(&ControllerApp) -> bool) -> Time {
    loop {
        t += SLICE;
        assert!(
            t <= DEADLINE,
            "no convergence by {DEADLINE:?}: {}/{} leaves in sync",
            root(tree).in_sync_hosts(),
            root(tree).fleet_size()
        );
        tree.net.run_until(t);
        if done(&tree.net.node_mut::<Host<ControllerApp>>(tree.root).app) {
            return t;
        }
    }
}

#[test]
fn hierarchy_converges_and_every_leaf_serves_the_epoch() {
    let mut tree = build_tree(11, 2, 3, CtrlConfig::default());
    assert_eq!(root(&mut tree).fleet_size(), 6);

    let t = run_until(&mut tree, Time::ZERO, |app| app.all_in_sync());
    root(&mut tree).set_desired(prio_ops(5)).expect("valid ops");
    run_until(&mut tree, t, |app| app.all_in_sync());

    let (want_epoch, want_digest) = {
        let app = root(&mut tree);
        (app.desired_epoch(), app.desired_digest())
    };
    assert_eq!(want_epoch, 1);
    assert_eq!(root(&mut tree).in_sync_hosts(), 6);
    for rack in 0..2 {
        for child in 0..3 {
            let e = leaf_enclave(&mut tree, rack, child);
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
    let mut tree = build_tree(19, 2, 3, cfg);
    let t = run_until(&mut tree, Time::ZERO, |app| app.all_in_sync());
    root(&mut tree).set_desired(prio_ops(5)).expect("valid ops");
    let t = run_until(&mut tree, t, |app| app.all_in_sync());

    // Traffic on the leaves, a different amount on each.
    let mut rng = SimRng::new(5);
    let mut sum = EnclaveStats::default();
    for rack in 0..2 {
        for child in 0..3 {
            let node = tree.racks[rack][child].0;
            let agent = tree.net.node_mut::<Host<Idle>>(node).stack.hook_mut();
            let enclave = agent.map(EnclaveAgent::enclave_mut).expect("agent");
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
    let cluster = root(&mut tree).cluster();
    assert_eq!(cluster.host_count(), 2, "one report per rack");
    assert_eq!(cluster.totals(), sum);
    assert!(cluster.totals().conserved());
}

#[test]
fn partitioned_host_stalls_only_its_own_shard() {
    let mut tree = build_tree(13, 2, 3, CtrlConfig::default());
    let t = run_until(&mut tree, Time::ZERO, |app| app.all_in_sync());

    // Cut one rack-0 host off, then push an epoch past it.
    let victim_link = tree.child_links[0][0];
    tree.net.set_link_down(victim_link, true);
    root(&mut tree).set_desired(prio_ops(5)).expect("valid ops");

    // Every reachable leaf converges: both rack-1 children and rack 0's
    // two survivors — five of six. The root's round itself finishes (it
    // only waits on aggregators), which is the point of the tier.
    let t = run_until(&mut tree, t, |app| {
        app.in_sync_hosts() == 5 && !app.round_active()
    });
    assert!(!root(&mut tree).all_in_sync());
    for (rack, child) in [(1usize, 0usize), (1, 1), (1, 2), (0, 1), (0, 2)] {
        assert_eq!(
            leaf_enclave(&mut tree, rack, child).active_epoch(),
            1,
            "rack {rack} child {child} should have the epoch"
        );
    }
    assert_eq!(leaf_enclave(&mut tree, 0, 0).active_epoch(), 0);

    // Heal: the aggregator's reconciliation catches the victim up.
    tree.net.set_link_down(victim_link, false);
    run_until(&mut tree, t, |app| app.all_in_sync());
    assert_eq!(leaf_enclave(&mut tree, 0, 0).active_epoch(), 1);
}

#[test]
fn rack_uplink_loss_is_survived_by_retries() {
    let mut tree = build_tree(17, 2, 2, CtrlConfig::default());
    // 10% loss on rack 0's uplink: every root↔agg exchange for that
    // shard runs under loss, covered by retry/backoff.
    let uplink = tree.topo.racks[0].uplink;
    tree.net.set_link_loss_permille(uplink, 100);

    let t = run_until(&mut tree, Time::ZERO, |app| app.all_in_sync());
    root(&mut tree).set_desired(prio_ops(3)).expect("valid ops");
    run_until(&mut tree, t, |app| app.all_in_sync());
    assert_eq!(leaf_enclave(&mut tree, 0, 0).active_epoch(), 1);
}

#[test]
fn sabotaged_leaf_falls_back_to_full_resync() {
    // Flat single-host cluster: converge a table, then corrupt the
    // host's config *behind the controller's back* so the next planned
    // delta anchors on a digest the enclave no longer has. The agent
    // nacks with `DigestMismatch` and the controller re-ships the full
    // Reset-led table on the same track — convergence must still happen
    // with `delta_updates` on.
    let cfg = CtrlConfig::default();
    let mut net = Network::new(23);
    let sw = net.add_node(eden::netsim::Switch::new(
        eden::netsim::SwitchConfig::default(),
    ));
    let mut stack = Stack::new(1, StackConfig::default());
    stack.set_hook(EnclaveAgent::new(Enclave::new(EnclaveConfig::default())));
    stack.set_ctrl_port(cfg.ctrl_port);
    let host = net.add_node(Host::new(stack, Idle));
    let (_, sp) = net.connect(host, sw, LinkSpec::ten_gbps());
    net.node_mut::<eden::netsim::Switch>(sw)
        .install_route(1, sp);
    let ctrl = net.add_node(Host::new(
        Stack::new(ROOT_ADDR, StackConfig::default()),
        ControllerApp::new(cfg, &[1]),
    ));
    let (_, sp) = net.connect(ctrl, sw, LinkSpec::ten_gbps());
    net.node_mut::<eden::netsim::Switch>(sw)
        .install_route(ROOT_ADDR, sp);
    net.schedule_timer(ctrl, Time::ZERO, app_timer_token(TICK));

    fn app(net: &mut Network, ctrl: NodeId) -> &mut ControllerApp {
        &mut net.node_mut::<Host<ControllerApp>>(ctrl).app
    }
    let converge = |net: &mut Network, mut t: Time| -> Time {
        loop {
            t += SLICE;
            assert!(t <= DEADLINE, "no convergence");
            net.run_until(t);
            if net.node_mut::<Host<ControllerApp>>(ctrl).app.all_in_sync() {
                return t;
            }
        }
    };

    let t = converge(&mut net, Time::ZERO);
    app(&mut net, ctrl)
        .set_desired(prio_ops(5))
        .expect("valid ops");
    let t = converge(&mut net, t);

    // Sabotage: extra rule straight into the live enclave. Its digest
    // now matches no history entry, but the controller still believes
    // the last report.
    net.node_mut::<Host<Idle>>(host)
        .stack
        .hook_mut::<EnclaveAgent>()
        .expect("agent")
        .enclave_mut()
        .apply_op(EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Any,
            func: 0,
        })
        .expect("sabotage applies");

    // Push the next epoch immediately — before a heartbeat can refresh
    // the report — so the controller plans a delta against the stale
    // digest and must take the Nack → full-Prepare fallback. The same
    // function and one more rule: a one-op diff, which is what makes the
    // plan a delta at all (a changed function ships as the full table).
    let mut next = prio_ops(5);
    next.push(EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(ClassId(9)),
        func: 0,
    });
    app(&mut net, ctrl).set_desired(next).expect("valid ops");
    converge(&mut net, t);
    let e = net
        .node_mut::<Host<Idle>>(host)
        .stack
        .hook_mut::<EnclaveAgent>()
        .expect("agent")
        .enclave();
    assert_eq!(e.active_epoch(), 2);
    assert!(e.serves_single_epoch());
    // the fallback is counted, and rendered with the cluster's stats
    let app = app(&mut net, ctrl);
    assert_eq!(app.wire().delta_fallbacks, 1);
    let prom = eden::telemetry::render_cluster(app.cluster());
    assert!(
        prom.contains("eden_ctrl_wire_delta_fallbacks_total 1\n"),
        "{prom}"
    );
}

#[test]
fn virtual_shards_report_their_whole_fleet() {
    let cfg = CtrlConfig::default();
    let mut net = Network::new(29);
    let topo = TwoTier::build(&mut net, 2, LinkSpec::forty_gbps());
    let mut ctrl = ControllerApp::new(cfg.clone(), &[]);
    for rack in 0..2usize {
        let agg_addr = AGG_BASE + rack as u32;
        let children: Vec<u32> = (0..500).map(|i| 1000 + (rack as u32) * 500 + i).collect();
        let agg = net.add_node(Host::new(
            Stack::new(agg_addr, StackConfig::default()),
            AggregatorApp::with_virtual_children(
                AggConfig { ctrl: cfg.clone() },
                children.len(),
                EnclaveConfig {
                    lanes: 1,
                    ..EnclaveConfig::default()
                },
            ),
        ));
        topo.attach(&mut net, rack, agg, agg_addr, LinkSpec::ten_gbps());
        net.schedule_timer(agg, Time::ZERO, app_timer_token(TICK));
        ctrl.manage_aggregator(agg_addr, children);
    }
    let rootn = net.add_node(Host::new(
        Stack::new(ROOT_ADDR, StackConfig::default()),
        ctrl,
    ));
    topo.attach_core(&mut net, rootn, ROOT_ADDR, LinkSpec::forty_gbps());
    net.schedule_timer(rootn, Time::ZERO, app_timer_token(TICK));

    let converge = |net: &mut Network, mut t: Time| -> Time {
        loop {
            t += SLICE;
            assert!(t <= DEADLINE, "no convergence");
            net.run_until(t);
            if net.node_mut::<Host<ControllerApp>>(rootn).app.all_in_sync() {
                return t;
            }
        }
    };
    let t = converge(&mut net, Time::ZERO);
    let app = &mut net.node_mut::<Host<ControllerApp>>(rootn).app;
    assert_eq!(app.fleet_size(), 1000);
    app.set_desired(prio_ops(5)).expect("valid ops");
    converge(&mut net, t);
    let app = &mut net.node_mut::<Host<ControllerApp>>(rootn).app;
    assert_eq!(app.in_sync_hosts(), 1000);
    assert_eq!(app.host_status(AGG_BASE), Some(HostStatus::Up));
}
