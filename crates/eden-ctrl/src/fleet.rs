//! Simulated fleets: the one builder for every control plane the tests,
//! benches and examples drive over `netsim`.
//!
//! Three shapes, one address plan, fixed link speeds:
//!
//! * [`Fleet::flat`] — the leaves and the root on one switch;
//! * [`Fleet::tiered`] — a [`TwoTier`] fabric, one [`AggregatorApp`] per
//!   rack fronting that rack's leaves, the root at the core;
//! * [`Fleet::tiered_virtual`] — the same tree, each aggregator fronting
//!   in-process template children
//!   ([`AggregatorApp::with_virtual_children`]) instead of leaf nodes.
//!
//! Leaves take addresses `1..=hosts` in rack order, rack `r`'s aggregator
//! [`AGG_BASE`]` + r` and the root [`ROOT_ADDR`]. Every leaf is an
//! [`EnclaveAgent::new_with_addr`], so span ids stay distinct per host.
//! Access links are 10 Gb/s, uplinks and the root's core link 40 Gb/s.
//! The order nodes are created and timers scheduled in is part of every
//! pinned number built on a fleet; the unit tests below hold it.

use std::ops::Range;

use eden_core::{Controller, Enclave, EnclaveConfig, EnclaveOp};
use eden_lang::{Access, HeaderField, Schema};
use netsim::{LinkId, LinkSpec, Network, NodeId, Switch, SwitchConfig, Time, TwoTier};
use transport::{app_timer_token, App, Host, Stack, StackConfig};

use crate::{AggConfig, AggregatorApp, ControllerApp, CtrlConfig, EnclaveAgent, TICK};

/// The root controller's address.
pub const ROOT_ADDR: u32 = 1_000_000;
/// Rack `r`'s aggregator sits at `AGG_BASE + r`.
pub const AGG_BASE: u32 = 500_000;

/// Leaf hosts run no application: the agent on the hook does the talking.
struct Idle;
impl App for Idle {}

struct Rack {
    agg: NodeId,
    uplink: LinkId,
}

/// A root controller, its leaves and (tiered) its aggregators on one
/// simulated network, the root's tick already scheduled.
pub struct Fleet {
    pub net: Network,
    root: NodeId,
    root_link: LinkId,
    /// Each leaf's node and access link, in address order.
    leaves: Vec<(NodeId, LinkId)>,
    racks: Vec<Rack>,
}

impl Fleet {
    /// `hosts` leaves and the root on one switch; the root manages every
    /// leaf directly.
    pub fn flat(seed: u64, hosts: usize, ctrl: CtrlConfig, enclave: EnclaveConfig) -> Fleet {
        let mut net = Network::new(seed);
        let sw = net.add_node(Switch::new(SwitchConfig::default()));
        let attach = |net: &mut Network, node: NodeId, addr: u32| {
            let (port, sw_port) = net.connect(node, sw, LinkSpec::ten_gbps());
            net.node_mut::<Switch>(sw).install_route(addr, sw_port);
            net.port_link(node, port).0
        };
        let addrs: Vec<u32> = (1..=hosts as u32).collect();
        let leaves = addrs
            .iter()
            .map(|&addr| {
                let node = net.add_node(leaf(addr, &ctrl, enclave));
                (node, attach(&mut net, node, addr))
            })
            .collect();
        let root = net.add_node(Host::new(
            Stack::new(ROOT_ADDR, StackConfig::default()),
            ControllerApp::new(ctrl, &addrs),
        ));
        let root_link = attach(&mut net, root, ROOT_ADDR);
        net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));
        Fleet {
            net,
            root,
            root_link,
            leaves,
            racks: Vec::new(),
        }
    }

    /// `hosts` leaves over `racks` racks, the remainder on the first
    /// racks, one aggregator per rack and the root at the core.
    pub fn tiered(
        seed: u64,
        hosts: usize,
        racks: usize,
        ctrl: CtrlConfig,
        enclave: EnclaveConfig,
    ) -> Fleet {
        Fleet::tree(seed, hosts, racks, ctrl, enclave, false)
    }

    /// [`tiered`](Self::tiered) with no leaf nodes: each aggregator
    /// fronts its rack's share of `hosts` as virtual children on one
    /// template enclave sized by `enclave`.
    pub fn tiered_virtual(
        seed: u64,
        hosts: usize,
        racks: usize,
        ctrl: CtrlConfig,
        enclave: EnclaveConfig,
    ) -> Fleet {
        Fleet::tree(seed, hosts, racks, ctrl, enclave, true)
    }

    fn tree(
        seed: u64,
        hosts: usize,
        racks: usize,
        ctrl: CtrlConfig,
        enclave: EnclaveConfig,
        virtual_leaves: bool,
    ) -> Fleet {
        let mut net = Network::new(seed);
        let topo = TwoTier::build(&mut net, racks, LinkSpec::forty_gbps());
        let mut root_app = ControllerApp::new(ctrl.clone(), &[]);
        let mut leaves = Vec::new();
        let mut rack_nodes = Vec::new();
        for (rack, share) in rack_shares(hosts, racks).enumerate() {
            let children: Vec<u32> = share.map(|i| i as u32 + 1).collect();
            let agg_cfg = AggConfig { ctrl: ctrl.clone() };
            let app = if virtual_leaves {
                AggregatorApp::with_virtual_children(agg_cfg, children.len(), enclave)
            } else {
                for &addr in &children {
                    let node = net.add_node(leaf(addr, &ctrl, enclave));
                    let link = topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps());
                    leaves.push((node, link));
                }
                AggregatorApp::new(agg_cfg, &children)
            };
            let addr = AGG_BASE + rack as u32;
            let agg = net.add_node(Host::new(Stack::new(addr, StackConfig::default()), app));
            topo.attach(&mut net, rack, agg, addr, LinkSpec::ten_gbps());
            net.schedule_timer(agg, Time::ZERO, app_timer_token(TICK));
            root_app.manage_aggregator(addr, children);
            rack_nodes.push(Rack {
                agg,
                uplink: topo.racks[rack].uplink,
            });
        }
        let root = net.add_node(Host::new(
            Stack::new(ROOT_ADDR, StackConfig::default()),
            root_app,
        ));
        let root_link = topo.attach_core(&mut net, root, ROOT_ADDR, LinkSpec::forty_gbps());
        net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));
        Fleet {
            net,
            root,
            root_link,
            leaves,
            racks: rack_nodes,
        }
    }

    /// The root controller.
    pub fn root(&mut self) -> &mut ControllerApp {
        &mut self.net.node_mut::<Host<ControllerApp>>(self.root).app
    }

    /// The root's access link (impair it to impair exactly the root's
    /// control channel).
    pub fn root_link(&self) -> LinkId {
        self.root_link
    }

    /// Leaf `i`'s agent (leaf `i` has address `i + 1`).
    pub fn agent(&mut self, i: usize) -> &mut EnclaveAgent {
        let stack = &mut self.net.node_mut::<Host<Idle>>(self.leaves[i].0).stack;
        stack.hook_mut().expect("every leaf runs an agent")
    }

    /// Leaf `i`'s enclave.
    pub fn enclave(&mut self, i: usize) -> &mut Enclave {
        self.agent(i).enclave_mut()
    }

    /// Leaf `i`'s access link.
    pub fn leaf_link(&self, i: usize) -> LinkId {
        self.leaves[i].1
    }

    /// Rack `rack`'s aggregator.
    pub fn aggregator(&mut self, rack: usize) -> &mut AggregatorApp {
        &mut self
            .net
            .node_mut::<Host<AggregatorApp>>(self.racks[rack].agg)
            .app
    }

    /// Rack `rack`'s uplink into the core.
    pub fn uplink(&self, rack: usize) -> LinkId {
        self.racks[rack].uplink
    }

    /// Step the network `slice` at a time from `t` until `done` holds on
    /// the root, and return that slice's end. Panics past `deadline`.
    pub fn run_until(
        &mut self,
        mut t: Time,
        slice: Time,
        deadline: Time,
        done: impl Fn(&ControllerApp) -> bool,
    ) -> Time {
        loop {
            t += slice;
            assert!(
                t <= deadline,
                "no convergence by {deadline:?}: {}/{} hosts in sync",
                self.root().in_sync_hosts(),
                self.root().fleet_size()
            );
            self.net.run_until(t);
            if done(self.root()) {
                return t;
            }
        }
    }
}

/// A leaf host: an agent on `enclave`, the control endpoint open.
fn leaf(addr: u32, ctrl: &CtrlConfig, enclave: EnclaveConfig) -> Host<Idle> {
    let mut stack = Stack::new(addr, StackConfig::default());
    stack.set_hook(EnclaveAgent::new_with_addr(addr, Enclave::new(enclave)));
    stack.set_ctrl_port(ctrl.ctrl_port);
    Host::new(stack, Idle)
}

/// Leaf indices per rack: `hosts / racks` each, one more on each of the
/// first `hosts % racks` racks.
fn rack_shares(hosts: usize, racks: usize) -> impl Iterator<Item = Range<usize>> {
    let mut next = 0;
    (0..racks).map(move |rack| {
        let share = hosts / racks + usize::from(rack < hosts % racks);
        next += share;
        next - share..next
    })
}

/// The fixed-priority desired state the fleet scenarios push: every
/// packet leaves with priority `prio`.
pub fn prio_epoch(prio: u8) -> Vec<EnclaveOp> {
    let schema =
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
    let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
    Controller::new()
        .plan_epoch("set_prio", &source, &schema)
        .expect("compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node in creation order: `('s', 0)` for a switch, else the
    /// host's role (leaf, aggregator, root) and address.
    fn layout(fleet: &Fleet) -> Vec<(char, u32)> {
        let net = &fleet.net;
        (0..=fleet.root.0)
            .map(NodeId)
            .map(|id| {
                if net.try_node::<Switch>(id).is_some() {
                    ('s', 0)
                } else if let Some(h) = net.try_node::<Host<Idle>>(id) {
                    ('l', h.stack.addr)
                } else if let Some(h) = net.try_node::<Host<AggregatorApp>>(id) {
                    ('a', h.stack.addr)
                } else {
                    ('r', net.node::<Host<ControllerApp>>(id).stack.addr)
                }
            })
            .collect()
    }

    fn links(fleet: &Fleet, leaves: usize) -> Vec<usize> {
        let mut ids: Vec<_> = (0..leaves).map(|i| fleet.leaf_link(i).0).collect();
        ids.extend(fleet.racks.iter().map(|r| r.uplink.0));
        ids.push(fleet.root_link().0);
        ids
    }

    #[test]
    fn flat_plan_and_creation_order() {
        let mut fleet = Fleet::flat(1, 3, CtrlConfig::default(), EnclaveConfig::default());
        let want = [('s', 0), ('l', 1), ('l', 2), ('l', 3), ('r', ROOT_ADDR)];
        assert_eq!(layout(&fleet), want);
        assert_eq!(links(&fleet, 3), [0, 1, 2, 3]);
        assert_eq!(fleet.net.pending_events(), 1, "the root's first tick");
        let root = fleet.root();
        assert_eq!(root.fleet_size(), 3);
        assert!((1..=3).all(|addr| root.host_status(addr).is_some()));
    }

    #[test]
    fn tiered_plan_and_creation_order() {
        let mut fleet = Fleet::tiered(1, 5, 2, CtrlConfig::default(), EnclaveConfig::default());
        let want = [
            ('s', 0), // core
            ('s', 0), // rack 0's ToR
            ('s', 0),
            ('l', 1),
            ('l', 2),
            ('l', 3),
            ('a', AGG_BASE),
            ('l', 4),
            ('l', 5),
            ('a', AGG_BASE + 1),
            ('r', ROOT_ADDR),
        ];
        assert_eq!(layout(&fleet), want);
        // uplinks first, then each rack's leaves and aggregator, the root last
        assert_eq!(links(&fleet, 5), [2, 3, 4, 6, 7, 0, 1, 9]);
        assert_eq!(fleet.net.pending_events(), 3, "two aggregators, the root");
        assert_eq!(
            fleet.root().host_status(1),
            None,
            "leaves sit behind a rack"
        );
        assert!(fleet.root().host_status(AGG_BASE + 1).is_some());
        assert_eq!(fleet.root().fleet_size(), 5);
    }

    #[test]
    fn virtual_tiers_create_no_leaf_nodes() {
        let mut fleet =
            Fleet::tiered_virtual(1, 5, 2, CtrlConfig::default(), EnclaveConfig::default());
        let want = [
            ('s', 0),
            ('s', 0),
            ('s', 0),
            ('a', AGG_BASE),
            ('a', AGG_BASE + 1),
            ('r', ROOT_ADDR),
        ];
        assert_eq!(layout(&fleet), want);
        assert_eq!(links(&fleet, 0), [0, 1, 4]);
        assert_eq!(fleet.root().fleet_size(), 5);
        assert_eq!(fleet.aggregator(0).shard_size(), 3);
    }

    #[test]
    fn the_remainder_goes_to_the_first_racks() {
        let shares: Vec<_> = rack_shares(10, 3).collect();
        assert_eq!(shares, [0..4, 4..7, 7..10]);
        let mut fleet = Fleet::tiered(1, 10, 3, CtrlConfig::default(), EnclaveConfig::default());
        let sizes: Vec<_> = (0..3).map(|r| fleet.aggregator(r).shard_size()).collect();
        assert_eq!(sizes, [4, 3, 3]);
        assert_eq!(
            layout(&fleet)[4..9],
            [('l', 1), ('l', 2), ('l', 3), ('l', 4), ('a', AGG_BASE)]
        );
    }
}
