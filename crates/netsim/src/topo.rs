//! Multi-tier topology builders.
//!
//! The flat benchmarks hang every host off one switch; a scaled control
//! plane wants the datacenter shape the paper assumes — racks of hosts
//! behind top-of-rack switches, ToRs uplinked to a core tier. Building
//! that by hand means threading three port ids per attachment through
//! two routing tables; [`TwoTier`] owns that bookkeeping.
//!
//! The helper only wires [`Switch`] nodes and routes; hosts stay the
//! caller's business (netsim knows nothing about transport stacks).
//! Typical use:
//!
//! ```ignore
//! let mut net = Network::new(seed);
//! let topo = TwoTier::build(&mut net, racks, LinkSpec::forty_gbps());
//! let root = net.add_node(/* controller host */);
//! topo.attach_core(&mut net, root, CTRL_ADDR, LinkSpec::ten_gbps());
//! for (rack, agg) in aggs.iter().enumerate() {
//!     topo.attach(&mut net, rack, *agg_node, agg_addr, LinkSpec::ten_gbps());
//! }
//! ```

use crate::net::{LinkId, LinkSpec, Network, NodeId, PortId};
use crate::switch::{Switch, SwitchConfig};

/// One top-of-rack switch and its uplink into the core.
#[derive(Debug, Clone, Copy)]
pub struct Rack {
    /// The ToR switch node.
    pub switch: NodeId,
    /// The rack↔core link (impair it to partition the whole rack).
    pub uplink: LinkId,
    /// Core-side port of the uplink (routes *down* to this rack).
    core_port: PortId,
    /// Rack-side port of the uplink (routes *up* out of this rack).
    uplink_port: PortId,
}

/// A core switch over a row of top-of-rack switches, with route
/// bookkeeping for attaching hosts at either tier.
#[derive(Debug, Clone)]
pub struct TwoTier {
    /// The core switch node.
    pub core: NodeId,
    pub racks: Vec<Rack>,
}

impl TwoTier {
    /// A core switch with `racks` ToR switches uplinked to it by
    /// `uplink` links. Switches use the default config.
    pub fn build(net: &mut Network, racks: usize, uplink: LinkSpec) -> TwoTier {
        let core = net.add_node(Switch::new(SwitchConfig::default()));
        let racks = (0..racks)
            .map(|_| {
                let switch = net.add_node(Switch::new(SwitchConfig::default()));
                let (rack_side, core_side) = net.connect(switch, core, uplink);
                Rack {
                    switch,
                    uplink: net.port_link(switch, rack_side).0,
                    core_port: core_side,
                    uplink_port: rack_side,
                }
            })
            .collect();
        TwoTier { core, racks }
    }

    /// Attach a host to `rack` and make `addr` reachable fleet-wide:
    /// the ToR routes it to the host's port, the core routes it down
    /// this rack's uplink, and every *other* ToR routes it up toward
    /// the core. Returns the host's access link.
    pub fn attach(
        &self,
        net: &mut Network,
        rack: usize,
        node: NodeId,
        addr: u32,
        spec: LinkSpec,
    ) -> LinkId {
        let r = self.racks[rack];
        let (host_port, tor_port) = net.connect(node, r.switch, spec);
        net.node_mut::<Switch>(r.switch)
            .install_route(addr, tor_port);
        net.node_mut::<Switch>(self.core)
            .install_route(addr, r.core_port);
        for (i, other) in self.racks.iter().enumerate() {
            if i != rack {
                net.node_mut::<Switch>(other.switch)
                    .install_route(addr, other.uplink_port);
            }
        }
        net.port_link(node, host_port).0
    }

    /// Attach a host directly to the core (the natural seat for a root
    /// controller) and route `addr` to it from every rack. Returns the
    /// host's access link.
    pub fn attach_core(
        &self,
        net: &mut Network,
        node: NodeId,
        addr: u32,
        spec: LinkSpec,
    ) -> LinkId {
        let (host_port, core_port) = net.connect(node, self.core, spec);
        net.node_mut::<Switch>(self.core)
            .install_route(addr, core_port);
        for r in &self.racks {
            net.node_mut::<Switch>(r.switch)
                .install_route(addr, r.uplink_port);
        }
        net.port_link(node, host_port).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Ctx, Node, NodeEvent};
    use crate::packet::{Packet, TcpHeader};
    use crate::time::Time;
    use std::any::Any;

    /// Sink that counts deliveries and can echo to a fixed peer.
    struct Probe {
        addr: u32,
        got: u64,
    }

    impl Node for Probe {
        fn on_event(&mut self, event: NodeEvent, _ctx: &mut Ctx<'_>) {
            if let NodeEvent::Packet { packet, .. } = event {
                if packet.ip.dst == self.addr {
                    self.got += 1;
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Source that fires one packet at t=0 via a timer.
    struct Shot {
        src: u32,
        dst: u32,
    }

    impl Node for Shot {
        fn on_event(&mut self, event: NodeEvent, ctx: &mut Ctx<'_>) {
            if let NodeEvent::Timer { .. } = event {
                let p = Packet::tcp(self.src, self.dst, TcpHeader::default(), 100);
                ctx.start_tx(PortId(0), Box::new(p));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cross_rack_and_core_paths_route() {
        let mut net = Network::new(1);
        let topo = TwoTier::build(&mut net, 3, LinkSpec::forty_gbps());

        // probes: one per rack + one at the core
        let mut probes = Vec::new();
        for rack in 0..3 {
            let addr = 10 + rack as u32;
            let node = net.add_node(Probe { addr, got: 0 });
            topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps());
            probes.push((node, addr));
        }
        let core_probe = net.add_node(Probe { addr: 99, got: 0 });
        topo.attach_core(&mut net, core_probe, 99, LinkSpec::ten_gbps());

        // shooters exercising every path class: intra-core→rack,
        // rack→core, rack→cross-rack
        let shooters = [(0usize, 12u32), (1, 99), (2, 10)];
        for &(rack, dst) in &shooters {
            let node = net.add_node(Shot {
                src: 200 + dst,
                dst,
            });
            topo.attach(&mut net, rack, node, 200 + dst, LinkSpec::ten_gbps());
            net.schedule_timer(node, Time::ZERO, 1);
        }
        let core_shot = net.add_node(Shot { src: 98, dst: 11 });
        topo.attach_core(&mut net, core_shot, 98, LinkSpec::ten_gbps());
        net.schedule_timer(core_shot, Time::ZERO, 1);

        net.run_until(Time::from_millis(10));

        assert_eq!(net.node::<Probe>(core_probe).got, 1, "rack→core");
        assert_eq!(net.node::<Probe>(probes[2].0).got, 1, "core-host→rack");
        assert_eq!(net.node::<Probe>(probes[0].0).got, 1, "cross-rack");
        assert_eq!(net.node::<Probe>(probes[1].0).got, 1, "core→rack");
        for r in &topo.racks {
            assert_eq!(net.node::<Switch>(r.switch).unroutable, 0);
        }
        assert_eq!(net.node::<Switch>(topo.core).unroutable, 0);
    }

    #[test]
    fn rack_uplink_partitions_exactly_one_rack() {
        let mut net = Network::new(2);
        let topo = TwoTier::build(&mut net, 2, LinkSpec::forty_gbps());
        let a = net.add_node(Probe { addr: 10, got: 0 });
        topo.attach(&mut net, 0, a, 10, LinkSpec::ten_gbps());
        let b = net.add_node(Probe { addr: 11, got: 0 });
        topo.attach(&mut net, 1, b, 11, LinkSpec::ten_gbps());

        net.set_link_down(topo.racks[0].uplink, true);

        for (dst, addr) in [(10u32, 90u32), (11, 91)] {
            let node = net.add_node(Shot { src: addr, dst });
            topo.attach_core(&mut net, node, addr, LinkSpec::ten_gbps());
            net.schedule_timer(node, Time::ZERO, 1);
        }
        net.run_until(Time::from_millis(10));

        assert_eq!(net.node::<Probe>(a).got, 0, "rack 0 is cut off");
        assert_eq!(net.node::<Probe>(b).got, 1, "rack 1 unaffected");
    }
}
