//! The network: nodes, links, and the event loop.

use crate::event::EventQueue;
use crate::node::{Action, Ctx, Node, NodeEvent};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::stats::LinkStats;
use crate::time::Time;

/// Index of a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a port *within one node* (assigned in connect order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Index of a link in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Physical properties of a full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Rate in bits per second (each direction).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: Time,
    /// Maximum IPv4 total length accepted (typical 1500).
    pub mtu: usize,
}

impl LinkSpec {
    /// 10 Gbps, 1 µs propagation, 1500 B MTU — the paper's testbed links.
    pub fn ten_gbps() -> LinkSpec {
        LinkSpec {
            rate_bps: 10_000_000_000,
            propagation: Time::from_micros(1),
            mtu: 1500,
        }
    }

    /// 1 Gbps, 1 µs propagation, 1500 B MTU — the slow path in Figure 1 and
    /// the storage link of case study 3.
    pub fn one_gbps() -> LinkSpec {
        LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: Time::from_micros(1),
            mtu: 1500,
        }
    }

    /// 40 Gbps aggregation link.
    pub fn forty_gbps() -> LinkSpec {
        LinkSpec {
            rate_bps: 40_000_000_000,
            propagation: Time::from_micros(1),
            mtu: 1500,
        }
    }
}

/// One endpoint of a link.
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    node: NodeId,
    port: PortId,
}

/// Injected link impairments (both directions), for partition and
/// loss experiments. All default to "healthy".
#[derive(Debug, Clone, Copy, Default)]
struct Impairment {
    /// Link is administratively down: every frame is lost.
    down: bool,
    /// Random loss probability in permille (0..=1000).
    loss_permille: u32,
    /// Extra per-frame delay drawn uniformly from `[0, jitter]`; enough
    /// to reorder back-to-back frames when it exceeds a serialization
    /// time.
    jitter: Time,
}

struct Link {
    ends: [Endpoint; 2],
    spec: LinkSpec,
    /// Per direction (indexed by sender side 0/1): when the sender's
    /// serializer frees up.
    busy_until: [Time; 2],
    stats: [LinkStats; 2],
    impair: Impairment,
}

/// A port's view: which link it attaches to and which side it is.
#[derive(Debug, Clone, Copy)]
struct PortRef {
    link: LinkId,
    side: usize,
}

enum Ev {
    Node { node: NodeId, event: NodeEvent },
}

/// The simulated network: topology + event loop.
///
/// ```
/// use netsim::{Network, LinkSpec, Switch, SwitchConfig};
///
/// let mut net = Network::new(42);
/// let s = net.add_node(Switch::new(SwitchConfig::default()));
/// // hosts come from the `transport` crate; see its docs
/// # let _ = s;
/// ```
pub struct Network {
    queue: EventQueue<Ev>,
    nodes: Vec<Box<dyn Node>>,
    ports: Vec<Vec<PortRef>>,
    /// Link rate of each node's ports, bits/second, recorded as
    /// [`connect`](Self::connect) attaches them: what a [`Ctx`] shows its
    /// node.
    port_rates: Vec<Vec<u64>>,
    links: Vec<Link>,
    rng: SimRng,
    packet_seq: u64,
    events_processed: u64,
    /// Scratch buffer reused across dispatches.
    actions: Vec<Action>,
}

impl Network {
    /// Empty network with a deterministic seed.
    pub fn new(seed: u64) -> Network {
        Network {
            queue: EventQueue::new(),
            nodes: Vec::new(),
            ports: Vec::new(),
            port_rates: Vec::new(),
            links: Vec::new(),
            rng: SimRng::new(seed),
            packet_seq: 1,
            events_processed: 0,
            actions: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events scheduled and not yet dispatched: packets in flight,
    /// transmit completions and timers.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        self.nodes.push(Box::new(node));
        self.ports.push(Vec::new());
        self.port_rates.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Connect two nodes with a full-duplex link; returns the new port id on
    /// each side (in argument order).
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        let link = LinkId(self.links.len());
        let pa = PortId(self.ports[a.0].len());
        let pb = PortId(self.ports[b.0].len());
        self.links.push(Link {
            ends: [
                Endpoint { node: a, port: pa },
                Endpoint { node: b, port: pb },
            ],
            spec,
            busy_until: [Time::ZERO; 2],
            stats: [LinkStats::default(); 2],
            impair: Impairment::default(),
        });
        self.ports[a.0].push(PortRef { link, side: 0 });
        self.ports[b.0].push(PortRef { link, side: 1 });
        self.port_rates[a.0].push(spec.rate_bps);
        self.port_rates[b.0].push(spec.rate_bps);
        (pa, pb)
    }

    /// Schedule a timer for `node` at absolute time `at` (used to kick off
    /// applications before the loop starts).
    pub fn schedule_timer(&mut self, node: NodeId, at: Time, token: u64) {
        self.queue.schedule(
            at,
            Ev::Node {
                node,
                event: NodeEvent::Timer { token },
            },
        );
    }

    /// Borrow a node downcast to its concrete type (for configuration and
    /// post-run stats collection).
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0]
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node downcast to its concrete type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Like [`node`](Self::node), but `None` on a type mismatch.
    pub fn try_node<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0].as_any().downcast_ref::<T>()
    }

    /// Like [`node_mut`](Self::node_mut), but `None` on a type mismatch.
    pub fn try_node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0].as_any_mut().downcast_mut::<T>()
    }

    /// Per-direction stats of `link`: index 0 is the a→b direction of the
    /// original [`connect`](Self::connect) call.
    pub fn link_stats(&self, link: LinkId) -> [LinkStats; 2] {
        self.links[link.0].stats
    }

    /// The link attached to `(node, port)` and which side the node is.
    pub fn port_link(&self, node: NodeId, port: PortId) -> (LinkId, usize) {
        let pr = self.ports[node.0][port.0];
        (pr.link, pr.side)
    }

    /// Take `link` down (`true`) or bring it back up (`false`). While
    /// down every frame in both directions is lost — a clean partition.
    /// Senders still pay serialization time, exactly as with a dead
    /// physical peer.
    pub fn set_link_down(&mut self, link: LinkId, down: bool) {
        self.links[link.0].impair.down = down;
    }

    /// Set random loss on `link` (both directions), in permille
    /// (`0..=1000`). Loss draws come from the simulation RNG, so runs
    /// stay deterministic per seed.
    pub fn set_link_loss_permille(&mut self, link: LinkId, permille: u32) {
        assert!(permille <= 1000, "loss is permille, 0..=1000");
        self.links[link.0].impair.loss_permille = permille;
    }

    /// Add uniform `[0, jitter]` extra delay per frame on `link` (both
    /// directions). A jitter larger than a serialization time reorders
    /// back-to-back frames.
    pub fn set_link_jitter(&mut self, link: LinkId, jitter: Time) {
        self.links[link.0].impair.jitter = jitter;
    }

    /// Run until the event queue is empty or `limit` is reached.
    pub fn run_until(&mut self, limit: Time) {
        while let Some(next) = self.queue.peek_time() {
            if next > limit {
                break;
            }
            let (_, ev) = self.queue.pop().expect("peeked");
            self.dispatch(ev);
        }
    }

    /// Run until the event queue is fully drained.
    pub fn run_to_completion(&mut self) {
        while let Some((_, ev)) = self.queue.pop() {
            self.dispatch(ev);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        let Ev::Node { node, event } = ev;
        self.events_processed += 1;

        debug_assert!(self.actions.is_empty());
        let mut ctx = Ctx {
            now: self.queue.now(),
            rng: &mut self.rng,
            actions: &mut self.actions,
            port_rates: &self.port_rates[node.0],
        };
        self.nodes[node.0].on_event(event, &mut ctx);

        // Apply deferred actions.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Timer { at, token } => {
                    self.queue.schedule(
                        at,
                        Ev::Node {
                            node,
                            event: NodeEvent::Timer { token },
                        },
                    );
                }
                Action::StartTx { port, packet } => self.start_tx(node, port, packet),
            }
        }
        self.actions = actions;
    }

    fn start_tx(&mut self, node: NodeId, port: PortId, mut packet: Box<Packet>) {
        let now = self.queue.now();
        let pr = self.ports[node.0][port.0];
        let link = &mut self.links[pr.link.0];
        assert!(
            (packet.ip.total_length as usize) <= link.spec.mtu,
            "packet of {}B exceeds link MTU {} (node {:?} port {:?})",
            packet.ip.total_length,
            link.spec.mtu,
            node,
            port
        );
        assert!(
            now >= link.busy_until[pr.side],
            "start_tx on busy port (node {node:?} port {port:?}): now {now}, busy until {}",
            link.busy_until[pr.side]
        );

        if packet.id == 0 {
            packet.id = self.packet_seq;
            self.packet_seq += 1;
        }
        if packet.sent_at == Time::ZERO {
            packet.sent_at = now;
        }

        let ser = Time::serialization(packet.wire_len(), link.spec.rate_bps);
        let done = now + ser;
        let mut arrive = done + link.spec.propagation;
        link.busy_until[pr.side] = done;
        link.stats[pr.side].packets += 1;
        link.stats[pr.side].bytes += packet.wire_len() as u64;

        // Injected impairments. RNG draws happen only on impaired links,
        // so healthy-network traces are byte-identical with or without
        // this feature.
        let impair = link.impair;
        let peer = link.ends[1 - pr.side];
        let lost = impair.down
            || (impair.loss_permille > 0 && self.rng.below(1000) < impair.loss_permille as u64);
        if !lost && impair.jitter > Time::ZERO {
            arrive += Time::from_nanos(self.rng.below(impair.jitter.as_nanos() + 1));
        }
        self.queue.schedule(
            done,
            Ev::Node {
                node,
                event: NodeEvent::TxDone { port },
            },
        );
        if lost {
            self.links[pr.link.0].stats[pr.side].dropped += 1;
            return;
        }
        self.queue.schedule(
            arrive,
            Ev::Node {
                node: peer.node,
                event: NodeEvent::Packet {
                    port: peer.port,
                    packet,
                },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, TcpHeader};
    use std::any::Any;

    /// Test node: echoes received packets back out the same port after
    /// `TxDone`-aware queueing, and records arrivals.
    #[derive(Default)]
    struct Recorder {
        received: Vec<(Time, Packet)>,
        to_send: Vec<Packet>,
        port_busy: bool,
    }

    impl Node for Recorder {
        fn on_event(&mut self, event: NodeEvent, ctx: &mut Ctx<'_>) {
            match event {
                NodeEvent::Packet { packet, .. } => {
                    self.received.push((ctx.now(), *packet));
                }
                NodeEvent::Timer { .. } => {
                    if !self.port_busy {
                        if let Some(p) = self.to_send.pop() {
                            ctx.start_tx(PortId(0), Box::new(p));
                            self.port_busy = true;
                        }
                    }
                }
                NodeEvent::TxDone { .. } => {
                    self.port_busy = false;
                    if let Some(p) = self.to_send.pop() {
                        ctx.start_tx(PortId(0), Box::new(p));
                        self.port_busy = true;
                    }
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

    fn pkt(payload: usize) -> Packet {
        Packet::tcp(1, 2, TcpHeader::default(), payload)
    }

    #[test]
    fn packet_takes_serialization_plus_propagation() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());

        net.node_mut::<Recorder>(a).to_send.push(pkt(1460)); // 1500B IP
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();

        let rec = &net.node::<Recorder>(b).received;
        assert_eq!(rec.len(), 1);
        // wire = 14 + 1500 = 1514B; at 10G that is 1211.2 -> 1212ns; + 1us prop
        let expect = Time::serialization(1514, 10_000_000_000) + Time::from_micros(1);
        assert_eq!(rec[0].0, expect);
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::one_gbps());

        for _ in 0..3 {
            net.node_mut::<Recorder>(a).to_send.push(pkt(960)); // 1000B IP, 1014B wire
        }
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();

        let rec = &net.node::<Recorder>(b).received;
        assert_eq!(rec.len(), 3);
        let ser = Time::serialization(1014, 1_000_000_000);
        assert_eq!(rec[1].0 - rec[0].0, ser);
        assert_eq!(rec[2].0 - rec[1].0, ser);
    }

    #[test]
    fn packet_ids_are_unique() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        for _ in 0..5 {
            net.node_mut::<Recorder>(a).to_send.push(pkt(100));
        }
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
        let mut ids: Vec<u64> = net
            .node::<Recorder>(b)
            .received
            .iter()
            .map(|(_, p)| p.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn link_stats_count_tx() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        net.node_mut::<Recorder>(a).to_send.push(pkt(100));
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
        let stats = net.link_stats(LinkId(0));
        assert_eq!(stats[0].packets, 1);
        assert_eq!(stats[0].bytes, 14 + 140);
        assert_eq!(stats[1].packets, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds link MTU")]
    fn mtu_enforced() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        net.node_mut::<Recorder>(a).to_send.push(pkt(2000));
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
    }

    #[test]
    fn down_link_loses_everything_but_counts_tx() {
        let mut net = Network::new(0);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        net.set_link_down(LinkId(0), true);
        for _ in 0..4 {
            net.node_mut::<Recorder>(a).to_send.push(pkt(100));
        }
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
        assert!(net.node::<Recorder>(b).received.is_empty());
        let stats = net.link_stats(LinkId(0));
        assert_eq!(stats[0].packets, 4, "sender still paid serialization");
        assert_eq!(stats[0].dropped, 4);

        // Heal and resend: traffic flows again.
        net.set_link_down(LinkId(0), false);
        net.node_mut::<Recorder>(a).to_send.push(pkt(100));
        net.schedule_timer(a, net.now() + Time::from_micros(1), 0);
        net.run_to_completion();
        assert_eq!(net.node::<Recorder>(b).received.len(), 1);
    }

    #[test]
    fn random_loss_drops_roughly_the_configured_fraction() {
        let mut net = Network::new(11);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        net.set_link_loss_permille(LinkId(0), 300);
        for _ in 0..1000 {
            net.node_mut::<Recorder>(a).to_send.push(pkt(100));
        }
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
        let dropped = net.link_stats(LinkId(0))[0].dropped;
        assert!(
            (200..400).contains(&dropped),
            "30% loss over 1000 frames, got {dropped}"
        );
        assert_eq!(
            net.node::<Recorder>(b).received.len(),
            1000 - dropped as usize
        );
    }

    #[test]
    fn jitter_can_reorder_back_to_back_frames() {
        let mut net = Network::new(3);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.connect(a, b, LinkSpec::ten_gbps());
        // 100B payload serializes in ~0.1us; 50us jitter dwarfs it.
        net.set_link_jitter(LinkId(0), Time::from_micros(50));
        for i in 0..20 {
            net.node_mut::<Recorder>(a).to_send.push(pkt(100 + i));
        }
        net.schedule_timer(a, Time::ZERO, 0);
        net.run_to_completion();
        let rec = &net.node::<Recorder>(b).received;
        assert_eq!(rec.len(), 20, "jitter never loses frames");
        let ids: Vec<u64> = rec.iter().map(|(_, p)| p.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_ne!(ids, sorted, "expected at least one reordering");
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            let mut net = Network::new(seed);
            let a = net.add_node(Recorder::default());
            let b = net.add_node(Recorder::default());
            net.connect(a, b, LinkSpec::ten_gbps());
            for i in 0..10 {
                net.node_mut::<Recorder>(a).to_send.push(pkt(100 + i * 10));
            }
            net.schedule_timer(a, Time::ZERO, 0);
            net.run_to_completion();
            net.node::<Recorder>(b)
                .received
                .iter()
                .map(|(t, p)| (t.as_nanos(), p.ip.total_length))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}
