//! Unit-test support: one reconciler (the root or an aggregator) at the
//! hub of a star of enclave agents, with a tap on every agent's control
//! endpoint so a test can read the frames a reconciler put on the wire.

use eden_core::{Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use netsim::{LinkSpec, Network, NodeId, Switch, SwitchConfig, Time};
use transport::{app_timer_token, App, HookEnv, HookVerdict, Host, PacketHook, Stack, StackConfig};

use crate::fleet::prio_epoch;
use crate::proto::read_fragment;
use crate::{CtrlConfig, CtrlMsg, EnclaveAgent, TICK};

/// An [`EnclaveAgent`] that keeps every control frame it is sent, and can
/// be told to play dead.
pub(crate) struct Tap {
    pub(crate) agent: EnclaveAgent,
    pub(crate) frames: Vec<Vec<u8>>,
    /// Record frames but neither handle nor answer them.
    pub(crate) mute: bool,
}

impl PacketHook for Tap {
    fn on_egress(&mut self, packet: &mut netsim::Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        self.agent.on_egress(packet, env)
    }

    fn on_ctrl(&mut self, from: u32, frame: &[u8], env: &mut HookEnv<'_>) -> Vec<Vec<u8>> {
        self.frames.push(frame.to_vec());
        if self.mute {
            return Vec::new();
        }
        self.agent.on_ctrl(from, frame, env)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Tap {
    /// `(message id, message tag)` of every message whose first fragment
    /// was recorded, heartbeats left out, in arrival order.
    pub(crate) fn requests(&self) -> Vec<(u32, u8)> {
        let heartbeat = CtrlMsg::Heartbeat { nonce: 0 }.tag();
        let frames = self
            .frames
            .iter()
            .map(|f| read_fragment(f).expect("a control frame"));
        frames
            .filter(|(h, _)| h.idx == 0)
            .map(|(h, chunk)| (h.msg_id, chunk[0]))
            .filter(|&(_, tag)| tag != heartbeat)
            .collect()
    }
}

struct Idle;
impl App for Idle {}

pub(crate) struct Star<A: App> {
    pub(crate) net: Network,
    hub: NodeId,
    leaves: Vec<NodeId>,
    _app: std::marker::PhantomData<A>,
}

/// `app` at address `hub_addr`, ticking, wired through one switch to a
/// tapped agent at each of `leaves`.
pub(crate) fn star<A: App>(hub_addr: u32, app: A, leaves: &[u32], cfg: &CtrlConfig) -> Star<A> {
    let mut net = Network::new(7);
    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let attach = |net: &mut Network, node: NodeId, addr: u32| {
        let (_, port) = net.connect(node, sw, LinkSpec::ten_gbps());
        net.node_mut::<Switch>(sw).install_route(addr, port);
    };
    let leaves = leaves
        .iter()
        .map(|&addr| {
            let mut stack = Stack::new(addr, StackConfig::default());
            stack.set_hook(Tap {
                agent: EnclaveAgent::new(Enclave::new(EnclaveConfig::default())),
                frames: Vec::new(),
                mute: false,
            });
            stack.set_ctrl_port(cfg.ctrl_port);
            let node = net.add_node(Host::new(stack, Idle));
            attach(&mut net, node, addr);
            node
        })
        .collect();
    let hub = net.add_node(Host::new(Stack::new(hub_addr, StackConfig::default()), app));
    attach(&mut net, hub, hub_addr);
    net.schedule_timer(hub, Time::ZERO, app_timer_token(TICK));
    Star {
        net,
        hub,
        leaves,
        _app: std::marker::PhantomData,
    }
}

impl<A: App> Star<A> {
    pub(crate) fn app(&mut self) -> &mut A {
        &mut self.net.node_mut::<Host<A>>(self.hub).app
    }

    pub(crate) fn tap(&mut self, leaf: usize) -> &mut Tap {
        let stack = &mut self.net.node_mut::<Host<Idle>>(self.leaves[leaf]).stack;
        stack.hook_mut::<Tap>().expect("tap installed")
    }

    pub(crate) fn run_ms(&mut self, ms: u64) {
        let until = self.net.now() + Time::from_millis(ms);
        self.net.run_until(until);
    }
}

/// A Reset-led configuration: one function that sets priority `prio`, and
/// one rule per class in `classes`.
pub(crate) fn table_ops(prio: u8, classes: std::ops::Range<u32>) -> Vec<EnclaveOp> {
    let mut ops = prio_epoch(prio);
    ops.pop();
    ops.extend(classes.map(|c| EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(eden_core::ClassId(c)),
        func: 0,
    }));
    ops
}
