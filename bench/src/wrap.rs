//! Pass-through wrappers that record a span at the three trait boundaries
//! the simulated workloads cross: `netsim::Node`, `transport::App` and
//! `transport::PacketHook`. Downcasts are forwarded to the wrapped value,
//! so `Network::node::<Host<_>>` and `Stack::hook_mut::<Enclave>` still
//! find what they look for.

use std::any::Any;

use netsim::{Ctx, Node, NodeEvent, Packet};
use transport::{App, ConnId, HookEnv, HookVerdict, PacketHook, Stack};

use crate::trace::{items, span, Tag};

pub struct TracedNode<N: Node> {
    tag: Tag,
    inner: N,
}

impl<N: Node> TracedNode<N> {
    pub fn new(tag: Tag, inner: N) -> Self {
        TracedNode { tag, inner }
    }
}

impl<N: Node> Node for TracedNode<N> {
    fn on_event(&mut self, event: NodeEvent, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_event(event, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

pub struct TracedApp<A: App> {
    tag: Tag,
    pub inner: A,
}

impl<A: App> TracedApp<A> {
    pub fn new(tag: Tag, inner: A) -> Self {
        TracedApp { tag, inner }
    }
}

impl<A: App> App for TracedApp<A> {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_timer(token, stack, ctx);
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_connected(conn, stack, ctx);
    }

    fn on_accept(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_accept(conn, stack, ctx);
    }

    fn on_data(&mut self, conn: ConnId, bytes: u32, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_data(conn, bytes, stack, ctx);
    }

    fn on_message(
        &mut self,
        conn: ConnId,
        app_tag: u64,
        size: u32,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        let _s = span(self.tag);
        self.inner.on_message(conn, app_tag, size, stack, ctx);
    }

    fn on_peer_closed(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_peer_closed(conn, stack, ctx);
    }

    fn on_closed(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_closed(conn, stack, ctx);
    }

    fn on_raw(&mut self, packet: Packet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let _s = span(self.tag);
        self.inner.on_raw(packet, stack, ctx);
    }
}

pub struct TracedHook<H: PacketHook>(pub H);

impl<H: PacketHook> PacketHook for TracedHook<H> {
    fn on_egress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        let _s = span(Tag::HookEgress);
        items(Tag::HookEgress, 1);
        self.0.on_egress(packet, env)
    }

    fn on_egress_batch(
        &mut self,
        packets: &mut [Packet],
        env: &mut HookEnv<'_>,
        verdicts: &mut Vec<HookVerdict>,
    ) {
        let _s = span(Tag::HookEgressBatch);
        items(Tag::HookEgressBatch, packets.len() as u64);
        self.0.on_egress_batch(packets, env, verdicts);
    }

    fn on_ingress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        let _s = span(Tag::HookIngress);
        self.0.on_ingress(packet, env)
    }

    fn on_ctrl(&mut self, from: u32, frame: &[u8], env: &mut HookEnv<'_>) -> Vec<Vec<u8>> {
        let _s = span(Tag::HookCtrl);
        self.0.on_ctrl(from, frame, env)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::{Enclave, EnclaveConfig};
    use netsim::Network;
    use transport::{Host, StackConfig};

    struct Idle;
    impl App for Idle {}

    #[test]
    fn downcasts_reach_through_the_wrappers() {
        let mut stack = Stack::new(1, StackConfig::default());
        stack.set_hook(TracedHook(Enclave::new(EnclaveConfig::default())));
        assert!(stack.hook_mut::<Enclave>().is_some());

        let mut net = Network::new(1);
        let host = Host::new(stack, TracedApp::new(Tag::App, Idle));
        let id = net.add_node(TracedNode::new(Tag::NodeHost, host));
        assert_eq!(net.node::<Host<TracedApp<Idle>>>(id).stack.addr, 1);
        assert!(net
            .node_mut::<Host<TracedApp<Idle>>>(id)
            .stack
            .hook_mut::<Enclave>()
            .is_some());
    }
}
