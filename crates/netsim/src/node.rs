//! The node abstraction: anything attached to the fabric.
//!
//! Switches (this crate), hosts (the `transport` crate), and test fixtures
//! all implement [`Node`]. A node reacts to three event kinds — packet
//! arrival, transmit-complete on one of its ports, and its own timers — and
//! influences the world only through [`Ctx`], which defers the effects until
//! the handler returns (so the network structure is never aliased while a
//! node runs).

use std::any::Any;

use crate::net::PortId;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::Time;

/// Events delivered to a node.
///
/// A packet in flight is a handle: it is boxed once, where it enters its
/// first queue on the sending host, forwarded by every switch as eight
/// bytes and freed by the node that consumes it. By value, a 208-byte
/// `Packet` was moved about sixteen times between one host's TCP and
/// another's — out of the event slab, through `dispatch`, the switch, its
/// port queue and back into the slab at every hop — and that `memmove`
/// was 17.9 % of the samples of a `fullstack` run, against 2.1 % for the
/// allocator; boxed, the copy reads 4.5 % and the allocator 4.3 % of a
/// shorter run (EXPERIMENTS.md, PR 24). `event.rs` pins the size, so a
/// by-value packet cannot creep back.
#[derive(Debug)]
pub enum NodeEvent {
    /// A packet finished arriving on `port`.
    Packet { port: PortId, packet: Box<Packet> },
    /// The transmission started earlier on `port` has left the NIC; the
    /// port is idle again and the node may start the next one.
    TxDone { port: PortId },
    /// A timer set via [`Ctx::timer_at`]/[`Ctx::timer_in`] fired.
    Timer { token: u64 },
}

/// Deferred effects a node requests during an event handler.
#[derive(Debug)]
pub(crate) enum Action {
    StartTx { port: PortId, packet: Box<Packet> },
    Timer { at: Time, token: u64 },
}

/// Per-dispatch context handed to [`Node::on_event`].
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) actions: &'a mut Vec<Action>,
    /// Link rate of each of this node's ports, bits/second.
    pub(crate) port_rates: &'a [u64],
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Begin transmitting `packet` on `port`.
    ///
    /// The port must be idle: a node learns idleness from the initial state
    /// (all ports idle) and subsequent [`NodeEvent::TxDone`] events.
    /// Transmitting on a busy port is a node bug and panics at apply time.
    /// The packet travels as the handle given here: the receiving node gets
    /// this allocation in its [`NodeEvent::Packet`].
    pub fn start_tx(&mut self, port: PortId, packet: Box<Packet>) {
        self.actions.push(Action::StartTx { port, packet });
    }

    /// Fire [`NodeEvent::Timer`] with `token` at absolute time `at`.
    pub fn timer_at(&mut self, at: Time, token: u64) {
        self.actions.push(Action::Timer { at, token });
    }

    /// Fire [`NodeEvent::Timer`] with `token` after `delay`.
    pub fn timer_in(&mut self, delay: Time, token: u64) {
        let at = self.now + delay;
        self.actions.push(Action::Timer { at, token });
    }

    /// Number of ports attached to this node.
    pub fn num_ports(&self) -> usize {
        self.port_rates.len()
    }
}

/// A device attached to the network.
pub trait Node: Any {
    /// Handle one event. All effects go through `ctx`.
    fn on_event(&mut self, event: NodeEvent, ctx: &mut Ctx<'_>);

    /// Downcast support for post-run inspection and configuration.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
