//! # netsim — a deterministic discrete-event datacenter fabric
//!
//! The paper evaluates Eden on a small 10 GbE testbed (Arista/Blade switches,
//! Mellanox and Netronome NICs). This crate is the simulation substrate that
//! stands in for that hardware: hosts and switches joined by full-duplex
//! links with configurable rate and propagation delay, switch ports with
//! eight 802.1p priority queues (strict-priority scheduled, byte-bounded
//! drop-tail buffers), and the two forwarding modes Eden needs from the
//! network (§3.5): plain destination-based forwarding and VLAN-label source
//! routing à la SPAIN.
//!
//! Design follows the smoltcp school: event-driven, no hidden global state,
//! deterministic by construction — virtual time is u64 nanoseconds, the
//! event queue breaks ties by insertion order, and all randomness flows from
//! one seeded ChaCha RNG. Two runs with the same seed produce identical
//! packet traces, which is what makes the paper's experiments reproducible
//! as tests.
//!
//! Real wire formats (Ethernet II, 802.1Q, IPv4 with header checksum, TCP)
//! live in [`wire`]; the simulator passes structured [`Packet`]s for speed,
//! but every header the Eden enclave can touch through a `HeaderMap`
//! round-trips through the byte-level encoders in tests.

pub mod event;
pub mod monitor;
pub mod net;
pub mod node;
pub mod packet;
pub mod pcap;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topo;
pub mod wire;

pub use event::EventQueue;
pub use monitor::{QueueMonitor, SwitchSeries};
pub use net::{LinkId, LinkSpec, Network, NodeId, PortId};
pub use node::{Ctx, Node, NodeEvent};
pub use packet::{
    AppMarker, EdenMeta, EthHeader, Ipv4Header, L4Header, Packet, TcpFlags, TcpHeader, UdpHeader,
    VlanTag,
};
pub use queue::{DropTailQueue, PriorityPort};
pub use rng::{PacketRng, SimRng};
pub use stats::{LinkStats, Summary};
pub use switch::{Switch, SwitchConfig};
pub use time::Time;
pub use topo::{Rack, TwoTier};
