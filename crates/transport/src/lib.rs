//! # transport — the end-host network stack
//!
//! Everything that runs *on* a host in the simulated testbed:
//!
//! * a Reno-style TCP ([`tcp`]) with slow start, congestion avoidance, fast
//!   retransmit on three duplicate ACKs, and RFC 6298 retransmission
//!   timeouts — the congestion behaviour the paper's case studies depend on
//!   (WCMP's reordering penalty in Figure 10 is precisely Reno's dup-ACK
//!   sensitivity);
//! * sockets with the paper's **extended send primitive** (§4.2): an
//!   application sends a *message* together with class/metadata information;
//!   the stack records the sender sequence-number range of each message, and
//!   the bottom-of-stack intercept tags every outgoing packet with its
//!   message's metadata before the enclave sees it;
//! * an egress [`hook`] where the Eden enclave (or any packet processor)
//!   plugs in, with the verdicts of §3.4.2: pass, drop, or direct to a
//!   rate-limited queue with an explicit byte charge;
//! * token-bucket [`ratelimit`] queues for Pulsar-style QoS, where the
//!   charged bytes may differ from the packet size;
//! * the [`host::Host`] node gluing a [`stack::Stack`] to an application
//!   ([`host::App`]) over the `netsim` fabric.

pub mod hook;
pub mod host;
pub mod ratelimit;
pub mod stack;
pub mod tcp;

pub use eden_telemetry::{FlightEvent, FlightKind, FlightRing, FlowCounters, HostCounters};
pub use hook::{HookEnv, HookVerdict, NullHook, PacketHook};
pub use host::{app_timer_token, App, Host};
pub use ratelimit::TokenBucket;
pub use stack::{AppEvent, ConnId, Stack, StackConfig};
pub use tcp::{ConnStats, TcpConfig, MSS};
