//! # eden-ctrl — the distributed control plane
//!
//! The paper's architecture (§3) is a *logically centralized* controller
//! managing enclaves that live on every end host. Earlier layers of this
//! reproduction wired controller and enclave together in one process;
//! this crate separates them by a network: the controller runs as an
//! application on one simulated host ([`ControllerApp`]), each managed
//! enclave is wrapped in an [`EnclaveAgent`] answering a control endpoint
//! on its host's stack, and everything they say to each other is
//! serialized ([`proto`]: one [`Request`] or [`Response`] frame per
//! message), fragmented to MTU-sized frames, and carried *in-band* over
//! the same links as data traffic.
//!
//! The two-phase protocol has two roles, each written once. The
//! *coordinator* (`coordinator.rs`: peer table, round, tracked requests
//! with retry and backoff, failure detection, resync, delta → full
//! fallback) is a state machine with no I/O that a tier steps with
//! virtual time and the simulation RNG. The *participant*
//! (`participant.rs`) is the one answer to each phase, over a host's
//! enclave or an aggregator's configurations alike.
//! The root [`ControllerApp`] is a coordinator plus desired state and
//! epoch minting; an [`EnclaveAgent`] is a participant on its host's
//! enclave; a rack [`AggregatorApp`] is a participant towards the root on
//! the shard's configurations, a coordinator over its children, and the
//! roll-up between the two. Neither the root nor an aggregator holds an
//! enclave: a configuration without a data path is an
//! [`eden_core::Config`], which checks ops exactly as an enclave stages
//! them and digests as an enclave holding it reports.
//!
//! Four guarantees the crate is built around:
//!
//! 1. **Atomic updates.** Configuration changes ship as whole epochs via
//!    two-phase commit — validate-and-stage on every host, then commit.
//!    A data-path batch on any host always runs against exactly one
//!    epoch's rule table, and a nack anywhere aborts the round everywhere.
//! 2. **Failure detection.** Heartbeats with epoch/digest piggybacked;
//!    silence past a threshold (or an exhausted retry budget) marks a
//!    host down without stalling updates for the rest of the fleet.
//! 3. **Convergence.** The controller holds desired state and reconciles
//!    any host that reports a different epoch or digest — a partitioned
//!    host catches up automatically once its links heal, with bounded
//!    retry backoff on every path (no livelock).
//! 4. **Replicated state.** Functions whose schema marks globals
//!    `replicated(...)` keep acting on a *local* replica at full speed;
//!    the heartbeat cadence carries the sync for free — each pong
//!    piggybacks the host's contributions and sequenced ops up, each
//!    heartbeat fans the merged view of every other host back down, and
//!    an anti-entropy digest exchange flags replicas that stopped
//!    converging (see `eden-repl`).
//!
//! Bootstrap sketch ([`fleet::Fleet`] builds this, flat or over racks of
//! aggregators, for the workspace's simulated clusters):
//!
//! ```ignore
//! // each managed host: enclave behind an agent, ctrl endpoint open
//! let mut stack = Stack::new(addr, StackConfig::default());
//! stack.set_hook(Box::new(EnclaveAgent::new(Enclave::new(cfg))));
//! stack.set_ctrl_port(CtrlConfig::default().ctrl_port);
//!
//! // the controller host: an ordinary App
//! let ctrl = ControllerApp::new(CtrlConfig::default(), &[h1, h2, h3]);
//! // ...build Network, then kick the controller's timer wheel:
//! net.schedule_timer(ctrl_node, Time::ZERO, transport::app_timer_token(TICK));
//! ```

pub mod agent;
pub mod aggregator;
pub mod controller;
mod coordinator;
pub mod delta;
pub mod fleet;
mod participant;
pub mod proto;
#[cfg(test)]
mod testnet;

pub use agent::EnclaveAgent;
pub use aggregator::{AggConfig, AggregatorApp};
pub use controller::{ControllerApp, CtrlConfig, WireCounters, TICK};
pub use coordinator::HostStatus;
pub use proto::{AckPhase, CtrlMsg, CtrlReply, ProtoError, Reassembler, Request, Response};
