//! # Eden — end-host network functions
//!
//! Umbrella facade over the workspace crates that reproduce the SIGCOMM 2015
//! paper *Enabling End-host Network Functions* (Ballani et al.).
//!
//! The crates are re-exported under short module names so that examples and
//! integration tests can write `use eden::core::Enclave` etc. See the
//! individual crates for the real documentation:
//!
//! - [`vm`] — bytecode + stack interpreter for action functions
//! - [`lang`] — the F#-flavoured action-function DSL and its compiler
//! - [`netsim`] — deterministic discrete-event datacenter fabric
//! - [`transport`] — end-host stack: sockets, Reno TCP, rate limiters
//! - [`core`] — stages, enclaves, controller (the paper's architecture)
//! - [`ctrl`] — distributed control plane: wire protocol, epoch-based
//!   two-phase updates, failure detection, reconciliation
//! - [`repl`] — replicated cross-host state: merged and sequenced globals
//! - [`apps`] — example stages, workloads, and the network-function library
//! - [`telemetry`] — counters, snapshots, time series, bounded rings and
//!   flight events

pub use eden_apps as apps;
pub use eden_core as core;
pub use eden_ctrl as ctrl;
pub use eden_lang as lang;
pub use eden_repl as repl;
pub use eden_telemetry as telemetry;
pub use eden_vm as vm;
pub use netsim;
pub use transport;
