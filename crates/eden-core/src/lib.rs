//! # eden-core — the Eden architecture (SIGCOMM 2015)
//!
//! The paper's three components, as a library:
//!
//! * **[`Stage`]** (§3.3) — an Eden-compliant application or library. A
//!   stage classifies its own traffic: it matches application-level fields
//!   (message type, key, URL, …) against controller-installed
//!   *classification rules*, assigns each message a *class* per rule-set
//!   and a unique message identifier, and emits the metadata that rides
//!   with the resulting packets down the host stack.
//!
//! * **[`Enclave`]** (§3.4) — the programmable data plane at the bottom of
//!   the stack. Match-action tables keyed on a packet's classes select an
//!   *action function* — interpreted Eden bytecode or a hard-coded native
//!   closure (the evaluation's baseline) — which runs against the packet's
//!   header fields, its message state, and per-function global state, under
//!   the concurrency rules derived from the paper's state annotations.
//!
//! * **[`Controller`]** (§3.2) — the logically centralized coordination
//!   point. It owns the class-name registry, programs stages (Table 3's
//!   API), plans enclave configurations as [`EnclaveOp`] lists (compiling
//!   action functions from DSL source into shippable bytecode), and hosts
//!   the control-plane halves of the case studies: WCMP path weights and
//!   PIAS priority thresholds. An enclave takes a planned list through
//!   [`Enclave::apply`].
//!
//! The enclave implements [`transport::PacketHook`], so installing Eden on
//! a simulated host is one line: `stack.set_hook(enclave)`.

pub mod action;
pub mod class;
pub mod controller;
pub mod enclave;
pub mod headermap;
mod index;
pub mod lanes;
pub mod ops;
pub mod stage;
pub mod state;

pub use action::{ActionImpl, FuncId, InstalledFunction, NativeEnv, NativeFn};
pub use class::{ClassId, ClassRegistry};
pub use controller::{Controller, PathSpec};
pub use eden_telemetry::StatsSnapshot;
pub use enclave::{
    native_function, pull_host_stats, Config, Enclave, EnclaveConfig, EnclaveStats, FiveTupleMatch,
    FlowDirection, LinkError, LinkInfo, MatchSpec, PktSlot, RuleList, RuleRef, SlotLink,
    SlotTarget, TableId, MAX_ARRAY_LEN, MAX_FUNCTIONS, MAX_RULES_PER_TABLE, MAX_TABLES,
};
pub use headermap::{read_header_field, write_header_field};
pub use lanes::LanePool;
pub use ops::{ApplyError, Cap, EnclaveOp, ShippedFunction};
pub use stage::{FieldValue, Matcher, Stage, StageInfo, StageRule};
pub use state::FunctionState;
