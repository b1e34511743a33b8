//! # eden-telemetry — shared observability types for the Eden workspace
//!
//! Every layer of the reproduction (interpreter, enclave, host stack,
//! fabric, bench harnesses) exposes counters; this crate defines the
//! *common language* they are reported in, so the controller can pull one
//! [`StatsSnapshot`] from a running enclave and the bench harnesses can
//! dump machine-readable `BENCH_*.json` files without a serde dependency:
//!
//! * [`StatsSnapshot`] — the point-in-time stats-pull API
//!   (§3.2: the controller "can poll the enclave for statistics");
//! * [`Ring`] — the one bounded buffer: keeps the newest items, evicts
//!   the oldest, counts both. Every buffer below is one;
//! * [`FlightRing`] / [`FlightEvent`] — bounded event trails: per-lane
//!   flight recorders frozen into a [`FlightDump`] on a fault, and the
//!   host stack's packet-path trace from `send_message` through the
//!   enclave to the wire;
//! * [`Span`] / [`SpanSink`] / [`TraceStore`] — cross-host span trees;
//! * [`TimeSeries`] — bounded time series for queue occupancy and drop
//!   sampling in the fabric;
//! * [`Json`] / [`ToJson`] — a small hand-rolled JSON tree, because the
//!   build environment is offline and the snapshot types are simple;
//! * [`le`] — the little-endian `Writer`/`Reader` the control protocol and
//!   the bytecode codec are both written in.
//!
//! The crate is deliberately dependency-free so that any workspace crate
//! can use it without layering concerns.

mod cluster;
mod counters;
mod flight;
mod hist;
mod json;
pub mod le;
mod prom;
mod ring;
mod series;
mod snapshot;
mod span;

pub use cluster::{ClusterStats, HostReport, ReplLag, WireCounters};
pub use counters::{Block, Kind, Label, LabelValue, Row};
pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRing};
pub use hist::{bucket_bound, bucket_of, LatencyStat, LogHistogram, HIST_BUCKETS};
pub use json::{Json, JsonParseError, ToJson};
pub use prom::{metric_table_markdown, render_cluster, render_snapshot};
pub use ring::Ring;
pub use series::TimeSeries;
pub use snapshot::{
    ConnStats, EnclaveCounters, FlowCounters, FuncCounts, FunctionCounters, HostCounters,
    RuleCounters, RuleHits, StatsSnapshot, TableCounters, TableLookups, VmCounters,
};
pub use span::{Sampler, Span, SpanSink, TraceContext, TraceStore};
