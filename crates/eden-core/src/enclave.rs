//! The Eden enclave: match-action tables + action-function runtime (§3.4).
//!
//! The enclave "resides along the end host network stack" and holds (1) a
//! set of tables whose rules match on a packet's *class* — not on header
//! fields, which is what lets functions operate on application-defined
//! groupings — and (2) a runtime that executes the selected action function
//! against the packet, its per-message state, and the function's global
//! state. Functions are interpreted bytecode or native closures
//! ([`ActionImpl`]); both run behind the same [`eden_vm::Host`] binding.
//!
//! The data path is staged — **classify → match → execute**:
//!
//! * *classify* derives the packet's class list (stage-assigned metadata
//!   plus the enclave's own five-tuple rules), its message identity, and a
//!   per-packet random stream;
//! * *match* resolves the class list against table 0 through a class→rule
//!   index (single-class rules are a hash lookup, not a linear scan);
//! * *execute* walks the table pipeline, running the matched function —
//!   and any `GotoTable` continuations — against the packet and its state.
//!
//! [`Enclave::process_dir`] runs the stages for one packet, and it is the
//! only code that takes a packet through them on the caller's thread:
//! [`Enclave::process_batch`] either loops it or — when every installed
//! function's derived concurrency level (§3.4.4) permits and the batch is
//! large enough — fans the batch out to parallel worker lanes partitioned
//! by message id. *Read-only* and *per-message serial* functions
//! parallelize (a message never spans two lanes); *fully serial*
//! (global-writer) functions keep every batch on the caller's thread. A
//! lane runs the same `walk_packet`, `invoke` and per-packet epilogue as
//! the caller's thread — over its own message shards and its own counter
//! blocks — and a property test pins the fan-out verdict-for-verdict and
//! state-for-state to the per-packet path.
//!
//! Besides stage-assigned classes, the enclave can classify on its own at
//! packet granularity (Table 2's last row): five-tuple rules assign classes
//! to traffic from unmodified applications, and packets without stage
//! metadata get `hash(five-tuple)` as their message id — "when
//! classification is done at the granularity of TCP flows, each transport
//! connection is a message".
//!
//! Fault isolation (§3.4.3): a trapping function terminates — the packet
//! then fails open (forwarded unmodified) or closed (dropped) per
//! [`EnclaveConfig::fail_open`] — and the rest of the system continues.

use eden_lang::{Access, Concurrency, HeaderField, ReplMode, Schema, Scope};
use eden_repl::{merged_read, merged_store, HostRepl, ReplSpec, SeqTarget};
use eden_telemetry::{
    EnclaveCounters, FlightDump, FlightEvent, FlightKind, FlightRing, FunctionCounters,
    LatencyStat, LogHistogram, RuleCounters, Sampler, Span, SpanSink, StatsSnapshot, TableCounters,
    Telemetry, TraceContext, VmCounters,
};
use eden_vm::{Effect, Host, Interpreter, InterpreterPool, Limits, Outcome, Program, VmError};
use netsim::arena::{PacketRef, PacketSlab};
use netsim::{Packet, PacketRng, SimRng, Time};
use transport::{HookEnv, HookVerdict, PacketHook};

use crate::action::{ActionImpl, FuncId, InstalledFunction, NativeEnv, NativeFn};
use crate::class::{ClassId, ClassIndex};
use crate::lanes::LanePool;
use crate::ops::{ApplyError, EnclaveOp};
use crate::ring::{spsc, Consumer, Producer};
use crate::state::{FunctionState, MsgShard};

/// Minimal FNV-1a, for the structural configuration digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifies a match-action table within an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableId(pub usize);

/// What a rule matches on: the packet's class list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchSpec {
    /// Matches every packet (default/fallback rules).
    Any,
    /// Packet carries this class.
    Class(ClassId),
    /// Packet carries any of these classes.
    AnyOf(Vec<ClassId>),
}

impl MatchSpec {
    fn matches(&self, classes: &[u32]) -> bool {
        match self {
            MatchSpec::Any => true,
            MatchSpec::Class(c) => classes.contains(&c.0),
            MatchSpec::AnyOf(cs) => cs.iter().any(|c| classes.contains(&c.0)),
        }
    }
}

/// `match on class → action function` (Table 4).
#[derive(Debug, Clone)]
pub struct Rule {
    pub spec: MatchSpec,
    pub func: FuncId,
    /// Configuration epoch this rule was installed under. The two-phase
    /// update protocol guarantees every rule in a served table carries the
    /// enclave's active epoch (checked by [`Enclave::serves_single_epoch`]).
    pub epoch: u64,
}

/// One match-action table, with a class→rule index so the common case —
/// single-class rules — resolves by hash lookup instead of a linear scan.
/// First-match-wins order is preserved: the index stores the *earliest*
/// rule per class, and `general` keeps the (ordered) `Any`/`AnyOf` rules
/// that still need a scan. Read-only on the data path: what a lookup
/// counts goes to a [`TableCounts`] block.
#[derive(Debug, Default)]
struct MatchActionTable {
    rules: Vec<Rule>,
    /// class → index of the first `MatchSpec::Class` rule for it (flat
    /// open-addressing probe, no SipHash on the per-packet path).
    class_index: ClassIndex,
    /// Ordered indices of `Any` / `AnyOf` rules.
    general: Vec<usize>,
}

impl MatchActionTable {
    fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        match &rule.spec {
            MatchSpec::Class(c) => {
                self.class_index.insert_first(c.0, idx as u32);
            }
            MatchSpec::Any | MatchSpec::AnyOf(_) => self.general.push(idx),
        }
        self.rules.push(rule);
    }

    fn clear(&mut self) {
        self.rules.clear();
        self.class_index.clear();
        self.general.clear();
    }

    /// Remove the rule at `idx` (later rules shift down) and rebuild the
    /// class index and general list, preserving first-match-wins order.
    fn remove_rule(&mut self, idx: usize) {
        self.rules.remove(idx);
        self.class_index.clear();
        self.general.clear();
        for (i, rule) in self.rules.iter().enumerate() {
            match &rule.spec {
                MatchSpec::Class(c) => {
                    self.class_index.insert_first(c.0, i as u32);
                }
                MatchSpec::Any | MatchSpec::AnyOf(_) => self.general.push(i),
            }
        }
    }

    /// First-match-wins rule lookup via the class index.
    fn find(&self, classes: &[u32]) -> Option<usize> {
        let mut best = usize::MAX;
        for &c in classes {
            if let Some(i) = self.class_index.get(c) {
                best = best.min(i as usize);
            }
        }
        for &gi in &self.general {
            if gi >= best {
                break; // an earlier single-class rule already won
            }
            if self.rules[gi].spec.matches(classes) {
                best = gi;
                break;
            }
        }
        (best != usize::MAX).then_some(best)
    }
}

/// A five-tuple classifier for the enclave's own packet-granularity
/// classification (`None` = wildcard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiveTupleMatch {
    pub src_ip: Option<u32>,
    pub dst_ip: Option<u32>,
    pub src_port: Option<u16>,
    pub dst_port: Option<u16>,
    pub proto: Option<u8>,
}

impl FiveTupleMatch {
    fn matches(&self, p: &Packet) -> bool {
        let Some((si, sp, di, dp, pr)) = p.five_tuple() else {
            return false;
        };
        self.src_ip.is_none_or(|v| v == si)
            && self.dst_ip.is_none_or(|v| v == di)
            && self.src_port.is_none_or(|v| v == sp)
            && self.dst_port.is_none_or(|v| v == dp)
            && self.proto.is_none_or(|v| v == pr)
    }
}

/// Which direction of the host stack a packet is traversing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    /// Leaving the host (the paper's primary enforcement point).
    Egress,
    /// Arriving at the host (stateful firewalls, admission control).
    Ingress,
}

/// Enclave tuning.
#[derive(Debug, Clone, Copy)]
pub struct EnclaveConfig {
    /// Interpreter resource budgets.
    pub limits: Limits,
    /// Per-function cap on live message-state blocks.
    pub max_messages_per_function: usize,
    /// On an action-function trap: `true` forwards the packet unmodified,
    /// `false` drops it.
    pub fail_open: bool,
    /// Also run the match-action pipeline on packets *arriving* at the
    /// host. Off by default: most Eden functions are egress-side, and the
    /// paper's enclave sits on the send path. Functions can distinguish
    /// directions through a packet field mapped to
    /// [`HeaderField::Direction`].
    pub process_ingress: bool,
    /// Worker lanes for the batched data path (interpreters + message-state
    /// shards). `1` disables parallel execution entirely.
    pub lanes: usize,
    /// Cap on the punted-packet mailbox; the oldest punt is evicted (and
    /// counted in `punt_drops`) when a punt-heavy workload outruns the
    /// controller's pickup.
    pub max_punted: usize,
    /// Smallest batch worth fanning out to worker lanes; below it the
    /// batch runs on the serial path (thread handoff would dominate).
    pub parallel_batch_min: usize,
    /// Smallest *per-lane* share (`batch_size / lanes`) worth fanning
    /// out: a batch that would hand each lane only a couple of packets
    /// pays the wake/merge overhead without amortizing it, so it runs on
    /// the serial batch path instead. The chosen path is counted in
    /// `batches_serial` / `batches_parallel`.
    pub parallel_per_lane_min: usize,
    /// Data-path trace sampling: one in this many packets gets spans,
    /// stage timing, and per-function latency recorded. `0` disables
    /// tracing entirely — the hot-path cost is then a single always-false
    /// branch, and stats snapshots carry no latency section (keeping the
    /// serial/batch equivalence property free of wall-clock noise).
    pub trace_sample: u32,
    /// Flight-recorder ring capacity (events retained per worker lane).
    pub flight_capacity: usize,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            limits: Limits::default(),
            max_messages_per_function: 65_536,
            fail_open: true,
            process_ingress: false,
            lanes: 4,
            max_punted: 1024,
            parallel_batch_min: 32,
            parallel_per_lane_min: 8,
            trace_sample: 0,
            flight_capacity: 256,
        }
    }
}

/// Data-path counters.
///
/// Conservation invariant: every processed packet leaves the enclave
/// exactly one way, so `packets == forwarded + dropped +
/// punted_to_controller` at all times (checked by
/// [`EnclaveStats::conserved`], pinned by a property test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnclaveStats {
    pub packets: u64,
    /// Packets for which at least one rule matched.
    pub matched: u64,
    /// Packets that matched no rule in any table walked.
    pub missed: u64,
    /// Packets that left toward the NIC (pass or queue verdicts).
    pub forwarded: u64,
    pub dropped: u64,
    pub punted_to_controller: u64,
    /// Of the forwarded packets, those steered to a NIC priority queue.
    pub queued: u64,
    pub faults: u64,
    /// Packet-header fields written by action functions.
    pub header_modifies: u64,
    /// Bytes charged to queue verdicts (Pulsar-style accounting, §2.1.2).
    pub enqueue_charge_bytes: u64,
    /// Punted packets evicted from the bounded mailbox (see
    /// [`EnclaveConfig::max_punted`]).
    pub punt_drops: u64,
    /// Table walks aborted by the `GotoTable` loop guard.
    pub table_loop_aborts: u64,
}

impl EnclaveStats {
    /// Every processed packet left the enclave exactly one way.
    pub fn conserved(&self) -> bool {
        self.packets == self.forwarded + self.dropped + self.punted_to_controller
    }

    /// Fold one packet's walk outcome into the counters (everything except
    /// the `packets` count and the punt mailbox, which the caller owns).
    fn account_walk(&mut self, w: &WalkResult) {
        if w.matched_any {
            self.matched += 1;
        } else {
            self.missed += 1;
        }
        if w.fault {
            self.faults += 1;
        }
        if w.loop_abort {
            self.table_loop_aborts += 1;
        }
        self.header_modifies += w.header_modifies;
        match w.verdict {
            HookVerdict::Pass => self.forwarded += 1,
            HookVerdict::Queue { charge, .. } => {
                self.forwarded += 1;
                self.queued += 1;
                self.enqueue_charge_bytes += charge;
            }
            HookVerdict::Drop => {
                if w.punt {
                    self.punted_to_controller += 1;
                } else {
                    self.dropped += 1;
                }
            }
        }
    }

    /// Add a worker lane's partial counters (batch merge).
    fn merge(&mut self, d: &EnclaveStats) {
        self.packets += d.packets;
        self.matched += d.matched;
        self.missed += d.missed;
        self.forwarded += d.forwarded;
        self.dropped += d.dropped;
        self.punted_to_controller += d.punted_to_controller;
        self.queued += d.queued;
        self.faults += d.faults;
        self.header_modifies += d.header_modifies;
        self.enqueue_charge_bytes += d.enqueue_charge_bytes;
        self.punt_drops += d.punt_drops;
        self.table_loop_aborts += d.table_loop_aborts;
    }
}

/// The programmable data plane at one end host.
pub struct Enclave {
    config: EnclaveConfig,
    tables: Vec<MatchActionTable>,
    /// Lookup and per-rule hit counters, parallel to `tables` (and each
    /// block's `rule_hits` to its table's rules).
    table_counts: Vec<TableCounts>,
    functions: Vec<InstalledFunction>,
    /// Per-function invocation counters, parallel to `functions`.
    func_counts: Vec<FuncCounts>,
    /// Precomputed per-function packet-slot bindings: (header map, access).
    pkt_bindings: Vec<Vec<(Option<HeaderField>, Access)>>,
    states: Vec<FunctionState>,
    /// Per-function replication runtime, parallel to `functions` — `None`
    /// for the common case of a schema that replicates nothing, keeping
    /// the hot path a single always-false branch. Remote views are only
    /// swapped between batches ([`apply_repl_view`](Self::apply_repl_view)),
    /// so the data path reads them with zero synchronization.
    repl: Vec<Option<HostRepl>>,
    flow_rules: Vec<(FiveTupleMatch, ClassId)>,
    /// One interpreter per worker lane; lane 0 is the caller thread's.
    pool: InterpreterPool,
    /// `true` while every installed function may run on a worker lane:
    /// interpreted (native closures are not `Send`) and not `Serialized`.
    lane_safe: bool,
    /// Persistent lane worker threads (spawned lazily on the first
    /// parallel batch; per-batch dispatch is two SPSC ring ops per lane).
    lane_pool: LanePool,
    /// Punt mailbox, producer half: packets punted to the controller are
    /// *moved* here (no clone), bounded by [`EnclaveConfig::max_punted`].
    punt_tx: Producer<Packet>,
    /// Punt mailbox, consumer half: `take_punted` drains it; `push_punt`
    /// pops it for O(1) oldest-eviction when the ring is full.
    punt_rx: Consumer<Packet>,
    pub stats: EnclaveStats,
    /// Batches that ran packet by packet on the caller's thread (small
    /// or lane-unsafe).
    batches_serial: u64,
    /// Batches that fanned out to the worker lanes.
    batches_parallel: u64,
    /// Reused struct-of-arrays scratch for the lane fan-out.
    batch: BatchScratch,
    /// Scratch for unmapped packet fields (packet lifetime).
    scratch: Vec<i64>,
    /// Scratch for the packet's class list.
    classes: Vec<u32>,
    /// Simulated time of the most recent processed packet, stamped onto
    /// stats snapshots (the enclave has no clock of its own).
    last_now: Time,
    /// Configuration epoch currently served by the data path.
    active_epoch: u64,
    /// A prepared-but-uncommitted epoch (two-phase update, phase one).
    staged: Option<StagedEpoch>,
    /// Deterministic 1-in-N data-path trace sampler (see
    /// [`EnclaveConfig::trace_sample`]).
    sampler: Sampler,
    /// Completed (and open) spans awaiting collection by the agent.
    spans: SpanSink,
    /// Per-stage batch latency: classify / match / execute, recorded only
    /// while tracing is enabled.
    stage_hists: [LogHistogram; 3],
    /// Sampled per-function execution latency, parallel to `functions`.
    func_latency: Vec<LogHistogram>,
    /// Flight recorder: one single-writer event ring per worker lane
    /// (ring 0 doubles as the caller thread's and the control plane's).
    flight: Vec<FlightRing>,
    /// The most recent frozen flight-recorder dump.
    last_dump: Option<FlightDump>,
}

/// Indices into [`Enclave::stage_hists`].
const STAGE_CLASSIFY: usize = 0;
const STAGE_MATCH: usize = 1;
const STAGE_EXECUTE: usize = 2;
const STAGE_NAMES: [&str; 3] = ["stage.classify", "stage.match", "stage.execute"];

/// A fully validated epoch awaiting commit: every op checked against the
/// shape the configuration will have at that point in the sequence, and
/// every shipped program already decoded and re-verified — so commit
/// itself is infallible and atomic between packets.
struct StagedEpoch {
    epoch: u64,
    ops: Vec<ReadyOp>,
}

/// [`EnclaveOp`] after stage-time validation (programs decoded).
enum ReadyOp {
    Reset,
    CreateTable,
    ClearTable(usize),
    InstallFunction(Box<InstalledFunction>),
    InstallRule {
        table: usize,
        spec: MatchSpec,
        func: usize,
    },
    RemoveRule {
        table: usize,
        rule: usize,
    },
    SetGlobal {
        func: usize,
        slot: usize,
        value: i64,
    },
    SetArray {
        func: usize,
        array: usize,
        values: Vec<i64>,
    },
}

/// Shape of an enclave configuration, tracked during stage-time
/// validation: per-table rule counts and per-function (global slots,
/// array count).
struct ConfigShape {
    rules_per_table: Vec<usize>,
    funcs: Vec<(usize, usize)>,
}

impl Enclave {
    /// An enclave with one empty table.
    pub fn new(config: EnclaveConfig) -> Enclave {
        let (punt_tx, punt_rx) = spsc(config.max_punted.max(1));
        Enclave {
            config,
            tables: vec![MatchActionTable::default()],
            table_counts: vec![TableCounts::default()],
            functions: Vec::new(),
            func_counts: Vec::new(),
            pkt_bindings: Vec::new(),
            states: Vec::new(),
            repl: Vec::new(),
            flow_rules: Vec::new(),
            pool: InterpreterPool::new(config.limits, config.lanes),
            lane_safe: true,
            lane_pool: LanePool::new(),
            punt_tx,
            punt_rx,
            stats: EnclaveStats::default(),
            batches_serial: 0,
            batches_parallel: 0,
            batch: BatchScratch::default(),
            scratch: Vec::new(),
            classes: Vec::new(),
            last_now: Time::ZERO,
            active_epoch: 0,
            staged: None,
            sampler: Sampler::every(config.trace_sample),
            spans: SpanSink::new(0, 1024),
            stage_hists: Default::default(),
            func_latency: Vec::new(),
            flight: (0..config.lanes.max(1))
                .map(|_| FlightRing::new(config.flight_capacity))
                .collect(),
            last_dump: None,
        }
    }

    // ------------------------------------------------------------------
    // enclave API (§3.4.5): the controller programs tables and functions
    // ------------------------------------------------------------------

    /// Create an additional match-action table; returns its id.
    pub fn create_table(&mut self) -> TableId {
        self.tables.push(MatchActionTable::default());
        self.table_counts.push(TableCounts::default());
        TableId(self.tables.len() - 1)
    }

    /// Install `function`; returns its id for use in rules.
    pub fn install_function(&mut self, function: InstalledFunction) -> FuncId {
        let state = FunctionState::for_schema_sharded(
            &function.schema,
            self.config.max_messages_per_function,
            self.pool.lanes(),
        );
        let bindings = function
            .schema
            .fields()
            .iter()
            .filter(|f| f.scope == Scope::Packet)
            .map(|f| (f.header, f.access))
            .collect::<Vec<_>>();
        if bindings.len() > self.scratch.len() {
            self.scratch.resize(bindings.len(), 0);
        }
        self.lane_safe &= matches!(function.action, ActionImpl::Interpreted(_))
            && function.concurrency != Concurrency::Serialized;
        let spec = ReplSpec::from_schema(&function.schema);
        self.repl.push((!spec.is_empty()).then(|| {
            let lens: Vec<usize> = state.arrays.iter().map(Vec::len).collect();
            HostRepl::new(spec, &lens)
        }));
        self.pkt_bindings.push(bindings);
        self.functions.push(function);
        self.func_counts.push(FuncCounts::default());
        self.states.push(state);
        self.func_latency.push(LogHistogram::new());
        FuncId(self.functions.len() - 1)
    }

    /// Append `rule` to `table` (first match wins).
    pub fn install_rule(&mut self, table: TableId, spec: MatchSpec, func: FuncId) {
        assert!(func.0 < self.functions.len(), "unknown function");
        let epoch = self.active_epoch;
        self.tables[table.0].push_rule(Rule { spec, func, epoch });
        self.table_counts[table.0].rule_hits.push(0);
    }

    /// Remove rule `rule` (by position) from `table`; later rules shift
    /// down. Returns `false` when no such rule exists.
    pub fn remove_rule(&mut self, table: TableId, rule: usize) -> bool {
        let Some(t) = self.tables.get_mut(table.0) else {
            return false;
        };
        if rule >= t.rules.len() {
            return false;
        }
        t.remove_rule(rule);
        self.table_counts[table.0].rule_hits.remove(rule);
        true
    }

    /// Remove all rules from `table`.
    pub fn clear_table(&mut self, table: TableId) {
        self.tables[table.0].clear();
        self.table_counts[table.0].rule_hits.clear();
    }

    /// Add an enclave-level five-tuple classification rule.
    pub fn add_flow_rule(&mut self, spec: FiveTupleMatch, class: ClassId) {
        self.flow_rules.push((spec, class));
    }

    /// Write one global scalar of `func` (controller state update).
    pub fn set_global(&mut self, func: FuncId, slot: usize, value: i64) {
        self.states[func.0].global[slot] = value;
    }

    /// Read one global scalar of `func`.
    pub fn global(&self, func: FuncId, slot: usize) -> i64 {
        self.states[func.0].global[slot]
    }

    /// Replace global array `array` of `func` with flattened `values`.
    pub fn set_array(&mut self, func: FuncId, array: usize, values: Vec<i64>) {
        self.states[func.0].set_array(array, values);
    }

    /// Per-function state (instrumentation).
    pub fn function_state(&self, func: FuncId) -> &FunctionState {
        &self.states[func.0]
    }

    /// Installed function metadata.
    pub fn function(&self, func: FuncId) -> &InstalledFunction {
        &self.functions[func.0]
    }

    /// Derived concurrency level of `func` (§3.4.4).
    pub fn concurrency(&self, func: FuncId) -> Concurrency {
        self.functions[func.0].concurrency
    }

    /// Drain packets punted to the controller, oldest first.
    pub fn take_punted(&mut self) -> Vec<Packet> {
        let mut out = Vec::with_capacity(self.punt_rx.len());
        while let Some(p) = self.punt_rx.pop() {
            out.push(p);
        }
        out
    }

    /// Number of punted packets awaiting controller pickup.
    pub fn punted_len(&self) -> usize {
        self.punt_rx.len()
    }

    /// Interpreter resource usage of the most recent interpreted run on
    /// the caller's thread (for §5.4 footprint reporting).
    pub fn last_usage(&self) -> eden_vm::Usage {
        self.pool.lane(0).usage()
    }

    // ------------------------------------------------------------------
    // replicated cross-host state (eden-repl glue)
    // ------------------------------------------------------------------

    /// Whether any installed function declares replicated state. Gates
    /// the agent's sync sections — nothing goes on the wire otherwise.
    pub fn repl_active(&self) -> bool {
        self.repl.iter().any(Option::is_some)
    }

    /// Function indices with replicated state, ascending.
    pub fn repl_funcs(&self) -> Vec<usize> {
        self.repl
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    /// Replication runtime of `func` (staleness, outbox depth, applied
    /// log), `None` when the function replicates nothing.
    pub fn repl_host(&self, func: usize) -> Option<&HostRepl> {
        self.repl.get(func).and_then(Option::as_ref)
    }

    /// Build the host → controller sync for `func`: merged contributions,
    /// unacked sequenced ops, applied position, and the anti-entropy
    /// digest. Pure read — the agent may resend it on any cadence.
    pub fn repl_delta(&self, func: usize) -> Option<eden_repl::FuncDelta> {
        let h = self.repl.get(func).and_then(Option::as_ref)?;
        let st = &self.states[func];
        Some(h.build_delta(func as u32, &st.global, &st.arrays))
    }

    /// Apply a controller view between batches: swap in the remote merged
    /// contributions, drop acked outbox entries, and apply the sequenced
    /// tail into local state in controller order. A view that flags this
    /// host divergent freezes the flight recorder — the black box should
    /// capture state *before* any repair overwrites it.
    pub fn apply_repl_view(&mut self, view: &eden_repl::FuncView, now_ns: u64) {
        let func = view.func as usize;
        let Some(h) = self.repl.get_mut(func).and_then(Option::as_mut) else {
            return;
        };
        let state = &mut self.states[func];
        h.apply_view(view, now_ns, |target, value| match target {
            SeqTarget::Global { slot } => {
                if let Some(s) = state.global.get_mut(slot as usize) {
                    *s = value;
                }
            }
            SeqTarget::Array { id, index } => {
                if let Some(c) = state
                    .arrays
                    .get_mut(id as usize)
                    .and_then(|a| a.get_mut(index as usize))
                {
                    *c = value;
                }
            }
        });
        if view.divergent {
            self.freeze_flight("repl_divergence");
        }
    }

    /// Read global `slot` of `func` as the data path would — through the
    /// replica view when the slot is replicated. [`global`](Self::global)
    /// keeps returning the raw local contribution.
    pub fn global_effective(&self, func: FuncId, slot: usize) -> i64 {
        let local = self.states[func.0].global[slot];
        match self.repl.get(func.0).and_then(Option::as_ref) {
            Some(h) => match h.spec().global_mode(slot) {
                Some(mode) => merged_read(
                    mode,
                    h.remote_globals().get(slot).copied().unwrap_or(0),
                    local,
                ),
                None => local,
            },
            None => local,
        }
    }

    /// Read array element `(array, index)` of `func` as the data path
    /// would — through the replica view when the array is replicated.
    pub fn array_effective(&self, func: FuncId, array: usize, index: usize) -> i64 {
        let local = self.states[func.0].arrays[array][index];
        match self.repl.get(func.0).and_then(Option::as_ref) {
            Some(h) => match h.spec().array_mode(array) {
                Some(mode) => merged_read(
                    mode,
                    h.remote_array(array).get(index).copied().unwrap_or(0),
                    local,
                ),
                None => local,
            },
            None => local,
        }
    }

    // ------------------------------------------------------------------
    // epoch-based configuration updates (two-phase, eden-ctrl)
    // ------------------------------------------------------------------

    /// Configuration epoch the data path currently serves.
    pub fn active_epoch(&self) -> u64 {
        self.active_epoch
    }

    /// Epoch staged by [`stage_epoch`](Self::stage_epoch), if any.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|s| s.epoch)
    }

    /// Phase one of a two-phase update: validate `ops` as a unit and hold
    /// them ready. Nothing the data path observes changes. Every op is
    /// checked against the configuration shape it will meet at its point
    /// in the sequence, and every shipped program is decoded and
    /// re-verified — any error rejects the whole epoch and leaves prior
    /// staged state untouched only if the epoch differs; restaging the
    /// same or a newer epoch replaces the previous staging (controller
    /// retries are idempotent).
    pub fn stage_epoch(&mut self, epoch: u64, ops: &[EnclaveOp]) -> Result<(), ApplyError> {
        let ready = self.validate_ops(ops)?;
        self.staged = Some(StagedEpoch { epoch, ops: ready });
        self.flight_record(FlightKind::EpochStage, epoch, 0);
        Ok(())
    }

    /// [`stage_epoch`](Self::stage_epoch) anchored against a config
    /// digest: the delta's ops were planned as a *diff* from the
    /// configuration whose digest is `base_digest`, so they are only
    /// safe to stage if this enclave still holds exactly that
    /// configuration. On mismatch nothing changes and
    /// [`ApplyError::DigestMismatch`] is returned — the controller's cue
    /// to fall back to a full-table ship, mirroring `ReplHub`'s snapshot
    /// resync for laggards.
    pub fn stage_epoch_delta(
        &mut self,
        epoch: u64,
        base_digest: u64,
        ops: &[EnclaveOp],
    ) -> Result<(), ApplyError> {
        let have = self.config_digest();
        if have != base_digest {
            return Err(ApplyError::DigestMismatch {
                have,
                want: base_digest,
            });
        }
        self.stage_epoch(epoch, ops)
    }

    /// Phase two: atomically apply the staged epoch. Called between
    /// packets (the simulator's event loop never interleaves a commit
    /// with a batch), so the data path observes the old configuration for
    /// every packet before this call and the new one for every packet
    /// after — never a mix. Returns `false` when `epoch` is not the
    /// staged epoch (nothing happens); a duplicate commit of the already
    /// active epoch is reported as success.
    pub fn commit_epoch(&mut self, epoch: u64) -> bool {
        match self.staged.as_ref() {
            Some(s) if s.epoch == epoch => {}
            _ => return self.active_epoch == epoch && self.staged.is_none(),
        }
        let staged = self.staged.take().expect("matched above");
        self.active_epoch = epoch;
        for op in staged.ops {
            self.apply_ready(op);
        }
        // A delta epoch carries no `Reset`, so rules that survive from the
        // previous configuration still wear the old epoch stamp. The commit
        // adopts them into the new epoch wholesale — the whole table was
        // validated as one unit, so `serves_single_epoch` must keep holding.
        for t in &mut self.tables {
            for r in &mut t.rules {
                r.epoch = epoch;
            }
        }
        self.flight_record(FlightKind::EpochCommit, epoch, 0);
        true
    }

    /// Abort a prepared update: discard the staged epoch if it matches.
    /// An effective abort freezes the flight recorder — a controller
    /// backing out of phase two is exactly the moment to keep the black
    /// box.
    pub fn abort_epoch(&mut self, epoch: u64) {
        if self.staged.as_ref().is_some_and(|s| s.epoch == epoch) {
            self.staged = None;
            self.flight_record(FlightKind::EpochAbort, epoch, 0);
            self.freeze_flight("epoch_abort");
        }
    }

    /// Validate and apply one op immediately, outside any epoch (local
    /// administration; the control plane goes through
    /// [`stage_epoch`](Self::stage_epoch) / [`commit_epoch`](Self::commit_epoch)).
    pub fn apply_op(&mut self, op: EnclaveOp) -> Result<(), ApplyError> {
        let mut ready = self.validate_ops(std::slice::from_ref(&op))?;
        self.apply_ready(ready.remove(0));
        Ok(())
    }

    /// Every rule in every table was installed under the active epoch —
    /// the invariant the two-phase protocol maintains; property-tested
    /// under loss, reordering, and partitions.
    pub fn serves_single_epoch(&self) -> bool {
        self.tables
            .iter()
            .flat_map(|t| t.rules.iter())
            .all(|r| r.epoch == self.active_epoch)
    }

    /// FNV-1a digest of the *structural* configuration: tables and rules
    /// (spec + function index), installed functions (name, concurrency,
    /// schema, and bytecode for interpreted functions). Runtime state and
    /// counters are excluded, so the digest is stable across traffic. The
    /// controller compares an enclave's reported digest against a shadow
    /// enclave holding the desired configuration to detect drift.
    pub fn config_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_usize(self.tables.len());
        for t in &self.tables {
            h.write_usize(t.rules.len());
            for r in &t.rules {
                match &r.spec {
                    MatchSpec::Any => h.write_u64(1),
                    MatchSpec::Class(c) => {
                        h.write_u64(2);
                        h.write_u64(u64::from(c.0));
                    }
                    MatchSpec::AnyOf(cs) => {
                        h.write_u64(3);
                        h.write_usize(cs.len());
                        for c in cs {
                            h.write_u64(u64::from(c.0));
                        }
                    }
                }
                h.write_usize(r.func.0);
            }
        }
        h.write_usize(self.functions.len());
        for f in &self.functions {
            h.write_bytes(f.name.as_bytes());
            h.write_u64(match f.concurrency {
                Concurrency::Parallel => 0,
                Concurrency::PerMessage => 1,
                Concurrency::Serialized => 2,
            });
            h.write_usize(f.schema.fields().len());
            for fd in f.schema.fields() {
                h.write_bytes(fd.name.as_bytes());
                h.write_u64(fd.slot as u64);
            }
            h.write_usize(f.schema.arrays().len());
            for a in f.schema.arrays() {
                h.write_bytes(a.name.as_bytes());
                h.write_usize(a.stride());
            }
            match &f.action {
                ActionImpl::Interpreted(p) => h.write_bytes(&eden_vm::encode_program(p)),
                ActionImpl::Native(_) => h.write_bytes(b"<native>"),
            }
        }
        h.finish()
    }

    /// Drop every table (recreating empty table 0), every function, and
    /// all function state — the anchor of a full-replacement epoch.
    fn reset_config(&mut self) {
        self.tables.clear();
        self.tables.push(MatchActionTable::default());
        self.table_counts.clear();
        self.table_counts.push(TableCounts::default());
        self.functions.clear();
        self.func_counts.clear();
        self.pkt_bindings.clear();
        self.states.clear();
        self.repl.clear();
        self.func_latency.clear();
        self.lane_safe = true;
    }

    /// Current configuration shape, the starting point for validation.
    fn shape(&self) -> ConfigShape {
        ConfigShape {
            rules_per_table: self.tables.iter().map(|t| t.rules.len()).collect(),
            funcs: self
                .functions
                .iter()
                .map(|f| (f.schema.scope_len(Scope::Global), f.schema.arrays().len()))
                .collect(),
        }
    }

    /// Check `ops` against the evolving configuration shape and decode
    /// shipped programs; all-or-nothing.
    fn validate_ops(&self, ops: &[EnclaveOp]) -> Result<Vec<ReadyOp>, ApplyError> {
        let mut shape = self.shape();
        let mut ready = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let r =
                match op {
                    EnclaveOp::Reset => {
                        shape.rules_per_table = vec![0];
                        shape.funcs.clear();
                        ReadyOp::Reset
                    }
                    EnclaveOp::CreateTable => {
                        shape.rules_per_table.push(0);
                        ReadyOp::CreateTable
                    }
                    EnclaveOp::ClearTable { table } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        *n = 0;
                        ReadyOp::ClearTable(*table)
                    }
                    EnclaveOp::InstallFunction {
                        name,
                        bytecode,
                        schema,
                        concurrency,
                    } => {
                        let f = InstalledFunction::from_shipped(
                            name,
                            bytecode,
                            schema.clone(),
                            *concurrency,
                        )
                        .map_err(|e| ApplyError::BadBytecode {
                            op: i,
                            reason: format!("{e:?}"),
                        })?;
                        shape
                            .funcs
                            .push((schema.scope_len(Scope::Global), schema.arrays().len()));
                        ReadyOp::InstallFunction(Box::new(f))
                    }
                    EnclaveOp::InstallRule { table, spec, func } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        if *func >= shape.funcs.len() {
                            return Err(ApplyError::NoSuchFunction { op: i, func: *func });
                        }
                        *n += 1;
                        ReadyOp::InstallRule {
                            table: *table,
                            spec: spec.clone(),
                            func: *func,
                        }
                    }
                    EnclaveOp::RemoveRule { table, rule } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        if *rule >= *n {
                            return Err(ApplyError::NoSuchRule { op: i, rule: *rule });
                        }
                        *n -= 1;
                        ReadyOp::RemoveRule {
                            table: *table,
                            rule: *rule,
                        }
                    }
                    EnclaveOp::SetGlobal { func, slot, value } => {
                        let &(slots, _) = shape
                            .funcs
                            .get(*func)
                            .ok_or(ApplyError::NoSuchFunction { op: i, func: *func })?;
                        if *slot >= slots {
                            return Err(ApplyError::NoSuchSlot { op: i, slot: *slot });
                        }
                        ReadyOp::SetGlobal {
                            func: *func,
                            slot: *slot,
                            value: *value,
                        }
                    }
                    EnclaveOp::SetArray {
                        func,
                        array,
                        values,
                    } => {
                        let &(_, arrays) = shape
                            .funcs
                            .get(*func)
                            .ok_or(ApplyError::NoSuchFunction { op: i, func: *func })?;
                        if *array >= arrays {
                            return Err(ApplyError::NoSuchArray {
                                op: i,
                                array: *array,
                            });
                        }
                        ReadyOp::SetArray {
                            func: *func,
                            array: *array,
                            values: values.clone(),
                        }
                    }
                };
            ready.push(r);
        }
        Ok(ready)
    }

    /// Apply one validated op. Infallible by construction: validation
    /// checked every index against the shape this op meets.
    fn apply_ready(&mut self, op: ReadyOp) {
        match op {
            ReadyOp::Reset => self.reset_config(),
            ReadyOp::CreateTable => {
                self.create_table();
            }
            ReadyOp::ClearTable(t) => self.clear_table(TableId(t)),
            ReadyOp::InstallFunction(f) => {
                self.install_function(*f);
            }
            ReadyOp::InstallRule { table, spec, func } => {
                self.install_rule(TableId(table), spec, FuncId(func));
            }
            ReadyOp::RemoveRule { table, rule } => {
                let removed = self.remove_rule(TableId(table), rule);
                debug_assert!(removed, "validated rule index");
            }
            ReadyOp::SetGlobal { func, slot, value } => self.set_global(FuncId(func), slot, value),
            ReadyOp::SetArray {
                func,
                array,
                values,
            } => self.set_array(FuncId(func), array, values),
        }
    }

    // ------------------------------------------------------------------
    // data path
    // ------------------------------------------------------------------

    /// Run the match-action pipeline on one egress packet. This is the
    /// routine the microbenchmarks time; `on_egress` is a thin wrapper.
    pub fn process(&mut self, packet: &mut Packet, rng: &mut SimRng, now: Time) -> HookVerdict {
        self.process_dir(packet, rng, now, FlowDirection::Egress)
    }

    /// Run the match-action pipeline with an explicit direction.
    pub fn process_dir(
        &mut self,
        packet: &mut Packet,
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
    ) -> HookVerdict {
        self.stats.packets += 1;
        self.last_now = now;
        let sampled = self.sampler.sample();
        let stage_t = sampled.then(std::time::Instant::now);

        // --- classify: class list, message identity, per-packet RNG ----
        self.classes.clear();
        classify(packet, &self.flow_rules, &mut self.classes);
        let msg_id = message_id(packet);
        let mut prng = rng.fork_packet();

        // sampled packet: open a fresh trace rooted at a "pkt" span, with
        // the classify stage already timed and recorded
        let at = now.as_nanos();
        let trace = stage_t.map(|t0| {
            let classify_ns = t0.elapsed().as_nanos() as u64;
            self.stage_hists[STAGE_CLASSIFY].record(classify_ns);
            let trace_id = self.spans.next_span_id();
            let root = self
                .spans
                .begin(TraceContext::sampled(trace_id, 0), "pkt", at);
            self.spans.record(
                TraceContext::sampled(trace_id, root),
                "classify",
                at,
                at + classify_ns,
            );
            self.flight[0].record(FlightEvent {
                at_ns: at,
                lane: 0,
                kind: FlightKind::Classify,
                a: u64::from(self.classes.first().copied().unwrap_or(0)),
                b: classify_ns,
            });
            (trace_id, root, classify_ns, std::time::Instant::now())
        });

        // --- match + execute + epilogue, on lane 0's interpreter ---------
        let mut func_samples = Vec::new();
        let (walk, punted) = Walker {
            tables: &self.tables,
            bindings: &self.pkt_bindings,
            funcs: Funcs::Owner {
                functions: &mut self.functions,
                states: &mut self.states,
                repl: &mut self.repl,
            },
            table_counts: &mut self.table_counts,
            func_counts: &mut self.func_counts,
            stats: &mut self.stats,
            interp: self.pool.lane_mut(0),
            ring: &mut self.flight[0],
            samples: &mut func_samples,
            scratch: &mut self.scratch,
            lane: 0,
            batch_idx: 0,
            now,
            direction,
            fail_open: self.config.fail_open,
        }
        .packet(&self.classes, msg_id, packet, &mut prng, sampled, None);
        if let Some(p) = punted {
            self.push_punt(p);
        }
        for (fid, ns) in func_samples {
            self.func_latency[fid].record(ns);
        }
        if let Some((trace_id, root, classify_ns, t_walk)) = trace {
            let walk_ns = t_walk.elapsed().as_nanos() as u64;
            self.stage_hists[STAGE_EXECUTE].record(walk_ns);
            self.spans.record(
                TraceContext::sampled(trace_id, root),
                "execute",
                at + classify_ns,
                at + classify_ns + walk_ns,
            );
            self.spans.end(root, at + classify_ns + walk_ns);
        }
        if walk.fault {
            self.freeze_flight("vm_trap");
        }
        walk.verdict
    }

    /// Run the match-action pipeline on a batch of egress packets.
    ///
    /// Equivalent — verdict for verdict, header byte for header byte,
    /// state word for state word — to calling [`process`](Self::process)
    /// on each packet in order. On the caller's thread it *is* that loop;
    /// when every installed function is interpreted and non-`Serialized`
    /// and the batch is large enough, message lanes execute on the worker
    /// pool instead.
    pub fn process_batch(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
    ) -> Vec<HookVerdict> {
        self.process_batch_dir(packets, rng, now, FlowDirection::Egress)
    }

    /// Batch processing with an explicit direction.
    pub fn process_batch_dir(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
    ) -> Vec<HookVerdict> {
        let mut out = Vec::with_capacity(packets.len());
        self.process_batch_dir_into(packets, rng, now, direction, &mut out);
        out
    }

    /// Allocation-free egress batch entry point: one verdict per packet
    /// is *appended* to `out` in packet order, so a caller can reuse a
    /// single verdict buffer across batches.
    pub fn process_batch_into(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        out: &mut Vec<HookVerdict>,
    ) {
        self.process_batch_dir_into(packets, rng, now, FlowDirection::Egress, out);
    }

    /// Allocation-free batch processing with an explicit direction.
    pub fn process_batch_dir_into(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
        out: &mut Vec<HookVerdict>,
    ) {
        if packets.is_empty() {
            return;
        }
        if self.parallel_eligible(packets.len()) {
            self.batches_parallel += 1;
            self.process_batch_parallel(packets, rng, now, direction, out);
        } else {
            self.batches_serial += 1;
            out.reserve(packets.len());
            for p in packets.iter_mut() {
                let v = self.process_dir(p, rng, now, direction);
                out.push(v);
            }
        }
    }

    /// May this batch take the parallel path? All functions lane-safe
    /// (interpreted, not `Serialized`), more than one lane, batch large
    /// enough — in total and per lane — to pay for the worker handoff,
    /// and enough message-state headroom that lane-side block creation
    /// can never trigger a FIFO eviction (eviction order is only defined
    /// on the caller's thread).
    fn parallel_eligible(&self, n: usize) -> bool {
        self.lane_safe
            && !self.functions.is_empty()
            && self.pool.lanes() > 1
            && n >= self.config.parallel_batch_min.max(1)
            && n / self.pool.lanes() >= self.config.parallel_per_lane_min.max(1)
            && self.states.iter().all(|s| s.headroom() >= n)
    }

    /// The lane fan-out: classify and resolve table 0 for the whole batch
    /// on the caller's thread (RNG forks and sampler draws in batch
    /// order), partition by message id, let each lane walk its share, then
    /// merge counters and replay punts and block creations in packet
    /// order.
    fn process_batch_parallel(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
        out: &mut Vec<HookVerdict>,
    ) {
        let n = packets.len();
        let lanes = self.pool.lanes();
        self.stats.packets += n as u64;
        self.last_now = now;
        let tracing = self.sampler.enabled();
        if tracing {
            self.flight[0].record(FlightEvent {
                at_ns: now.as_nanos(),
                lane: 0,
                kind: FlightKind::BatchStart,
                a: n as u64,
                b: 0,
            });
        }
        let t_classify = tracing.then(std::time::Instant::now);
        let mut bs = std::mem::take(&mut self.batch);
        bs.clear_columns();

        // --- classify stage: SoA columns, batch order (RNG forks and
        // sampler draws must match the per-packet path) ------------------
        for p in packets.iter() {
            let start = bs.key_col.len() as u32;
            classify(p, &self.flow_rules, &mut bs.key_col);
            bs.ranges.push((start, bs.key_col.len() as u32 - start));
            bs.msg_ids.push(message_id(p));
            bs.prngs.push(rng.fork_packet());
            bs.sampled.push(self.sampler.sample());
        }
        let classify_ns = t_classify.map(|t| t.elapsed().as_nanos() as u64);
        let t_match = tracing.then(std::time::Instant::now);

        // --- match stage: batch-probe table 0 over the flat key column --
        {
            let BatchScratch {
                key_col,
                ranges,
                firsts,
                ..
            } = &mut bs;
            for &(start, len) in ranges.iter() {
                let classes = &key_col[start as usize..(start + len) as usize];
                firsts.push(lookup(&self.tables, &mut self.table_counts, 0, classes));
            }
        }
        let match_ns = t_match.map(|t| t.elapsed().as_nanos() as u64);
        let t_execute = tracing.then(std::time::Instant::now);

        // --- partition into lanes by message id -------------------------
        bs.lane_idx.resize_with(lanes, Vec::new);
        for v in bs.lane_idx.iter_mut() {
            v.clear();
        }
        for (i, &m) in bs.msg_ids.iter().enumerate() {
            bs.lane_idx[(m % lanes as u64) as usize].push(i as u32);
        }

        // --- execute stage: persistent worker lanes ---------------------
        let rule_counts: Vec<usize> = self.tables.iter().map(|t| t.rules.len()).collect();
        let scratch_len = self.scratch.len();
        let nfuncs = self.functions.len();
        bs.lane_scratch.resize_with(lanes, LaneScratch::default);
        for scr in bs.lane_scratch.iter_mut() {
            scr.reset(&rule_counts, nfuncs, scratch_len);
        }
        let mut lane_funcs: Vec<Vec<LaneFn<'_>>> =
            (0..lanes).map(|_| Vec::with_capacity(nfuncs)).collect();
        for ((f, state), repl) in self
            .functions
            .iter()
            .zip(self.states.iter_mut())
            .zip(self.repl.iter())
        {
            let ActionImpl::Interpreted(program) = &f.action else {
                unreachable!("lane fan-out requires interpreted functions");
            };
            let (shards, global, arrays) = state.split_shards();
            let repl = repl.as_ref().map(|h| ReplShared {
                spec: h.spec(),
                remote: h.remote_globals(),
                remote_arrays: h.remote_arrays(),
            });
            debug_assert_eq!(shards.len(), lanes, "shard count tracks lane count");
            for (lane, shard) in shards.into_iter().enumerate() {
                lane_funcs[lane].push(LaneFn {
                    program,
                    concurrency: f.concurrency,
                    shard,
                    global,
                    arrays,
                    repl,
                });
            }
        }

        let slab = PacketSlab::new(packets);
        let fail_open = self.config.fail_open;
        {
            let BatchScratch {
                key_col,
                ranges,
                msg_ids,
                prngs,
                sampled,
                firsts,
                lane_idx,
                lane_scratch,
            } = &mut bs;
            let key_col: &[u32] = key_col;
            let ranges: &[(u32, u32)] = ranges;
            let msg_ids: &[u64] = msg_ids;
            let prngs: &[PacketRng] = prngs;
            let sampled: &[bool] = sampled;
            let firsts: &[Lookup] = firsts;
            let mut tasks: Vec<LaneTask<'_, '_>> = lane_idx
                .iter()
                .zip(lane_scratch.iter_mut())
                .zip(lane_funcs)
                .zip(self.pool.lanes_mut().iter_mut())
                .zip(self.flight.iter_mut())
                .enumerate()
                .map(|(lane, ((((idxs, scr), funcs), interp), ring))| LaneTask {
                    idxs,
                    key_col,
                    ranges,
                    msg_ids,
                    prngs,
                    sampled,
                    firsts,
                    slab: &slab,
                    tables: &self.tables,
                    bindings: &self.pkt_bindings,
                    funcs,
                    interp,
                    ring,
                    scr,
                    now,
                    direction,
                    fail_open,
                    lane: lane as u16,
                })
                .collect();
            self.lane_pool.run(&mut tasks, run_lane_task);
        }
        let execute_ns = t_execute.map(|t| t.elapsed().as_nanos() as u64);

        // --- merge stage: counters in lane order, packet-ordered queues --
        let base = out.len();
        out.resize(base + n, HookVerdict::Pass);
        let mut all_punts: Vec<(u32, Packet)> = Vec::new();
        let mut all_created: Vec<(usize, usize, u64)> = Vec::new();
        let mut faulted = false;
        for scr in bs.lane_scratch.iter_mut() {
            faulted |= scr.stats.faults > 0;
            for &(fid, ns) in &scr.func_samples {
                self.func_latency[fid].record(ns);
            }
            self.stats.merge(&scr.stats);
            for (total, d) in self.table_counts.iter_mut().zip(&scr.table_counts) {
                total.merge(d);
            }
            for (total, d) in self.func_counts.iter_mut().zip(&scr.func_counts) {
                total.merge(d);
            }
            for (idx, v) in scr.verdicts.drain(..) {
                out[base + idx as usize] = v;
            }
            all_punts.append(&mut scr.punts);
            all_created.append(&mut scr.created);
        }
        // replay lane-side message-block creations and punts in packet
        // arrival order, so FIFO bookkeeping and the mailbox match the
        // per-packet path exactly (sorts are stable; each packet lives on one
        // lane, so its entries are already internally ordered)
        all_created.sort_by_key(|&(idx, _, _)| idx);
        for (_, fid, msg_id) in all_created {
            self.states[fid].note_created(msg_id);
        }
        all_punts.sort_by_key(|&(idx, _)| idx);
        for (_, p) in all_punts {
            self.push_punt(p);
        }
        self.batch = bs;
        // batch-level stage trace: one root span with the three pipeline
        // stages as children, laid out back to back from the batch instant
        if let (Some(c), Some(m), Some(e)) = (classify_ns, match_ns, execute_ns) {
            self.stage_hists[STAGE_CLASSIFY].record(c);
            self.stage_hists[STAGE_MATCH].record(m);
            self.stage_hists[STAGE_EXECUTE].record(e);
            let at = now.as_nanos();
            let trace_id = self.spans.next_span_id();
            let root = self
                .spans
                .begin(TraceContext::sampled(trace_id, 0), "batch", at);
            let ctx = TraceContext::sampled(trace_id, root);
            self.spans.record(ctx, "classify", at, at + c);
            self.spans.record(ctx, "match", at + c, at + c + m);
            self.spans
                .record(ctx, "execute", at + c + m, at + c + m + e);
            self.spans.end(root, at + c + m + e);
        }
        if faulted {
            self.freeze_flight("vm_trap");
        }
    }

    /// Append to the bounded punt mailbox: when full, pop (and count) the
    /// oldest punt first — O(1) on the ring.
    fn push_punt(&mut self, packet: Packet) {
        if self.config.max_punted == 0 {
            self.stats.punt_drops += 1;
            return;
        }
        if let Err(packet) = self.punt_tx.push(packet) {
            let _ = self.punt_rx.pop();
            self.stats.punt_drops += 1;
            let pushed = self.punt_tx.push(packet).is_ok();
            debug_assert!(pushed, "punt ring has a free slot after eviction");
        }
    }

    // ------------------------------------------------------------------
    // telemetry (stats-pull API)
    // ------------------------------------------------------------------

    /// Copy every data-path counter into a point-in-time
    /// [`StatsSnapshot`]: enclave totals, per-table and per-rule match
    /// counts, per-function invocation/fault/verdict counts, and the
    /// interpreter pool's accumulated cost (summed over lanes). `flows` is
    /// empty and `host` is `None` — the controller merges those in from
    /// the host stack (see
    /// [`Controller::pull_host_stats`](crate::Controller::pull_host_stats)).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let enclave = self.enclave_counters();
        let tables = self
            .table_counts
            .iter()
            .enumerate()
            .map(|(i, c)| TableCounters {
                table: i,
                lookups: c.lookups,
                matches: c.matched,
                misses: c.missed,
            })
            .collect();
        let rules = self
            .tables
            .iter()
            .zip(&self.table_counts)
            .enumerate()
            .flat_map(|(ti, (t, c))| {
                let hits = t.rules.iter().zip(&c.rule_hits).enumerate();
                hits.map(move |(ri, (r, &hits))| RuleCounters {
                    table: ti,
                    rule: ri,
                    func: r.func.0,
                    hits,
                })
            })
            .collect();
        let functions = self
            .functions
            .iter()
            .zip(&self.func_counts)
            .enumerate()
            .map(|(i, (f, c))| FunctionCounters {
                func: i,
                name: f.name.clone(),
                invocations: c.invocations,
                faults: c.faults,
                drops: c.drops,
                punts: c.punts,
                header_modifies: c.header_modifies,
                enqueue_charge_bytes: c.enqueue_charge_bytes,
            })
            .collect();
        let vmc = self.pool.counters();
        let opcode_counts = match self.pool.opcode_histogram() {
            Some(hist) => hist
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (eden_vm::Op::kind_name(i).to_string(), n))
                .collect(),
            None => Vec::new(),
        };
        StatsSnapshot {
            captured_at_ns: self.last_now.as_nanos(),
            enclave,
            tables,
            rules,
            functions,
            vm: VmCounters {
                invocations: vmc.invocations,
                traps: vmc.traps,
                steps: vmc.steps,
                elapsed_ns: vmc.elapsed_ns,
                opcode_counts,
            },
            flows: Vec::new(),
            host: None,
            latencies: self.latency_stats(),
        }
    }

    /// The enclave-total counters as the telemetry type.
    fn enclave_counters(&self) -> EnclaveCounters {
        EnclaveCounters {
            processed: self.stats.packets,
            matched: self.stats.matched,
            misses: self.stats.missed,
            forwarded: self.stats.forwarded,
            dropped: self.stats.dropped,
            punted: self.stats.punted_to_controller,
            queued: self.stats.queued,
            faults: self.stats.faults,
            header_modifies: self.stats.header_modifies,
            enqueue_charge_bytes: self.stats.enqueue_charge_bytes,
            punt_drops: self.stats.punt_drops,
            table_loop_aborts: self.stats.table_loop_aborts,
            batches_serial: self.batches_serial,
            batches_parallel: self.batches_parallel,
        }
    }

    /// How batches ran, `(packet by packet on the caller's thread, fanned
    /// out to lanes)` — telemetry for the per-lane fan-out gate.
    pub fn batch_path_counts(&self) -> (u64, u64) {
        (self.batches_serial, self.batches_parallel)
    }

    /// Named latency histograms for a snapshot: pipeline stages, sampled
    /// VM execution, and per-function cost. Empty (and the section
    /// entirely absent) unless tracing is enabled, so default snapshots —
    /// and the serial/batch equivalence they are compared by — carry no
    /// wall-clock noise.
    fn latency_stats(&self) -> Vec<LatencyStat> {
        if !self.sampler.enabled() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (name, h) in STAGE_NAMES.iter().zip(&self.stage_hists) {
            if !h.is_empty() {
                out.push(LatencyStat::new(*name, h.clone()));
            }
        }
        let vm = self.pool.latency_histogram();
        if !vm.is_empty() {
            out.push(LatencyStat::new("vm.exec", vm));
        }
        for (f, h) in self.functions.iter().zip(&self.func_latency) {
            if !h.is_empty() {
                out.push(LatencyStat::new(format!("func.{}", f.name), h.clone()));
            }
        }
        out
    }

    /// Enable or disable the interpreter pool's per-opcode histogram (off
    /// by default; see [`eden_vm::Interpreter::set_opcode_profiling`]).
    pub fn set_opcode_profiling(&mut self, enabled: bool) {
        self.pool.set_opcode_profiling(enabled);
    }

    // ------------------------------------------------------------------
    // tracing + flight recorder
    // ------------------------------------------------------------------

    /// Change the data-path trace sampling rate at runtime (0 disables;
    /// see [`EnclaveConfig::trace_sample`]).
    pub fn set_trace_sample(&mut self, every: u32) {
        self.config.trace_sample = every;
        self.sampler = Sampler::every(every);
    }

    /// Whether data-path tracing is enabled at all.
    pub fn tracing_enabled(&self) -> bool {
        self.sampler.enabled()
    }

    /// Set the host address spans (and flight dumps) are stamped with —
    /// agents learn theirs at install time.
    pub fn set_trace_host(&mut self, host: u32) {
        self.spans.set_host(host);
    }

    /// Record a completed control-plane span against this host's sink
    /// (the agent's prepare/commit handlers use this). Returns the span id.
    pub fn record_span(
        &mut self,
        ctx: TraceContext,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.spans.record(ctx, name, start_ns, end_ns)
    }

    /// Remove and return up to `max` completed spans, oldest first (the
    /// agent ships these back to the controller).
    pub fn drain_spans(&mut self, max: usize) -> Vec<Span> {
        self.spans.drain(max)
    }

    /// Completed spans waiting for collection.
    pub fn pending_spans(&self) -> usize {
        self.spans.pending()
    }

    /// Record a control-plane flight event into ring 0, stamped with the
    /// enclave's last-seen packet time.
    pub fn flight_record(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.flight[0].record(FlightEvent {
            at_ns: self.last_now.as_nanos(),
            lane: 0,
            kind,
            a,
            b,
        });
    }

    /// Freeze the per-lane event rings into a [`FlightDump`] (last
    /// events, open spans, and a counter snapshot), emit it per
    /// `EDEN_FLIGHT`, and keep it for
    /// [`last_flight_dump`](Self::last_flight_dump).
    pub fn freeze_flight(&mut self, reason: &str) {
        let dump = FlightDump::freeze(
            reason,
            self.spans.host(),
            self.last_now.as_nanos(),
            &self.flight,
            self.spans.open_spans(),
            self.enclave_counters(),
        );
        dump.emit();
        self.last_dump = Some(dump);
    }

    /// The most recent flight-recorder dump, if anything froze it.
    pub fn last_flight_dump(&self) -> Option<&FlightDump> {
        self.last_dump.as_ref()
    }

    /// Remove and return the most recent flight-recorder dump (the
    /// fuzzer attaches these to repro files).
    pub fn take_flight_dump(&mut self) -> Option<FlightDump> {
        self.last_dump.take()
    }
}

impl Telemetry for Enclave {
    fn snapshot(&self) -> StatsSnapshot {
        self.stats_snapshot()
    }
}

impl PacketHook for Enclave {
    fn on_egress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        self.process_dir(packet, env.rng, env.now, FlowDirection::Egress)
    }

    fn on_egress_batch(
        &mut self,
        packets: &mut [Packet],
        env: &mut HookEnv<'_>,
        verdicts: &mut Vec<HookVerdict>,
    ) {
        self.process_batch_dir_into(packets, env.rng, env.now, FlowDirection::Egress, verdicts);
    }

    fn on_ingress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        if self.config.process_ingress {
            self.process_dir(packet, env.rng, env.now, FlowDirection::Ingress)
        } else {
            HookVerdict::Pass
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ----------------------------------------------------------------------
// classify stage
// ----------------------------------------------------------------------

/// Derive the class list: stage-assigned metadata plus enclave five-tuple
/// rules.
fn classify(packet: &Packet, flow_rules: &[(FiveTupleMatch, ClassId)], out: &mut Vec<u32>) {
    if let Some(meta) = &packet.meta {
        out.extend_from_slice(&meta.classes);
    }
    for (spec, class) in flow_rules {
        if spec.matches(packet) {
            out.push(class.0);
        }
    }
}

/// Message identity: stage metadata, else flow-as-message.
fn message_id(packet: &Packet) -> u64 {
    match &packet.meta {
        Some(m) if m.msg_id != 0 => m.msg_id,
        _ => flow_msg_id(packet),
    }
}

/// Flow-as-message identity for unclassified traffic: a stable,
/// direction-canonical hash of the five-tuple, offset so it cannot collide
/// with stage message ids. Both directions of a connection map to the same
/// message id, which is what lets one function's flow state implement
/// connection tracking across egress and ingress.
fn flow_msg_id(p: &Packet) -> u64 {
    match p.five_tuple() {
        Some((si, sp, di, dp, pr)) => {
            let a = (u64::from(si) << 16) | u64::from(sp);
            let b = (u64::from(di) << 16) | u64::from(dp);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let mut h: u64 = 0xcbf29ce484222325;
            for v in [lo, hi, u64::from(pr)] {
                h ^= v;
                h = h.wrapping_mul(0x100000001b3);
            }
            h | (1 << 63)
        }
        None => 1 << 63,
    }
}

// ----------------------------------------------------------------------
// match stage
// ----------------------------------------------------------------------

/// Outcome of one table lookup.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    /// The table id does not exist (bad `GotoTable`).
    NoTable,
    /// No rule matched.
    Miss,
    /// First matching rule's action function.
    Hit(usize),
}

/// Per-table counters, kept apart from the read-only
/// [`MatchActionTable`] so worker lanes can share the tables while each
/// counts into a block of its own. The enclave's blocks hold the totals;
/// a lane's are merged into them after every fan-out.
#[derive(Debug, Default)]
struct TableCounts {
    lookups: u64,
    /// Lookups that hit some rule.
    matched: u64,
    /// Lookups that hit no rule.
    missed: u64,
    /// Packets that matched each rule, parallel to the table's rules.
    rule_hits: Vec<u64>,
}

impl TableCounts {
    fn for_rules(rules: usize) -> TableCounts {
        TableCounts {
            rule_hits: vec![0; rules],
            ..TableCounts::default()
        }
    }

    fn merge(&mut self, d: &TableCounts) {
        self.lookups += d.lookups;
        self.matched += d.matched;
        self.missed += d.missed;
        for (total, &hits) in self.rule_hits.iter_mut().zip(&d.rule_hits) {
            *total += hits;
        }
    }
}

/// Resolve `classes` against `table`, counting into `counts[table]`.
fn lookup(
    tables: &[MatchActionTable],
    counts: &mut [TableCounts],
    table: usize,
    classes: &[u32],
) -> Lookup {
    let Some(tbl) = tables.get(table) else {
        return Lookup::NoTable;
    };
    let c = &mut counts[table];
    c.lookups += 1;
    match tbl.find(classes) {
        Some(idx) => {
            c.matched += 1;
            c.rule_hits[idx] += 1;
            Lookup::Hit(tbl.rules[idx].func.0)
        }
        None => {
            c.missed += 1;
            Lookup::Miss
        }
    }
}

// ----------------------------------------------------------------------
// execute stage
// ----------------------------------------------------------------------

/// What one invocation produced.
struct InvokeOut {
    result: Result<Outcome, VmError>,
    queue: Option<(i64, i64)>,
    header_modifies: u64,
}

/// Per-function counters, kept apart from the read-only
/// [`InstalledFunction`] for the same reason as [`TableCounts`]: the
/// enclave's blocks hold the totals, a lane's are merged into them after
/// every fan-out.
#[derive(Debug, Default, Clone)]
struct FuncCounts {
    /// Invocations completed without a trap.
    invocations: u64,
    /// Invocations terminated by a trap (the packet then fails open or
    /// closed, per §3.4.3's isolation guarantee).
    faults: u64,
    /// Invocations that returned a drop verdict.
    drops: u64,
    /// Invocations that punted the packet to the controller.
    punts: u64,
    /// Packet-header fields the function wrote.
    header_modifies: u64,
    /// Bytes the function charged to queue verdicts (Pulsar accounting).
    enqueue_charge_bytes: u64,
}

impl FuncCounts {
    fn record(&mut self, out: &InvokeOut) {
        self.header_modifies += out.header_modifies;
        match &out.result {
            Ok(outcome) => {
                self.invocations += 1;
                if let Some((_, charge)) = out.queue {
                    self.enqueue_charge_bytes += charge.max(0) as u64;
                }
                match outcome {
                    Outcome::Dropped => self.drops += 1,
                    Outcome::SentToController => self.punts += 1,
                    Outcome::Done | Outcome::GotoTable(_) => {}
                }
            }
            Err(_) => self.faults += 1,
        }
    }

    fn merge(&mut self, d: &FuncCounts) {
        self.invocations += d.invocations;
        self.faults += d.faults;
        self.drops += d.drops;
        self.punts += d.punts;
        self.header_modifies += d.header_modifies;
        self.enqueue_charge_bytes += d.enqueue_charge_bytes;
    }
}

/// A worker lane's handle on one installed function: the program, this
/// lane's message shard, and the globals every lane shares read-only.
struct LaneFn<'a> {
    program: &'a Program,
    concurrency: Concurrency,
    shard: &'a mut MsgShard,
    global: &'a [i64],
    arrays: &'a [Vec<i64>],
    /// Read-only replica view (replicated functions only). Lanes never
    /// write globals, so no exclusive form is needed here.
    repl: Option<ReplShared<'a>>,
}

/// How a thread reaches the installed functions and their state.
enum Funcs<'w, 'f> {
    /// The caller's thread: every function and its whole state, held
    /// exclusively — native closures run, creating a message block may
    /// evict, globals are writable and sequenced stores queue.
    Owner {
        functions: &'w mut [InstalledFunction],
        states: &'w mut [FunctionState],
        repl: &'w mut [Option<HostRepl>],
    },
    /// A worker lane: interpreted functions over this lane's shards.
    /// Headroom was verified before the fan-out, so creating a block here
    /// never evicts; `created` lists `(batch index, function, message)`
    /// for the packet-order FIFO replay at merge time.
    Lane {
        funcs: &'w mut [LaneFn<'f>],
        created: &'w mut Vec<(usize, usize, u64)>,
    },
}

/// The code one invocation runs.
enum ActionRef<'a> {
    Interpreted(&'a Program),
    Native(&'a mut NativeFn),
}

/// Everything one thread takes packets through match + execute with: the
/// read-only configuration, its view of the functions, and the counters,
/// interpreter, flight ring and scratch it alone writes. The caller's
/// thread builds one per packet over the enclave's own fields; a worker
/// lane builds one per batch over its [`LaneTask`]. Both then run the
/// same [`packet`](Self::packet), which is what makes lane/per-packet
/// equivalence structural rather than a property to re-prove after every
/// change.
struct Walker<'w, 'f> {
    tables: &'w [MatchActionTable],
    bindings: &'w [Vec<(Option<HeaderField>, Access)>],
    funcs: Funcs<'w, 'f>,
    table_counts: &'w mut [TableCounts],
    func_counts: &'w mut [FuncCounts],
    stats: &'w mut EnclaveStats,
    interp: &'w mut Interpreter,
    ring: &'w mut FlightRing,
    /// Sampled `(function, elapsed ns)` pairs, folded into the enclave's
    /// per-function histograms once the walker is done.
    samples: &'w mut Vec<(usize, u64)>,
    /// Packet-lifetime scratch for unmapped fields.
    scratch: &'w mut [i64],
    lane: u16,
    /// Position of the current packet in its batch.
    batch_idx: usize,
    now: Time,
    direction: FlowDirection,
    fail_open: bool,
}

impl Walker<'_, '_> {
    fn flight(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.ring.record(FlightEvent {
            at_ns: self.now.as_nanos(),
            lane: self.lane,
            kind,
            a,
            b,
        });
    }

    /// One packet through match + execute and the per-packet epilogue:
    /// fold the walk into the counters, leave its flight events, and move
    /// a punted packet out of its slot. The punt is returned for the
    /// caller to queue in packet order; the slot keeps the canonical
    /// consumed placeholder (the verdict is `Drop`, so the stack releases
    /// it either way).
    ///
    /// Forced inline, with [`walk_packet`](Self::walk_packet): built and
    /// consumed in one frame the walker's fields stay in registers; as
    /// calls they measured +15 ns a packet (34 → 49 ns on a miss).
    #[inline(always)]
    fn packet(
        &mut self,
        classes: &[u32],
        msg_id: u64,
        packet: &mut Packet,
        rng: &mut PacketRng,
        sampled: bool,
        first: Option<Lookup>,
    ) -> (WalkResult, Option<Packet>) {
        // not `fill(0)`: on an empty scratch (no function installed) that
        // measured ~100 ns a packet on the miss path
        self.scratch.iter_mut().for_each(|v| *v = 0);
        let walk = self.walk_packet(classes, msg_id, packet, rng, sampled, first);
        self.stats.account_walk(&walk);
        if walk.punt && sampled {
            let class = classes.first().copied().unwrap_or(0);
            self.flight(FlightKind::Punt, u64::from(class), 0);
        }
        if walk.loop_abort {
            self.flight(FlightKind::TableLoop, 0, 0);
        }
        let punted = walk
            .punt
            .then(|| std::mem::replace(packet, Packet::consumed()));
        (walk, punted)
    }

    /// Run function `fid` against one packet and count the outcome.
    /// `timed` (a sampled packet) also times the invocation and leaves an
    /// `Execute` flight event.
    fn invoke(
        &mut self,
        fid: usize,
        msg_id: u64,
        packet: &mut Packet,
        rng: &mut PacketRng,
        timed: bool,
    ) -> InvokeOut {
        let (action, concurrency, msg, state, repl) = match &mut self.funcs {
            Funcs::Owner {
                functions,
                states,
                repl,
            } => {
                let f = &mut functions[fid];
                let action = match &mut f.action {
                    ActionImpl::Interpreted(program) => ActionRef::Interpreted(program),
                    ActionImpl::Native(native) => ActionRef::Native(native),
                };
                let (msg, global, arrays) = states[fid].split_for(msg_id);
                let repl = match repl[fid].as_mut() {
                    Some(h) => ReplRef::Excl(h),
                    None => ReplRef::Off,
                };
                let state = GlobalView::Excl { global, arrays };
                (action, f.concurrency, msg, state, repl)
            }
            Funcs::Lane { funcs, created } => {
                let f = &mut funcs[fid];
                let (msg, was_created) = f.shard.touch(msg_id);
                if was_created {
                    created.push((self.batch_idx, fid, msg_id));
                }
                let repl = match f.repl {
                    Some(s) => ReplRef::Shared(s),
                    None => ReplRef::Off,
                };
                let state = GlobalView::Shared {
                    global: f.global,
                    arrays: f.arrays,
                };
                let action = ActionRef::Interpreted(f.program);
                (action, f.concurrency, msg, state, repl)
            }
        };
        let mut host = InvocationHost {
            packet,
            bindings: &self.bindings[fid],
            scratch: &mut *self.scratch,
            msg,
            state,
            repl,
            rng,
            now: self.now,
            direction: self.direction,
            queue: None,
            header_modifies: 0,
            concurrency,
        };
        let native = matches!(action, ActionRef::Native(_));
        let t = timed.then(std::time::Instant::now);
        let result = match action {
            ActionRef::Interpreted(program) => self.interp.run(program, &mut host),
            ActionRef::Native(f) => f(&mut NativeEnv::new(&mut host)),
        };
        let out = InvokeOut {
            result,
            queue: host.queue,
            header_modifies: host.header_modifies,
        };
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.samples.push((fid, ns));
            self.flight(FlightKind::Execute, fid as u64, ns);
        }
        if out.result.is_err() {
            // native faults have no trap site; use the kind-count sentinel
            let site = self.interp.last_trap().filter(|_| !native);
            let (a, b) = site
                .map(|s| (s.op_kind as u64, u64::from(s.pc)))
                .unwrap_or((eden_vm::Op::KIND_COUNT as u64, 0));
            self.flight(FlightKind::VmTrap, a, b);
        }
        self.func_counts[fid].record(&out);
        out
    }

    /// The table walk: lookup → invoke → verdict, with `GotoTable`
    /// continuations.
    #[inline(always)]
    fn walk_packet(
        &mut self,
        classes: &[u32],
        msg_id: u64,
        packet: &mut Packet,
        rng: &mut PacketRng,
        timed: bool,
        mut first: Option<Lookup>,
    ) -> WalkResult {
        let mut res = WalkResult {
            verdict: HookVerdict::Pass,
            punt: false,
            matched_any: false,
            fault: false,
            header_modifies: 0,
            loop_abort: false,
        };
        let mut verdict_queue: Option<(i64, i64)> = None;
        let mut table = 0usize;
        let mut hops = 0u32;
        'walk: loop {
            hops += 1;
            if hops > 8 {
                res.loop_abort = true; // table-loop guard: fail open, counted
                break 'walk;
            }
            let lookup = match first.take() {
                Some(precomputed) => precomputed,
                None => lookup(self.tables, self.table_counts, table, classes),
            };
            let fid = match lookup {
                Lookup::NoTable | Lookup::Miss => break 'walk,
                Lookup::Hit(fid) => fid,
            };
            res.matched_any = true;
            let out = self.invoke(fid, msg_id, packet, rng, timed);
            // header writes happened even if the function later trapped or
            // dropped, so they are merged on every exit path
            res.header_modifies += out.header_modifies;
            match out.result {
                Ok(outcome) => {
                    if let Some(q) = out.queue {
                        verdict_queue = Some(q);
                    }
                    match outcome {
                        Outcome::Done => break 'walk,
                        Outcome::Dropped => {
                            res.verdict = HookVerdict::Drop;
                            return res;
                        }
                        Outcome::SentToController => {
                            res.verdict = HookVerdict::Drop;
                            res.punt = true;
                            return res;
                        }
                        Outcome::GotoTable(t) => {
                            table = t as usize;
                            continue 'walk;
                        }
                    }
                }
                Err(_trap) => {
                    res.fault = true;
                    if self.fail_open {
                        break 'walk;
                    }
                    res.verdict = HookVerdict::Drop;
                    return res;
                }
            }
        }
        res.verdict = match verdict_queue {
            Some((queue, charge)) => HookVerdict::Queue {
                queue: queue.max(0) as usize,
                charge: charge.max(0) as u64,
            },
            None => HookVerdict::Pass,
        };
        res
    }
}

/// Reused struct-of-arrays scratch for the lane fan-out. Taken with
/// `mem::take` at batch start and restored after, so steady-state batches
/// run entirely out of recycled allocations.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Flat class-key column: every packet's class list, back to back.
    key_col: Vec<u32>,
    /// Per-packet `(start, len)` spans into `key_col`.
    ranges: Vec<(u32, u32)>,
    /// Message-identity column.
    msg_ids: Vec<u64>,
    /// Per-packet forked RNG column (fork order = batch order).
    prngs: Vec<PacketRng>,
    /// Trace-sampled flags (draw order = batch order).
    sampled: Vec<bool>,
    /// Match-stage output: table-0 resolution per packet.
    firsts: Vec<Lookup>,
    /// Per-lane packet-index partitions.
    lane_idx: Vec<Vec<u32>>,
    /// Per-lane execute-stage scratch and outputs.
    lane_scratch: Vec<LaneScratch>,
}

impl BatchScratch {
    fn clear_columns(&mut self) {
        self.key_col.clear();
        self.ranges.clear();
        self.msg_ids.clear();
        self.prngs.clear();
        self.sampled.clear();
        self.firsts.clear();
    }
}

/// One worker lane's reusable execute-stage scratch and outputs.
#[derive(Debug, Default)]
struct LaneScratch {
    verdicts: Vec<(u32, HookVerdict)>,
    stats: EnclaveStats,
    table_counts: Vec<TableCounts>,
    func_counts: Vec<FuncCounts>,
    /// `(batch index, packet)` punts, *moved* out of the slab.
    punts: Vec<(u32, Packet)>,
    /// `(batch index, function, message)` of state blocks this lane
    /// created, for packet-order FIFO replay at merge time.
    created: Vec<(usize, usize, u64)>,
    /// Sampled `(function, elapsed ns)` pairs from this lane.
    func_samples: Vec<(usize, u64)>,
    /// Packet-lifetime scratch for unmapped fields.
    pkt_scratch: Vec<i64>,
}

impl LaneScratch {
    fn reset(&mut self, rule_counts: &[usize], funcs: usize, scratch_len: usize) {
        self.verdicts.clear();
        self.stats = EnclaveStats::default();
        self.table_counts.clear();
        self.table_counts
            .extend(rule_counts.iter().map(|&n| TableCounts::for_rules(n)));
        self.func_counts.clear();
        self.func_counts.resize(funcs, FuncCounts::default());
        self.punts.clear();
        self.created.clear();
        self.func_samples.clear();
        self.pkt_scratch.clear();
        self.pkt_scratch.resize(scratch_len, 0);
    }
}

/// Everything one worker lane needs for the execute stage: its packet
/// indices, shared read-only views of the SoA columns / tables /
/// functions, its own state shards and interpreter, and its
/// [`LaneScratch`] outputs. Packets are written in place through the
/// shared [`PacketSlab`]; soundness rests on the lane partition being
/// disjoint (each batch index appears in exactly one lane's `idxs`).
struct LaneTask<'a, 'p> {
    idxs: &'a [u32],
    key_col: &'a [u32],
    ranges: &'a [(u32, u32)],
    msg_ids: &'a [u64],
    prngs: &'a [PacketRng],
    sampled: &'a [bool],
    firsts: &'a [Lookup],
    slab: &'a PacketSlab<'p>,
    tables: &'a [MatchActionTable],
    bindings: &'a [Vec<(Option<HeaderField>, Access)>],
    funcs: Vec<LaneFn<'a>>,
    interp: &'a mut Interpreter,
    ring: &'a mut FlightRing,
    scr: &'a mut LaneScratch,
    now: Time,
    direction: FlowDirection,
    fail_open: bool,
    lane: u16,
}

/// The per-lane execute stage: walk every packet index assigned to this
/// lane, reading the shared SoA columns and writing packets in place
/// through the [`PacketSlab`].
fn run_lane_task(_lane: usize, t: &mut LaneTask<'_, '_>) {
    let scr = &mut *t.scr;
    let mut walker = Walker {
        tables: t.tables,
        bindings: t.bindings,
        funcs: Funcs::Lane {
            funcs: &mut t.funcs,
            created: &mut scr.created,
        },
        table_counts: &mut scr.table_counts,
        func_counts: &mut scr.func_counts,
        stats: &mut scr.stats,
        interp: &mut *t.interp,
        ring: &mut *t.ring,
        samples: &mut scr.func_samples,
        scratch: &mut scr.pkt_scratch,
        lane: t.lane,
        batch_idx: 0,
        now: t.now,
        direction: t.direction,
        fail_open: t.fail_open,
    };
    for &idx in t.idxs {
        let i = idx as usize;
        let (start, len) = t.ranges[i];
        let classes = &t.key_col[start as usize..(start + len) as usize];
        let mut prng = t.prngs[i].clone();
        // SAFETY: lanes partition batch indices disjointly, so no other
        // lane touches this packet slot, and `LanePool::run`'s barrier
        // keeps the slab alive until every lane is done.
        let packet = unsafe { t.slab.pkt_mut(PacketRef(idx)) };
        walker.batch_idx = i;
        let first = Some(t.firsts[i]);
        let (walk, punted) = walker.packet(
            classes,
            t.msg_ids[i],
            packet,
            &mut prng,
            t.sampled[i],
            first,
        );
        if let Some(p) = punted {
            scr.punts.push((idx, p));
        }
        scr.verdicts.push((idx, walk.verdict));
    }
}

/// One packet's trip through the execute stage.
struct WalkResult {
    verdict: HookVerdict,
    /// Verdict was a controller punt (the epilogue moves the packet out).
    punt: bool,
    matched_any: bool,
    fault: bool,
    header_modifies: u64,
    loop_abort: bool,
}

/// Shared read-only replica view for a worker lane: the spec plus the
/// remote-contribution snapshots. Only mutated between batches, so lanes
/// read it without synchronization.
#[derive(Clone, Copy)]
struct ReplShared<'a> {
    spec: &'a ReplSpec,
    remote: &'a [i64],
    remote_arrays: &'a [Vec<i64>],
}

/// A function's view of its replication runtime during one invocation.
/// `Off` for non-replicated functions — the common case, one branch on
/// every global access. Writers (always `Serialized`, hence serial-path
/// only) get the exclusive form, which can queue sequenced ops; lanes get
/// the shared read-only form.
enum ReplRef<'a> {
    Off,
    Excl(&'a mut HostRepl),
    Shared(ReplShared<'a>),
}

impl ReplRef<'_> {
    /// Effective value of global `slot` given its local contribution.
    #[inline]
    fn read_global(&self, slot: usize, local: i64) -> i64 {
        let (spec, remote) = match self {
            ReplRef::Off => return local,
            ReplRef::Excl(h) => (h.spec(), h.remote_globals()),
            ReplRef::Shared(s) => (s.spec, s.remote),
        };
        match spec.global_mode(slot) {
            Some(mode) => merged_read(mode, remote.get(slot).copied().unwrap_or(0), local),
            None => local,
        }
    }

    /// Effective value of array cell `(id, index)` given its local value.
    #[inline]
    fn read_array(&self, id: usize, index: usize, local: i64) -> i64 {
        let (spec, remote) = match self {
            ReplRef::Off => return local,
            ReplRef::Excl(h) => (h.spec(), h.remote_array(id)),
            ReplRef::Shared(s) => (
                s.spec,
                s.remote_arrays.get(id).map_or(&[][..], Vec::as_slice),
            ),
        };
        match spec.array_mode(id) {
            Some(mode) => merged_read(mode, remote.get(index).copied().unwrap_or(0), local),
            None => local,
        }
    }

    /// Route a store to global `slot`: `Some(new_local)` writes the local
    /// slot, `None` means the write was queued for controller sequencing
    /// (the slot changes only when the ordered entry comes back).
    #[inline]
    fn store_global(&mut self, slot: usize, value: i64) -> Option<i64> {
        match self {
            ReplRef::Off | ReplRef::Shared(_) => Some(value),
            ReplRef::Excl(h) => match h.spec().global_mode(slot) {
                None => Some(value),
                Some(ReplMode::Sequenced) => {
                    h.seq_store_global(slot as u8, value);
                    None
                }
                Some(mode) => Some(merged_store(
                    mode,
                    h.remote_globals().get(slot).copied().unwrap_or(0),
                    value,
                )),
            },
        }
    }

    /// Route a store to array cell `(id, index)`; same contract as
    /// [`store_global`](Self::store_global).
    #[inline]
    fn store_array(&mut self, id: usize, index: usize, value: i64) -> Option<i64> {
        match self {
            ReplRef::Off | ReplRef::Shared(_) => Some(value),
            ReplRef::Excl(h) => match h.spec().array_mode(id) {
                None => Some(value),
                Some(ReplMode::Sequenced) => {
                    h.seq_store_array(id as u8, index as u32, value);
                    None
                }
                Some(mode) => Some(merged_store(
                    mode,
                    h.remote_array(id).get(index).copied().unwrap_or(0),
                    value,
                )),
            },
        }
    }
}

/// A function's view of the shared globals: the serial path holds them
/// exclusively; worker lanes share them read-only (safe because only
/// `Serialized` functions may write, and those never reach a lane).
enum GlobalView<'a> {
    Excl {
        global: &'a mut [i64],
        arrays: &'a mut [Vec<i64>],
    },
    Shared {
        global: &'a [i64],
        arrays: &'a [Vec<i64>],
    },
}

impl GlobalView<'_> {
    fn global(&self, slot: usize) -> Option<i64> {
        match self {
            GlobalView::Excl { global, .. } => global.get(slot).copied(),
            GlobalView::Shared { global, .. } => global.get(slot).copied(),
        }
    }

    fn array(&self, array: usize) -> Option<&[i64]> {
        match self {
            GlobalView::Excl { arrays, .. } => arrays.get(array).map(|a| a.as_slice()),
            GlobalView::Shared { arrays, .. } => arrays.get(array).map(|a| a.as_slice()),
        }
    }
}

/// The per-invocation state view the VM (or a native function) runs
/// against. Mapped packet slots read/write real header fields through the
/// HeaderMap; unmapped slots use packet-lifetime scratch. The function's
/// derived concurrency level (§3.4.4) is enforced here: a `Parallel`
/// (read-only) function may not write message or global state, a
/// `PerMessage` function may not write global state — violations trap like
/// any other fault, on the serial path and on lanes alike.
struct InvocationHost<'a> {
    packet: &'a mut Packet,
    bindings: &'a [(Option<HeaderField>, Access)],
    scratch: &'a mut [i64],
    msg: &'a mut [i64],
    state: GlobalView<'a>,
    repl: ReplRef<'a>,
    rng: &'a mut PacketRng,
    now: Time,
    direction: FlowDirection,
    queue: Option<(i64, i64)>,
    /// Mapped header fields written during this invocation (telemetry).
    header_modifies: u64,
    concurrency: Concurrency,
}

impl Host for InvocationHost<'_> {
    fn load_pkt(&mut self, slot: u8) -> Result<i64, VmError> {
        match self.bindings.get(slot as usize) {
            Some((Some(HeaderField::Direction), _)) => Ok(match self.direction {
                FlowDirection::Egress => 0,
                FlowDirection::Ingress => 1,
            }),
            Some((Some(field), _)) => Ok(crate::headermap::read_header_field(self.packet, *field)),
            Some((None, _)) => Ok(self.scratch[slot as usize]),
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
        }
    }

    fn store_pkt(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        match self.bindings.get(slot as usize) {
            Some((_, Access::ReadOnly)) => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
            Some((Some(field), _)) => {
                crate::headermap::write_header_field(self.packet, *field, value);
                self.header_modifies += 1;
                Ok(())
            }
            Some((None, _)) => {
                self.scratch[slot as usize] = value;
                Ok(())
            }
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Packet,
                slot,
            }),
        }
    }

    fn load_msg(&mut self, slot: u8) -> Result<i64, VmError> {
        self.msg
            .get(slot as usize)
            .copied()
            .ok_or(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Message,
                slot,
            })
    }

    fn store_msg(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        if self.concurrency == Concurrency::Parallel {
            // a read-only function writing message state would invalidate
            // its derived concurrency level — trap instead of racing
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Message,
                slot,
            });
        }
        match self.msg.get_mut(slot as usize) {
            Some(s) => {
                *s = value;
                Ok(())
            }
            None => Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Message,
                slot,
            }),
        }
    }

    fn load_glob(&mut self, slot: u8) -> Result<i64, VmError> {
        let local = self
            .state
            .global(slot as usize)
            .ok_or(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Global,
                slot,
            })?;
        Ok(self.repl.read_global(slot as usize, local))
    }

    fn store_glob(&mut self, slot: u8, value: i64) -> Result<(), VmError> {
        if self.concurrency != Concurrency::Serialized {
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot,
            });
        }
        match &mut self.state {
            GlobalView::Excl { global, .. } => match global.get_mut(slot as usize) {
                Some(s) => {
                    if let Some(v) = self.repl.store_global(slot as usize, value) {
                        *s = v;
                    }
                    Ok(())
                }
                None => Err(VmError::BadStateSlot {
                    scope: eden_vm::StateScope::Global,
                    slot,
                }),
            },
            // unreachable in practice: Serialized functions never run on a
            // lane, but fail safe rather than assume
            GlobalView::Shared { .. } => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot,
            }),
        }
    }

    fn arr_load(&mut self, array: u8, index: i64) -> Result<i64, VmError> {
        let arr = self
            .state
            .array(array as usize)
            .ok_or(VmError::BadArrayAccess { array, index })?;
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < arr.len())
            .ok_or(VmError::BadArrayAccess { array, index })?;
        Ok(self.repl.read_array(array as usize, i, arr[i]))
    }

    fn arr_store(&mut self, array: u8, index: i64, value: i64) -> Result<(), VmError> {
        if self.concurrency != Concurrency::Serialized {
            return Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot: array,
            });
        }
        match &mut self.state {
            GlobalView::Excl { arrays, .. } => {
                let arr = arrays
                    .get_mut(array as usize)
                    .ok_or(VmError::BadArrayAccess { array, index })?;
                let i = usize::try_from(index)
                    .ok()
                    .filter(|&i| i < arr.len())
                    .ok_or(VmError::BadArrayAccess { array, index })?;
                if let Some(v) = self.repl.store_array(array as usize, i, value) {
                    arr[i] = v;
                }
                Ok(())
            }
            GlobalView::Shared { .. } => Err(VmError::ReadOnlyViolation {
                scope: eden_vm::StateScope::Global,
                slot: array,
            }),
        }
    }

    fn arr_len(&mut self, array: u8) -> Result<i64, VmError> {
        self.state
            .array(array as usize)
            .map(|a| a.len() as i64)
            .ok_or(VmError::BadArrayAccess { array, index: -1 })
    }

    fn rand64(&mut self) -> i64 {
        self.rng.next_i64()
    }

    fn now_ns(&mut self) -> i64 {
        self.now.as_nanos() as i64
    }

    fn effect(&mut self, effect: Effect) -> Result<(), VmError> {
        match effect {
            Effect::SetQueue { queue, charge } => {
                if queue < 0 {
                    return Err(VmError::BadQueue(queue));
                }
                self.queue = Some((queue, charge));
                Ok(())
            }
            Effect::GotoTable { table } => {
                if !(0..=u8::MAX as i64).contains(&table) {
                    return Err(VmError::BadTable(table));
                }
                Ok(())
            }
            Effect::Drop | Effect::ToController => Ok(()),
        }
    }
}

/// Convenience: build a native [`InstalledFunction`] in one call.
pub fn native_function(
    name: &str,
    schema: Schema,
    concurrency: Concurrency,
    f: NativeFn,
) -> InstalledFunction {
    InstalledFunction::native(name, f, schema, concurrency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_lang::compile;

    fn interp_fn(src: &str, schema: Schema) -> InstalledFunction {
        let compiled = compile("t", src, &schema).expect("test source compiles");
        InstalledFunction::interpreted("t", compiled)
    }

    #[test]
    fn rule_index_is_first_match_wins() {
        let mut t = MatchActionTable::default();
        for (spec, func) in [
            (MatchSpec::Class(ClassId(7)), 0),
            (MatchSpec::Any, 1),
            (MatchSpec::Class(ClassId(9)), 2),
            (MatchSpec::AnyOf(vec![ClassId(3), ClassId(4)]), 3),
        ] {
            t.push_rule(Rule {
                spec,
                func: FuncId(func),
                epoch: 0,
            });
        }
        assert_eq!(t.find(&[7]), Some(0));
        assert_eq!(t.find(&[9]), Some(1), "Any precedes the class-9 rule");
        assert_eq!(t.find(&[4]), Some(1), "Any precedes the AnyOf rule");
        assert_eq!(t.find(&[]), Some(1));

        let mut t2 = MatchActionTable::default();
        t2.push_rule(Rule {
            spec: MatchSpec::AnyOf(vec![ClassId(3)]),
            func: FuncId(0),
            epoch: 0,
        });
        t2.push_rule(Rule {
            spec: MatchSpec::Class(ClassId(5)),
            func: FuncId(1),
            epoch: 0,
        });
        assert_eq!(t2.find(&[5]), Some(1));
        assert_eq!(t2.find(&[3, 5]), Some(0), "earlier AnyOf wins");
        assert_eq!(t2.find(&[9]), None);
    }

    #[test]
    fn parallel_eligibility_gates() {
        // default config: 4 lanes, batch minimum 32
        let mut e = Enclave::new(EnclaveConfig::default());
        assert!(!e.parallel_eligible(64), "no functions installed");
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.parallel_eligible(32));
        assert!(!e.parallel_eligible(31), "below the batch minimum");

        // a native function is not Send: the whole enclave falls back
        e.install_function(native_function(
            "n",
            Schema::new(),
            Concurrency::Parallel,
            Box::new(|_| Ok(Outcome::Done)),
        ));
        assert!(!e.parallel_eligible(1024));
    }

    #[test]
    fn serialized_function_disables_lanes() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new().global_field("C", Access::ReadWrite);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> _global.C <- _global.C + 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(!e.parallel_eligible(1024), "global writer must stay serial");
    }

    #[test]
    fn headroom_gate_blocks_oversized_batches() {
        let mut e = Enclave::new(EnclaveConfig {
            max_messages_per_function: 10,
            parallel_batch_min: 1,
            parallel_per_lane_min: 1,
            ..EnclaveConfig::default()
        });
        let schema = Schema::new()
            .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
            .msg_field("B", Access::ReadWrite);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> msg.B <- msg.B + packet.Size",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.parallel_eligible(10));
        assert!(
            !e.parallel_eligible(11),
            "a batch that could evict must run serially"
        );
    }

    /// A Reset-led full-replacement epoch: one priority-setter function and
    /// one Any rule, priority = `prio`.
    fn epoch_ops(prio: u8) -> Vec<EnclaveOp> {
        let schema =
            Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
        let src = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        let compiled = compile("set_prio", &src, &schema).expect("compiles");
        vec![
            EnclaveOp::Reset,
            EnclaveOp::InstallFunction {
                name: "set_prio".into(),
                bytecode: eden_vm::encode_program(&compiled.program),
                schema,
                concurrency: compiled.concurrency,
            },
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            },
        ]
    }

    fn run_one(e: &mut Enclave) -> u8 {
        let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
        let mut rng = SimRng::new(1);
        e.process(&mut p, &mut rng, Time::ZERO);
        p.priority()
    }

    #[test]
    fn staged_epoch_is_invisible_until_commit() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid epoch");
        assert_eq!(e.active_epoch(), 0);
        assert_eq!(e.staged_epoch(), Some(1));
        assert_eq!(run_one(&mut e), 0, "staged config must not process packets");

        assert!(e.commit_epoch(1));
        assert_eq!(e.active_epoch(), 1);
        assert_eq!(e.staged_epoch(), None);
        assert_eq!(run_one(&mut e), 3);
        assert!(e.serves_single_epoch());
    }

    #[test]
    fn commit_is_idempotent_and_rejects_unknown_epochs() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid");
        assert!(!e.commit_epoch(2), "not the staged epoch");
        assert!(e.commit_epoch(1));
        assert!(e.commit_epoch(1), "duplicate commit of active epoch is ok");
        assert!(!e.commit_epoch(2), "never prepared");
    }

    #[test]
    fn abort_discards_staged_epoch() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid");
        e.abort_epoch(2);
        assert_eq!(e.staged_epoch(), Some(1), "mismatched abort is a no-op");
        e.abort_epoch(1);
        assert_eq!(e.staged_epoch(), None);
        assert!(!e.commit_epoch(1), "aborted epoch cannot commit");
        assert_eq!(run_one(&mut e), 0);
    }

    #[test]
    fn restaging_replaces_previous_staging() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid");
        e.stage_epoch(2, &epoch_ops(5)).expect("valid");
        assert_eq!(e.staged_epoch(), Some(2));
        assert!(e.commit_epoch(2));
        assert_eq!(run_one(&mut e), 5);
    }

    #[test]
    fn invalid_epochs_are_rejected_whole() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let mut ops = epoch_ops(3);
        ops.push(EnclaveOp::InstallRule {
            table: 7,
            spec: MatchSpec::Any,
            func: 0,
        });
        let err = e.stage_epoch(1, &ops).expect_err("bad table index");
        assert!(matches!(err, ApplyError::NoSuchTable { table: 7, .. }));
        assert_eq!(e.staged_epoch(), None, "nothing staged on error");

        let err = e
            .stage_epoch(
                1,
                &[EnclaveOp::SetGlobal {
                    func: 0,
                    slot: 0,
                    value: 1,
                }],
            )
            .expect_err("no functions installed");
        assert!(matches!(err, ApplyError::NoSuchFunction { func: 0, .. }));

        let err = e
            .stage_epoch(
                1,
                &[EnclaveOp::InstallFunction {
                    name: "junk".into(),
                    bytecode: vec![0xFF, 0x00, 0x13],
                    schema: Schema::new(),
                    concurrency: Concurrency::Parallel,
                }],
            )
            .expect_err("garbage bytecode");
        assert!(matches!(err, ApplyError::BadBytecode { .. }));
    }

    #[test]
    fn config_digest_tracks_structure_not_counters() {
        let mut a = Enclave::new(EnclaveConfig::default());
        let mut b = Enclave::new(EnclaveConfig::default());
        a.stage_epoch(1, &epoch_ops(3)).expect("valid");
        assert!(a.commit_epoch(1));
        b.stage_epoch(1, &epoch_ops(3)).expect("valid");
        assert!(b.commit_epoch(1));
        assert_eq!(a.config_digest(), b.config_digest());

        // Traffic moves counters but not the digest.
        let before = a.config_digest();
        run_one(&mut a);
        assert_eq!(a.config_digest(), before);

        // A different program does move it.
        let mut c = Enclave::new(EnclaveConfig::default());
        c.stage_epoch(1, &epoch_ops(5)).expect("valid");
        assert!(c.commit_epoch(1));
        assert_ne!(a.config_digest(), c.config_digest());
    }

    #[test]
    fn delta_epoch_stages_against_matching_digest() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid");
        assert!(e.commit_epoch(1));

        // A diff appending one rule, anchored at the current digest.
        let delta = vec![EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1)),
            func: 0,
        }];
        let base = e.config_digest();
        e.stage_epoch_delta(2, base, &delta)
            .expect("digest matches");
        assert!(e.commit_epoch(2));
        assert_eq!(e.active_epoch(), 2);
        assert_eq!(e.tables[0].rules.len(), 2);
        assert!(
            e.serves_single_epoch(),
            "surviving rules must be re-stamped into the committed epoch"
        );

        // The delta'd config is byte-for-byte the same structure a full
        // replacement would have produced.
        let mut full = Enclave::new(EnclaveConfig::default());
        let mut ops = epoch_ops(3);
        ops.push(EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1)),
            func: 0,
        });
        full.stage_epoch(2, &ops).expect("valid");
        assert!(full.commit_epoch(2));
        assert_eq!(e.config_digest(), full.config_digest());
    }

    #[test]
    fn delta_epoch_rejects_stale_digest() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, &epoch_ops(3)).expect("valid");
        assert!(e.commit_epoch(1));
        let have = e.config_digest();

        let err = e
            .stage_epoch_delta(2, have ^ 1, &[EnclaveOp::CreateTable])
            .expect_err("anchored at a digest we don't have");
        assert_eq!(
            err,
            ApplyError::DigestMismatch {
                have,
                want: have ^ 1
            }
        );
        assert_eq!(e.staged_epoch(), None, "nothing staged on mismatch");
        assert_eq!(e.config_digest(), have, "config untouched");
    }

    #[test]
    fn remove_rule_rebuilds_first_match_index() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(2)), f);
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.remove_rule(TableId(0), 0));
        assert!(!e.remove_rule(TableId(0), 9), "out of range");
        let t = &e.tables[0];
        assert_eq!(t.find(&[2]), Some(0), "class-2 rule shifted down");
        assert_eq!(t.find(&[1]), Some(1), "class-1 traffic now hits Any");
        assert_eq!(t.rules.len(), 2);
    }

    #[test]
    fn vm_trap_freezes_flight_recorder() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let mut b = eden_vm::ProgramBuilder::new();
        b.push(1).push(0).div().pop().halt();
        let bytecode = eden_vm::encode_program(&b.build().unwrap());
        let f = e.install_function(
            InstalledFunction::from_shipped(
                "divzero",
                &bytecode,
                Schema::new(),
                Concurrency::Parallel,
            )
            .unwrap(),
        );
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.last_flight_dump().is_none());

        let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
        let mut rng = SimRng::new(1);
        e.process(&mut p, &mut rng, Time::from_nanos(5));

        let dump = e.last_flight_dump().expect("trap froze the recorder");
        assert_eq!(dump.reason, "vm_trap");
        let last = dump.last_event().expect("events retained");
        assert!(matches!(last.kind, FlightKind::VmTrap));
        assert_eq!(
            eden_vm::Op::kind_name(last.a as usize),
            "div",
            "last event attributes the trapping opcode"
        );
        assert!(dump.counters.conserved(), "snapshot obeys conservation");
        assert_eq!(dump.counters.faults, 1);

        let taken = e.take_flight_dump().expect("dump available once");
        assert_eq!(taken.reason, "vm_trap");
        assert!(e.last_flight_dump().is_none());
    }

    #[test]
    fn table_loop_on_a_lane_leaves_a_flight_event() {
        let mut e = Enclave::new(EnclaveConfig {
            lanes: 4,
            ..EnclaveConfig::default()
        });
        let t1 = e.create_table();
        let ping = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> gotoTable (1)",
            Schema::new(),
        ));
        let pong = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> gotoTable (0)",
            Schema::new(),
        ));
        e.install_rule(TableId(0), MatchSpec::Any, ping);
        e.install_rule(t1, MatchSpec::Any, pong);

        // one flow per packet, so the batch spreads over the lanes
        let mut batch: Vec<Packet> = (0..64u16)
            .map(|i| {
                let udp = netsim::UdpHeader {
                    src_port: 1000 + i,
                    dst_port: 80,
                };
                Packet::udp(1, 2, udp, 100)
            })
            .collect();
        let mut rng = SimRng::new(1);
        let verdicts = e.process_batch(&mut batch, &mut rng, Time::from_nanos(5));
        assert_eq!(e.batch_path_counts(), (0, 1), "the batch took the lanes");
        assert!(verdicts.iter().all(|v| *v == HookVerdict::Pass));
        assert_eq!(e.stats.table_loop_aborts, 64);

        e.freeze_flight("test");
        let dump = e.last_flight_dump().expect("frozen above");
        let loops = dump
            .events
            .iter()
            .filter(|ev| matches!(ev.kind, FlightKind::TableLoop));
        assert_eq!(loops.count(), 64, "one per aborted walk, from the lanes");
    }

    #[test]
    fn sampled_tracing_records_spans_and_latencies() {
        let config = EnclaveConfig {
            trace_sample: 2,
            ..EnclaveConfig::default()
        };
        let mut e = Enclave::new(config);
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema.clone(),
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        let mut rng = SimRng::new(1);
        for i in 0..8u64 {
            let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
            e.process(&mut p, &mut rng, Time::from_nanos(i));
        }

        // the same eight packets as one batch below the lane threshold: a
        // caller-thread batch is the per-packet path, tracing included
        let mut b = Enclave::new(config);
        let f = b.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        b.install_rule(TableId(0), MatchSpec::Any, f);
        let mut batch: Vec<Packet> = (0..8)
            .map(|_| Packet::udp(1, 2, netsim::UdpHeader::default(), 100))
            .collect();
        let mut verdicts = Vec::new();
        b.process_batch_into(&mut batch, &mut SimRng::new(1), Time::ZERO, &mut verdicts);
        assert_eq!(b.batch_path_counts(), (1, 0));
        assert_eq!(b.pending_spans(), e.pending_spans());
        assert_eq!(b.stats, e.stats);
        let span_names = |e: &mut Enclave| -> Vec<String> {
            let spans = e.drain_spans(100);
            spans.into_iter().map(|s| s.name).collect()
        };
        let batch_names = span_names(&mut b);
        // 1-in-2 sampling: 4 traced packets, each completing 3 spans
        // (classify + execute + the "pkt" root)
        assert_eq!(e.pending_spans(), 12);
        let spans = span_names(&mut e);
        assert_eq!(batch_names, spans);
        assert!(spans.iter().any(|s| s == "pkt"));
        assert!(spans.iter().any(|s| s == "classify"));
        assert!(spans.iter().any(|s| s == "execute"));
        assert_eq!(e.pending_spans(), 0);

        let snap = e.stats_snapshot();
        let names: Vec<&str> = snap.latencies.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"stage.classify"), "{names:?}");
        assert!(names.contains(&"stage.execute"), "{names:?}");
        assert!(names.contains(&"vm.exec"), "{names:?}");
        assert!(names.contains(&"func.t"), "{names:?}");

        // with sampling off (the default) snapshots carry no latencies
        let quiet = Enclave::new(EnclaveConfig::default());
        assert!(!quiet.tracing_enabled());
        assert!(quiet.stats_snapshot().latencies.is_empty());
    }

    #[test]
    fn batch_path_records_stage_histograms() {
        let mut e = Enclave::new(EnclaveConfig {
            trace_sample: 4,
            parallel_batch_min: 1,
            ..EnclaveConfig::default()
        });
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        let mut rng = SimRng::new(1);
        let mut batch: Vec<Packet> = (0..64)
            .map(|_| Packet::udp(1, 2, netsim::UdpHeader::default(), 100))
            .collect();
        e.process_batch(&mut batch, &mut rng, Time::from_nanos(1));
        let snap = e.stats_snapshot();
        let names: Vec<&str> = snap.latencies.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"stage.classify"), "{names:?}");
        assert!(names.contains(&"stage.match"), "{names:?}");
        assert!(names.contains(&"stage.execute"), "{names:?}");
        assert!(names.contains(&"func.t"), "{names:?}");
        let spans = e.drain_spans(100);
        assert!(spans.iter().any(|s| s.name == "batch"));
        assert!(spans.iter().any(|s| s.name == "match"));
    }

    #[test]
    fn merged_global_reads_combine_remote_and_local() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new()
            .global_field("Tokens", Access::ReadWrite)
            .replicated(ReplMode::MergedSum);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> _global.Tokens <- _global.Tokens + 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.repl_active());
        assert_eq!(e.repl_funcs(), vec![0]);

        run_one(&mut e);
        assert_eq!(e.global(f, 0), 1, "local contribution");
        assert_eq!(e.global_effective(f, 0), 1, "no remote view yet");

        // a controller view: the rest of the fleet contributes 40
        let view = eden_repl::FuncView {
            func: 0,
            version: 1,
            remote: vec![(0, 40)],
            ..Default::default()
        };
        e.apply_repl_view(&view, 1_000);
        assert_eq!(e.global_effective(f, 0), 41, "remote + local");

        // the next increment observes 41 and stores 42; the local
        // contribution absorbs the difference (read-your-writes without
        // double-counting the remote part)
        run_one(&mut e);
        assert_eq!(e.global(f, 0), 2);
        assert_eq!(e.global_effective(f, 0), 42);
        let d = e.repl_delta(0).expect("replicated function");
        assert_eq!(d.merged, vec![(0, 2)], "delta carries the contribution");
        assert!(d.seq_ops.is_empty());
    }

    #[test]
    fn sequenced_store_defers_until_controller_order() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new()
            .global_field("Steer", Access::ReadWrite)
            .replicated(ReplMode::Sequenced);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> _global.Steer <- 7",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);

        run_one(&mut e);
        assert_eq!(e.global(f, 0), 0, "write awaits controller sequencing");
        let d = e.repl_delta(0).expect("replicated function");
        assert_eq!(d.seq_ops.len(), 1);
        assert_eq!(d.seq_ops[0].value, 7);
        assert_eq!(e.repl_host(0).unwrap().pending_len(), 1);

        // the controller sequences it and the view applies it locally
        let view = eden_repl::FuncView {
            func: 0,
            version: 1,
            entries: vec![eden_repl::SeqEntry {
                seq: 1,
                host: 9,
                op: d.seq_ops[0],
            }],
            acked_op_id: 1,
            ..Default::default()
        };
        e.apply_repl_view(&view, 2_000);
        assert_eq!(e.global(f, 0), 7, "applied in controller order");
        assert_eq!(e.repl_host(0).unwrap().pending_len(), 0, "op acked");
        assert_eq!(e.repl_host(0).unwrap().applied_seq(), 1);
    }

    #[test]
    fn divergent_view_freezes_flight_recorder() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new()
            .global_field("Tokens", Access::ReadWrite)
            .replicated(ReplMode::MergedSum);
        e.install_function(interp_fn(
            "fun (packet, msg, _global) -> _global.Tokens <- _global.Tokens + 1",
            schema,
        ));
        assert!(e.last_flight_dump().is_none());
        let view = eden_repl::FuncView {
            func: 0,
            divergent: true,
            ..Default::default()
        };
        e.apply_repl_view(&view, 0);
        let dump = e.last_flight_dump().expect("divergence froze the recorder");
        assert_eq!(dump.reason, "repl_divergence");
    }

    #[test]
    fn plain_functions_have_no_repl_runtime() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new().global_field("C", Access::ReadWrite);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> _global.C <- _global.C + 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(!e.repl_active());
        assert!(e.repl_delta(0).is_none());
        run_one(&mut e);
        assert_eq!(e.global(f, 0), 1);
        assert_eq!(e.global_effective(f, 0), 1);
    }

    #[test]
    fn apply_op_validates_against_current_shape() {
        let mut e = Enclave::new(EnclaveConfig::default());
        assert!(e
            .apply_op(EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            })
            .is_err());
        e.apply_op(EnclaveOp::CreateTable).expect("valid");
        assert_eq!(e.tables.len(), 2);
        e.apply_op(EnclaveOp::Reset).expect("valid");
        assert_eq!(e.tables.len(), 1);
        assert!(e.functions.is_empty());
    }
}
