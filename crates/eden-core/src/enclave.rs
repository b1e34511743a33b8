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
//! [`Enclave::process_batch`] either loops it or — when the enclave was
//! given more than one lane ([`EnclaveConfig::lanes`], opt-in), every
//! installed function's derived concurrency level (§3.4.4) permits and the
//! batch is large enough — fans the batch out to parallel worker lanes
//! partitioned by message id. *Read-only* and *per-message serial* functions
//! parallelize (a message never spans two lanes); *fully serial*
//! (global-writer) functions keep every batch on the caller's thread. A
//! lane takes its own packets through the same `classify`, `walk_packet`,
//! `invoke` and per-packet epilogue as the caller's thread — over its own
//! message shards and its own counter blocks — and a property test pins the
//! fan-out verdict-for-verdict and state-for-state to the per-packet path.
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

use eden_lang::{Access, Concurrency, Schema};
use eden_repl::{merged_read, HostRepl, ReplSpec, SeqTarget};
use eden_telemetry::{
    FlightDump, FlightKind, FlightRing, FuncCounts, LogHistogram, Ring, RuleHits, Sampler, SpanSink,
};
use eden_vm::{InterpreterPool, Limits};
use netsim::{Packet, Time};
use transport::{HookEnv, HookVerdict, PacketHook};

use crate::action::{ActionImpl, FuncId, InstalledFunction, NativeFn};
use crate::class::ClassId;
use crate::lanes::LanePool;
use crate::state::FunctionState;

mod config;
mod epoch;
mod host;
mod link;
mod pipeline;
mod tables;
mod telemetry;

pub use config::{Config, MAX_ARRAY_LEN, MAX_FUNCTIONS, MAX_RULES_PER_TABLE, MAX_TABLES};
use epoch::StagedEpoch;
pub(crate) use host::InvocationHost;
use link::Linked;
pub use link::{LinkError, LinkInfo, PktSlot, SlotLink, SlotTarget};
use pipeline::LaneScratch;
pub use tables::{FiveTupleMatch, MatchSpec, RuleList, TableId};
use tables::{MatchActionTable, TableCounts};

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
    /// [`HeaderField::Direction`](eden_lang::HeaderField::Direction).
    pub process_ingress: bool,
    /// Worker lanes for the batched data path (interpreters + message-state
    /// shards). Opt-in: the default, `1`, takes every batch through the
    /// per-packet path on the caller's thread and never starts a worker.
    /// A host stack hands the enclave about one and a half packets a hook
    /// call, far below the `parallel_per_lane_min` packets a lane needs,
    /// so parked workers would only spin, yield and be switched in and out
    /// around rare fan-outs; a host that wants more cores runs more
    /// enclaves, each to completion. With more than one lane, lanes still
    /// cost nothing until a batch first fans out: until then each function
    /// holds one message table and the enclave one interpreter, and the
    /// first fan-out makes the other lanes' interpreters and splits every
    /// function's table into one shard per lane.
    pub lanes: usize,
    /// Cap on the punted-packet mailbox; the oldest punt is evicted (and
    /// counted in `punt_drops`) when a punt-heavy workload outruns the
    /// controller's pickup.
    pub max_punted: usize,
    /// Smallest *per-lane* share (`batch_size / lanes`) worth fanning
    /// out: a batch that would hand each lane only a couple of packets
    /// pays the wake/merge overhead without amortizing it, so it stays on
    /// the caller's thread — a loop over `process_dir`, nothing staged.
    /// The choice is counted in `batches_serial` / `batches_parallel`.
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
            lanes: 1,
            max_punted: 1024,
            parallel_per_lane_min: 8,
            trace_sample: 0,
            flight_capacity: 256,
        }
    }
}

/// Data-path counters: the `enclave` group of a telemetry snapshot,
/// incremented in place (see [`EnclaveStats::conserved`] for the
/// conservation invariant a property test pins).
pub use eden_telemetry::EnclaveCounters as EnclaveStats;

/// The programmable data plane at one end host.
pub struct Enclave {
    config: EnclaveConfig,
    tables: Vec<MatchActionTable>,
    /// Lookup and per-rule hit counters, parallel to `tables` (and each
    /// block's `rule_hits` to its table's rules).
    table_counts: Vec<TableCounts>,
    functions: Vec<InstalledFunction>,
    /// Each function's share of [`config_digest`](Self::config_digest),
    /// parallel to `functions`, hashed once at install.
    func_digests: Vec<u64>,
    /// Per-function invocation counters, parallel to `functions`.
    func_counts: Vec<FuncCounts>,
    /// Per-function packet-slot descriptors, resolved when the function
    /// was linked: (where the slot lives, access).
    pkt_bindings: Vec<Vec<(PktSlot, Access)>>,
    states: Vec<FunctionState>,
    /// Per-function replication runtime, parallel to `functions` — `None`
    /// for the common case of a schema that replicates nothing, keeping
    /// the hot path a single always-false branch. Remote views are only
    /// swapped between batches ([`apply_repl_view`](Self::apply_repl_view)),
    /// so the data path reads them with zero synchronization.
    repl: Vec<Option<HostRepl>>,
    flow_rules: Vec<(FiveTupleMatch, ClassId)>,
    /// One interpreter per worker lane; lane 0 is the caller thread's, made
    /// with the first packet, the others are made at the first fan-out.
    pool: InterpreterPool,
    /// `true` while every installed function may run on a worker lane:
    /// interpreted (native closures are not `Send`) and not `Serialized`.
    lane_safe: bool,
    /// Persistent lane worker threads (spawned lazily on the first
    /// parallel batch; per-batch dispatch is one send and one receive per
    /// lane).
    lane_pool: LanePool,
    /// Punt mailbox: packets punted to the controller are *moved* here (no
    /// clone), oldest first, bounded by [`EnclaveConfig::max_punted`].
    punted: Ring<Packet>,
    pub stats: EnclaveStats,
    /// Each worker lane's outputs and scratch, reused across fan-outs.
    lane_scratch: Vec<LaneScratch>,
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
    /// Per-stage latency: classify / execute, recorded only while tracing
    /// is enabled.
    stage_hists: [LogHistogram; 2],
    /// Sampled per-function execution latency, parallel to `functions`
    /// once sampling is on; empty until then, since only a sampled packet
    /// writes a row.
    func_latency: Vec<LogHistogram>,
    /// Flight recorder: one single-writer event ring per worker lane
    /// (ring 0 doubles as the caller thread's and the control plane's).
    flight: Vec<FlightRing>,
    /// The most recent frozen flight-recorder dump.
    last_dump: Option<FlightDump>,
}

/// Indices into [`Enclave::stage_hists`].
const STAGE_CLASSIFY: usize = 0;
const STAGE_EXECUTE: usize = 1;
const STAGE_NAMES: [&str; 2] = ["stage.classify", "stage.execute"];

impl Enclave {
    /// An enclave with one empty table.
    pub fn new(config: EnclaveConfig) -> Enclave {
        Enclave {
            config,
            tables: vec![MatchActionTable::default()],
            table_counts: vec![TableCounts::default()],
            functions: Vec::new(),
            func_digests: Vec::new(),
            func_counts: Vec::new(),
            pkt_bindings: Vec::new(),
            states: Vec::new(),
            repl: Vec::new(),
            flow_rules: Vec::new(),
            pool: InterpreterPool::new(config.limits, config.lanes),
            lane_safe: true,
            lane_pool: LanePool::new(),
            punted: Ring::new(config.max_punted),
            stats: EnclaveStats::default(),
            lane_scratch: Vec::new(),
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
                .map(|_| FlightRing::new(config.flight_capacity.max(1)))
                .collect(),
            last_dump: None,
        }
    }

    // ------------------------------------------------------------------
    // enclave API (§3.4.5): the controller programs tables and functions
    // ------------------------------------------------------------------

    /// Create an additional match-action table; returns its id.
    pub fn create_table(&mut self) -> TableId {
        self.tables.push(MatchActionTable::new(self.active_epoch));
        self.table_counts.push(TableCounts::default());
        TableId(self.tables.len() - 1)
    }

    /// Install `function`; returns its id for use in rules. Panics with
    /// the [`LinkError`] if the function cannot be linked — for a caller
    /// whose functions come out of its own compiler. Anything that arrives
    /// from outside goes through
    /// [`try_install_function`](Self::try_install_function) or an epoch.
    pub fn install_function(&mut self, function: InstalledFunction) -> FuncId {
        let name = function.name.clone();
        self.try_install_function(function)
            .unwrap_or_else(|e| panic!("function '{name}' does not link: {e}"))
    }

    /// Link `function` against this enclave's limits, its own schema and
    /// its declared concurrency level, and install it if it links. A
    /// refusal changes nothing and leaves an `install_refused` flight
    /// event; the error says which check the function failed.
    pub fn try_install_function(
        &mut self,
        function: InstalledFunction,
    ) -> Result<FuncId, LinkError> {
        match link::link(function, &self.config.limits) {
            Ok(linked) => Ok(self.install_linked(linked)),
            Err(e) => {
                self.flight_record(FlightKind::InstallRefused, self.active_epoch, e.code());
                Err(e)
            }
        }
    }

    /// Make room for `n` more functions in every per-function row, exactly
    /// (nothing when there is room): an epoch knows how many it installs,
    /// and a row grown by doubling from empty holds four functions' worth
    /// for one.
    fn reserve_functions(&mut self, n: usize) {
        self.functions.reserve_exact(n);
        self.func_digests.reserve_exact(n);
        self.func_counts.reserve_exact(n);
        self.pkt_bindings.reserve_exact(n);
        self.states.reserve_exact(n);
        self.repl.reserve_exact(n);
    }

    fn install_linked(&mut self, linked: Linked) -> FuncId {
        let Linked { function, pkt } = linked;
        let state =
            FunctionState::for_schema(&function.schema, self.config.max_messages_per_function);
        if pkt.len() > self.scratch.len() {
            self.scratch.resize(pkt.len(), 0);
        }
        self.lane_safe &= matches!(function.action, ActionImpl::Interpreted(_))
            && function.concurrency != Concurrency::Serialized;
        let spec = ReplSpec::from_schema(&function.schema);
        self.repl.push((!spec.is_empty()).then(|| {
            let lens: Vec<usize> = state.arrays.iter().map(Vec::len).collect();
            HostRepl::new(spec, &lens)
        }));
        self.pkt_bindings.push(pkt);
        self.func_digests.push(epoch::function_digest(&function));
        self.functions.push(function);
        self.func_counts.push(FuncCounts::default());
        self.states.push(state);
        self.grow_latency_rows();
        FuncId(self.functions.len() - 1)
    }

    /// Give every installed function its latency row, once sampling is
    /// on: with it off no packet is sampled, so no row would be written.
    fn grow_latency_rows(&mut self) {
        if self.sampler.enabled() {
            self.func_latency
                .resize_with(self.functions.len(), LogHistogram::new);
        }
    }

    /// Append `rule` to `table` (first match wins).
    pub fn install_rule(&mut self, table: TableId, spec: MatchSpec, func: FuncId) {
        assert!(func.0 < self.functions.len(), "unknown function");
        self.tables[table.0].push_rule(spec, func.0);
        self.table_counts[table.0]
            .rule_hits
            .push(RuleHits::default());
    }

    /// Remove rule `rule` (by position) from `table`; later rules shift
    /// down. Returns `false` when no such rule exists. Costs the number of
    /// rules behind `rule`: removing a table's last rule is O(1).
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
        self.tables[table.0].truncate(0);
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

    /// What linking settled about `func`: its static envelope and what
    /// each of its slots is bound to, by name.
    pub fn link_info(&self, func: FuncId) -> LinkInfo {
        LinkInfo::of(&self.functions[func.0])
    }

    /// Drain packets punted to the controller, oldest first.
    pub fn take_punted(&mut self) -> Vec<Packet> {
        self.punted.drain(usize::MAX).collect()
    }

    /// Number of punted packets awaiting controller pickup.
    pub fn punted_len(&self) -> usize {
        self.punted.len()
    }

    /// Steps and static memory bound of the most recent interpreted run
    /// on the caller's thread (for §5.4 footprint reporting); all zero
    /// before the first.
    pub fn last_usage(&self) -> eden_vm::Usage {
        self.pool
            .caller()
            .map_or_else(eden_vm::Usage::default, eden_vm::Interpreter::usage)
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
        self.process_batch_into(packets, env.rng, env.now, verdicts);
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
    use crate::ops::{ApplyError, EnclaveOp, ShippedFunction};
    use eden_lang::{compile, HeaderField, ReplMode};
    use eden_vm::Outcome;
    use netsim::SimRng;

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
            t.push_rule(spec, func);
        }
        assert_eq!(t.find(&[7]), Some(0));
        assert_eq!(t.find(&[9]), Some(1), "Any precedes the class-9 rule");
        assert_eq!(t.find(&[4]), Some(1), "Any precedes the AnyOf rule");
        assert_eq!(t.find(&[]), Some(1));

        let mut t2 = MatchActionTable::default();
        t2.push_rule(MatchSpec::AnyOf(vec![ClassId(3)]), 0);
        t2.push_rule(MatchSpec::Class(ClassId(5)), 1);
        assert_eq!(t2.find(&[5]), Some(1));
        assert_eq!(t2.find(&[3, 5]), Some(0), "earlier AnyOf wins");
        assert_eq!(t2.find(&[9]), None);
    }

    /// A rule is one 8-byte word; a general rule's spec waits on the side
    /// list, and taking a rule back shifts the side list's places behind it.
    #[test]
    fn a_rule_list_holds_words_and_general_specs_beside_them() {
        assert_eq!(std::mem::size_of::<tables::RuleWord>(), 8);
        let any_of = MatchSpec::AnyOf(vec![ClassId(3), ClassId(4)]);
        let mut rules = RuleList::default();
        rules.push(MatchSpec::Any, 0);
        rules.push(MatchSpec::Class(ClassId(7)), 1);
        rules.push(any_of.clone(), 2);
        assert_eq!(rules.words()[1].class(), Some(ClassId(7)));
        assert_eq!(rules.words()[2].class(), None);
        assert_eq!(*rules.spec(2), any_of);
        assert_eq!(rules.general().len(), 2);

        rules.remove(0);
        let mut fresh = RuleList::default();
        fresh.push(MatchSpec::Class(ClassId(7)), 1);
        fresh.push(any_of.clone(), 2);
        assert_eq!(rules, fresh);
        assert_eq!(
            rules.words(),
            fresh.words(),
            "the same words once compacted"
        );
        assert_eq!(*rules.spec(1), any_of);
        assert_eq!(rules.func(1), 2);
    }

    #[test]
    fn parallel_eligibility_gates() {
        // 4 lanes, at least 8 packets for each
        let mut e = Enclave::new(EnclaveConfig {
            lanes: 4,
            ..EnclaveConfig::default()
        });
        assert!(!e.parallel_eligible(64), "no functions installed");
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.parallel_eligible(32));
        assert!(!e.parallel_eligible(31), "under 8 packets a lane");

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
        let mut e = Enclave::new(EnclaveConfig {
            lanes: 4,
            ..EnclaveConfig::default()
        });
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
            lanes: 4,
            max_messages_per_function: 10,
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
        crate::Controller::new()
            .plan_epoch("set_prio", &src, &schema)
            .expect("compiles")
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
        e.stage_epoch(1, epoch_ops(3)).expect("valid epoch");
        assert_eq!(e.active_epoch(), 0);
        assert_eq!(e.staged_epoch(), Some(1));
        assert_eq!(run_one(&mut e), 0, "staged config must not process packets");

        assert!(e.commit_epoch(1));
        assert_eq!(e.active_epoch(), 1);
        assert_eq!(e.staged_epoch(), None);
        assert_eq!(run_one(&mut e), 3);
        assert!(e.serves_single_epoch());
    }

    /// The burst loop's lookahead resolves table 0 off the books. Once a
    /// Reset-led epoch has left table 0 empty and no function installed it
    /// must find nothing to index and count nothing the walk does not.
    #[test]
    fn burst_after_a_reset_epoch_peeks_at_nothing() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, epoch_ops(3)).expect("valid epoch");
        assert!(e.commit_epoch(1));
        e.stage_epoch(2, &[EnclaveOp::Reset]).expect("valid epoch");
        assert!(e.commit_epoch(2));

        let mut burst = vec![Packet::udp(1, 2, netsim::UdpHeader::default(), 100); 9];
        let mut rng = SimRng::new(1);
        let verdicts = e.process_batch(&mut burst, &mut rng, Time::ZERO);
        assert!(verdicts.iter().all(|v| *v == HookVerdict::Pass));
        assert_eq!(e.batch_path_counts(), (1, 0), "no function, no fan-out");
        let snap = e.stats_snapshot();
        assert!(snap.functions.is_empty() && snap.rules.is_empty());
        assert_eq!(snap.tables.len(), 1);
        let counts = snap.tables[0].counts;
        assert_eq!((counts.lookups, counts.matched, counts.missed), (9, 0, 9));
        assert_eq!(snap.enclave.missed, 9);
    }

    #[test]
    fn commit_is_idempotent_and_rejects_unknown_epochs() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, epoch_ops(3)).expect("valid");
        assert!(!e.commit_epoch(2), "not the staged epoch");
        assert!(e.commit_epoch(1));
        assert!(e.commit_epoch(1), "duplicate commit of active epoch is ok");
        assert!(!e.commit_epoch(2), "never prepared");
    }

    #[test]
    fn abort_discards_staged_epoch() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, epoch_ops(3)).expect("valid");
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
        e.stage_epoch(1, epoch_ops(3)).expect("valid");
        e.stage_epoch(2, epoch_ops(5)).expect("valid");
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
        let err = e.stage_epoch(1, ops).expect_err("bad table index");
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
                &[EnclaveOp::InstallFunction(Box::new(ShippedFunction {
                    name: "junk".into(),
                    bytecode: vec![0xFF, 0x00, 0x13],
                    schema: Schema::new(),
                    concurrency: Concurrency::Parallel,
                }))],
            )
            .expect_err("garbage bytecode");
        assert!(matches!(err, ApplyError::BadBytecode { .. }));
    }

    #[test]
    fn config_digest_tracks_structure_not_counters() {
        let mut a = Enclave::new(EnclaveConfig::default());
        let mut b = Enclave::new(EnclaveConfig::default());
        a.stage_epoch(1, epoch_ops(3)).expect("valid");
        assert!(a.commit_epoch(1));
        b.stage_epoch(1, epoch_ops(3)).expect("valid");
        assert!(b.commit_epoch(1));
        assert_eq!(a.config_digest(), b.config_digest());

        // Traffic moves counters but not the digest.
        let before = a.config_digest();
        run_one(&mut a);
        assert_eq!(a.config_digest(), before);

        // A different program does move it.
        let mut c = Enclave::new(EnclaveConfig::default());
        c.stage_epoch(1, epoch_ops(5)).expect("valid");
        assert!(c.commit_epoch(1));
        assert_ne!(a.config_digest(), c.config_digest());
    }

    #[test]
    fn delta_epoch_stages_against_matching_digest() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, epoch_ops(3)).expect("valid");
        assert!(e.commit_epoch(1));

        // A diff appending one rule, anchored at the current digest.
        let delta = vec![EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1)),
            func: 0,
        }];
        let base = e.config_digest();
        e.stage_epoch_delta(2, base, delta).expect("digest matches");
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
        full.stage_epoch(2, ops).expect("valid");
        assert!(full.commit_epoch(2));
        assert_eq!(e.config_digest(), full.config_digest());
    }

    #[test]
    fn delta_epoch_rejects_stale_digest() {
        let mut e = Enclave::new(EnclaveConfig::default());
        e.stage_epoch(1, epoch_ops(3)).expect("valid");
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

    /// The maintained digest equals the digest of a [`Config`] the same
    /// edits were applied to as ops, after every edit.
    #[test]
    fn digest_and_rule_index_stay_exact_under_random_edits() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let mut config = Config::new();
        let mut both = |e: &mut Enclave, op: EnclaveOp| {
            config = config.apply(std::slice::from_ref(&op)).unwrap();
            match op {
                EnclaveOp::InstallFunction(f) => {
                    e.install_function(InstalledFunction::from_shipped(&f).unwrap());
                }
                EnclaveOp::CreateTable => {
                    e.create_table();
                }
                EnclaveOp::ClearTable { table } => e.clear_table(TableId(table)),
                EnclaveOp::RemoveRule { table, rule } => {
                    assert!(e.remove_rule(TableId(table), rule))
                }
                EnclaveOp::InstallRule { table, spec, func } => {
                    e.install_rule(TableId(table), spec, FuncId(func))
                }
                other => unreachable!("{other:?}"),
            }
            config.digest()
        };
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        for prio in 1..=2 {
            let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
            let install = crate::Controller::new().plan_function("t", &source, &schema);
            both(&mut e, install.unwrap());
        }
        both(&mut e, EnclaveOp::CreateTable);
        let mut rng = SimRng::new(0xD16E);
        for step in 0..3000 {
            let table = rng.below(2) as usize;
            let len = e.tables[table].rules.len();
            let op = match rng.below(16) {
                0 => EnclaveOp::ClearTable { table },
                1..=6 if len > 0 => {
                    // the last rule as often as any other: the O(1) case
                    let rule = if rng.below(2) == 0 {
                        len - 1
                    } else {
                        rng.below(len as u64) as usize
                    };
                    EnclaveOp::RemoveRule { table, rule }
                }
                _ => {
                    let class = |rng: &mut SimRng| ClassId(rng.below(6) as u32);
                    let spec = match rng.below(8) {
                        0 => MatchSpec::Any,
                        1 => MatchSpec::AnyOf(vec![class(&mut rng), class(&mut rng)]),
                        _ => MatchSpec::Class(class(&mut rng)),
                    };
                    let func = rng.below(2) as usize;
                    EnclaveOp::InstallRule { table, spec, func }
                }
            };
            let want = both(&mut e, op);
            assert_eq!(e.config_digest(), want, "step {step}");
            for t in &e.tables {
                for classes in [&[][..], &[0], &[1], &[2], &[3], &[4], &[5], &[7], &[5, 0]] {
                    let first = t.rules.iter().position(|(s, _)| s.matches(classes));
                    assert_eq!(t.find(classes), first, "step {step}, classes {classes:?}");
                }
            }
        }
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
            InstalledFunction::from_shipped(&ShippedFunction {
                name: "divzero".into(),
                bytecode,
                schema: Schema::new(),
                concurrency: Concurrency::Parallel,
            })
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

    /// The walk carries a trap as a bare `Err(())`; what a native closure's
    /// `Err` must still leave behind is everything the payload never fed.
    #[test]
    fn native_fault_is_counted_and_leaves_the_sentinel() {
        for fail_open in [true, false] {
            let mut e = Enclave::new(EnclaveConfig {
                fail_open,
                ..EnclaveConfig::default()
            });
            let f = e.install_function(native_function(
                "broken",
                Schema::new(),
                Concurrency::Parallel,
                Box::new(|_env| Err(eden_vm::VmError::DivideByZero)),
            ));
            e.install_rule(TableId(0), MatchSpec::Any, f);

            let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
            let v = e.process(&mut p, &mut SimRng::new(1), Time::from_nanos(5));
            let want = if fail_open {
                HookVerdict::Pass
            } else {
                HookVerdict::Drop
            };
            assert_eq!(v, want, "fail_open {fail_open}");
            assert_eq!(e.stats.faults, 1);
            let counts = e.stats_snapshot().functions[f.0].counts;
            assert_eq!((counts.faults, counts.invocations), (1, 0));

            let dump = e.last_flight_dump().expect("trap froze the recorder");
            assert_eq!(dump.reason, "vm_trap");
            let last = dump.last_event().expect("events retained");
            assert!(matches!(last.kind, FlightKind::VmTrap));
            // a native fault has no trap site: the kind-count sentinel
            assert_eq!((last.a, last.b), (eden_vm::Op::KIND_COUNT as u64, 0));
        }
    }

    /// A burst freezes the recorder once, right after its first trap, so
    /// the dump ends at that trap however many sampled packets follow it
    /// in the burst: each leaves three events, and a burst as long as the
    /// ring would push the trap out of a dump frozen at its end.
    #[test]
    fn a_burst_freezes_right_after_its_first_trap() {
        let config = EnclaveConfig {
            trace_sample: 1,
            ..EnclaveConfig::default()
        };
        let burst = config.flight_capacity;
        let mut e = Enclave::new(config);
        let mut calls = 0u32;
        let f = e.install_function(native_function(
            "traps_twice",
            Schema::new(),
            Concurrency::Parallel,
            Box::new(move |_env| {
                calls += 1;
                if calls == 1 || calls == 3 {
                    Err(eden_vm::VmError::DivideByZero)
                } else {
                    Ok(Outcome::Done)
                }
            }),
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);

        let mut batch: Vec<Packet> = (0..burst)
            .map(|_| Packet::udp(1, 2, netsim::UdpHeader::default(), 100))
            .collect();
        e.process_batch(&mut batch, &mut SimRng::new(1), Time::from_nanos(5));
        assert_eq!(
            e.batch_path_counts(),
            (1, 0),
            "a native function stays serial"
        );
        assert_eq!(e.stats.faults, 2);

        let dump = e.take_flight_dump().expect("the burst trapped");
        assert_eq!(dump.reason, "vm_trap");
        assert_eq!(
            (dump.counters.packets, dump.counters.faults),
            (1, 1),
            "frozen at the first trap, not at the second or the burst's end"
        );
        let last = dump.last_event().expect("events retained");
        assert!(matches!(last.kind, FlightKind::VmTrap));

        e.freeze_flight("end");
        let end = e.last_flight_dump().expect("frozen above");
        assert!(
            !end.events
                .iter()
                .any(|ev| matches!(ev.kind, FlightKind::VmTrap)),
            "a freeze at the burst's end has lost both traps"
        );
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
    fn a_default_enclave_runs_every_burst_on_the_callers_thread() {
        let mut e = Enclave::new(EnclaveConfig::default());
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let f = e.install_function(interp_fn(
            "fun (packet, msg, _global) -> packet.Priority <- 1",
            schema,
        ));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(
            e.lane_safe,
            "interpreted and not Serialized: lanes may run it"
        );

        // one flow per packet, a burst far past any lane's share
        let mut burst: Vec<Packet> = (0..256u16)
            .map(|i| {
                let udp = netsim::UdpHeader {
                    src_port: 1000 + i,
                    dst_port: 80,
                };
                Packet::udp(1, 2, udp, 100)
            })
            .collect();
        let verdicts = e.process_batch(&mut burst, &mut SimRng::new(1), Time::ZERO);
        assert_eq!(verdicts.len(), 256);
        assert_eq!(e.batch_path_counts(), (1, 0), "the burst stayed serial");
        assert_eq!(e.lane_pool.spawned(), 0, "no lane worker was started");
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
        let packet_counts = EnclaveStats {
            batches_serial: 0,
            ..b.stats
        };
        assert_eq!(packet_counts, e.stats);
        let shape = |spans: &[eden_telemetry::Span]| -> Vec<(String, u64, u64, u64)> {
            let ids =
                |s: &eden_telemetry::Span| (s.name.clone(), s.trace_id, s.span_id, s.parent_span);
            spans.iter().map(ids).collect()
        };
        let batch_shape = shape(&b.drain_spans(100));
        // 1-in-2 sampling: 4 traced packets, each completing 3 spans
        // (classify + execute + the "pkt" root)
        assert_eq!(e.pending_spans(), 12);
        let spans = e.drain_spans(100);
        assert_eq!(e.pending_spans(), 0);
        // per traced packet: the trace id, then the root's id, then one
        // per child; the root is pushed whole after its two children
        let mut want = Vec::new();
        for k in 0..4u64 {
            let (trace, root) = (4 * k + 1, 4 * k + 2);
            want.push(("classify".to_string(), trace, root + 1, root));
            want.push(("execute".to_string(), trace, root + 2, root));
            want.push(("pkt".to_string(), trace, root, 0));
        }
        assert_eq!(shape(&spans), want);
        assert_eq!(batch_shape, want);
        for trace in spans.chunks(3) {
            let [classify, execute, root] = trace else {
                unreachable!("chunks of three");
            };
            assert_eq!(classify.end_ns, execute.start_ns, "back to back");
            assert_eq!(
                (root.start_ns, root.end_ns),
                (classify.start_ns, execute.end_ns)
            );
        }

        let snap = e.stats_snapshot();
        let names: Vec<&str> = snap.latencies.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"stage.classify"), "{names:?}");
        assert!(names.contains(&"stage.execute"), "{names:?}");
        assert!(names.contains(&"vm.exec"), "{names:?}");
        assert!(names.contains(&"func.t"), "{names:?}");
        // `vm.exec` is the interpreted functions' sampled cost: an enclave
        // that ran only native functions times them, and reports no VM
        let mut n = Enclave::new(config);
        let f = n.install_function(native_function(
            "n",
            Schema::new(),
            Concurrency::Parallel,
            Box::new(|_env| Ok(Outcome::Done)),
        ));
        n.install_rule(TableId(0), MatchSpec::Any, f);
        for i in 0..8u64 {
            let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
            n.process(&mut p, &mut rng, Time::from_nanos(i));
        }
        let snap = n.stats_snapshot();
        let names: Vec<&str> = snap.latencies.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"func.n"), "{names:?}");
        assert!(!names.contains(&"vm.exec"), "{names:?}");

        // with sampling off (the default) snapshots carry no latencies
        let quiet = Enclave::new(EnclaveConfig::default());
        assert!(!quiet.tracing_enabled());
        assert!(quiet.stats_snapshot().latencies.is_empty());
    }

    #[test]
    fn latency_rows_are_made_once_sampling_is_on() {
        let src = "fun (packet, msg, _global) -> packet.Priority <- 1";
        let schema = Schema::new().packet_field("Priority", Access::ReadWrite, None);
        let mut e = Enclave::new(EnclaveConfig::default());
        let f = e.install_function(interp_fn(src, schema.clone()));
        e.install_rule(TableId(0), MatchSpec::Any, f);
        assert!(e.func_latency.is_empty(), "nothing sampled, no row held");

        e.set_trace_sample(1);
        assert_eq!(
            e.func_latency.len(),
            1,
            "turning sampling on makes the rows"
        );
        e.install_function(interp_fn(src, schema));
        assert_eq!(e.func_latency.len(), 2, "an install while on makes its own");
        let mut p = Packet::udp(1, 2, netsim::UdpHeader::default(), 100);
        e.process(&mut p, &mut SimRng::new(1), Time::ZERO);
        let snap = e.stats_snapshot();
        assert!(snap.latencies.iter().any(|l| l.name == "func.t"));
    }

    #[test]
    fn batch_path_records_stage_histograms() {
        let mut e = Enclave::new(EnclaveConfig {
            lanes: 4,
            trace_sample: 4,
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
        assert!(names.contains(&"stage.execute"), "{names:?}");
        assert!(names.contains(&"func.t"), "{names:?}");
        let spans = e.drain_spans(100);
        assert!(spans.iter().any(|s| s.name == "batch"));

        // each of the 16 sampled packets left its three steps, in order, in
        // the flight ring of the lane that ran it
        e.freeze_flight("test");
        let dump = e.last_flight_dump().expect("frozen above");
        let steps: Vec<FlightKind> = dump
            .events
            .iter()
            .map(|ev| ev.kind)
            .filter(|k| !matches!(k, FlightKind::BatchStart))
            .collect();
        assert_eq!(steps.len(), 3 * 16);
        for packet in steps.chunks(3) {
            assert!(
                matches!(
                    packet,
                    [FlightKind::Classify, FlightKind::Match, FlightKind::Execute]
                ),
                "{packet:?}"
            );
        }
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
