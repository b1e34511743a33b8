//! What the enclave reports: the stats-pull snapshot, data-path tracing
//! and the flight recorder.

use eden_telemetry::{
    FlightDump, FlightEvent, FlightKind, FuncCounts, FunctionCounters, LatencyStat, LogHistogram,
    RuleCounters, Sampler, Span, StatsSnapshot, TableCounters, TraceContext,
};

use super::{Enclave, STAGE_NAMES};
use crate::action::ActionImpl;

/// Pull a snapshot from the enclave installed on `stack`, merged with the
/// stack's own telemetry: per-flow TCP counters and host-level drop
/// counters. `None` when no [`Enclave`] hook is installed. Non-perturbing:
/// every counter keeps accumulating.
pub fn pull_host_stats(stack: &mut transport::Stack) -> Option<StatsSnapshot> {
    let flows = stack.flow_counters();
    let host = stack.host_counters();
    let mut snap = stack.hook_mut::<Enclave>()?.stats_snapshot();
    snap.flows = flows;
    snap.host = Some(host);
    Some(snap)
}

impl Enclave {
    /// Copy every data-path counter into a point-in-time
    /// [`StatsSnapshot`]: enclave totals, per-table and per-rule match
    /// counts, per-function invocation/fault/verdict counts, and the
    /// interpreter pool's accumulated cost (summed over lanes). `flows` is
    /// empty and `host` is `None`: [`pull_host_stats`] merges those in
    /// from the host stack.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let tables = self
            .table_counts
            .iter()
            .enumerate()
            .map(|(table, c)| TableCounters {
                table,
                counts: c.totals,
            })
            .collect();
        let rules = self
            .tables
            .iter()
            .zip(&self.table_counts)
            .enumerate()
            .flat_map(|(table, (t, c))| {
                let hits = t.rules.words().iter().zip(&c.rule_hits).enumerate();
                hits.map(move |(rule, (w, &counts))| RuleCounters {
                    table,
                    rule,
                    func: w.func(),
                    counts,
                })
            })
            .collect();
        let functions = self
            .functions
            .iter()
            .zip(&self.func_counts)
            .zip(&self.states)
            .enumerate()
            .map(|(func, ((f, &counts), state))| FunctionCounters {
                func,
                name: f.name.clone(),
                counts: FuncCounts {
                    evictions: state.evictions,
                    live_messages: state.live_messages() as u64,
                    ..counts
                },
            })
            .collect();
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
            enclave: self.stats,
            tables,
            rules,
            functions,
            vm: self.pool.counters(),
            opcode_counts,
            flows: Vec::new(),
            host: None,
            latencies: self.latency_stats(),
        }
    }

    /// How batches ran, `(packet by packet on the caller's thread, fanned
    /// out to lanes)` — telemetry for the per-lane fan-out gate.
    pub fn batch_path_counts(&self) -> (u64, u64) {
        (self.stats.batches_serial, self.stats.batches_parallel)
    }

    /// Named latency histograms for a snapshot: pipeline stages, sampled
    /// VM execution, and per-function cost. `vm.exec` is not timed on its
    /// own: it is the sampled `func.*` histograms of the interpreted
    /// functions, merged here. Empty (and the section entirely absent)
    /// unless tracing is enabled, so default snapshots — and the
    /// serial/batch equivalence they are compared by — carry no
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
        let mut vm = LogHistogram::new();
        for (f, h) in self.functions.iter().zip(&self.func_latency) {
            if matches!(f.action, ActionImpl::Interpreted(_)) {
                vm.merge(h);
            }
        }
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

    /// Enable or disable the interpreter pool's profiling: the per-opcode
    /// histogram and the dynamic high-water marks (off by default; see
    /// [`eden_vm::Interpreter::set_opcode_profiling`]).
    pub fn set_opcode_profiling(&mut self, enabled: bool) {
        self.pool.set_opcode_profiling(enabled);
    }

    /// Stack, heap and call depth the most recent interpreted run on the
    /// caller's thread actually reached; `None` unless profiling is on.
    /// [`last_usage`](Self::last_usage) has the static bound they stay
    /// under.
    pub fn observed_peaks(&self) -> Option<eden_vm::Bound> {
        self.pool.observed_peaks()
    }

    // ------------------------------------------------------------------
    // tracing + flight recorder
    // ------------------------------------------------------------------

    /// Change the data-path trace sampling rate at runtime (0 disables;
    /// see [`EnclaveConfig::trace_sample`](crate::EnclaveConfig::trace_sample)).
    pub fn set_trace_sample(&mut self, every: u32) {
        self.config.trace_sample = every;
        self.sampler = Sampler::every(every);
        self.grow_latency_rows();
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
        self.flight[0].push(FlightEvent {
            at_ns: self.last_now.as_nanos(),
            lane: 0,
            kind,
            a,
            b,
        });
    }

    /// Freeze the per-lane event rings into a [`FlightDump`] (last
    /// events and a counter snapshot), emit it per
    /// `EDEN_FLIGHT`, and keep it for
    /// [`last_flight_dump`](Self::last_flight_dump).
    pub fn freeze_flight(&mut self, reason: &str) {
        let dump = FlightDump::freeze(
            reason,
            self.spans.host(),
            self.last_now.as_nanos(),
            &self.flight,
            self.stats,
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
