//! The data path: classify → match → execute for one packet on the
//! caller's thread, a burst loop over it that asks for message state a few
//! packets ahead, and the lane fan-out for eligible batches.

use eden_lang::Access;
use eden_repl::HostRepl;
use eden_telemetry::{FlightEvent, FlightKind, FlightRing, FuncCounts, Span, TraceContext};
use eden_vm::{Interpreter, Outcome, Program, VmError};
use netsim::{Packet, PacketRng, SimRng, Time};
use transport::HookVerdict;

use super::host::{GlobalView, InvocationHost, ReplRef, ReplShared};
use super::link::PktSlot;
use super::tables::{lookup, FiveTupleMatch, Lookup, MatchActionTable, TableCounts};
use super::{Enclave, EnclaveStats, FlowDirection, STAGE_CLASSIFY, STAGE_EXECUTE};
use crate::action::{ActionImpl, InstalledFunction, NativeEnv, NativeFn};
use crate::class::ClassId;
use crate::state::{FunctionState, MsgShard};

/// How many packets ahead of the one it is processing the burst loop asks
/// for message state. 2, 4 and 8 measured the same on `flow-churn`.
const AHEAD: usize = 4;

impl Enclave {
    /// Run the match-action pipeline on one egress packet. This is the
    /// routine the microbenchmarks time; `on_egress` is a thin wrapper.
    pub fn process(&mut self, packet: &mut Packet, rng: &mut SimRng, now: Time) -> HookVerdict {
        self.process_dir(packet, rng, now, FlowDirection::Egress)
    }

    /// Run the match-action pipeline with an explicit direction. A trap
    /// freezes the flight recorder.
    pub fn process_dir(
        &mut self,
        packet: &mut Packet,
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
    ) -> HookVerdict {
        let faults = self.stats.faults;
        let v = self.process_one(packet, rng, now, direction);
        if self.stats.faults != faults {
            self.freeze_flight("vm_trap");
        }
        v
    }

    /// [`process_dir`](Self::process_dir) without the freeze: its callers
    /// decide when a trap freezes the flight recorder. The verdict is all
    /// that is returned (a wider result read back whole after the callee's
    /// narrow stores is a failed store-to-load forward; see `InvokeOut`).
    fn process_one(
        &mut self,
        packet: &mut Packet,
        rng: &mut SimRng,
        now: Time,
        direction: FlowDirection,
    ) -> HookVerdict {
        self.stats.packets += 1;
        self.last_now = now;
        let sampled = self.sampler.sample();
        let t_classify = sampled.then(std::time::Instant::now);

        // --- classify: class list, message identity, per-packet RNG ----
        self.classes.clear();
        classify(packet, &self.flow_rules, &mut self.classes);
        let msg_id = message_id(packet);
        let mut prng = rng.fork_packet();

        // sampled packet: the end of classify is the start of the walk
        let at = now.as_nanos();
        let t_walk = t_classify.map(|t0| {
            let t1 = std::time::Instant::now();
            let classify_ns = (t1 - t0).as_nanos() as u64;
            self.flight[0].push(FlightEvent {
                at_ns: at,
                lane: 0,
                kind: FlightKind::Classify,
                a: u64::from(self.classes.first().copied().unwrap_or(0)),
                b: classify_ns,
            });
            (classify_ns, t1)
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
            interp: self.pool.caller_mut(),
            ring: &mut self.flight[0],
            samples: &mut func_samples,
            scratch: &mut self.scratch,
            lane: 0,
            batch_idx: 0,
            now,
            direction,
            fail_open: self.config.fail_open,
        }
        .packet(&self.classes, msg_id, packet, &mut prng, sampled);
        if let Some(p) = punted {
            self.push_punt(p);
        }
        for (fid, ns) in func_samples {
            self.func_latency[fid].record(ns);
        }
        if let Some((classify_ns, t1)) = t_walk {
            let walk_ns = t1.elapsed().as_nanos() as u64;
            self.record_stages("pkt", at, classify_ns, walk_ns);
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
        let mut out = Vec::with_capacity(packets.len());
        self.process_batch_into(packets, rng, now, &mut out);
        out
    }

    /// Allocation-free egress batch entry point: one verdict per packet
    /// is *appended* to `out` in packet order, so a caller can reuse a
    /// single verdict buffer across batches. Ingress has no batch path:
    /// it goes packet by packet through [`process_dir`](Self::process_dir).
    pub fn process_batch_into(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        out: &mut Vec<HookVerdict>,
    ) {
        if packets.is_empty() {
            return;
        }
        if self.parallel_eligible(packets.len()) {
            self.stats.batches_parallel += 1;
            self.process_batch_parallel(packets, rng, now, out);
        } else {
            self.stats.batches_serial += 1;
            out.reserve(packets.len());
            // one freeze a burst, right after its first trap, so the dump
            // still ends at that trap: a trap storm must not copy and sort
            // the rings once a packet
            let mut frozen = false;
            let faults = self.stats.faults;
            for i in 0..packets.len() {
                if let Some(ahead) = packets.get(i + AHEAD) {
                    self.peek(ahead);
                }
                let v = self.process_one(&mut packets[i], rng, now, FlowDirection::Egress);
                out.push(v);
                if !frozen && self.stats.faults != faults {
                    self.freeze_flight("vm_trap");
                    frozen = true;
                }
            }
        }
    }

    /// Lookahead for the burst loop: work out which message-state bucket
    /// `packet` will probe once its turn comes, and ask for it now, so the
    /// memory wait overlaps the packets in between. Resolves only as far
    /// as table 0's function — the block most packets fetch first — and
    /// does it off the books: no lookup is counted, no RNG forked, no
    /// sample drawn, nothing indexed that `lookup` would not index.
    /// `process_dir` repeats every step for real, so a peek that guessed
    /// wrong (an epoch cannot intervene, but a `GotoTable` can lead
    /// elsewhere) changes no outcome.
    fn peek(&mut self, packet: &Packet) {
        self.classes.clear();
        classify(packet, &self.flow_rules, &mut self.classes);
        let Some(table) = self.tables.first() else {
            return;
        };
        if let Some(rule) = table.find(&self.classes) {
            self.states[table.rules[rule].func.0].hint(message_id(packet));
        }
    }

    /// May this batch take the parallel path? All functions lane-safe
    /// (interpreted, not `Serialized`), more than one lane, every lane's
    /// share large enough to pay for the worker handoff, and enough
    /// message-state headroom that lane-side block creation can never
    /// trigger a FIFO eviction (eviction order is only defined on the
    /// caller's thread).
    pub(super) fn parallel_eligible(&self, n: usize) -> bool {
        self.lane_safe
            && !self.functions.is_empty()
            && self.pool.lanes() > 1
            && n / self.pool.lanes() >= self.config.parallel_per_lane_min.max(1)
            && self.states.iter().all(|s| s.headroom() >= n)
    }

    /// The lane fan-out. The caller's one pass over the burst does only what
    /// has an order — message id, RNG fork and sampler draw, in batch order
    /// — and deals each packet to the lane its message id selects. A lane
    /// then takes its packets through classify → match → execute to
    /// completion; the merge adds the lanes' counters and replays punts and
    /// block creations in packet order.
    fn process_batch_parallel(
        &mut self,
        packets: &mut [Packet],
        rng: &mut SimRng,
        now: Time,
        out: &mut Vec<HookVerdict>,
    ) {
        let n = packets.len();
        let lanes = self.pool.lanes();
        self.stats.packets += n as u64;
        self.last_now = now;
        let tracing = self.sampler.enabled();
        if tracing {
            self.flight[0].push(FlightEvent {
                at_ns: now.as_nanos(),
                lane: 0,
                kind: FlightKind::BatchStart,
                a: n as u64,
                b: 0,
            });
        }
        let rule_counts: Vec<usize> = self.tables.iter().map(|t| t.rules.len()).collect();
        let nfuncs = self.functions.len();
        self.lane_scratch.resize_with(lanes, LaneScratch::default);
        for scr in self.lane_scratch.iter_mut() {
            scr.reset(&rule_counts, nfuncs, self.scratch.len());
        }
        let mut tasks: Vec<LaneTask<'_>> = self
            .lane_scratch
            .iter_mut()
            .zip(self.pool.lanes_mut())
            .zip(&mut self.flight)
            .map(|((scr, interp), ring)| LaneTask {
                packets: Vec::with_capacity(n),
                flow_rules: &self.flow_rules,
                tables: &self.tables,
                bindings: &self.pkt_bindings,
                funcs: Vec::with_capacity(nfuncs),
                interp,
                ring,
                scr,
                now,
                fail_open: self.config.fail_open,
            })
            .collect();

        let t_deal = tracing.then(std::time::Instant::now);
        for (idx, packet) in packets.iter_mut().enumerate() {
            let msg_id = message_id(packet);
            tasks[(msg_id % lanes as u64) as usize]
                .packets
                .push(LanePacket {
                    idx,
                    msg_id,
                    // a lane cannot share the borrow of `rng` a reserved
                    // draw holds: the deal computes it
                    rng: rng.fork_packet().resolve(),
                    sampled: self.sampler.sample(),
                    packet,
                });
        }
        // the end of the deal is the start of the lanes' run
        let t_lanes = t_deal.map(|t0| {
            let t1 = std::time::Instant::now();
            ((t1 - t0).as_nanos() as u64, t1)
        });

        for ((f, state), repl) in self
            .functions
            .iter()
            .zip(self.states.iter_mut())
            .zip(self.repl.iter())
        {
            let ActionImpl::Interpreted(program) = &f.action else {
                unreachable!("lane fan-out requires interpreted functions");
            };
            let (shards, global, arrays) = state.split_shards(lanes);
            let repl = repl.as_ref().map(|h| ReplShared {
                spec: h.spec(),
                remote: h.remote_globals(),
                remote_arrays: h.remote_arrays(),
            });
            for (task, shard) in tasks.iter_mut().zip(shards) {
                task.funcs.push(LaneFn {
                    program,
                    shard,
                    global,
                    arrays,
                    repl,
                });
            }
        }
        self.lane_pool.run(&mut tasks, run_lane_task);
        drop(tasks);
        let stages = t_lanes.map(|(deal_ns, t1)| (deal_ns, t1.elapsed().as_nanos() as u64));

        // --- merge: counters in lane order, packet-ordered queues --------
        let base = out.len();
        out.resize(base + n, HookVerdict::Pass);
        let mut all_punts: Vec<(usize, Packet)> = Vec::new();
        let mut all_created: Vec<(usize, usize, u64)> = Vec::new();
        let mut faulted = false;
        for scr in self.lane_scratch.iter_mut() {
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
                out[base + idx] = v;
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
        // batch-level stage trace: the caller's pass and the lanes' run
        if let Some((deal_ns, lanes_ns)) = stages {
            self.record_stages("batch", now.as_nanos(), deal_ns, lanes_ns);
        }
        if faulted {
            self.freeze_flight("vm_trap");
        }
    }

    /// Record one sampled trace whole: a `root` span (`pkt` or `batch`)
    /// whose `classify` and `execute` children run back to back from `at`.
    /// The root's id is allocated first and the root is pushed after its
    /// children, so ids count up from parent to child while the sink holds
    /// spans in completion order.
    fn record_stages(&mut self, root: &str, at: u64, classify_ns: u64, execute_ns: u64) {
        self.stage_hists[STAGE_CLASSIFY].record(classify_ns);
        self.stage_hists[STAGE_EXECUTE].record(execute_ns);
        let trace_id = self.spans.next_span_id();
        let root_id = self.spans.next_span_id();
        let ctx = TraceContext::sampled(trace_id, root_id);
        let walk_at = at + classify_ns;
        let end_ns = walk_at + execute_ns;
        self.spans.record(ctx, "classify", at, walk_at);
        self.spans.record(ctx, "execute", walk_at, end_ns);
        self.spans.push(Span {
            trace_id,
            span_id: root_id,
            parent_span: 0,
            host: self.spans.host(),
            name: root.into(),
            start_ns: at,
            end_ns,
        });
    }

    /// Append to the bounded punt mailbox: when full, the oldest punt
    /// makes room. The mailbox counts evictions; `punt_drops` reports them.
    fn push_punt(&mut self, packet: Packet) {
        self.punted.push(packet);
        self.stats.punt_drops = self.punted.evicted();
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
// execute stage
// ----------------------------------------------------------------------

/// What one invocation produced. A trap travels as `Err(())`: every
/// reader downstream only asks *whether* the function trapped (the trap
/// site is `Interpreter::last_trap`), and two bytes travel in registers
/// where the callee's 24-byte `Result<Outcome, VmError>`, read back whole
/// across the narrow stores that had just written it, stalled `invoke` on
/// a failed store-to-load forward (10.8 % of `bare-forward` samples).
struct InvokeOut {
    result: Result<Outcome, ()>,
    queue: Option<(i64, i64)>,
    header_modifies: u64,
}

/// The payload-free form of what a callee returned, read through a
/// reference: a tag and `GotoTable`'s byte, not the whole slot.
#[inline(always)]
fn tag_of(returned: &Result<Outcome, VmError>) -> Result<Outcome, ()> {
    match returned {
        Ok(outcome) => Ok(*outcome),
        Err(_) => Err(()),
    }
}

/// Fold one invocation's outcome into its function's counters. The
/// blocks are kept apart from the read-only [`InstalledFunction`] for the
/// same reason as [`TableCounts`]: the enclave's hold the totals, a lane's
/// are merged into them after every fan-out.
fn record_invocation(c: &mut FuncCounts, out: &InvokeOut) {
    c.header_modifies += out.header_modifies;
    match &out.result {
        Ok(outcome) => {
            c.invocations += 1;
            if let Some((_, charge)) = out.queue {
                c.enqueue_charge_bytes += charge.max(0) as u64;
            }
            match outcome {
                Outcome::Dropped => c.drops += 1,
                Outcome::SentToController => c.punts += 1,
                Outcome::Done | Outcome::GotoTable(_) => {}
            }
        }
        Err(_) => c.faults += 1,
    }
}

/// Fold one packet's walk outcome into the enclave's counters (everything
/// except the `packets` count and the punt mailbox, which the caller owns).
fn account_walk(stats: &mut EnclaveStats, w: &WalkResult) {
    if w.matched_any {
        stats.matched += 1;
    } else {
        stats.missed += 1;
    }
    if w.fault {
        stats.faults += 1;
    }
    if w.loop_abort {
        stats.table_loop_aborts += 1;
    }
    stats.header_modifies += w.header_modifies;
    match w.verdict {
        HookVerdict::Pass => stats.forwarded += 1,
        HookVerdict::Queue { charge, .. } => {
            stats.forwarded += 1;
            stats.queued += 1;
            stats.enqueue_charge_bytes += charge;
        }
        HookVerdict::Drop => {
            if w.punt {
                stats.punted_to_controller += 1;
            } else {
                stats.dropped += 1;
            }
        }
    }
}

/// A worker lane's handle on one installed function: the program, this
/// lane's message shard, and the globals every lane shares read-only.
struct LaneFn<'a> {
    program: &'a Program,
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

/// The code one invocation runs. A native closure comes with its
/// declared concurrency level, which only [`NativeEnv`] enforces.
enum ActionRef<'a> {
    Interpreted(&'a Program),
    Native(&'a mut NativeFn, eden_lang::Concurrency),
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
    bindings: &'w [Vec<(PktSlot, Access)>],
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
    /// Every caller is a sampled, punted, trapped or looping packet: out of
    /// line, the event's construction stays off the walk's hot path.
    #[inline(never)]
    fn flight(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.ring.push(FlightEvent {
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
        rng: &mut PacketRng<'_>,
        sampled: bool,
    ) -> (WalkResult, Option<Packet>) {
        // not `fill(0)`: on an empty scratch (no function installed) that
        // measured ~100 ns a packet on the miss path
        self.scratch.iter_mut().for_each(|v| *v = 0);
        let walk = self.walk_packet(classes, msg_id, packet, rng, sampled);
        account_walk(self.stats, &walk);
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
        rng: &mut PacketRng<'_>,
        timed: bool,
    ) -> InvokeOut {
        let (action, msg, state, repl) = match &mut self.funcs {
            Funcs::Owner {
                functions,
                states,
                repl,
            } => {
                let f = &mut functions[fid];
                let action = match &mut f.action {
                    ActionImpl::Interpreted(program) => ActionRef::Interpreted(program),
                    ActionImpl::Native(native) => ActionRef::Native(native, f.concurrency),
                };
                let (msg, global, arrays) = states[fid].split_for(msg_id);
                let repl = match repl[fid].as_mut() {
                    Some(h) => ReplRef::Excl(h),
                    None => ReplRef::Off,
                };
                let state = GlobalView::Excl { global, arrays };
                (action, msg, state, repl)
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
                (action, msg, state, repl)
            }
        };
        let mut rand = || rng.next_i64();
        let mut host = InvocationHost {
            packet,
            bindings: &self.bindings[fid],
            scratch: &mut *self.scratch,
            msg,
            state,
            repl,
            rand: &mut rand,
            now: self.now,
            direction: self.direction,
            queue: None,
            header_modifies: 0,
        };
        let native = matches!(action, ActionRef::Native(..));
        let t = timed.then(std::time::Instant::now);
        // A native closure borrows the view for as long as the view's own
        // borrows live, so each arm reads the verdict off it while it can.
        let (result, queue, header_modifies) = match action {
            ActionRef::Interpreted(program) => {
                let result = tag_of(&self.interp.run(program, &mut host));
                (result, host.queue, host.header_modifies)
            }
            ActionRef::Native(f, concurrency) => {
                let mut env = NativeEnv::new(&mut host, concurrency);
                let result = tag_of(&f(&mut env));
                let (queue, header_modifies) = env.outcome();
                (result, queue, header_modifies)
            }
        };
        let out = InvokeOut {
            result,
            queue,
            header_modifies,
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
        record_invocation(&mut self.func_counts[fid], &out);
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
        rng: &mut PacketRng<'_>,
        timed: bool,
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
            let fid = match lookup(self.tables, self.table_counts, table, classes) {
                Lookup::NoTable | Lookup::Miss => break 'walk,
                Lookup::Hit(fid) => fid,
            };
            res.matched_any = true;
            if timed {
                self.flight(FlightKind::Match, table as u64, fid as u64);
            }
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

/// One worker lane's outputs and scratch. The enclave keeps one per lane
/// from fan-out to fan-out, so their vectors keep their capacity; what a
/// fan-out still allocates is `tasks` with each lane's packet and function
/// lists, the two replay lists and the per-rule vectors `reset` re-makes.
#[derive(Debug, Default)]
pub(super) struct LaneScratch {
    /// `(batch index, verdict)` of every packet this lane ran.
    verdicts: Vec<(usize, HookVerdict)>,
    stats: EnclaveStats,
    table_counts: Vec<TableCounts>,
    func_counts: Vec<FuncCounts>,
    /// `(batch index, packet)` punts, *moved* out of the batch.
    punts: Vec<(usize, Packet)>,
    /// `(batch index, function, message)` of state blocks this lane
    /// created, for packet-order FIFO replay at merge time.
    created: Vec<(usize, usize, u64)>,
    /// Sampled `(function, elapsed ns)` pairs from this lane.
    func_samples: Vec<(usize, u64)>,
    /// The current packet's class list.
    classes: Vec<u32>,
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

/// One packet of a lane's share: its place in the batch and what the
/// caller's pass drew for it in batch order.
struct LanePacket<'a> {
    idx: usize,
    msg_id: u64,
    rng: PacketRng<'static>,
    sampled: bool,
    packet: &'a mut Packet,
}

/// Everything one worker lane runs its share with: its packets, the
/// read-only configuration, its own state shards, interpreter and flight
/// ring, and its [`LaneScratch`] outputs.
struct LaneTask<'a> {
    packets: Vec<LanePacket<'a>>,
    flow_rules: &'a [(FiveTupleMatch, ClassId)],
    tables: &'a [MatchActionTable],
    bindings: &'a [Vec<(PktSlot, Access)>],
    funcs: Vec<LaneFn<'a>>,
    interp: &'a mut Interpreter,
    ring: &'a mut FlightRing,
    scr: &'a mut LaneScratch,
    now: Time,
    fail_open: bool,
}

/// A lane's run: every packet dealt to it, classify → match → execute, in
/// batch order. Only egress batches fan out.
fn run_lane_task(lane: usize, t: &mut LaneTask<'_>) {
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
        lane: lane as u16,
        batch_idx: 0,
        now: t.now,
        direction: FlowDirection::Egress,
        fail_open: t.fail_open,
    };
    for p in t.packets.iter_mut() {
        let t_classify = p.sampled.then(std::time::Instant::now);
        scr.classes.clear();
        classify(p.packet, t.flow_rules, &mut scr.classes);
        if let Some(t0) = t_classify {
            let class = scr.classes.first().copied().unwrap_or(0);
            let ns = t0.elapsed().as_nanos() as u64;
            walker.flight(FlightKind::Classify, u64::from(class), ns);
        }
        walker.batch_idx = p.idx;
        let (walk, punted) = walker.packet(&scr.classes, p.msg_id, p.packet, &mut p.rng, p.sampled);
        if let Some(punt) = punted {
            scr.punts.push((p.idx, punt));
        }
        scr.verdicts.push((p.idx, walk.verdict));
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
