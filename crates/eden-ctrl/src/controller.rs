//! The root controller application: desired state, epoch minting and the
//! cluster-wide view, over a [`Coordinator`] driven by one periodic timer.
//!
//! [`ControllerApp`] runs as a [`transport::App`] on an ordinary host, so
//! every control message pays real wire time on the same links the data
//! plane uses (§3.2: the controller "communicates with enclaves over the
//! network"). The two-phase rounds, retries, failure detection and
//! per-peer resync are the coordinator's (see [`crate::coordinator`]);
//! what makes this tier the root is what it alone decides:
//!
//! * **Desired state** is a Reset-led op list tagged with an epoch, kept
//!   only as its encoded full `Prepare`. A
//!   shadow enclave on the controller replays it, which both validates the
//!   ops before anything touches the wire and yields the expected config
//!   digest for convergence checks.
//! * **A nacked prepare aborts** the round everywhere and rolls desired
//!   state back.
//! * **A peer ahead of desired state is outbid**: same or newer epoch
//!   with a wrong digest (its own, or one its aggregator vouches for)
//!   cannot be resynced, so desired state is re-issued under a fresh
//!   epoch and a plain prepare/commit replay heals the whole fleet.
//! * **Heartbeats carry the replication sync** (see `eden-repl`), and
//!   stats, spans, round-trip and convergence times are collected here.
//!
//! The driver must kick the timer wheel once:
//!
//! ```ignore
//! net.schedule_timer(ctrl_node, Time::ZERO, transport::app_timer_token(eden_ctrl::TICK));
//! ```

use std::collections::BTreeMap;

use eden_core::{ApplyError, Enclave, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, ReplHub, ReplSpec};
use eden_telemetry::{
    ClusterStats, FlightKind, HostReport, LatencyStat, LogHistogram, ReplLag, Span, TraceContext,
    TraceStore,
};
use netsim::{Ctx, Packet, Time, UdpHeader};
use transport::{App, Stack};

use crate::coordinator::{Coordinator, Event, HostStatus, Peer, Report};
use crate::delta::{encode_shared, ConfigEntry, ConfigHistory};
use crate::proto::{self, CtrlMsg, CtrlReply, Reassembler, Request, Response};

/// Timer payload of the controller's periodic tick (pass through
/// [`transport::app_timer_token`] when scheduling the first one).
pub const TICK: u64 = 0x71C4;

/// Most spans requested per `PullTrace` (sent with the stats pulls).
const PULL_TRACE_MAX: u16 = 256;

/// Timing and port knobs. The defaults suit the workspace's default
/// fabric (10 Gb/s links, microsecond propagation); everything scales
/// linearly if a scenario runs slower links.
#[derive(Debug, Clone)]
pub struct CtrlConfig {
    /// UDP port the enclave agents listen on (`Stack::set_ctrl_port`).
    pub ctrl_port: u16,
    /// UDP source port for controller-originated messages.
    pub src_port: u16,
    /// Cadence of the controller's internal tick.
    pub tick_every: Time,
    /// Heartbeat interval per host.
    pub heartbeat_every: Time,
    /// Stats-pull interval per host (each pull drains trace spans too);
    /// `Time::ZERO` disables pulling.
    pub stats_every: Time,
    /// First retransmit delay; doubles per retry (plus jitter).
    pub retry_base: Time,
    /// Retransmit delay ceiling.
    pub retry_max: Time,
    /// Retransmits before the controller gives up on a request and marks
    /// the host down.
    pub max_retries: u32,
    /// Silence threshold for failure detection.
    pub fail_after: Time,
    /// Whether epoch rounds carry a trace context, so every host's
    /// prepare/commit spans assemble under one per-round trace tree.
    /// Rounds are rare control events, so this defaults on.
    pub trace_rounds: bool,
    /// Ship config changes as digest-anchored [`CtrlMsg::DeltaPrepare`]
    /// diffs when a host's last report matches a known history entry and
    /// the diff is smaller on the wire. Off forces full-table ships —
    /// the control arm for the wire-bytes benchmark.
    pub delta_updates: bool,
}

impl Default for CtrlConfig {
    fn default() -> CtrlConfig {
        CtrlConfig {
            ctrl_port: 799,
            src_port: 7990,
            tick_every: Time::from_micros(100),
            heartbeat_every: Time::from_micros(1_000),
            stats_every: Time::ZERO,
            retry_base: Time::from_micros(500),
            retry_max: Time::from_micros(10_000),
            max_retries: 10,
            fail_after: Time::from_micros(5_000),
            trace_rounds: true,
            delta_updates: true,
        }
    }
}

/// Message/byte tallies for everything this endpoint puts on or takes
/// off the control wire: the `ctrl_wire` group of the telemetry tables.
pub use eden_telemetry::WireCounters;

/// Put everything `coord` queued on the wire, in order, as one or more
/// control frames each (replies echo a message's id as `re`), and tally
/// it on `wire`.
pub(crate) fn transmit(
    coord: &mut Coordinator,
    wire: &mut WireCounters,
    stack: &mut Stack,
    ctx: &mut Ctx<'_>,
) {
    let udp = UdpHeader {
        src_port: coord.cfg.src_port,
        dst_port: coord.cfg.ctrl_port,
    };
    for out in coord.outbox.drain(..) {
        wire.sent(out.bytes.len(), out.is_config);
        for frame in proto::fragment(out.id, &out.bytes) {
            stack.send_raw(Packet::ctrl(stack.addr, out.to, udp, frame), ctx);
        }
    }
}

/// The cluster controller, run as a host [`App`].
pub struct ControllerApp {
    /// Compilation front end, for building [`EnclaveOp`] lists
    /// (`core.plan_function(...)`).
    pub core: eden_core::Controller,
    /// The coordinator role, over every directly managed endpoint.
    coord: Coordinator,
    /// The endpoints that are rack/pod aggregators, with the hosts each
    /// fronts: their heartbeats are [`CtrlMsg::AggSync`] and their pongs
    /// summarize the whole shard.
    subtrees: BTreeMap<u32, Vec<u32>>,
    /// Desired-state history; the last entry is current. Kept so a
    /// nacked round can roll back to the previous version, and so a host
    /// on a recent version can be sent a delta.
    history: ConfigHistory,
    /// Shadow enclave replaying desired state (validation + digest).
    shadow: Enclave,
    cluster: ClusterStats,
    reasm: Reassembler,
    next_stats: Time,
    /// Cross-host span assembly (pong piggybacks + `PullTrace` replies +
    /// the controller's own round roots).
    trace: TraceStore,
    /// Controller-namespace id counter for trace ids and round root
    /// spans (well below the `host << 40` agent namespaces).
    span_seq: u64,
    /// Request → matching-reply round-trip times.
    rtt: LogHistogram,
    /// Round open → commit-fanout completion.
    converge: LogHistogram,
    /// Replication rendezvous: per-host merged contributions, the global
    /// sequenced order, and anti-entropy. Views fan out on heartbeats;
    /// deltas arrive on pongs.
    repl: ReplHub,
    /// Gap between consecutive deltas from the same host — how stale its
    /// replica view runs (the heartbeat cadence plus any loss).
    repl_staleness: LogHistogram,
    /// Wire size of each pong's delta section.
    repl_delta_bytes: LogHistogram,
}

impl ControllerApp {
    /// A controller managing the enclave agents at `hosts`.
    pub fn new(cfg: CtrlConfig, hosts: &[u32]) -> ControllerApp {
        let shadow = Enclave::new(EnclaveConfig::default());
        let history = ConfigHistory::new(shadow.config_digest());
        ControllerApp {
            core: eden_core::Controller::new(),
            coord: Coordinator::new(cfg, hosts),
            subtrees: BTreeMap::new(),
            history,
            shadow,
            cluster: ClusterStats::new(),
            reasm: Reassembler::default(),
            next_stats: Time::ZERO,
            trace: TraceStore::new(4096),
            span_seq: 0,
            rtt: LogHistogram::new(),
            converge: LogHistogram::new(),
            repl: ReplHub::new(),
            repl_staleness: LogHistogram::new(),
            repl_delta_bytes: LogHistogram::new(),
        }
    }

    /// Promote `addr` to (or register it as) a rack/pod aggregator
    /// fronting `children`. The controller stops talking to the children
    /// directly: epoch phases and heartbeats go to the aggregator, which
    /// runs its own shard round and reports the shard's convergence in
    /// one [`CtrlReply::AggPong`] — root message count is
    /// O(#aggregators), not O(#hosts).
    pub fn manage_aggregator(&mut self, addr: u32, children: Vec<u32>) {
        if self.coord.peer(addr).is_none() {
            self.coord.add_peer(addr);
        }
        self.subtrees.insert(addr, children);
    }

    // ------------------------------------------------------------------
    // public surface
    // ------------------------------------------------------------------

    /// Replace desired state with `ops` (validated against the shadow
    /// enclave first, and refused with [`ApplyError::TooLarge`] if their
    /// full `Prepare` would not fit the wire). Returns the new epoch; the
    /// push itself starts on the next tick. `ops` should be Reset-led — a
    /// full description of the intended configuration — so that resyncing
    /// a diverged host is always a plain replay.
    pub fn set_desired(&mut self, ops: Vec<EnclaveOp>) -> Result<u64, ApplyError> {
        let epoch = self.desired().epoch + 1;
        let full = proto::encode_prepare(epoch, &ops)
            .map_err(|_| ApplyError::TooLarge { ops: ops.len() })?;
        let mut model = self.desired().model.clone();
        model.apply(&ops);
        self.shadow.stage_epoch(epoch, ops)?;
        assert!(self.shadow.commit_epoch(epoch));
        self.history
            .push(epoch, self.shadow.config_digest(), model, full);
        self.sync_repl_from_shadow();
        self.request_round();
        Ok(epoch)
    }

    /// The epoch the cluster should converge to.
    pub fn desired_epoch(&self) -> u64 {
        self.desired().epoch
    }

    /// The config digest every host should report at convergence.
    pub fn desired_digest(&self) -> u64 {
        self.desired().digest
    }

    /// Whether every managed endpoint has *reported* the desired epoch
    /// and digest — the convergence predicate benchmarks wait on. Down
    /// hosts count: convergence requires the whole fleet. An aggregator
    /// additionally vouches for its shard: every child it fronts must
    /// have converged too.
    pub fn all_in_sync(&self) -> bool {
        self.coord.peers().iter().all(|p| {
            self.in_sync(p).is_some_and(|r| {
                let children = self.subtrees.get(&p.addr);
                children.is_none_or(|c| r.synced as usize == c.len())
            })
        })
    }

    /// How many directly-managed endpoints report the desired epoch +
    /// digest (an aggregator counts as one endpoint here; see
    /// [`in_sync_hosts`](Self::in_sync_hosts) for the leaf count).
    pub fn in_sync_count(&self) -> usize {
        let in_sync = |p: &&Peer| self.in_sync(p).is_some();
        self.coord.peers().iter().filter(in_sync).count()
    }

    /// Total enclave-bearing hosts under management: direct hosts plus
    /// every aggregator's children.
    pub fn fleet_size(&self) -> usize {
        let behind = |p: &Peer| self.subtrees.get(&p.addr).map_or(1, Vec::len);
        self.coord.peers().iter().map(behind).sum()
    }

    /// Leaf hosts currently converged to desired state, counting each
    /// aggregator's last-reported shard tally.
    pub fn in_sync_hosts(&self) -> usize {
        let synced = |p: &Peer| match self.in_sync(p) {
            Some(r) if self.subtrees.contains_key(&p.addr) => r.synced as usize,
            Some(_) => 1,
            None => 0,
        };
        self.coord.peers().iter().map(synced).sum()
    }

    /// Control-wire load counters at this (root) endpoint (kept in
    /// [`ClusterStats::wire`], so they render with the cluster).
    pub fn wire(&self) -> WireCounters {
        self.cluster.wire
    }

    /// Liveness verdict for `addr` (None if unmanaged).
    pub fn host_status(&self, addr: u32) -> Option<HostStatus> {
        self.coord.peer(addr).map(|p| p.status)
    }

    /// Whether a cluster-wide update round is still in flight.
    pub fn round_active(&self) -> bool {
        self.coord.round_active()
    }

    /// Aggregated per-host stats (filled by `stats_every` pulls).
    pub fn cluster(&self) -> &ClusterStats {
        &self.cluster
    }

    /// The assembled cross-host trace trees (round roots plus every span
    /// collected from agents).
    pub fn trace(&self) -> &TraceStore {
        &self.trace
    }

    /// Controller-side round-trip latency histogram.
    pub fn ctrl_rtt(&self) -> &LogHistogram {
        &self.rtt
    }

    /// Epoch convergence (round open → commit completion) histogram.
    pub fn convergence(&self) -> &LogHistogram {
        &self.converge
    }

    /// The replication hub: fleet-wide merged totals, the sequenced
    /// order, per-host lag, and divergence flags.
    pub fn repl(&self) -> &ReplHub {
        &self.repl
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn desired(&self) -> &ConfigEntry {
        self.history.current()
    }

    /// Desired state's ops, read back from its full `Prepare`: the one
    /// copy of them the root keeps.
    fn desired_ops(&self) -> Vec<EnclaveOp> {
        let request = Request::decode(&self.desired().full).expect("this endpoint's own encoding");
        let CtrlMsg::Prepare { ops, .. } = request.body else {
            unreachable!("a version is stored as a full prepare");
        };
        ops
    }

    /// The peer's report, if it is the desired epoch and digest.
    fn in_sync(&self, peer: &Peer) -> Option<Report> {
        let want = (self.desired().epoch, self.desired().digest);
        peer.report.filter(|r| (r.epoch, r.digest) == want)
    }

    /// Ask the coordinator for a round to desired state, traced under a
    /// fresh root span if rounds are traced.
    fn request_round(&mut self) {
        let trace = self.coord.cfg.trace_rounds.then(|| {
            self.span_seq += 2;
            TraceContext::sampled(self.span_seq - 1, self.span_seq)
        });
        self.coord.request_round(trace);
    }

    /// Mirror the shadow enclave's replication layout into the hub. The
    /// shadow has already replayed desired state, so its per-function
    /// specs *are* what every host will install on commit. Re-installing
    /// an unchanged spec keeps accumulated sync state (epochs re-push
    /// configuration idempotently); a changed spec resets that function.
    fn sync_repl_from_shadow(&mut self) {
        let funcs = self.shadow.repl_funcs();
        for f in self.repl.active_funcs() {
            if !funcs.contains(&f) {
                self.repl.install(f, ReplSpec::default());
            }
        }
        for f in funcs {
            let spec = self
                .shadow
                .repl_host(f)
                .expect("listed by repl_funcs")
                .spec()
                .clone();
            self.repl.install(f, spec);
        }
    }

    fn tick(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();

        // Each heartbeat carries its host's replication views — the
        // fan-out half of the sync loop. An aggregator gets one AggSync
        // carrying the views of every host in its shard, host-tagged.
        let (repl, subtrees) = (&mut self.repl, &self.subtrees);
        self.coord.tick(now, ctx.rng(), &self.history, |to, nonce| {
            let funcs = repl.active_funcs();
            let mut views_of = |host| {
                let views = funcs.iter().filter_map(|&f| repl.view_for(host, f));
                views.collect::<Vec<_>>()
            };
            let frame = match subtrees.get(&to) {
                Some(children) => {
                    let tagged = |&c| views_of(c).into_iter().map(move |v| (c, v));
                    let views = children.iter().flat_map(tagged).collect();
                    CtrlMsg::AggSync { nonce, views }.into()
                }
                None => Request {
                    repl: views_of(to),
                    ..CtrlMsg::Heartbeat { nonce }.into()
                },
            };
            frame.encode().expect("a heartbeat's views fit one message")
        });

        // Periodic stats pulls (plus a trace drain on the same cadence).
        if self.coord.cfg.stats_every > Time::ZERO && now >= self.next_stats {
            let spans = CtrlMsg::PullTrace {
                max: PULL_TRACE_MAX,
            };
            let pulls = [CtrlMsg::PullStats, spans].map(|pull| encode_shared(pull, None));
            self.coord.post_up(&pulls);
            self.next_stats = now + self.coord.cfg.stats_every;
        }

        self.settle(stack, ctx);
        self.refresh_repl_lags(now.as_nanos());

        ctx.timer_in(self.coord.cfg.tick_every, transport::app_timer_token(TICK));
    }

    /// Act on what the coordinator left to this tier, then put what it
    /// queued on the wire.
    fn settle(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // (first peer found ahead, its digest, highest epoch to outbid)
        let mut ahead: Option<(u32, u64, u64)> = None;
        while let Some(event) = self.coord.next_event() {
            match event {
                Event::Rtt(ns) => {
                    self.rtt.record(ns);
                    self.refresh_ctrl_latencies();
                }
                Event::Count(bump) => bump(&mut self.cluster.wire),
                Event::RoundDone {
                    committed,
                    opened_at,
                    trace,
                } => self.finish_round(committed, opened_at, trace, now),
                Event::PrepareNacked { .. } => {
                    // Abort everywhere and roll desired state back (the
                    // oldest remembered entry stays).
                    if let Some(epoch) = self.coord.abort_round(now, ctx.rng()) {
                        if self.history.roll_back(epoch) {
                            self.rebuild_shadow();
                        }
                    }
                }
                Event::Ahead {
                    peer,
                    epoch,
                    digest,
                } => {
                    let (peer, digest, highest) = ahead.unwrap_or((peer, digest, epoch));
                    ahead = Some((peer, digest, highest.max(epoch)));
                }
            }
        }
        if let Some((peer, digest, highest)) = ahead {
            self.outbid(peer, digest, highest);
        }
        transmit(&mut self.coord, &mut self.cluster.wire, stack, ctx);
    }

    /// `peer` reports `digest` at an epoch at or past desired state's
    /// without holding it (or vouches for a shard that does). Freeze the
    /// shadow's flight recorder (the controller-side record of what it
    /// believed) and re-issue desired state under an epoch past
    /// `highest`, so a plain prepare/commit replay heals the whole fleet.
    fn outbid(&mut self, peer: u32, digest: u64, highest: u64) {
        self.shadow
            .flight_record(FlightKind::Divergence, u64::from(peer), digest);
        self.shadow.freeze_flight("divergence");
        let epoch = highest + 1;
        let (ops, model) = (self.desired_ops(), self.desired().model.clone());
        let full = proto::encode_prepare(epoch, &ops)
            .expect("desired ops fit the wire under their first epoch");
        self.shadow
            .stage_epoch(epoch, ops)
            .expect("desired ops validated when set");
        assert!(self.shadow.commit_epoch(epoch));
        self.history
            .push(epoch, self.shadow.config_digest(), model, full);
        self.sync_repl_from_shadow();
        self.request_round();
    }

    /// Mirror the hub's per-host replica age into [`ClusterStats`], so
    /// dashboards (`eden_top`, the Prometheus exposition) see lag keep
    /// growing for a silent host, not just on delta arrival.
    fn refresh_repl_lags(&mut self, now_ns: u64) {
        if self.repl.active_funcs().is_empty() {
            if !self.cluster.repl_lags.is_empty() {
                self.cluster.repl_lags.clear();
            }
            return;
        }
        let report = self.repl.report(now_ns);
        self.cluster.repl_lags = report
            .hosts
            .into_iter()
            .map(|(host, lag_ns, divergent)| ReplLag {
                host,
                lag_ns,
                divergent,
            })
            .collect();
    }

    /// Close out a finished round: record its convergence latency (if it
    /// committed) and ingest the trace root so the collected per-host
    /// spans hang off a tree.
    fn finish_round(
        &mut self,
        committed: bool,
        opened_at: Time,
        trace: Option<TraceContext>,
        now: Time,
    ) {
        if committed {
            self.converge
                .record(now.as_nanos().saturating_sub(opened_at.as_nanos()));
        }
        if let Some(trace) = trace {
            self.trace.ingest(Span {
                trace_id: trace.trace_id,
                span_id: trace.parent_span,
                parent_span: 0,
                host: 0,
                name: "epoch".into(),
                start_ns: opened_at.as_nanos(),
                end_ns: now.as_nanos(),
            });
        }
        self.refresh_ctrl_latencies();
    }

    fn refresh_ctrl_latencies(&mut self) {
        self.cluster.ctrl_latencies = vec![
            LatencyStat::new("ctrl.rtt", self.rtt.clone()),
            LatencyStat::new("epoch.converge", self.converge.clone()),
            LatencyStat::new("repl.staleness", self.repl_staleness.clone()),
            LatencyStat::new("repl.delta_bytes", self.repl_delta_bytes.clone()),
        ];
    }

    /// Reset the shadow enclave to the (possibly rolled-back) desired
    /// entry by replaying it from scratch.
    fn rebuild_shadow(&mut self) {
        let mut shadow = Enclave::new(EnclaveConfig::default());
        let epoch = self.desired().epoch;
        if epoch > 0 {
            shadow
                .stage_epoch(epoch, self.desired_ops())
                .expect("desired ops validated when set");
            assert!(shadow.commit_epoch(epoch));
        }
        self.shadow = shadow;
        self.sync_repl_from_shadow();
    }

    fn handle_reply(&mut self, from: u32, frame: Response, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(peer) = self.coord.heard(from, now) else {
            return; // not one of ours
        };
        match frame.body {
            CtrlReply::Pong {
                epoch,
                digest,
                spans,
                ..
            } => {
                peer.said(epoch, digest);
                for span in spans {
                    self.trace.ingest(span);
                }
                let deltas = frame.repl;
                if !deltas.is_empty() {
                    let now_ns = now.as_nanos();
                    // Staleness = gap since this host's previous delta;
                    // its first delta has no gap to measure.
                    let prev = self.repl.report(now_ns);
                    if let Some(&(_, lag, _)) = prev.hosts.iter().find(|&&(h, _, _)| h == from) {
                        self.repl_staleness.record(lag);
                    }
                    self.repl_delta_bytes
                        .record(proto::repl_deltas_wire_len(&deltas) as u64);
                    for d in &deltas {
                        self.repl.ingest(from, now_ns, d);
                    }
                    self.refresh_ctrl_latencies();
                }
            }
            CtrlReply::Spans { spans, .. } => {
                for span in spans {
                    self.trace.ingest(span);
                }
            }
            CtrlReply::AggPong {
                epoch,
                digest,
                hosts_synced,
                max_epoch,
                diverged,
                deltas,
                spans,
                ..
            } => {
                peer.report = Some(Report {
                    epoch,
                    digest,
                    synced: hosts_synced,
                    max_epoch,
                    diverged,
                });
                for span in spans {
                    self.trace.ingest(span);
                }
                if !deltas.is_empty() {
                    let now_ns = now.as_nanos();
                    let bare: Vec<FuncDelta> = deltas.iter().map(|(_, d)| d.clone()).collect();
                    self.repl_delta_bytes
                        .record(proto::repl_deltas_wire_len(&bare) as u64);
                    // Host-tagged fan-in: each child's contribution lands
                    // under its own address, exactly as if it had ponged
                    // the root directly.
                    for (host, d) in &deltas {
                        self.repl.ingest(*host, now_ns, d);
                    }
                    self.refresh_ctrl_latencies();
                }
            }
            CtrlReply::Stats {
                epoch,
                digest,
                captured_at_ns,
                counters,
                latencies,
                ..
            } => {
                peer.said(epoch, digest);
                self.cluster.record(HostReport {
                    host: from,
                    epoch,
                    digest,
                    captured_at_ns,
                    enclave: counters,
                    latencies,
                });
            }
            CtrlReply::Ack { re, epoch, phase } => {
                let (rng, history) = (ctx.rng(), &self.history);
                self.coord.ack(from, re, epoch, phase, now, rng, history);
            }
            CtrlReply::Nack { re, epoch, .. } => {
                let (rng, history) = (ctx.rng(), &self.history);
                self.coord.nack(from, re, epoch, now, rng, history);
            }
        }
        self.settle(stack, ctx);
    }
}

impl App for ControllerApp {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if token == TICK {
            self.tick(stack, ctx);
        }
    }

    fn on_raw(&mut self, packet: Packet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(frame) = packet.ctrl.as_deref() else {
            return;
        };
        let from = packet.ip.src;
        let payload = match self.reasm.accept(from, frame) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        self.cluster.wire.msgs_received += 1;
        self.cluster.wire.bytes_received += payload.len() as u64;
        let Ok(reply) = Response::decode(&payload) else {
            return;
        };
        self.handle_reply(from, reply, stack, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::AGG_HISTORY;
    use crate::testnet::{star, table_ops, Star};

    /// A root over two directly managed hosts that have reported in.
    fn pair() -> Star<ControllerApp> {
        let cfg = CtrlConfig::default();
        let mut c = star(900, ControllerApp::new(cfg.clone(), &[1, 2]), &[1, 2], &cfg);
        c.run_ms(2);
        assert!(c.app().all_in_sync());
        c
    }

    /// Push one more configuration (a table `rules` long) and let it land.
    fn push(c: &mut Star<ControllerApp>, rules: u32) -> u64 {
        let epoch = c.app().set_desired(table_ops(5, 0..rules)).expect("valid");
        c.run_ms(8);
        epoch
    }

    #[test]
    fn history_is_bounded_and_a_forgotten_base_gets_the_full_prepare() {
        let mut c = pair();
        assert_eq!(push(&mut c, 10), 1);
        assert!(c.app().all_in_sync());
        let digest_1 = c.app().desired_digest();

        // Host 2 drops off the network holding epoch 1; desired state
        // moves on past what the history remembers.
        c.tap(1).mute = true;
        for i in 0..AGG_HISTORY as u32 + 4 {
            push(&mut c, 11 + i);
            assert!(c.app().history.len() <= AGG_HISTORY);
        }
        assert_eq!(c.app().history.len(), AGG_HISTORY);
        assert_eq!(c.app().history.digest_of(1), None, "epoch 1 is forgotten");
        assert_eq!(c.app().in_sync_count(), 1);
        let plan = c
            .app()
            .history
            .plan_prepare(Some((1, digest_1)), true, None);
        assert!(!plan.is_delta, "unknown base: Reset-led full prepare");

        // It comes back still reporting epoch 1, and converges.
        let tap = c.tap(1);
        assert_eq!(tap.agent.enclave().active_epoch(), 1);
        tap.mute = false;
        tap.frames.clear();
        c.run_ms(10);
        let tags: Vec<u8> = c.tap(1).requests().iter().map(|r| r.1).collect();
        assert_eq!(tags, [1, 2], "full prepare, commit");
        assert_eq!(c.app().wire().unknown_base_fulls, 1, "and it is counted");
        assert!(c.app().all_in_sync());
        let want = c.app().desired_digest();
        assert_eq!(c.tap(1).agent.enclave().config_digest(), want);
    }

    // The op count of a Prepare used to be written `ops.len() as u16`:
    // 65,542 ops went out as a well-formed 6-op table, which every host
    // staged, acked and served under the right epoch and a wrong digest.
    #[test]
    fn a_configuration_too_large_for_the_wire_is_refused_before_anything_commits() {
        let mut c = pair();
        push(&mut c, 10);
        let (epoch, digest) = (c.app().desired_epoch(), c.app().desired_digest());

        let long = table_ops(5, 0..65_540);
        assert_eq!(long.len(), 65_542);
        assert_eq!(
            c.app().set_desired(long),
            Err(ApplyError::TooLarge { ops: 65_542 })
        );
        // Few enough ops and too many bytes: over a mebibyte of rules,
        // which used to panic the root inside `fragment` on its next tick.
        let mut wide = table_ops(5, 0..0);
        wide.extend((0..40_000).map(|c| EnclaveOp::InstallRule {
            table: 0,
            spec: eden_core::MatchSpec::AnyOf((c..c + 4).map(eden_core::ClassId).collect()),
            func: 0,
        }));
        assert_eq!(
            c.app().set_desired(wide),
            Err(ApplyError::TooLarge { ops: 40_002 })
        );

        assert_eq!(
            (c.app().desired_epoch(), c.app().desired_digest()),
            (epoch, digest)
        );
        assert_eq!(c.app().shadow.config_digest(), digest);
        assert_eq!(c.app().shadow.staged_epoch(), None);
        assert!(!c.app().round_active());
        c.run_ms(2);
        assert!(c.app().all_in_sync());
    }

    #[test]
    fn a_round_nacked_with_the_history_full_rolls_back_to_the_previous_digest() {
        let mut c = pair();
        for i in 0..AGG_HISTORY as u32 + 2 {
            push(&mut c, 10 + i);
        }
        assert!(c.app().all_in_sync());
        assert_eq!(c.app().history.len(), AGG_HISTORY);
        let (epoch, digest) = (c.app().desired_epoch(), c.app().desired_digest());

        // Host 2 bumps itself to a far-future epoch: the next prepare is
        // stale there, it nacks, and the round aborts everywhere.
        let e = c.tap(1).agent.enclave_mut();
        e.stage_epoch(500, &[]).unwrap();
        assert!(e.commit_epoch(500));
        let nacked = c.app().set_desired(table_ops(6, 0..3)).expect("valid");
        assert_eq!(nacked, epoch + 1);
        c.net.run_until(c.net.now() + Time::from_micros(400));
        assert_eq!(c.app().desired_digest(), digest, "content rolled back");
        assert_eq!(c.app().history.digest_of(nacked), None);
        assert_eq!(c.app().shadow.config_digest(), digest, "shadow rebuilt");

        // The reconciler then re-issues the rolled-back content above the
        // bump, and the fleet converges on it.
        c.run_ms(10);
        assert!(c.app().all_in_sync());
        assert_eq!(c.app().desired_digest(), digest);
        assert!(c.app().desired_epoch() > 500);
        assert!(c.app().history.len() <= AGG_HISTORY);
    }
}
