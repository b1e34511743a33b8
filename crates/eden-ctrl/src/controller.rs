//! The root controller application: desired state, epoch minting and the
//! cluster-wide view, over a `Coordinator` driven by one periodic timer.
//!
//! [`ControllerApp`] runs as a [`transport::App`] on an ordinary host, so
//! every control message pays real wire time on the same links the data
//! plane uses (§3.2: the controller "communicates with enclaves over the
//! network"). The two-phase rounds, retries, failure detection and
//! per-peer resync are the coordinator's (see `crate::coordinator`);
//! what makes this tier the root is what it alone decides:
//!
//! * **Desired state** is a Reset-led op list tagged with an epoch, kept
//!   as the [`Config`] it builds and its encoded full `Prepare`. Applying
//!   the ops to a copy of the previous version's `Config` validates them
//!   exactly as an enclave stages them, before anything touches the wire,
//!   and yields the config digest every host should report.
//! * **A nacked prepare aborts** the round everywhere and rolls desired
//!   state back to the version before.
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

use eden_core::{ApplyError, Config, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, ReplHub, ReplSpec};
use eden_telemetry::{
    ClusterStats, EnclaveCounters, FlightDump, FlightEvent, FlightKind, FlightRing, HostReport,
    LatencyStat, LogHistogram, ReplLag, Span, TraceContext, TraceStore,
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

/// Cadence of the internal tick of every reconciling tier.
pub(crate) const TICK_EVERY: Time = Time::from_micros(100);
/// Heartbeat interval per peer.
pub(crate) const HEARTBEAT_EVERY: Time = Time::from_micros(1_000);
/// First retransmit delay; doubles per retry (plus jitter of up to half
/// of it).
pub(crate) const RETRY_BASE: Time = Time::from_micros(500);
/// Retransmit delay ceiling.
pub(crate) const RETRY_MAX: Time = Time::from_micros(10_000);
/// Retransmits before a tier gives up on a request and marks the peer
/// down.
pub(crate) const MAX_RETRIES: u32 = 10;

/// Port and policy knobs. The timings they leave out (`TICK_EVERY`,
/// `RETRY_BASE`, ...) are constants that suit the workspace's default
/// fabric (10 Gb/s links, microsecond propagation).
#[derive(Debug, Clone)]
pub struct CtrlConfig {
    /// UDP port the enclave agents listen on (`Stack::set_ctrl_port`).
    pub ctrl_port: u16,
    /// UDP source port for controller-originated messages.
    pub src_port: u16,
    /// Stats-pull interval per host (each pull drains trace spans too);
    /// `Time::ZERO` disables pulling.
    pub stats_every: Time,
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
            stats_every: Time::ZERO,
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
    /// Flight recorder of desired state: each version staged and
    /// committed (or a function refused), and each peer found diverged.
    flight: FlightRing,
    /// The most recent frozen flight-recorder dump.
    last_dump: Option<FlightDump>,
    /// Virtual time of the last tick or reply, which stamps flight
    /// events (a [`set_desired`](Self::set_desired) call has no clock).
    now: Time,
    /// Heartbeats and `AggSync`s sent without views, because the views
    /// did not fit one message.
    views_refused: u64,
    cluster: ClusterStats,
    reasm: Reassembler,
    next_stats: Time,
    /// Cross-host span assembly (pong piggybacks + `PullTrace` replies +
    /// the controller's own round roots).
    trace: TraceStore,
    /// Controller-namespace id counter for trace ids and round root
    /// spans (well below the `host << 40` agent namespaces).
    span_seq: u64,
    /// Replication rendezvous: per-host merged contributions, the global
    /// sequenced order, and anti-entropy. Views fan out on heartbeats;
    /// deltas arrive on pongs.
    repl: ReplHub,
}

/// The root's own histograms, in the order `ClusterStats::ctrl_latencies`
/// holds them:
/// * `ctrl.rtt` — request → matching-reply round-trip times;
/// * `epoch.converge` — round open → commit-fanout completion;
/// * `repl.staleness` — gap between consecutive deltas from the same host,
///   how stale its replica view runs (the heartbeat cadence plus any loss);
/// * `repl.delta_bytes` — wire size of each pong's delta section.
const CTRL_LATENCIES: [&str; 4] = [
    "ctrl.rtt",
    "epoch.converge",
    "repl.staleness",
    "repl.delta_bytes",
];
const RTT: usize = 0;
const CONVERGE: usize = 1;
const STALENESS: usize = 2;
const DELTA_BYTES: usize = 3;

impl ControllerApp {
    /// A controller managing the enclave agents at `hosts`.
    pub fn new(cfg: CtrlConfig, hosts: &[u32]) -> ControllerApp {
        let mut cluster = ClusterStats::new();
        cluster.ctrl_latencies = CTRL_LATENCIES
            .iter()
            .map(|&name| LatencyStat::new(name, LogHistogram::new()))
            .collect();
        ControllerApp {
            core: eden_core::Controller::new(),
            coord: Coordinator::new(cfg, hosts),
            subtrees: BTreeMap::new(),
            history: ConfigHistory::new(),
            flight: FlightRing::new(EnclaveConfig::default().flight_capacity),
            last_dump: None,
            now: Time::ZERO,
            views_refused: 0,
            cluster,
            reasm: Reassembler::default(),
            next_stats: Time::ZERO,
            trace: TraceStore::new(4096),
            span_seq: 0,
            repl: ReplHub::new(),
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

    /// Replace desired state with `ops`: refused with
    /// [`ApplyError::TooLarge`] if their full `Prepare` would not fit the
    /// wire, and with what a host's enclave would refuse them for if they
    /// do not apply to the current desired state. Returns the new epoch;
    /// the push itself starts on the next tick. `ops` should be Reset-led
    /// — a full description of the intended configuration — so that
    /// resyncing a diverged host is always a plain replay.
    pub fn set_desired(&mut self, ops: Vec<EnclaveOp>) -> Result<u64, ApplyError> {
        let epoch = self.desired().epoch + 1;
        let full = proto::encode_prepare(epoch, &ops)
            .map_err(|_| ApplyError::TooLarge { ops: ops.len() })?;
        let config = self.desired().config.apply(&ops).inspect_err(|e| {
            if let ApplyError::Unlinkable { error, .. } = e {
                self.flight_record(FlightKind::InstallRefused, epoch, error.code());
            }
        })?;
        self.adopt(epoch, config, full);
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
        &self.cluster.ctrl_latencies[RTT].hist
    }

    /// Epoch convergence (round open → commit completion) histogram.
    pub fn convergence(&self) -> &LogHistogram {
        &self.cluster.ctrl_latencies[CONVERGE].hist
    }

    /// The replication hub: fleet-wide merged totals, the sequenced
    /// order, per-host lag, and divergence flags.
    pub fn repl(&self) -> &ReplHub {
        &self.repl
    }

    /// Hosts whose replication views a heartbeat (or an `AggSync`) left
    /// off, because they did not fit one message, counted once a
    /// message. The host keeps its previous views until a later
    /// heartbeat fits.
    pub fn views_refused(&self) -> u64 {
        self.views_refused
    }

    /// The most recent flight-recorder dump: frozen when a peer was found
    /// diverged (`divergence`), with the versions desired state went
    /// through before it.
    pub fn last_flight_dump(&self) -> Option<&FlightDump> {
        self.last_dump.as_ref()
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

    /// Make `config` desired state as `epoch`, `full` being its full
    /// `Prepare`, and ask for a round to it.
    fn adopt(&mut self, epoch: u64, config: Config, full: Vec<u8>) {
        self.flight_record(FlightKind::EpochStage, epoch, 0);
        self.flight_record(FlightKind::EpochCommit, epoch, 0);
        self.history.push(epoch, config, full);
        self.sync_repl();
        self.request_round();
    }

    /// Mirror desired state's replication layout into the hub: each
    /// function's spec, from its schema, is what every host installs on
    /// commit. Re-installing an unchanged spec keeps accumulated sync
    /// state (epochs re-push configuration idempotently); a changed spec
    /// resets that function, and an empty one or a function no longer
    /// installed drops it.
    fn sync_repl(&mut self) {
        let funcs = self.history.current().config.functions();
        let installed = funcs.len();
        for (f, shipped) in funcs.enumerate() {
            self.repl.install(f, ReplSpec::from_schema(&shipped.schema));
        }
        for f in self.repl.active_funcs() {
            if f >= installed {
                self.repl.install(f, ReplSpec::default());
            }
        }
    }

    /// Record a flight event, stamped with the last virtual time seen.
    fn flight_record(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.flight.push(FlightEvent {
            at_ns: self.now.as_nanos(),
            lane: 0,
            kind,
            a,
            b,
        });
    }

    fn tick(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.now = now;

        let (repl, subtrees) = (&mut self.repl, &self.subtrees);
        let refused = &mut self.views_refused;
        self.coord.tick(now, ctx.rng(), &self.history, |to, nonce| {
            heartbeat(repl, subtrees.get(&to), to, nonce, refused)
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

        ctx.timer_in(TICK_EVERY, transport::app_timer_token(TICK));
    }

    /// Act on what the coordinator left to this tier, then put what it
    /// queued on the wire.
    fn settle(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // (first peer found ahead, its digest, highest epoch to outbid)
        let mut ahead: Option<(u32, u64, u64)> = None;
        while let Some(event) = self.coord.next_event() {
            match event {
                Event::Rtt(ns) => self.latency(RTT).record(ns),
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
                            self.sync_repl();
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
            self.outbid(peer, digest, highest, stack.addr);
        }
        transmit(&mut self.coord, &mut self.cluster.wire, stack, ctx);
    }

    /// `peer` reports `digest` at an epoch at or past desired state's
    /// without holding it (or vouches for a shard that does). Freeze the
    /// flight recorder (the controller-side record of what it believed)
    /// as this host's, `host`, and re-issue desired state under an epoch
    /// past `highest`, so a plain prepare/commit replay heals the whole
    /// fleet.
    fn outbid(&mut self, peer: u32, digest: u64, highest: u64, host: u32) {
        self.flight_record(FlightKind::Divergence, u64::from(peer), digest);
        let (rings, at_ns) = (std::slice::from_ref(&self.flight), self.now.as_nanos());
        let counters = EnclaveCounters::default();
        let dump = FlightDump::freeze("divergence", host, at_ns, rings, counters);
        dump.emit();
        self.last_dump = Some(dump);
        let epoch = highest + 1;
        let ops = self.desired_ops();
        let full = proto::encode_prepare(epoch, &ops)
            .expect("desired ops fit the wire under their first epoch");
        let config = self
            .desired()
            .config
            .apply(&ops)
            .expect("desired ops validated when set");
        self.adopt(epoch, config, full);
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
            self.latency(CONVERGE)
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
    }

    /// One of the root's histograms, where the cluster report holds it.
    fn latency(&mut self, slot: usize) -> &mut LogHistogram {
        &mut self.cluster.ctrl_latencies[slot].hist
    }

    fn handle_reply(&mut self, from: u32, frame: Response, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.now = now;
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
                        self.latency(STALENESS).record(lag);
                    }
                    self.latency(DELTA_BYTES)
                        .record(proto::repl_deltas_wire_len(&deltas) as u64);
                    for d in &deltas {
                        self.repl.ingest(from, now_ns, d);
                    }
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
                    self.latency(DELTA_BYTES)
                        .record(proto::repl_deltas_wire_len(&bare) as u64);
                    // Host-tagged fan-in: each child's contribution lands
                    // under its own address, exactly as if it had ponged
                    // the root directly.
                    for (host, d) in &deltas {
                        self.repl.ingest(*host, now_ns, d);
                    }
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

/// The encoded heartbeat for peer `to`, the fan-out half of the sync
/// loop: a `Heartbeat` carrying its own replication views, or, if `to` is
/// an aggregator fronting `shard`, one `AggSync` carrying the views of
/// every host in the shard, host-tagged. Views that do not fit one
/// message are left off a host at a time: a host's heartbeat goes
/// without them, and an `AggSync` adds the shard's hosts in order and
/// leaves off each whose views would overflow it. Each host left off is
/// counted in `refused` and keeps its previous views until a later
/// heartbeat fits.
fn heartbeat(
    repl: &mut ReplHub,
    shard: Option<&Vec<u32>>,
    to: u32,
    nonce: u64,
    refused: &mut u64,
) -> Vec<u8> {
    let funcs = repl.active_funcs();
    let mut views_of = |host| {
        let views = funcs.iter().filter_map(|&f| repl.view_for(host, f));
        views.collect::<Vec<_>>()
    };
    let Some(shard) = shard else {
        let frame = Request {
            repl: views_of(to),
            ..CtrlMsg::Heartbeat { nonce }.into()
        };
        return frame.encode().unwrap_or_else(|_| {
            *refused += 1;
            let bare = Request::from(CtrlMsg::Heartbeat { nonce });
            bare.encode().expect("a heartbeat without views fits")
        });
    };
    let mut tagged = |c| views_of(c).into_iter().map(move |v| (c, v));
    let sync = |views| Request::from(CtrlMsg::AggSync { nonce, views }).encode();
    let views = shard.iter().flat_map(|&c| tagged(c)).collect();
    sync(views).unwrap_or_else(|_| {
        let mut views = Vec::new();
        for &c in shard {
            let kept = views.len();
            views.extend(tagged(c));
            if sync(views.clone()).is_err() {
                *refused += 1;
                views.truncate(kept);
            }
        }
        sync(views).expect("the views kept fit")
    })
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
            Ok(Some((_, p))) => p,
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
    use crate::proto::read_fragment;
    use crate::testnet::{star, table_ops, Star};
    use eden_lang::{Access, ReplMode, Schema};

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

    // A rule naming a function index no table word can hold is refused
    // like any other unknown function.
    #[test]
    fn a_rule_past_every_function_is_refused() {
        let mut app = ControllerApp::new(CtrlConfig::default(), &[1]);
        let mut ops = table_ops(5, 0..2);
        ops.push(EnclaveOp::InstallRule {
            table: 0,
            spec: eden_core::MatchSpec::Class(eden_core::ClassId(9)),
            func: 1 << 31,
        });
        let op = ops.len() - 1;
        let refused = app.set_desired(ops);
        assert_eq!(
            refused,
            Err(ApplyError::NoSuchFunction { op, func: 1 << 31 })
        );
        assert_eq!(app.desired_epoch(), 0, "nothing was adopted");
    }

    #[test]
    fn an_array_past_the_cap_is_refused() {
        let mut app = ControllerApp::new(CtrlConfig::default(), &[1]);
        let len = eden_core::MAX_ARRAY_LEN + 1;
        let refused = app.set_desired(crate::testnet::array_ops(len));
        assert_eq!(refused, Err(ApplyError::ArrayTooLong { op: 2, len }));
        assert_eq!(app.desired_epoch(), 0, "nothing was adopted");
        let at_cap = crate::testnet::array_ops(len - 1);
        assert_eq!(app.set_desired(at_cap), Ok(1));
    }

    #[test]
    fn a_table_past_the_cap_is_refused() {
        let mut app = ControllerApp::new(CtrlConfig::default(), &[1]);
        let tables = eden_core::MAX_TABLES + 1;
        let refused = app.set_desired(crate::testnet::tables_ops(tables));
        let (op, cap) = (tables, eden_core::Cap::Tables);
        assert_eq!(refused, Err(ApplyError::OverCap { op, cap }));
        assert_eq!(app.desired_epoch(), 0, "nothing was adopted");
        let at_cap = crate::testnet::tables_ops(tables - 1);
        assert_eq!(app.set_desired(at_cap), Ok(1));
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
        let current = c.app().history.current();
        assert_eq!((current.epoch, current.config.digest()), (epoch, digest));
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
        let current = &c.app().history.current().config;
        assert_eq!(current.digest(), digest, "the version before is current");

        // The reconciler then re-issues the rolled-back content above the
        // bump, and the fleet converges on it.
        c.run_ms(10);
        assert!(c.app().all_in_sync());
        assert_eq!(c.app().desired_digest(), digest);
        assert!(c.app().desired_epoch() > 500);
        assert!(c.app().history.len() <= AGG_HISTORY);

        // Outbidding host 2 froze the root's flight recorder: the versions
        // desired state went through, then host 2 found diverged, stamped
        // with the virtual time it was found at.
        let dump = c.app().last_flight_dump().expect("the divergence dump");
        assert_eq!((dump.reason.as_str(), dump.host), ("divergence", 900));
        let last = dump.last_event().expect("an event");
        assert_eq!(last.kind, FlightKind::Divergence);
        assert_eq!((last.a, last.b), (2, digest), "host 2 at its bumped epoch");
        assert!(last.at_ns > 0 && last.at_ns == dump.at_ns);
        let staged = |e: &&FlightEvent| e.kind == FlightKind::EpochStage && e.a == nacked;
        assert!(dump.events.iter().any(|e| staged(&e)), "the nacked version");
    }

    #[test]
    fn views_past_one_message_are_refused_and_the_other_host_keeps_its_own() {
        // Host 2 contributed two arrays of over half a message each: host
        // 1's views, the merged contributions of every other host, do not
        // fit one heartbeat. Host 2's own views hold host 1's share only.
        let mut c = pair();
        let half = proto::MAX_FRAGS * proto::MAX_CHUNK / 2;
        let schema = Schema::new()
            .global_array("Weights", &["W"], Access::ReadWrite)
            .replicated(ReplMode::MergedSum);
        for func in 0..2u32 {
            c.app()
                .repl
                .install(func as usize, ReplSpec::from_schema(&schema));
            let delta = FuncDelta {
                func,
                merged_arrays: vec![(0, vec![7; half / 8])],
                ..FuncDelta::default()
            };
            c.app().repl.ingest(2, 0, &delta);
        }
        c.run_ms(1);
        let before = c.app().views_refused();
        for leaf in 0..2 {
            c.tap(leaf).frames.clear();
        }
        c.run_ms(3);

        let heartbeat = CtrlMsg::Heartbeat { nonce: 0 }.tag();
        let mut heartbeats = |leaf| -> Vec<Request> {
            let chunks = c
                .tap(leaf)
                .frames
                .iter()
                .map(|f| read_fragment(f).unwrap().1);
            let beats = chunks.filter(|chunk| chunk[0] == heartbeat);
            beats.map(|chunk| Request::decode(chunk).unwrap()).collect()
        };
        let (to_first, to_second) = (heartbeats(0), heartbeats(1));
        assert!(to_first.len() >= 2, "the root keeps ticking");
        assert!(to_first.iter().all(|h| h.repl.is_empty()));
        let refused = c.app().views_refused() - before;
        assert_eq!(refused, to_first.len() as u64, "one refusal a heartbeat");
        assert_eq!(to_second.len(), to_first.len());
        assert!(to_second.iter().all(|h| h.repl.len() == 2));
        assert!(c.app().all_in_sync());
    }

    #[test]
    fn a_shard_past_one_message_leaves_off_the_host_that_overflows_it() {
        // Host 12 contributed an array of over half a message: the views
        // of hosts 11 and 13, the merged contributions of the others, are
        // each over half a message, and host 12's hold theirs only. The
        // AggSync keeps the shard's views in order while they fit.
        let mut app = ControllerApp::new(CtrlConfig::default(), &[]);
        app.manage_aggregator(1, vec![11, 12, 13]);
        let half = proto::MAX_FRAGS * proto::MAX_CHUNK / 2;
        let schema = Schema::new()
            .global_array("Weights", &["W"], Access::ReadWrite)
            .replicated(ReplMode::MergedSum);
        app.repl.install(0, ReplSpec::from_schema(&schema));
        let delta = FuncDelta {
            func: 0,
            merged_arrays: vec![(0, vec![7; half / 8 + 64])],
            ..FuncDelta::default()
        };
        app.repl.ingest(12, 0, &delta);

        let ControllerApp {
            repl,
            subtrees,
            views_refused,
            ..
        } = &mut app;
        let sync = heartbeat(repl, subtrees.get(&1), 1, 9, views_refused);
        let CtrlMsg::AggSync { nonce: 9, views } = Request::decode(&sync).unwrap().body else {
            panic!("an AggSync");
        };
        let hosts: Vec<u32> = views.iter().map(|&(h, _)| h).collect();
        assert_eq!(hosts, [11, 12], "host 13's views would overflow it");
        assert_eq!(app.views_refused(), 1);
        for (host, view) in views {
            assert_eq!(Some(view), app.repl.view_for(host, 0), "host {host}");
        }
    }
}
