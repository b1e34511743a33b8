//! The controller application: desired state, two-phase pushes, failure
//! detection, and reconciliation — all driven by one periodic timer.
//!
//! [`ControllerApp`] runs as a [`transport::App`] on an ordinary host, so
//! every control message pays real wire time on the same links the data
//! plane uses (§3.2: the controller "communicates with enclaves over the
//! network"). The state machine:
//!
//! * **Desired state** is a Reset-led op list tagged with an epoch. A
//!   shadow enclave on the controller replays it, which both validates the
//!   ops before anything touches the wire and yields the expected config
//!   digest for convergence checks.
//! * **Pushes are two-phase**: `Prepare` to every live host, and only when
//!   *all* of them ack does `Commit` go out — so the fleet can never serve
//!   a mix of old and new epochs because half the hosts raced ahead. A
//!   `Nack` aborts the round everywhere and rolls desired state back.
//! * **Failure detection** is heartbeat-driven: a host that stays silent
//!   past `fail_after` is marked [`HostStatus::Down`] and dropped from the
//!   current round (2PC over an asynchronous network cannot wait forever);
//!   heartbeats keep flowing so its rejoin is noticed.
//! * **Reconciliation** closes the loop: every pong carries the host's
//!   epoch + digest, and any host that differs from desired state while no
//!   round is active gets an individual prepare/commit resync — this is
//!   how a partitioned host catches up after the partition heals.
//!
//! Message loss is handled with per-request retries under exponential
//! backoff with jitter; message ids correlate replies, so a late duplicate
//! ack can never be mistaken for the answer to a newer request.
//!
//! The driver must kick the timer wheel once:
//!
//! ```ignore
//! net.schedule_timer(ctrl_node, Time::ZERO, transport::app_timer_token(eden_ctrl::TICK));
//! ```

use std::rc::Rc;

use eden_core::{ApplyError, Enclave, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, FuncView, ReplHub, ReplSpec};
use eden_telemetry::{
    ClusterStats, FlightKind, HostReport, LatencyStat, LogHistogram, ReplLag, Span, TraceContext,
    TraceStore,
};
use netsim::{Ctx, Packet, Time, UdpHeader};
use transport::{App, Stack};

use crate::delta::{ConfigEntry, ConfigHistory, Plan};
use crate::proto::{self, AckPhase, CtrlMsg, CtrlReply, Reassembler};

/// Timer payload of the controller's periodic tick (pass through
/// [`transport::app_timer_token`] when scheduling the first one).
pub const TICK: u64 = 0x71C4;

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
    /// Stats-pull interval per host; `Time::ZERO` disables pulling.
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
    /// Most spans requested per `PullTrace` (sent with the stats pulls);
    /// 0 disables explicit pulls and leaves heartbeat piggybacking as
    /// the only collection path.
    pub pull_trace_max: u16,
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
            pull_trace_max: 256,
            delta_updates: true,
        }
    }
}

/// Message/byte tallies for everything this endpoint puts on or takes
/// off the control wire: the `ctrl_wire` group of the telemetry tables.
pub use eden_telemetry::WireCounters;

/// Put the encoded message `payload` on the wire to `to` as one or more
/// control frames under message id `id` (which replies echo as `re`).
pub(crate) fn transmit(
    cfg: &CtrlConfig,
    to: u32,
    id: u32,
    payload: &[u8],
    stack: &mut Stack,
    ctx: &mut Ctx<'_>,
) {
    let udp = UdpHeader {
        src_port: cfg.src_port,
        dst_port: cfg.ctrl_port,
    };
    for frame in proto::fragment(id, payload) {
        stack.send_raw(Packet::ctrl(stack.addr, to, udp, frame), ctx);
    }
}

/// Liveness verdict for one managed host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStatus {
    /// Answering heartbeats (or not yet past the silence threshold).
    Up,
    /// Silent past `fail_after`, or exhausted a request's retries.
    Down,
}

/// Whether an in-flight request belongs to a cluster-wide round or a
/// single-host resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Round,
    Resync,
}

#[derive(Debug)]
struct Inflight {
    msg_id: u32,
    /// The encoded request, trace trailer included, as first sent: a
    /// retry puts the same bytes back on the wire under the same id.
    payload: Rc<[u8]>,
    /// The request is a `DeltaPrepare` (a Nack falls back to the full).
    is_delta: bool,
    phase: AckPhase,
    origin: Origin,
    retries: u32,
    next_retry: Time,
    /// Trace context the payload carries: a delta's full-ship fallback
    /// stays in the same trace.
    ctx: Option<TraceContext>,
    /// When the most recent transmission left, for the RTT histogram.
    sent_at: Time,
}

#[derive(Debug)]
struct HostState {
    addr: u32,
    status: HostStatus,
    last_heard: Time,
    ever_heard: bool,
    /// Last `(epoch, digest)` the host reported (pong or stats).
    reported: Option<(u64, u64)>,
    inflight: Option<Inflight>,
    next_heartbeat: Time,
    /// Earliest time the reconciler may try this host again after a
    /// failed resync (doubles per failure, resets on success).
    next_resync: Time,
    resync_backoff: Time,
    /// `Some(children)` marks this entry as a rack/pod aggregator
    /// fronting those hosts: heartbeats become [`CtrlMsg::AggSync`] and
    /// its pongs summarize the whole shard.
    subtree: Option<Vec<u32>>,
    /// From the last AggPong: children converged to the agg's epoch.
    subtree_synced: u32,
    /// From the last AggPong: highest epoch any child reports, and
    /// whether some child serves the epoch with a wrong digest.
    subtree_max_epoch: u64,
    subtree_diverged: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundPhase {
    Preparing,
    Committing,
    Aborting,
}

#[derive(Debug)]
struct Round {
    epoch: u64,
    phase: RoundPhase,
    /// Hosts whose ack for the current phase is still outstanding.
    pending: Vec<u32>,
    /// Hosts that acked `Prepare` (the commit/abort fan-out set).
    acked: Vec<u32>,
    /// Trace this round's messages belong to (0 = untraced).
    trace_id: u64,
    /// Root span id agents parent their phase spans under.
    root_span: u64,
    /// When the round opened — the root span's start and the
    /// `epoch.converge` sample's origin.
    opened_at: Time,
}

fn new_host_state(addr: u32) -> HostState {
    HostState {
        addr,
        status: HostStatus::Up,
        last_heard: Time::ZERO,
        ever_heard: false,
        reported: None,
        inflight: None,
        next_heartbeat: Time::ZERO,
        next_resync: Time::ZERO,
        resync_backoff: Time::ZERO,
        subtree: None,
        subtree_synced: 0,
        subtree_max_epoch: 0,
        subtree_diverged: false,
    }
}

/// The cluster controller, run as a host [`App`].
pub struct ControllerApp {
    cfg: CtrlConfig,
    /// Compilation front end, for building [`EnclaveOp`] lists
    /// (`core.plan_function(...)`).
    pub core: eden_core::Controller,
    hosts: Vec<HostState>,
    /// Desired-state history; the last entry is current. Kept so a
    /// nacked round can roll back to the previous version, and so a host
    /// on a recent version can be sent a delta.
    history: ConfigHistory,
    /// Shadow enclave replaying desired state (validation + digest).
    shadow: Enclave,
    round: Option<Round>,
    /// Set by [`set_desired`](Self::set_desired); the next tick opens the
    /// round (sending needs the stack, which only event handlers hold).
    want_round: bool,
    cluster: ClusterStats,
    reasm: Reassembler,
    msg_seq: u32,
    nonce_seq: u64,
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
            cfg,
            core: eden_core::Controller::new(),
            hosts: hosts.iter().map(|&addr| new_host_state(addr)).collect(),
            history,
            shadow,
            round: None,
            want_round: false,
            cluster: ClusterStats::new(),
            reasm: Reassembler::default(),
            msg_seq: 0,
            nonce_seq: 0,
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
        match self.hosts.iter_mut().find(|h| h.addr == addr) {
            Some(h) => h.subtree = Some(children),
            None => {
                let mut h = new_host_state(addr);
                h.subtree = Some(children);
                self.hosts.push(h);
            }
        }
    }

    // ------------------------------------------------------------------
    // public surface
    // ------------------------------------------------------------------

    /// Replace desired state with `ops` (validated against the shadow
    /// enclave first). Returns the new epoch; the push itself starts on
    /// the next tick. `ops` should be Reset-led — a full description of
    /// the intended configuration — so that resyncing a diverged host is
    /// always a plain replay.
    pub fn set_desired(&mut self, ops: Vec<EnclaveOp>) -> Result<u64, ApplyError> {
        let epoch = self.desired().epoch + 1;
        self.shadow.stage_epoch(epoch, &ops)?;
        assert!(self.shadow.commit_epoch(epoch));
        let mut model = self.desired().model.clone();
        model.apply(&ops);
        self.history
            .push(epoch, self.shadow.config_digest(), model, ops);
        self.sync_repl_from_shadow();
        self.want_round = true;
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
        let want = (self.desired().epoch, self.desired().digest);
        self.hosts.iter().all(|h| {
            h.reported == Some(want)
                && h.subtree
                    .as_ref()
                    .is_none_or(|c| h.subtree_synced as usize == c.len())
        })
    }

    /// How many directly-managed endpoints report the desired epoch +
    /// digest (an aggregator counts as one endpoint here; see
    /// [`in_sync_hosts`](Self::in_sync_hosts) for the leaf count).
    pub fn in_sync_count(&self) -> usize {
        let want = (self.desired().epoch, self.desired().digest);
        self.hosts
            .iter()
            .filter(|h| h.reported == Some(want))
            .count()
    }

    /// Total enclave-bearing hosts under management: direct hosts plus
    /// every aggregator's children.
    pub fn fleet_size(&self) -> usize {
        self.hosts
            .iter()
            .map(|h| h.subtree.as_ref().map_or(1, Vec::len))
            .sum()
    }

    /// Leaf hosts currently converged to desired state, counting each
    /// aggregator's last-reported shard tally.
    pub fn in_sync_hosts(&self) -> usize {
        let want = (self.desired().epoch, self.desired().digest);
        self.hosts
            .iter()
            .map(|h| match &h.subtree {
                Some(_) => {
                    if h.reported == Some(want) {
                        h.subtree_synced as usize
                    } else {
                        0
                    }
                }
                None => usize::from(h.reported == Some(want)),
            })
            .sum()
    }

    /// Control-wire load counters at this (root) endpoint (kept in
    /// [`ClusterStats::wire`], so they render with the cluster).
    pub fn wire(&self) -> WireCounters {
        self.cluster.wire
    }

    /// Liveness verdict for `addr` (None if unmanaged).
    pub fn host_status(&self, addr: u32) -> Option<HostStatus> {
        self.hosts.iter().find(|h| h.addr == addr).map(|h| h.status)
    }

    /// Whether a cluster-wide update round is still in flight.
    pub fn round_active(&self) -> bool {
        self.round.is_some() || self.want_round
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

    /// Send the untracked request `msg` to `to`, returning its message id.
    fn send(
        seq: &mut u32,
        wire: &mut WireCounters,
        cfg: &CtrlConfig,
        to: u32,
        msg: &CtrlMsg,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) -> u32 {
        *seq = seq.wrapping_add(1);
        let payload = proto::encode_msg(msg);
        wire.sent(payload.len(), false);
        transmit(cfg, to, *seq, &payload, stack, ctx);
        *seq
    }

    /// Install the epoch-phase request `plan` (already encoded, `trace`
    /// trailer included) as the host's tracked request and transmit it
    /// under a fresh message id.
    #[allow(clippy::too_many_arguments)]
    fn send_tracked(
        &mut self,
        host_idx: usize,
        plan: Plan,
        phase: AckPhase,
        origin: Origin,
        trace: Option<TraceContext>,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        let to = self.hosts[host_idx].addr;
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.cluster.wire.sent(plan.bytes.len(), true);
        transmit(&self.cfg, to, self.msg_seq, &plan.bytes, stack, ctx);
        let jitter = Time::from_nanos(ctx.rng().below(self.cfg.retry_base.as_nanos() / 2 + 1));
        self.hosts[host_idx].inflight = Some(Inflight {
            msg_id: self.msg_seq,
            payload: plan.bytes,
            is_delta: plan.is_delta,
            phase,
            origin,
            retries: 0,
            next_retry: ctx.now() + self.cfg.retry_base + jitter,
            ctx: trace,
            sent_at: ctx.now(),
        });
    }

    fn tick(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();

        // Failure detection: silence past the threshold takes a host out
        // of the current round (and marks it Down). Heartbeats continue,
        // so a later pong flips it back Up.
        for i in 0..self.hosts.len() {
            let silent = now
                .as_nanos()
                .saturating_sub(self.hosts[i].last_heard.as_nanos())
                > self.cfg.fail_after.as_nanos();
            if self.hosts[i].status == HostStatus::Up && silent {
                self.mark_down(i, now);
            }
        }

        // Heartbeats (fire-and-forget; the reply, not the send, is
        // tracked — via last_heard). Each one carries this host's
        // replication views — the fan-out half of the sync loop.
        for i in 0..self.hosts.len() {
            if now >= self.hosts[i].next_heartbeat {
                self.nonce_seq += 1;
                let to = self.hosts[i].addr;
                let funcs = self.repl.active_funcs();
                // An aggregator gets one AggSync carrying the views of
                // every host in its shard, host-tagged; a plain host gets
                // its own views on a regular heartbeat.
                let payload = match self.hosts[i].subtree.as_deref() {
                    Some(children) => {
                        let mut views = Vec::new();
                        for &c in children {
                            for &f in &funcs {
                                if let Some(v) = self.repl.view_for(c, f) {
                                    views.push((c, v));
                                }
                            }
                        }
                        proto::encode_msg(&CtrlMsg::AggSync {
                            nonce: self.nonce_seq,
                            views,
                        })
                    }
                    None => {
                        let msg = CtrlMsg::Heartbeat {
                            nonce: self.nonce_seq,
                        };
                        let views: Vec<FuncView> = funcs
                            .iter()
                            .filter_map(|&f| self.repl.view_for(to, f))
                            .collect();
                        proto::encode_msg_synced(&msg, &views, None)
                    }
                };
                self.msg_seq = self.msg_seq.wrapping_add(1);
                self.cluster.wire.sent(payload.len(), false);
                transmit(&self.cfg, to, self.msg_seq, &payload, stack, ctx);
                self.hosts[i].next_heartbeat = now + self.cfg.heartbeat_every;
            }
        }

        // Periodic stats pulls (plus a trace drain on the same cadence).
        if self.cfg.stats_every > Time::ZERO && now >= self.next_stats {
            for i in 0..self.hosts.len() {
                if self.hosts[i].status == HostStatus::Up {
                    let to = self.hosts[i].addr;
                    Self::send(
                        &mut self.msg_seq,
                        &mut self.cluster.wire,
                        &self.cfg,
                        to,
                        &CtrlMsg::PullStats,
                        stack,
                        ctx,
                    );
                    if self.cfg.pull_trace_max > 0 {
                        Self::send(
                            &mut self.msg_seq,
                            &mut self.cluster.wire,
                            &self.cfg,
                            to,
                            &CtrlMsg::PullTrace {
                                max: self.cfg.pull_trace_max,
                            },
                            stack,
                            ctx,
                        );
                    }
                }
            }
            self.next_stats = now + self.cfg.stats_every;
        }

        // Retransmits, with exponential backoff + jitter. Exhausted
        // retries count as host failure.
        for i in 0..self.hosts.len() {
            let Some(inflight) = self.hosts[i].inflight.as_ref() else {
                continue;
            };
            if now < inflight.next_retry {
                continue;
            }
            if inflight.retries >= self.cfg.max_retries {
                self.mark_down(i, now);
                continue;
            }
            // Retries reuse the message id and the bytes: the agent-side
            // reassembler and handlers are idempotent, and the reply still
            // correlates.
            self.cluster.wire.sent(inflight.payload.len(), true);
            let to = self.hosts[i].addr;
            transmit(
                &self.cfg,
                to,
                inflight.msg_id,
                &inflight.payload,
                stack,
                ctx,
            );
            let inflight = self.hosts[i].inflight.as_mut().unwrap();
            inflight.retries += 1;
            // RTT measures the *latest* transmission, not the first try.
            inflight.sent_at = now;
            let base = self.cfg.retry_base.as_nanos() << inflight.retries.min(20);
            let backoff = Time::from_nanos(base.min(self.cfg.retry_max.as_nanos()));
            let jitter = Time::from_nanos(ctx.rng().below(self.cfg.retry_base.as_nanos() / 2 + 1));
            self.hosts[i].inflight.as_mut().unwrap().next_retry = now + backoff + jitter;
        }

        // A Preparing round whose last pending host was just marked down
        // needs its phase pushed here (mark_down cannot send).
        self.push_round_phase(stack, ctx);

        // Open a pending cluster round.
        if self.want_round && self.round.is_none() {
            self.want_round = false;
            self.open_round(stack, ctx);
        }

        // Reconciliation: with no round in flight, any host whose report
        // differs from desired gets an individual resync.
        if self.round.is_none() {
            self.reconcile(stack, ctx);
        }

        self.refresh_repl_lags(now.as_nanos());

        ctx.timer_in(self.cfg.tick_every, transport::app_timer_token(TICK));
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

    fn mark_down(&mut self, i: usize, now: Time) {
        self.hosts[i].status = HostStatus::Down;
        self.hosts[i].inflight = None;
        let addr = self.hosts[i].addr;
        if let Some(round) = self.round.as_mut() {
            round.pending.retain(|&a| a != addr);
        }
        self.advance_round_if_done(now);
    }

    fn open_round(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let epoch = self.desired().epoch;
        let targets: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| self.hosts[i].status == HostStatus::Up)
            .collect();
        if targets.is_empty() {
            // Nobody reachable: desired state stands, reconciliation
            // will push it to hosts as they come back.
            return;
        }
        let (trace_id, root_span) = if self.cfg.trace_rounds {
            self.span_seq += 1;
            let trace_id = self.span_seq;
            self.span_seq += 1;
            (trace_id, self.span_seq)
        } else {
            (0, 0)
        };
        let trace = (trace_id != 0).then(|| TraceContext::sampled(trace_id, root_span));
        let mut pending = Vec::with_capacity(targets.len());
        // Most of a converged fleet shares one base config, so plans are
        // cached per reported (epoch, digest) — one diff, encoded once,
        // serves every host on that base and each of their retries.
        let mut plans: Vec<(Option<(u64, u64)>, Plan)> = Vec::new();
        for i in targets {
            let base = self.hosts[i].reported;
            let plan = match plans.iter().find(|(b, _)| *b == base) {
                Some((_, p)) => p.clone(),
                None => {
                    let p = self
                        .history
                        .plan_prepare(base, self.cfg.delta_updates, trace.as_ref());
                    plans.push((base, p.clone()));
                    p
                }
            };
            // An individual resync in flight is superseded by the round.
            self.send_tracked(i, plan, AckPhase::Prepare, Origin::Round, trace, stack, ctx);
            pending.push(self.hosts[i].addr);
        }
        self.round = Some(Round {
            epoch,
            phase: RoundPhase::Preparing,
            pending,
            acked: Vec::new(),
            trace_id,
            root_span,
            opened_at: ctx.now(),
        });
    }

    fn reconcile(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let want = (self.desired().epoch, self.desired().digest);
        for i in 0..self.hosts.len() {
            let h = &self.hosts[i];
            if h.status != HostStatus::Up || h.inflight.is_some() || now < h.next_resync {
                continue;
            }
            let Some(reported) = h.reported else {
                continue; // never heard: wait for the first pong
            };
            // An aggregator whose own config converged can still be
            // vouching for a diverged or run-ahead child (it cannot mint
            // epochs itself); the root heals the shard the same way it
            // heals a directly-managed diverged host — a fresh epoch.
            let subtree_ahead = h.subtree.is_some()
                && reported == want
                && (h.subtree_diverged || h.subtree_max_epoch > want.0);
            if reported == want && !subtree_ahead {
                continue;
            }
            if reported.0 >= want.0 || subtree_ahead {
                // Same (or newer) epoch but wrong digest: the host
                // diverged. Freeze the shadow's flight recorder (the
                // controller-side record of what it believed) and
                // re-issue desired state under a fresh epoch so a plain
                // prepare/commit replay heals the whole fleet.
                let addr = h.addr;
                let reported_digest = reported.1;
                let ahead = reported.0.max(h.subtree_max_epoch);
                self.shadow
                    .flight_record(FlightKind::Divergence, u64::from(addr), reported_digest);
                self.shadow.freeze_flight("divergence");
                let epoch = ahead + 1;
                let (ops, model) = (self.desired().ops.clone(), self.desired().model.clone());
                self.shadow
                    .stage_epoch(epoch, &ops)
                    .expect("desired ops validated when set");
                assert!(self.shadow.commit_epoch(epoch));
                self.history
                    .push(epoch, self.shadow.config_digest(), model, ops);
                self.sync_repl_from_shadow();
                self.want_round = true;
                return;
            }
            let plan = self
                .history
                .plan_prepare(Some(reported), self.cfg.delta_updates, None);
            self.send_tracked(i, plan, AckPhase::Prepare, Origin::Resync, None, stack, ctx);
        }
    }

    fn advance_round_if_done(&mut self, now: Time) {
        let Some(round) = self.round.as_ref() else {
            return;
        };
        if !round.pending.is_empty() {
            return;
        }
        match round.phase {
            // Phase transitions that need the stack are handled where the
            // triggering ack arrives (handle_reply); an empty pending set
            // reached via mark_down on the *last* pending host is resolved
            // on the next ack or tick through round_needs_push.
            RoundPhase::Preparing => {}
            RoundPhase::Committing | RoundPhase::Aborting => {
                self.finish_round(now);
            }
        }
    }

    /// Close out a completed round: record its convergence latency (for
    /// committed rounds) and ingest the trace root so the collected
    /// per-host spans hang off a tree.
    fn finish_round(&mut self, now: Time) {
        let Some(round) = self.round.take() else {
            return;
        };
        if round.phase == RoundPhase::Committing {
            self.converge
                .record(now.as_nanos().saturating_sub(round.opened_at.as_nanos()));
        }
        if round.trace_id != 0 {
            self.trace.ingest(Span {
                trace_id: round.trace_id,
                span_id: round.root_span,
                parent_span: 0,
                host: 0,
                name: "epoch".into(),
                start_ns: round.opened_at.as_nanos(),
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

    /// Move a fully prepare-acked round into its commit fan-out. Called
    /// from contexts that hold the stack.
    fn push_round_phase(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(round) = self.round.as_ref() else {
            return;
        };
        if round.phase != RoundPhase::Preparing || !round.pending.is_empty() {
            return;
        }
        let epoch = round.epoch;
        let acked = round.acked.clone();
        let trace =
            (round.trace_id != 0).then(|| TraceContext::sampled(round.trace_id, round.root_span));
        if acked.is_empty() {
            // Every target died mid-prepare; nothing to commit.
            self.round = None;
            return;
        }
        let commit = Plan::phase(&CtrlMsg::Commit { epoch }, trace.as_ref());
        let mut pending = Vec::with_capacity(acked.len());
        for addr in acked {
            if let Some(i) = self.hosts.iter().position(|h| h.addr == addr) {
                if self.hosts[i].status != HostStatus::Up {
                    continue;
                }
                let commit = commit.clone();
                self.send_tracked(
                    i,
                    commit,
                    AckPhase::Commit,
                    Origin::Round,
                    trace,
                    stack,
                    ctx,
                );
                pending.push(addr);
            }
        }
        let round = self.round.as_mut().unwrap();
        round.phase = RoundPhase::Committing;
        round.pending = pending;
        self.advance_round_if_done(ctx.now());
    }

    /// A prepare was nacked: abort everywhere and roll desired state back.
    fn abort_round(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(round) = self.round.as_ref() else {
            return;
        };
        let epoch = round.epoch;
        let trace =
            (round.trace_id != 0).then(|| TraceContext::sampled(round.trace_id, round.root_span));
        // Roll back desired state (the oldest remembered entry stays).
        if self.history.roll_back(epoch) {
            self.rebuild_shadow();
        }
        let scope: Vec<u32> = self
            .hosts
            .iter()
            .filter(|h| h.status == HostStatus::Up)
            .map(|h| h.addr)
            .collect();
        let abort = Plan::phase(&CtrlMsg::Abort { epoch }, trace.as_ref());
        let mut pending = Vec::with_capacity(scope.len());
        for addr in scope {
            let i = self.hosts.iter().position(|h| h.addr == addr).unwrap();
            let abort = abort.clone();
            self.send_tracked(i, abort, AckPhase::Abort, Origin::Round, trace, stack, ctx);
            pending.push(addr);
        }
        let round = self.round.as_mut().unwrap();
        round.phase = RoundPhase::Aborting;
        round.pending = pending;
        round.acked.clear();
        self.advance_round_if_done(ctx.now());
    }

    /// Reset the shadow enclave to the (possibly rolled-back) desired
    /// entry by replaying it from scratch.
    fn rebuild_shadow(&mut self) {
        let mut shadow = Enclave::new(EnclaveConfig::default());
        let entry = self.desired();
        if entry.epoch > 0 {
            shadow
                .stage_epoch(entry.epoch, &entry.ops)
                .expect("desired ops validated when set");
            assert!(shadow.commit_epoch(entry.epoch));
        }
        self.shadow = shadow;
        self.sync_repl_from_shadow();
    }

    fn handle_reply(
        &mut self,
        from: u32,
        reply: CtrlReply,
        deltas: Vec<FuncDelta>,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let Some(i) = self.hosts.iter().position(|h| h.addr == from) else {
            return; // not one of ours
        };
        self.hosts[i].last_heard = now;
        self.hosts[i].ever_heard = true;
        if self.hosts[i].status == HostStatus::Down {
            self.hosts[i].status = HostStatus::Up;
        }
        match reply {
            CtrlReply::Pong {
                epoch,
                digest,
                spans,
                ..
            } => {
                self.hosts[i].reported = Some((epoch, digest));
                for span in spans {
                    self.trace.ingest(span);
                }
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
                self.hosts[i].reported = Some((epoch, digest));
                self.hosts[i].subtree_synced = hosts_synced;
                self.hosts[i].subtree_max_epoch = max_epoch;
                self.hosts[i].subtree_diverged = diverged;
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
                self.hosts[i].reported = Some((epoch, digest));
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
                let matches = self.hosts[i]
                    .inflight
                    .as_ref()
                    .is_some_and(|f| f.msg_id == re && f.phase == phase);
                if !matches {
                    return; // stale or duplicate ack
                }
                let inflight = self.hosts[i].inflight.as_ref().unwrap();
                let origin = inflight.origin;
                self.rtt
                    .record(now.as_nanos().saturating_sub(inflight.sent_at.as_nanos()));
                self.refresh_ctrl_latencies();
                self.hosts[i].inflight = None;
                match (origin, phase) {
                    (Origin::Round, AckPhase::Prepare) => {
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                            round.acked.push(from);
                        }
                        self.push_round_phase(stack, ctx);
                    }
                    (Origin::Round, AckPhase::Commit) => {
                        if let Some(d) = self.history.digest_of(epoch) {
                            self.hosts[i].reported = Some((epoch, d));
                        }
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                        }
                        self.advance_round_if_done(now);
                    }
                    (Origin::Round, AckPhase::Abort) => {
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                        }
                        self.advance_round_if_done(now);
                    }
                    (Origin::Resync, AckPhase::Prepare) => {
                        let commit = Plan::phase(&CtrlMsg::Commit { epoch }, None);
                        self.send_tracked(
                            i,
                            commit,
                            AckPhase::Commit,
                            Origin::Resync,
                            None,
                            stack,
                            ctx,
                        );
                    }
                    (Origin::Resync, AckPhase::Commit) => {
                        if let Some(d) = self.history.digest_of(epoch) {
                            self.hosts[i].reported = Some((epoch, d));
                        }
                        self.hosts[i].resync_backoff = Time::ZERO;
                        self.hosts[i].next_resync = now;
                    }
                    (Origin::Resync, AckPhase::Abort) => {}
                }
            }
            CtrlReply::Nack { re, epoch, .. } => {
                let matches = self.hosts[i]
                    .inflight
                    .as_ref()
                    .is_some_and(|f| f.msg_id == re);
                if !matches {
                    return;
                }
                let (origin, phase, was_delta, trace) = {
                    let f = self.hosts[i].inflight.as_ref().unwrap();
                    self.rtt
                        .record(now.as_nanos().saturating_sub(f.sent_at.as_nanos()));
                    (f.origin, f.phase, f.is_delta, f.ctx)
                };
                self.refresh_ctrl_latencies();
                self.hosts[i].inflight = None;
                if was_delta && phase == AckPhase::Prepare && epoch == self.desired().epoch {
                    // The digest anchor missed (the host's config is not
                    // what its last report promised) or the diff failed
                    // validation there: fall back to the full Reset-led
                    // ship on the same track — a round host stays in the
                    // round's pending set, a resync stays a resync.
                    self.cluster.wire.delta_fallbacks += 1;
                    let full = self.history.plan_full(trace.as_ref());
                    self.send_tracked(i, full, AckPhase::Prepare, origin, trace, stack, ctx);
                    return;
                }
                match (origin, phase) {
                    (Origin::Round, AckPhase::Prepare) => self.abort_round(stack, ctx),
                    (Origin::Round, _) => {
                        // A commit/abort nack means the host lost its
                        // staging (e.g. rebooted mid-round). Drop it from
                        // the round; reconciliation will resync it.
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                        }
                        self.advance_round_if_done(now);
                    }
                    (Origin::Resync, _) => {
                        // Back off before retrying this host so a
                        // persistently unhappy host cannot hot-loop.
                        let b = self.hosts[i].resync_backoff.as_nanos();
                        let next = (b * 2).clamp(
                            self.cfg.retry_base.as_nanos(),
                            self.cfg.fail_after.as_nanos() * 4,
                        );
                        self.hosts[i].resync_backoff = Time::from_nanos(next);
                        self.hosts[i].next_resync = now + Time::from_nanos(next);
                    }
                }
            }
        }
        // A round stuck in Preparing with an emptied pending set (last
        // pending host died) still needs its push.
        self.push_round_phase(stack, ctx);
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
        let Ok((reply, deltas)) = proto::decode_reply_synced(&payload) else {
            return;
        };
        self.handle_reply(from, reply, deltas, stack, ctx);
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
        assert!(c.app().all_in_sync());
        let want = c.app().desired_digest();
        assert_eq!(c.tap(1).agent.enclave().config_digest(), want);
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
