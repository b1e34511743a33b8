//! The rack/pod aggregator: a mid-tier controller that makes root load
//! O(#aggregators) instead of O(#hosts).
//!
//! [`AggregatorApp`] faces both ways. To the *root* controller it looks
//! like one well-behaved host: it answers `Prepare` / `DeltaPrepare` /
//! `Commit` / `Abort` against a local shadow enclave (validating ops and
//! computing the config digest exactly as a leaf would), and it answers
//! [`CtrlMsg::AggSync`] with an [`CtrlReply::AggPong`] summarizing its
//! whole shard — children total, children converged, the highest epoch
//! any child reports, a divergence flag, the shard's replication deltas
//! (host-tagged), and its trace spans. A `PullStats` is answered with the
//! sum of the last `Stats` each child returned — the shadow enclave
//! never sees a packet — and makes it pull its children again, so the
//! root reads a rack's counters one pull interval late. To its
//! *children* it looks like
//! the controller: per-child heartbeats, tracked requests with retry and
//! backoff, failure detection, two-phase shard rounds, and per-child
//! delta-planned resync.
//!
//! The key design choice is that the shard is **autonomous**: the
//! aggregator acks the root's `Commit` as soon as its own shadow commits,
//! then walks its children through the epoch in its own round. Epochs are
//! therefore *per-shard* — a slow or partitioned host delays only its
//! rack's convergence, never the root's round — at the cost of a window
//! where shards serve different (root-ordered) epochs. The root's
//! convergence predicate ([`ControllerApp::all_in_sync`]
//! (crate::ControllerApp::all_in_sync)) still waits for every shard to
//! finish, so nothing observable weakens for callers that wait for
//! convergence; only the failure domain shrinks.
//!
//! Wiring: the aggregator's stack must *not* set a ctrl port — both the
//! root's requests (dst port = `ctrl_port`) and the children's replies
//! (dst port = `src_port`) then arrive via [`App::on_raw`], demuxed by
//! UDP destination port. Schedule its tick like the controller's:
//!
//! ```ignore
//! net.schedule_timer(agg_node, Time::ZERO, transport::app_timer_token(TICK));
//! ```

use std::rc::Rc;

use eden_core::{Enclave, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, FuncView};
use eden_telemetry::{ClusterStats, EnclaveCounters, HostReport, Span};
use netsim::{Ctx, L4Header, Packet, Time, UdpHeader};
use transport::{App, Stack};

use crate::agent::EnclaveAgent;
use crate::controller::{transmit, CtrlConfig, HostStatus, WireCounters, TICK};
use crate::delta::{ConfigEntry, ConfigHistory, ConfigModel, Plan};
use crate::proto::{self, AckPhase, CtrlMsg, CtrlReply, Reassembler};

/// Most child spans one AggPong relays to the root.
const AGG_SPAN_BUDGET: usize = 64;

/// Aggregator knobs: the shared control-plane timing plus this tier's
/// own sizing, re-exported so scenarios configure one struct.
#[derive(Debug, Clone, Default)]
pub struct AggConfig {
    pub ctrl: CtrlConfig,
}

struct ChildInflight {
    msg_id: u32,
    /// The encoded request as first sent; a retry re-sends these bytes.
    payload: Rc<[u8]>,
    /// The request is a `DeltaPrepare` (a Nack falls back to the full).
    is_delta: bool,
    phase: AckPhase,
    is_round: bool,
    retries: u32,
    next_retry: Time,
    sent_at: Time,
}

struct ChildState {
    addr: u32,
    status: HostStatus,
    last_heard: Time,
    reported: Option<(u64, u64)>,
    inflight: Option<ChildInflight>,
    next_heartbeat: Time,
    next_resync: Time,
    resync_backoff: Time,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardPhase {
    Preparing,
    Committing,
}

struct ShardRound {
    epoch: u64,
    phase: ShardPhase,
    pending: Vec<u32>,
    acked: Vec<u32>,
}

/// In-process children for very large sweeps: `count` identical lossless
/// replicas represented by one real [`EnclaveAgent`]. Every child would
/// see the same bytes and answer the same way (no loss inside a process),
/// so the template validates the semantics while the wire cost is
/// tallied arithmetically — which is the quantity the ≥100k-host sweep
/// measures.
struct VirtualShard {
    count: usize,
    agent: EnclaveAgent,
    seq: u32,
}

impl VirtualShard {
    /// Every child receives the request `bytes` and answers as the
    /// template does; the wire tally scales by `count`.
    fn exchange(&mut self, bytes: &[u8], wire: &mut WireCounters) -> CtrlReply {
        let msg = proto::decode_msg(bytes).expect("this endpoint's own encoding");
        // prepares and commits are exchanged here, and stats pulls
        let epoch_config = !matches!(msg, CtrlMsg::PullStats);
        self.seq = self.seq.wrapping_add(1);
        let reply = self.agent.handle(self.seq, msg);
        for _ in 0..self.count {
            wire.sent(bytes.len(), epoch_config);
        }
        wire.msgs_received += self.count as u64;
        wire.bytes_received += (proto::encode_reply(&reply).len() * self.count) as u64;
        reply
    }
}

/// A rack/pod aggregation tier endpoint (see module docs).
pub struct AggregatorApp {
    cfg: CtrlConfig,
    /// Shadow enclave holding the shard's committed configuration.
    shadow: Enclave,
    /// The configuration the staged epoch leads to (the shadow holds the
    /// ops themselves until commit).
    staged_model: Option<(u64, ConfigModel)>,
    /// Root controller address, learned from its first request.
    parent: Option<u32>,
    /// Committed versions; each entry's ops are the Reset-led rebuild of
    /// its model — the full ship for children whose base is unknown (the
    /// ReplHub-snapshot analogue).
    history: ConfigHistory,
    children: Vec<ChildState>,
    virtual_shard: Option<VirtualShard>,
    round: Option<ShardRound>,
    want_round: bool,
    /// Host-tagged replication views from the last AggSync, fanned down
    /// on each child's next heartbeat.
    views_down: Vec<(u32, FuncView)>,
    /// Latest replication delta per (child, function), fanned up on the
    /// next AggPong.
    deltas_up: Vec<(u32, FuncDelta)>,
    /// Child spans awaiting relay.
    spans_up: Vec<Span>,
    /// The last `Stats` each child returned (a virtual shard's whole
    /// fleet under one entry): what a parent's `PullStats` is answered
    /// from.
    shard_stats: ClusterStats,
    /// The parent pulled stats; pull the children's when the stack is
    /// next in hand.
    want_stats: bool,
    reasm: Reassembler,
    msg_seq: u32,
    reply_seq: u32,
    nonce_seq: u64,
    wire: WireCounters,
}

impl AggregatorApp {
    /// An aggregator fronting the enclave agents at `children`.
    pub fn new(cfg: AggConfig, children: &[u32]) -> AggregatorApp {
        let shadow = Enclave::new(EnclaveConfig::default());
        let history = ConfigHistory::new(shadow.config_digest());
        AggregatorApp {
            cfg: cfg.ctrl,
            shadow,
            staged_model: None,
            parent: None,
            history,
            children: children
                .iter()
                .map(|&addr| ChildState {
                    addr,
                    status: HostStatus::Up,
                    last_heard: Time::ZERO,
                    reported: None,
                    inflight: None,
                    next_heartbeat: Time::ZERO,
                    next_resync: Time::ZERO,
                    resync_backoff: Time::ZERO,
                })
                .collect(),
            virtual_shard: None,
            round: None,
            want_round: false,
            views_down: Vec::new(),
            deltas_up: Vec::new(),
            spans_up: Vec::new(),
            shard_stats: ClusterStats::new(),
            want_stats: false,
            reasm: Reassembler::default(),
            msg_seq: 0,
            reply_seq: 0,
            nonce_seq: 0,
            wire: WireCounters::default(),
        }
    }

    /// An aggregator fronting `count` in-process virtual children (see
    /// [`VirtualShard`]); `enclave_cfg` sizes the template enclave —
    /// use a lean config for six-figure sweeps.
    pub fn with_virtual_children(
        cfg: AggConfig,
        count: usize,
        enclave_cfg: EnclaveConfig,
    ) -> AggregatorApp {
        let mut app = AggregatorApp::new(cfg, &[]);
        app.virtual_shard = Some(VirtualShard {
            count,
            agent: EnclaveAgent::new(Enclave::new(enclave_cfg)),
            seq: 0,
        });
        app
    }

    /// The shard's committed epoch.
    pub fn committed_epoch(&self) -> u64 {
        self.shadow.active_epoch()
    }

    /// Children (real or virtual) this aggregator fronts.
    pub fn shard_size(&self) -> usize {
        match &self.virtual_shard {
            Some(v) => v.count,
            None => self.children.len(),
        }
    }

    /// Children currently converged to the shard's committed config.
    pub fn shard_synced(&self) -> usize {
        let want = (self.shadow.active_epoch(), self.shadow.config_digest());
        match &self.virtual_shard {
            Some(v) => {
                let e = v.agent.enclave();
                if (e.active_epoch(), e.config_digest()) == want {
                    v.count
                } else {
                    0
                }
            }
            None => self
                .children
                .iter()
                .filter(|c| c.reported == Some(want))
                .count(),
        }
    }

    /// Control-wire load counters at this endpoint (both faces).
    pub fn wire(&self) -> WireCounters {
        self.wire
    }

    fn current(&self) -> &ConfigEntry {
        self.history.current()
    }

    // ------------------------------------------------------------------
    // parent face
    // ------------------------------------------------------------------

    /// Handle one reassembled root request. Pure with respect to the
    /// network: child fan-out happens in [`drive`](Self::drive) /
    /// [`tick`](Self::tick), which hold the stack. Public for direct
    /// unit testing.
    pub fn handle_parent_msg(&mut self, re: u32, msg: CtrlMsg) -> CtrlReply {
        match msg {
            CtrlMsg::Prepare { epoch, ops } => self.stage(re, epoch, None, ops),
            CtrlMsg::DeltaPrepare {
                epoch,
                base_digest,
                ops,
            } => self.stage(re, epoch, Some(base_digest), ops),
            CtrlMsg::Commit { epoch } => {
                let had_staged = self.staged_model.as_ref().is_some_and(|(e, _)| *e == epoch);
                if self.shadow.commit_epoch(epoch) {
                    if had_staged {
                        let (_, model) = self.staged_model.take().expect("checked above");
                        let full_ops = model.to_full_ops();
                        self.history
                            .push(epoch, self.shadow.config_digest(), model, full_ops);
                        // The root's round is done with us; now walk the
                        // shard through the epoch in our own round.
                        self.want_round = true;
                    }
                    CtrlReply::Ack {
                        re,
                        epoch,
                        phase: AckPhase::Commit,
                    }
                } else {
                    CtrlReply::Nack {
                        re,
                        epoch,
                        reason: format!("epoch {epoch} not prepared"),
                    }
                }
            }
            CtrlMsg::Abort { epoch } => {
                self.shadow.abort_epoch(epoch);
                if self.staged_model.as_ref().is_some_and(|(e, _)| *e == epoch) {
                    self.staged_model = None;
                }
                // Children never saw the aborted epoch: the shard round
                // only starts at commit.
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Abort,
                }
            }
            CtrlMsg::Heartbeat { nonce } => CtrlReply::Pong {
                re,
                nonce,
                epoch: self.shadow.active_epoch(),
                digest: self.shadow.config_digest(),
                spans: Vec::new(),
            },
            CtrlMsg::AggSync { nonce, views } => {
                self.views_down = views;
                self.agg_pong(re, nonce)
            }
            CtrlMsg::PullStats => {
                // The shadow enclave never sees a packet: the shard's
                // stats are its children's, as of the previous pull.
                self.want_stats = true;
                let reports = self.shard_stats.reports();
                CtrlReply::Stats {
                    re,
                    epoch: self.shadow.active_epoch(),
                    digest: self.shadow.config_digest(),
                    captured_at_ns: reports.iter().map(|r| r.captured_at_ns).max().unwrap_or(0),
                    counters: self.shard_stats.totals(),
                    latencies: self.shard_stats.merged_latencies(),
                }
            }
            CtrlMsg::PullTrace { max } => {
                let take = (max as usize).min(self.spans_up.len());
                CtrlReply::Spans {
                    re,
                    spans: self.spans_up.drain(..take).collect(),
                }
            }
        }
    }

    fn stage(&mut self, re: u32, epoch: u64, base: Option<u64>, ops: Vec<EnclaveOp>) -> CtrlReply {
        let active = self.shadow.active_epoch();
        if epoch < active {
            return CtrlReply::Nack {
                re,
                epoch,
                reason: format!("stale epoch {epoch} < active {active}"),
            };
        }
        if epoch == active {
            return CtrlReply::Ack {
                re,
                epoch,
                phase: AckPhase::Prepare,
            };
        }
        let mut model = self.current().model.clone();
        model.apply(&ops);
        let staged = match base {
            Some(digest) => self.shadow.stage_epoch_delta_owned(epoch, digest, ops),
            None => self.shadow.stage_epoch_owned(epoch, ops),
        };
        match staged {
            Ok(()) => {
                self.staged_model = Some((epoch, model));
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Prepare,
                }
            }
            Err(e) => CtrlReply::Nack {
                re,
                epoch,
                reason: e.to_string(),
            },
        }
    }

    /// Summarize the shard for the root.
    fn agg_pong(&mut self, re: u32, nonce: u64) -> CtrlReply {
        let epoch = self.shadow.active_epoch();
        let digest = self.shadow.config_digest();
        let (hosts_total, hosts_synced, max_epoch, diverged) = match &self.virtual_shard {
            Some(v) => {
                let e = v.agent.enclave();
                let synced = if (e.active_epoch(), e.config_digest()) == (epoch, digest) {
                    v.count as u32
                } else {
                    0
                };
                (v.count as u32, synced, e.active_epoch(), false)
            }
            None => {
                let mut synced = 0u32;
                let mut max_epoch = 0u64;
                let mut diverged = false;
                for c in &self.children {
                    let Some(r) = c.reported else { continue };
                    max_epoch = max_epoch.max(r.0);
                    if r == (epoch, digest) {
                        synced += 1;
                    } else if r.0 >= epoch {
                        diverged = true;
                    }
                }
                (self.children.len() as u32, synced, max_epoch, diverged)
            }
        };
        let take = AGG_SPAN_BUDGET.min(self.spans_up.len());
        CtrlReply::AggPong {
            re,
            nonce,
            epoch,
            digest,
            hosts_total,
            hosts_synced,
            max_epoch,
            diverged,
            deltas: std::mem::take(&mut self.deltas_up),
            spans: self.spans_up.drain(..take).collect(),
        }
    }

    // ------------------------------------------------------------------
    // child face
    // ------------------------------------------------------------------

    /// Install `plan` as the child's tracked request and transmit its
    /// shared bytes under a fresh message id.
    fn send_child(
        &mut self,
        child_idx: usize,
        plan: Plan,
        phase: AckPhase,
        is_round: bool,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        self.msg_seq = self.msg_seq.wrapping_add(1);
        let to = self.children[child_idx].addr;
        self.wire.sent(plan.bytes.len(), true);
        transmit(&self.cfg, to, self.msg_seq, &plan.bytes, stack, ctx);
        let jitter = Time::from_nanos(ctx.rng().below(self.cfg.retry_base.as_nanos() / 2 + 1));
        self.children[child_idx].inflight = Some(ChildInflight {
            msg_id: self.msg_seq,
            payload: plan.bytes,
            is_delta: plan.is_delta,
            phase,
            is_round,
            retries: 0,
            next_retry: ctx.now() + self.cfg.retry_base + jitter,
            sent_at: ctx.now(),
        });
    }

    fn tick(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();

        // Failure detection mirrors the root's: silence past the
        // threshold drops a child from the current shard round; its
        // next pong flips it back Up and reconciliation catches it up.
        for i in 0..self.children.len() {
            let silent = now
                .as_nanos()
                .saturating_sub(self.children[i].last_heard.as_nanos())
                > self.cfg.fail_after.as_nanos();
            if self.children[i].status == HostStatus::Up && silent {
                self.mark_down(i);
            }
        }

        // Per-child heartbeats, carrying that child's replication views
        // from the last AggSync fan-down.
        for i in 0..self.children.len() {
            if now < self.children[i].next_heartbeat {
                continue;
            }
            self.nonce_seq += 1;
            let to = self.children[i].addr;
            let msg = CtrlMsg::Heartbeat {
                nonce: self.nonce_seq,
            };
            let views: Vec<FuncView> = self
                .views_down
                .iter()
                .filter(|(h, _)| *h == to)
                .map(|(_, v)| v.clone())
                .collect();
            self.msg_seq = self.msg_seq.wrapping_add(1);
            let payload = proto::encode_msg_synced(&msg, &views, None);
            self.wire.sent(payload.len(), false);
            transmit(&self.cfg, to, self.msg_seq, &payload, stack, ctx);
            self.children[i].next_heartbeat = now + self.cfg.heartbeat_every;
        }

        // Retransmits with backoff; exhausted retries mark the child down.
        for i in 0..self.children.len() {
            let Some(inflight) = self.children[i].inflight.as_ref() else {
                continue;
            };
            if now < inflight.next_retry {
                continue;
            }
            if inflight.retries >= self.cfg.max_retries {
                self.mark_down(i);
                continue;
            }
            self.wire.sent(inflight.payload.len(), true);
            let to = self.children[i].addr;
            transmit(
                &self.cfg,
                to,
                inflight.msg_id,
                &inflight.payload,
                stack,
                ctx,
            );
            let inflight = self.children[i].inflight.as_mut().unwrap();
            inflight.retries += 1;
            inflight.sent_at = now;
            let base = self.cfg.retry_base.as_nanos() << inflight.retries.min(20);
            let backoff = Time::from_nanos(base.min(self.cfg.retry_max.as_nanos()));
            let jitter = Time::from_nanos(ctx.rng().below(self.cfg.retry_base.as_nanos() / 2 + 1));
            self.children[i].inflight.as_mut().unwrap().next_retry = now + backoff + jitter;
        }

        self.drive(stack, ctx);
        ctx.timer_in(self.cfg.tick_every, transport::app_timer_token(TICK));
    }

    fn mark_down(&mut self, i: usize) {
        self.children[i].status = HostStatus::Down;
        self.children[i].inflight = None;
        let addr = self.children[i].addr;
        if let Some(round) = self.round.as_mut() {
            round.pending.retain(|&a| a != addr);
        }
    }

    /// Open a pending shard round and/or push its phase; reconcile
    /// stragglers when idle. Called wherever the stack is in hand.
    fn drive(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if std::mem::take(&mut self.want_stats) {
            self.pull_shard_stats(stack, ctx);
        }
        if self.virtual_shard.is_some() {
            self.drive_virtual();
            return;
        }
        if self.want_round && self.round.is_none() {
            self.want_round = false;
            self.open_shard_round(stack, ctx);
        }
        self.push_shard_phase(stack, ctx);
        if self.round.is_none() {
            self.reconcile(stack, ctx);
        }
    }

    /// Ask every child for its stats. A virtual shard's template answers
    /// for the fleet: its counters times `count`, its histograms as they
    /// are (their percentiles do not change with the number of copies).
    fn pull_shard_stats(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let payload = proto::encode_msg(&CtrlMsg::PullStats);
        if let Some(v) = self.virtual_shard.as_mut() {
            let (reply, copies) = (v.exchange(&payload, &mut self.wire), v.count as u64);
            self.record_stats(0, copies, reply);
            return;
        }
        for i in 0..self.children.len() {
            if self.children[i].status == HostStatus::Up {
                self.msg_seq = self.msg_seq.wrapping_add(1);
                self.wire.sent(payload.len(), false);
                let to = self.children[i].addr;
                transmit(&self.cfg, to, self.msg_seq, &payload, stack, ctx);
            }
        }
    }

    /// Keep a `Stats` reply as `host`'s report, standing for `copies`
    /// hosts that would all have sent it.
    fn record_stats(&mut self, host: u32, copies: u64, reply: CtrlReply) {
        let CtrlReply::Stats {
            epoch,
            digest,
            captured_at_ns,
            counters,
            latencies,
            ..
        } = reply
        else {
            return;
        };
        self.shard_stats.record(HostReport {
            host,
            epoch,
            digest,
            captured_at_ns,
            enclave: EnclaveCounters::from_values(counters.values().map(|c| c * copies)),
            latencies,
        });
    }

    /// The virtual shard converges synchronously: every child would see
    /// the same frames and answer identically, so one template agent
    /// executes the exchange and the wire tally scales by `count`.
    fn drive_virtual(&mut self) {
        if !self.want_round {
            return;
        }
        self.want_round = false;
        let epoch = self.current().epoch;
        let Some(mut v) = self.virtual_shard.take() else {
            return;
        };
        let e = v.agent.enclave();
        let at = (e.active_epoch(), e.config_digest());
        let prep = self
            .history
            .plan_prepare(Some(at), self.cfg.delta_updates, None);
        if matches!(
            v.exchange(&prep.bytes, &mut self.wire),
            CtrlReply::Nack { .. }
        ) {
            // Digest anchor missed (template diverged): full resync.
            if prep.is_delta {
                self.wire.delta_fallbacks += v.count as u64;
            }
            v.exchange(&self.history.plan_full(None).bytes, &mut self.wire);
        }
        let commit = Plan::phase(&CtrlMsg::Commit { epoch }, None);
        v.exchange(&commit.bytes, &mut self.wire);
        self.virtual_shard = Some(v);
    }

    fn open_shard_round(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let epoch = self.current().epoch;
        let targets: Vec<usize> = (0..self.children.len())
            .filter(|&i| self.children[i].status == HostStatus::Up)
            .collect();
        if targets.is_empty() {
            return;
        }
        let mut pending = Vec::with_capacity(targets.len());
        // One plan per distinct base, encoded once: the rack shares its
        // bytes, and so does every retry.
        let mut plans: Vec<(Option<(u64, u64)>, Plan)> = Vec::new();
        for i in targets {
            let base = self.children[i].reported;
            let plan = match plans.iter().find(|(b, _)| *b == base) {
                Some((_, p)) => p.clone(),
                None => {
                    let p = self
                        .history
                        .plan_prepare(base, self.cfg.delta_updates, None);
                    plans.push((base, p.clone()));
                    p
                }
            };
            self.send_child(i, plan, AckPhase::Prepare, true, stack, ctx);
            pending.push(self.children[i].addr);
        }
        self.round = Some(ShardRound {
            epoch,
            phase: ShardPhase::Preparing,
            pending,
            acked: Vec::new(),
        });
    }

    fn push_shard_phase(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(round) = self.round.as_ref() else {
            return;
        };
        if !round.pending.is_empty() {
            return;
        }
        match round.phase {
            ShardPhase::Preparing => {
                let epoch = round.epoch;
                let acked = round.acked.clone();
                if acked.is_empty() {
                    self.round = None;
                    return;
                }
                let commit = Plan::phase(&CtrlMsg::Commit { epoch }, None);
                let mut pending = Vec::with_capacity(acked.len());
                for addr in acked {
                    if let Some(i) = self.children.iter().position(|c| c.addr == addr) {
                        if self.children[i].status != HostStatus::Up {
                            continue;
                        }
                        self.send_child(i, commit.clone(), AckPhase::Commit, true, stack, ctx);
                        pending.push(addr);
                    }
                }
                let round = self.round.as_mut().unwrap();
                round.phase = ShardPhase::Committing;
                round.pending = pending;
                if self.round.as_ref().unwrap().pending.is_empty() {
                    self.round = None;
                }
            }
            ShardPhase::Committing => {
                self.round = None;
            }
        }
    }

    /// Children whose report differs from the shard's committed config
    /// get an individual delta-planned prepare/commit. A child *ahead*
    /// of the shard (or at its epoch with the wrong digest) cannot be
    /// healed here — the aggregator cannot mint epochs — so it is only
    /// reported up via AggPong's `max_epoch`/`diverged` and the root
    /// re-issues a fresh epoch.
    fn reconcile(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let want = (self.shadow.active_epoch(), self.shadow.config_digest());
        for i in 0..self.children.len() {
            let c = &self.children[i];
            if c.status != HostStatus::Up || c.inflight.is_some() || now < c.next_resync {
                continue;
            }
            let Some(reported) = c.reported else {
                continue;
            };
            if reported == want || reported.0 >= want.0 {
                continue;
            }
            let plan = self
                .history
                .plan_prepare(Some(reported), self.cfg.delta_updates, None);
            self.send_child(i, plan, AckPhase::Prepare, false, stack, ctx);
        }
    }

    fn handle_child_reply(
        &mut self,
        from: u32,
        reply: CtrlReply,
        deltas: Vec<FuncDelta>,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let Some(i) = self.children.iter().position(|c| c.addr == from) else {
            return;
        };
        self.children[i].last_heard = now;
        if self.children[i].status == HostStatus::Down {
            self.children[i].status = HostStatus::Up;
        }
        match reply {
            CtrlReply::Pong {
                epoch,
                digest,
                spans,
                ..
            } => {
                self.children[i].reported = Some((epoch, digest));
                self.buffer_spans(spans);
                for d in deltas {
                    self.deltas_up
                        .retain(|(h, existing)| !(*h == from && existing.func == d.func));
                    self.deltas_up.push((from, d));
                }
            }
            CtrlReply::Ack { re, epoch, phase } => {
                let matches = self.children[i]
                    .inflight
                    .as_ref()
                    .is_some_and(|f| f.msg_id == re && f.phase == phase);
                if !matches {
                    return;
                }
                let is_round = self.children[i].inflight.as_ref().unwrap().is_round;
                self.children[i].inflight = None;
                match (is_round, phase) {
                    (true, AckPhase::Prepare) => {
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                            round.acked.push(from);
                        }
                        self.push_shard_phase(stack, ctx);
                    }
                    (true, AckPhase::Commit) => {
                        if let Some(d) = self.history.digest_of(epoch) {
                            self.children[i].reported = Some((epoch, d));
                        }
                        if let Some(round) = self.round.as_mut() {
                            round.pending.retain(|&a| a != from);
                        }
                        self.push_shard_phase(stack, ctx);
                    }
                    (false, AckPhase::Prepare) => {
                        let commit = Plan::phase(&CtrlMsg::Commit { epoch }, None);
                        self.send_child(i, commit, AckPhase::Commit, false, stack, ctx);
                    }
                    (false, AckPhase::Commit) => {
                        if let Some(d) = self.history.digest_of(epoch) {
                            self.children[i].reported = Some((epoch, d));
                        }
                        self.children[i].resync_backoff = Time::ZERO;
                        self.children[i].next_resync = now;
                    }
                    (_, AckPhase::Abort) => {}
                }
            }
            CtrlReply::Nack { re, epoch, .. } => {
                let matches = self.children[i]
                    .inflight
                    .as_ref()
                    .is_some_and(|f| f.msg_id == re);
                if !matches {
                    return;
                }
                let (was_delta, is_round, phase) = {
                    let f = self.children[i].inflight.as_ref().unwrap();
                    (f.is_delta, f.is_round, f.phase)
                };
                self.children[i].inflight = None;
                if was_delta && phase == AckPhase::Prepare && epoch == self.current().epoch {
                    // Digest anchor missed: the same fallback the root
                    // uses — full rebuild on the same track.
                    self.wire.delta_fallbacks += 1;
                    let full = self.history.plan_full(None);
                    self.send_child(i, full, AckPhase::Prepare, is_round, stack, ctx);
                    return;
                }
                if is_round {
                    // The shard cannot abort — the root already committed
                    // this epoch. Drop the child from the round; the
                    // reconciler (with backoff) keeps trying.
                    if let Some(round) = self.round.as_mut() {
                        round.pending.retain(|&a| a != from);
                    }
                    self.push_shard_phase(stack, ctx);
                }
                let b = self.children[i].resync_backoff.as_nanos();
                let next = (b * 2).clamp(
                    self.cfg.retry_base.as_nanos(),
                    self.cfg.fail_after.as_nanos() * 4,
                );
                self.children[i].resync_backoff = Time::from_nanos(next);
                self.children[i].next_resync = now + Time::from_nanos(next);
            }
            CtrlReply::Spans { spans, .. } => self.buffer_spans(spans),
            stats @ CtrlReply::Stats { .. } => self.record_stats(from, 1, stats),
            // An AggPong from a child is unexpected here; drop.
            CtrlReply::AggPong { .. } => {}
        }
    }

    fn buffer_spans(&mut self, spans: Vec<Span>) {
        self.spans_up.extend(spans);
        let cap = AGG_SPAN_BUDGET * 4;
        if self.spans_up.len() > cap {
            let excess = self.spans_up.len() - cap;
            self.spans_up.drain(..excess);
        }
    }
}

impl App for AggregatorApp {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if token == TICK {
            self.tick(stack, ctx);
        }
    }

    fn on_raw(&mut self, packet: Packet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(frame) = packet.ctrl.as_deref() else {
            return;
        };
        let L4Header::Udp(udp) = packet.l4 else {
            return;
        };
        let from = packet.ip.src;
        let payload = match self.reasm.accept(from, frame) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        self.wire.msgs_received += 1;
        self.wire.bytes_received += payload.len() as u64;
        if udp.dst_port == self.cfg.ctrl_port {
            // Root request. The request's message id doubles as `re`.
            let re = u32::from_le_bytes(frame[2..6].try_into().unwrap());
            let Ok((msg, _views, _ctx)) = proto::decode_msg_synced(&payload) else {
                return;
            };
            self.parent = Some(from);
            let reply = self.handle_parent_msg(re, msg);
            self.reply_seq = self.reply_seq.wrapping_add(1);
            let udp_out = UdpHeader {
                src_port: self.cfg.ctrl_port,
                dst_port: udp.src_port,
            };
            let encoded = proto::encode_reply(&reply);
            self.wire.msgs_sent += 1;
            self.wire.bytes_sent += encoded.len() as u64;
            for f in proto::fragment(self.reply_seq, &encoded) {
                stack.send_raw(Packet::ctrl(stack.addr, from, udp_out, f), ctx);
            }
            // A commit may have queued the shard round: open it now
            // rather than waiting out the tick.
            self.drive(stack, ctx);
        } else if udp.dst_port == self.cfg.src_port {
            // Child reply.
            let Ok((reply, deltas)) = proto::decode_reply_synced(&payload) else {
                return;
            };
            self.handle_child_reply(from, reply, deltas, stack, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::{star, table_ops, Star, Tap};
    use eden_core::MatchSpec;
    use eden_lang::{Access, HeaderField, Schema};

    fn schema() -> Schema {
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
    }

    fn epoch_ops(prio: u8) -> Vec<EnclaveOp> {
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        let func = eden_core::Controller::new()
            .plan_function("set_prio", &source, &schema())
            .expect("compiles");
        vec![
            EnclaveOp::Reset,
            func,
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            },
        ]
    }

    #[test]
    fn parent_two_phase_lands_in_history_and_queues_shard_round() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12]);
        let r = a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 0, "prepare must not commit");
        let r = a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 1);
        assert!(a.want_round, "commit queues the shard round");
        assert_eq!(a.history.len(), 2);
        assert_eq!(a.current().ops[0], EnclaveOp::Reset);
    }

    #[test]
    fn parent_delta_prepare_anchors_on_shadow_digest() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        let anchor = a.current().digest;

        // Anchored delta appends one rule.
        let delta_ops = vec![EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(eden_core::ClassId(4)),
            func: 0,
        }];
        let r = a.handle_parent_msg(
            3,
            CtrlMsg::DeltaPrepare {
                epoch: 2,
                base_digest: anchor,
                ops: delta_ops.clone(),
            },
        );
        assert!(matches!(r, CtrlReply::Ack { epoch: 2, .. }));
        a.handle_parent_msg(4, CtrlMsg::Commit { epoch: 2 });
        assert_eq!(a.committed_epoch(), 2);
        assert_eq!(a.current().model.rule_count(), 2);

        // A wrong anchor nacks with the digest-mismatch reason.
        let r = a.handle_parent_msg(
            5,
            CtrlMsg::DeltaPrepare {
                epoch: 3,
                base_digest: anchor ^ 1,
                ops: delta_ops,
            },
        );
        match r {
            CtrlReply::Nack { reason, .. } => {
                assert!(reason.contains("digest mismatch"), "reason: {reason}")
            }
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn agg_pong_summarizes_children() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12, 13]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        let want = (a.current().epoch, a.current().digest);
        a.children[0].reported = Some(want);
        a.children[1].reported = Some((0, 7)); // lagging
        a.children[2].reported = Some((want.0, 999)); // diverged

        let r = a.handle_parent_msg(
            3,
            CtrlMsg::AggSync {
                nonce: 9,
                views: Vec::new(),
            },
        );
        match r {
            CtrlReply::AggPong {
                nonce,
                epoch,
                hosts_total,
                hosts_synced,
                max_epoch,
                diverged,
                ..
            } => {
                assert_eq!(nonce, 9);
                assert_eq!(epoch, 1);
                assert_eq!(hosts_total, 3);
                assert_eq!(hosts_synced, 1);
                assert_eq!(max_epoch, 1);
                assert!(diverged, "digest-wrong child at the shard epoch");
            }
            other => panic!("expected AggPong, got {other:?}"),
        }
    }

    #[test]
    fn virtual_shard_converges_synchronously_and_scales_wire_tally() {
        let mut a = AggregatorApp::with_virtual_children(
            AggConfig::default(),
            1000,
            EnclaveConfig::default(),
        );
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        a.drive_virtual();
        assert_eq!(a.shard_size(), 1000);
        assert_eq!(a.shard_synced(), 1000);
        // prepare + commit, each fanned to every virtual child
        assert_eq!(a.wire().msgs_sent, 2000);
        assert!(a.wire().config_bytes_sent > 0);
    }

    #[test]
    fn virtual_shard_stats_are_the_templates_times_the_fleet() {
        let cfg = AggConfig::default();
        let agg = AggregatorApp::with_virtual_children(cfg.clone(), 1000, EnclaveConfig::default());
        let mut rack = star(900, agg, &[], &cfg.ctrl);
        let template = rack.app().virtual_shard.as_mut().expect("virtual");
        for _ in 0..3 {
            let mut p = netsim::Packet::udp(1, 2, UdpHeader::default(), 100);
            let enclave = template.agent.enclave_mut();
            enclave.process(&mut p, &mut netsim::SimRng::new(1), Time::ZERO);
        }
        // the first pull is answered before any child was asked
        let first = rack.app().handle_parent_msg(1, CtrlMsg::PullStats);
        assert!(
            matches!(first, CtrlReply::Stats { counters, .. } if counters == EnclaveCounters::default())
        );
        rack.run_ms(1);
        let CtrlReply::Stats { counters, .. } = rack.app().handle_parent_msg(2, CtrlMsg::PullStats)
        else {
            panic!("expected stats");
        };
        assert_eq!(counters.packets, 3000);
        assert!(counters.conserved());
        let wire = rack.app().wire();
        assert_eq!(wire.msgs_sent, 1000, "one pull to every virtual child");
        assert_eq!(wire.config_bytes_sent, 0, "a pull is not configuration");
    }

    const RACK: [u32; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

    /// A 16-child rack whose children have all reported in.
    fn rack() -> Star<AggregatorApp> {
        let cfg = AggConfig::default();
        let agg = AggregatorApp::new(cfg.clone(), &RACK);
        let mut rack = star(900, agg, &RACK, &cfg.ctrl);
        rack.run_ms(2);
        rack
    }

    /// The root pushes `ops` as `epoch`: prepare, then commit.
    fn push(rack: &mut Star<AggregatorApp>, epoch: u64, ops: Vec<EnclaveOp>) {
        let r = rack
            .app()
            .handle_parent_msg(1, CtrlMsg::Prepare { epoch, ops });
        assert!(matches!(r, CtrlReply::Ack { .. }), "{r:?}");
        let r = rack.app().handle_parent_msg(2, CtrlMsg::Commit { epoch });
        assert!(matches!(r, CtrlReply::Ack { .. }), "{r:?}");
    }

    /// The frames of the message `id`, its id zeroed.
    fn frames_of(tap: &Tap, id: u32) -> Vec<Vec<u8>> {
        let of_id = tap.frames.iter().filter(|f| f[2..6] == id.to_le_bytes());
        of_id
            .map(|f| {
                let mut f = f.clone();
                f[2..6].fill(0);
                f
            })
            .collect()
    }

    #[test]
    fn a_rack_on_one_base_is_sent_one_encoding() {
        let mut rack = rack();
        // 100 rules: the prepare spans several fragments
        push(&mut rack, 1, table_ops(5, 0..100));
        rack.run_ms(2);
        assert_eq!(rack.app().shard_synced(), 16);

        let mut ids = Vec::new();
        let mut first: Option<Vec<Vec<u8>>> = None;
        for child in 0..16 {
            let tap = rack.tap(child);
            let requests = tap.requests();
            let [(prepare, 1), (_, 2)] = requests[..] else {
                panic!("child {child} saw {requests:?}, not one prepare and one commit");
            };
            ids.push(prepare);
            let frames = frames_of(tap, prepare);
            assert!(frames.len() > 1, "{} frames", frames.len());
            match &first {
                None => first = Some(frames),
                Some(f) => assert_eq!(&frames, f, "child {child} differs beyond the message id"),
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16, "a fresh message id per child");
    }

    #[test]
    fn a_retry_resends_the_same_bytes_under_the_same_id() {
        let mut rack = rack();
        rack.tap(0).mute = true;
        push(&mut rack, 1, table_ops(5, 0..100));
        rack.run_ms(2); // retry_base is 0.5 ms: at least one retransmit

        let tap = rack.tap(0);
        let (id, tag) = tap.requests()[0];
        assert_eq!(tag, 1, "the prepare");
        assert!(
            tap.requests().iter().all(|&r| r == (id, 1)),
            "only ever the prepare, under one id: {:?}",
            tap.requests()
        );
        let frames = frames_of(tap, id);
        let copies = tap.requests().len();
        assert!(copies >= 2, "retransmitted");
        assert_eq!(frames.len() % copies, 0);
        let once = frames.len() / copies;
        for copy in frames.chunks(once) {
            assert_eq!(copy, &frames[..once]);
        }
    }

    #[test]
    fn a_delta_nacked_for_its_digest_gets_the_full_prepare_on_the_same_track() {
        let mut rack = rack();
        push(&mut rack, 1, table_ops(5, 0..100));
        rack.run_ms(2);
        assert_eq!(rack.app().shard_synced(), 16);
        rack.net.run_until(Time::from_micros(4_050)); // between heartbeats

        // Child 3 drifts after its last report: the aggregator still
        // believes it holds epoch 1's configuration.
        let e = rack.tap(3).agent.enclave_mut();
        assert!(e.remove_rule(eden_core::TableId(0), 7));
        for child in 0..16 {
            rack.tap(child).frames.clear();
        }
        push(&mut rack, 2, table_ops(5, 0..101));
        rack.run_ms(2);

        let tags = |tap: &Tap| tap.requests().iter().map(|r| r.1).collect::<Vec<u8>>();
        assert_eq!(tags(rack.tap(0)), [7, 2], "delta prepare, commit");
        assert_eq!(
            tags(rack.tap(3)),
            [7, 1, 2],
            "delta prepare (nacked), full prepare, commit — one round"
        );
        assert!(rack.app().round.is_none(), "the shard round closed");
        assert_eq!(rack.app().shard_synced(), 16);
        assert_eq!(rack.app().wire().delta_fallbacks, 1);
        let want = rack.app().current().digest;
        assert_eq!(rack.tap(3).agent.enclave().config_digest(), want);
    }

    #[test]
    fn stale_and_duplicate_parent_epochs_are_idempotent() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        // duplicate prepare of the active epoch: plain ack
        assert!(matches!(
            a.handle_parent_msg(
                3,
                CtrlMsg::Prepare {
                    epoch: 1,
                    ops: epoch_ops(5)
                }
            ),
            CtrlReply::Ack { .. }
        ));
        // stale prepare: nack
        assert!(matches!(
            a.handle_parent_msg(
                4,
                CtrlMsg::Prepare {
                    epoch: 0,
                    ops: epoch_ops(2)
                }
            ),
            CtrlReply::Nack { .. }
        ));
        // duplicate commit: ack, history unchanged
        let len = a.history.len();
        assert!(matches!(
            a.handle_parent_msg(5, CtrlMsg::Commit { epoch: 1 }),
            CtrlReply::Ack { .. }
        ));
        assert_eq!(a.history.len(), len);
    }
}
