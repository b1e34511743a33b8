//! The rack/pod aggregator: a mid-tier controller that makes root load
//! O(#aggregators) instead of O(#hosts).
//!
//! [`AggregatorApp`] is the two roles of the protocol composed. To the
//! *root* controller it is a `participant`: it answers `Prepare` /
//! `DeltaPrepare` / `Commit` / `Abort` on the shard's committed
//! [`Config`] and at most one staged one (validating ops and computing
//! the config digest exactly as a leaf would, with no enclave). To its
//! *children* it is a `Coordinator`: heartbeats, tracked
//! requests with retry and backoff, failure detection, two-phase shard
//! rounds, and per-child delta-planned resync. What is its own is the
//! roll-up between the two: [`CtrlMsg::AggSync`] is answered with a
//! [`CtrlReply::AggPong`] summarizing its whole shard — children total,
//! children converged, the highest epoch any child reports, a divergence
//! flag, the shard's replication deltas (host-tagged), and its trace
//! spans. A `PullStats` is answered with the sum of the last `Stats` each
//! child returned — the aggregator serves no packet — and makes it pull
//! its children again, so the root reads a rack's counters one pull
//! interval late. An aggregator keeps no flight recorder: it serves no
//! packet, and its epochs' record is the root's and its children's.
//!
//! The key design choice is that the shard is **autonomous**: the
//! aggregator acks the root's `Commit` as soon as it commits the epoch,
//! then walks its children through the epoch in its own round. Epochs are
//! therefore *per-shard* — a slow or partitioned host delays only its
//! rack's convergence, never the root's round — at the cost of a window
//! where shards serve different (root-ordered) epochs. The root's
//! convergence predicate
//! ([`ControllerApp::all_in_sync`](crate::ControllerApp::all_in_sync))
//! still waits for every shard to
//! finish, so nothing observable weakens for callers that wait for
//! convergence; only the failure domain shrinks. The same choice fixes
//! this tier's answer to a child that nacks the shard round's prepare:
//! the root has already committed the epoch, so the shard goes on without
//! the child, and a child it cannot heal — one *ahead* of the shard, or
//! at its epoch with the wrong digest; the aggregator cannot mint epochs
//! — is reported up via AggPong's `max_epoch`/`diverged` for the root to
//! outbid.
//!
//! Wiring: the aggregator's stack must *not* set a ctrl port — both the
//! root's requests (dst port = `ctrl_port`) and the children's replies
//! (dst port = `src_port`) then arrive via [`App::on_raw`], demuxed by
//! UDP destination port. Schedule its tick like the controller's:
//!
//! ```ignore
//! net.schedule_timer(agg_node, Time::ZERO, transport::app_timer_token(TICK));
//! ```

use eden_core::{ApplyError, Config, Enclave, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, FuncView};
use eden_telemetry::{ClusterStats, EnclaveCounters, HostReport, Ring, Span};
use netsim::{Ctx, L4Header, Packet, UdpHeader};
use transport::{App, Stack};

use crate::agent::EnclaveAgent;
use crate::controller::{transmit, CtrlConfig, WireCounters, TICK, TICK_EVERY};
use crate::coordinator::{Coordinator, Event};
use crate::delta::{encode_full, encode_shared, ConfigEntry, ConfigHistory, Plan};
use crate::participant::{self, Participant};
use crate::proto::{self, CtrlMsg, CtrlReply, Reassembler, Request, Response};

/// Most child spans one AggPong relays to the root.
const AGG_SPAN_BUDGET: usize = 64;

/// Aggregator knobs: the shared control-plane timing plus this tier's
/// own sizing, re-exported so scenarios configure one struct.
#[derive(Debug, Clone, Default)]
pub struct AggConfig {
    pub ctrl: CtrlConfig,
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
        let request = Request::decode(bytes).expect("this endpoint's own encoding");
        // prepares and commits are exchanged here, and stats pulls
        let epoch_config = !matches!(request.body, CtrlMsg::PullStats);
        self.seq = self.seq.wrapping_add(1);
        let reply = self.agent.handle(self.seq, request, 0);
        for _ in 0..self.count {
            wire.sent(bytes.len(), epoch_config);
        }
        let reply_len = reply.encode().expect("the template's reply").len();
        wire.msgs_received += self.count as u64;
        wire.bytes_received += (reply_len * self.count) as u64;
        reply.body
    }
}

/// A rack/pod aggregation tier endpoint (see module docs).
pub struct AggregatorApp {
    /// The epoch the root prepared and has not yet committed or aborted,
    /// and the configuration it leads to.
    staged: Option<(u64, Config)>,
    /// Committed versions, each a configuration and the full `Prepare`
    /// this tier encodes from it at commit — the ship for children whose
    /// base is unknown (the ReplHub-snapshot analogue). The current one
    /// is the shard's: what the participant role answers for.
    history: ConfigHistory,
    /// The coordinator role, over the children.
    coord: Coordinator,
    virtual_shard: Option<VirtualShard>,
    /// Host-tagged replication views from the last AggSync, fanned down
    /// on each child's next heartbeat.
    views_down: Vec<(u32, FuncView)>,
    /// Heartbeats sent without their child's views because the views did
    /// not fit one message.
    views_refused: u64,
    /// Latest replication delta per (child, function), fanned up on the
    /// next AggPong.
    deltas_up: Vec<(u32, FuncDelta)>,
    /// Child spans awaiting relay: the newest `4 × AGG_SPAN_BUDGET`.
    spans_up: Ring<Span>,
    /// The last `Stats` each child returned (a virtual shard's whole
    /// fleet under one entry): what a parent's `PullStats` is answered
    /// from.
    shard_stats: ClusterStats,
    /// The parent pulled stats; pull the children's when the stack is
    /// next in hand.
    want_stats: bool,
    reasm: Reassembler,
    reply_seq: u32,
    wire: WireCounters,
}

impl AggregatorApp {
    /// An aggregator fronting the enclave agents at `children`.
    pub fn new(cfg: AggConfig, children: &[u32]) -> AggregatorApp {
        AggregatorApp {
            staged: None,
            history: ConfigHistory::new(),
            coord: Coordinator::new(cfg.ctrl, children),
            virtual_shard: None,
            views_down: Vec::new(),
            views_refused: 0,
            deltas_up: Vec::new(),
            spans_up: Ring::new(AGG_SPAN_BUDGET * 4),
            shard_stats: ClusterStats::new(),
            want_stats: false,
            reasm: Reassembler::default(),
            reply_seq: 0,
            wire: WireCounters::default(),
        }
    }

    /// An aggregator fronting `count` in-process virtual children (see
    /// `VirtualShard`); `enclave_cfg` sizes the template enclave —
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
        self.current().epoch
    }

    /// Children (real or virtual) this aggregator fronts.
    pub fn shard_size(&self) -> usize {
        match &self.virtual_shard {
            Some(v) => v.count,
            None => self.coord.peers().len(),
        }
    }

    /// Children currently converged to the shard's committed config.
    pub fn shard_synced(&self) -> usize {
        self.roll_up().0 as usize
    }

    /// Control-wire load counters at this endpoint (both faces).
    pub fn wire(&self) -> WireCounters {
        self.wire
    }

    /// Heartbeats that went to a child without its replication views,
    /// because the views the parent's `AggSync` gave it did not fit one
    /// message. The child keeps its previous views until a later sync
    /// fits.
    pub fn views_refused(&self) -> u64 {
        self.views_refused
    }

    fn current(&self) -> &ConfigEntry {
        self.history.current()
    }

    // ------------------------------------------------------------------
    // parent face
    // ------------------------------------------------------------------

    /// Handle one reassembled root request, whose message id is `re`.
    /// Pure with respect to the network: child fan-out waits for
    /// [`App::on_raw`] / [`App::on_timer`], which hold the stack. Public
    /// for direct unit testing.
    pub fn handle_parent_msg(&mut self, re: u32, msg: CtrlMsg) -> CtrlReply {
        match msg {
            CtrlMsg::AggSync { nonce, views } => {
                self.views_down = views;
                self.agg_pong(re, nonce)
            }
            CtrlMsg::PullStats => {
                // The aggregator serves no packet: the shard's stats are
                // its children's, as of the previous pull.
                self.want_stats = true;
                let reports = self.shard_stats.reports();
                let (epoch, digest) = self.served();
                CtrlReply::Stats {
                    re,
                    epoch,
                    digest,
                    captured_at_ns: reports.iter().map(|r| r.captured_at_ns).max().unwrap_or(0),
                    counters: self.shard_stats.totals(),
                    latencies: self.shard_stats.merged_latencies(),
                }
            }
            CtrlMsg::PullTrace { max } => CtrlReply::Spans {
                re,
                spans: self.spans_up.drain(max as usize).collect(),
            },
            phase => participant::answer(self, re, phase),
        }
    }

    /// `(children converged, highest epoch a child reports, some child
    /// at or past the shard's epoch without holding its config)`.
    fn roll_up(&self) -> (u32, u64, bool) {
        let want = self.served();
        if let Some(v) = &self.virtual_shard {
            let e = v.agent.enclave();
            let at = (e.active_epoch(), e.config_digest());
            return (if at == want { v.count as u32 } else { 0 }, at.0, false);
        }
        let (mut synced, mut max_epoch, mut diverged) = (0, 0, false);
        for r in self.coord.peers().iter().filter_map(|c| c.report) {
            max_epoch = max_epoch.max(r.epoch);
            if (r.epoch, r.digest) == want {
                synced += 1;
            } else if r.epoch >= want.0 {
                diverged = true;
            }
        }
        (synced, max_epoch, diverged)
    }

    /// Summarize the shard for the root.
    fn agg_pong(&mut self, re: u32, nonce: u64) -> CtrlReply {
        let (hosts_synced, max_epoch, diverged) = self.roll_up();
        let (epoch, digest) = self.served();
        CtrlReply::AggPong {
            re,
            nonce,
            epoch,
            digest,
            hosts_total: self.shard_size() as u32,
            hosts_synced,
            max_epoch,
            diverged,
            deltas: std::mem::take(&mut self.deltas_up),
            spans: self.spans_up.drain(AGG_SPAN_BUDGET).collect(),
        }
    }

    // ------------------------------------------------------------------
    // child face
    // ------------------------------------------------------------------

    fn tick(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        // Each child's heartbeat carries its replication views from the
        // last AggSync fan-down. A parent can hand one child more views
        // than a message carries: that child's heartbeat goes without
        // them, and the refusal is counted.
        let (views_down, refused) = (&self.views_down, &mut self.views_refused);
        self.coord
            .tick(ctx.now(), ctx.rng(), &self.history, |to, nonce| {
                let views = views_down.iter().filter(|(h, _)| *h == to);
                let frame = Request {
                    repl: views.map(|(_, v)| v.clone()).collect(),
                    ..CtrlMsg::Heartbeat { nonce }.into()
                };
                frame.encode().unwrap_or_else(|_| {
                    *refused += 1;
                    let bare = Request::from(CtrlMsg::Heartbeat { nonce });
                    bare.encode().expect("a heartbeat without views fits")
                })
            });
        self.settle(stack, ctx);
        ctx.timer_in(TICK_EVERY, transport::app_timer_token(TICK));
    }

    /// Act on what the coordinator left to this tier, then put what it
    /// queued on the wire. Called wherever the stack is in hand.
    fn settle(&mut self, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if std::mem::take(&mut self.want_stats) {
            self.pull_shard_stats();
        }
        while let Some(event) = self.coord.next_event() {
            match event {
                Event::Count(bump) => bump(&mut self.wire),
                // The shard cannot abort — the root already committed
                // this epoch.
                Event::PrepareNacked { peer } => self.coord.shelve(peer, ctx.now(), ctx.rng()),
                // What only a root acts on: it keeps the round-trip and
                // convergence histograms, and a child ahead of the shard
                // reaches it in the next AggPong.
                Event::Rtt(_) | Event::RoundDone { .. } | Event::Ahead { .. } => {}
            }
        }
        transmit(&mut self.coord, &mut self.wire, stack, ctx);
    }

    /// Ask every child for its stats. A virtual shard's template answers
    /// for the fleet: its counters times `count`, its histograms as they
    /// are (their percentiles do not change with the number of copies).
    fn pull_shard_stats(&mut self) {
        let pull = encode_shared(CtrlMsg::PullStats, None);
        match self.virtual_shard.as_mut() {
            Some(v) => {
                let (reply, copies) = (v.exchange(&pull, &mut self.wire), v.count as u64);
                self.record_stats(0, copies, reply);
            }
            None => self.coord.post_up(&[pull]),
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
    fn converge_virtual(&mut self, mut v: VirtualShard) -> VirtualShard {
        let epoch = self.current().epoch;
        let e = v.agent.enclave();
        let at = (e.active_epoch(), e.config_digest());
        let delta_updates = self.coord.cfg.delta_updates;
        let prep = self.history.plan_prepare(Some(at), delta_updates, None);
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
        let commit = Plan::phase(CtrlMsg::Commit { epoch }, None);
        v.exchange(&commit.bytes, &mut self.wire);
        v
    }

    fn handle_child_reply(
        &mut self,
        from: u32,
        frame: Response,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let Some(child) = self.coord.heard(from, now) else {
            return;
        };
        match frame.body {
            CtrlReply::Pong {
                epoch,
                digest,
                spans,
                ..
            } => {
                child.said(epoch, digest);
                self.spans_up.extend(spans);
                for d in frame.repl {
                    self.deltas_up
                        .retain(|(h, existing)| !(*h == from && existing.func == d.func));
                    self.deltas_up.push((from, d));
                }
            }
            CtrlReply::Ack { re, epoch, phase } => {
                let (rng, history) = (ctx.rng(), &self.history);
                self.coord.ack(from, re, epoch, phase, now, rng, history);
            }
            CtrlReply::Nack { re, epoch, .. } => {
                let (rng, history) = (ctx.rng(), &self.history);
                self.coord.nack(from, re, epoch, now, rng, history);
            }
            CtrlReply::Spans { spans, .. } => self.spans_up.extend(spans),
            stats @ CtrlReply::Stats { .. } => self.record_stats(from, 1, stats),
            // An AggPong from a child is unexpected here; drop.
            CtrlReply::AggPong { .. } => {}
        }
        self.settle(stack, ctx);
    }
}

/// The parent face: the participant role, played on the shard's
/// committed version and the one the root staged. What joins it to the
/// coordinator role is the commit: the staged version becomes the shard's
/// current one, which the children are then walked to.
impl Participant for AggregatorApp {
    fn served(&self) -> (u64, u64) {
        (self.current().epoch, self.current().digest)
    }

    fn stage(&mut self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<(), ApplyError> {
        self.staged = Some((epoch, self.current().config.apply(&ops)?));
        Ok(())
    }

    fn commit(&mut self, epoch: u64) -> Result<bool, String> {
        let Some((_, config)) = self.staged.take_if(|(e, _)| *e == epoch) else {
            return Ok(self.current().epoch == epoch && self.staged.is_none());
        };
        // A version this tier could not ship in full to a child is not
        // committed: the root's resync keeps asking, with backoff, and the
        // other racks converge.
        let full =
            encode_full(&config, epoch).map_err(|e| format!("the shard's full ship: {e}"))?;
        self.history.push(epoch, config, full);
        // The root's round is done with us; now walk the shard through the
        // epoch in our own round.
        match self.virtual_shard.take() {
            Some(v) => self.virtual_shard = Some(self.converge_virtual(v)),
            None => self.coord.request_round(None),
        }
        Ok(true)
    }

    // Children never saw the aborted epoch: the shard round only starts at
    // commit.
    fn abort(&mut self, epoch: u64) {
        self.staged.take_if(|(e, _)| *e == epoch);
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
        let (msg_id, payload) = match self.reasm.accept(from, frame) {
            Ok(Some(message)) => message,
            Ok(None) | Err(_) => return,
        };
        self.wire.msgs_received += 1;
        self.wire.bytes_received += payload.len() as u64;
        if udp.dst_port == self.coord.cfg.ctrl_port {
            // Root request. The request's message id doubles as `re`.
            let Ok(request) = Request::decode(&payload) else {
                return;
            };
            // (a reply too large for the wire is dropped like a frame
            // that does not decode: the root's retry covers both)
            let reply = Response::from(self.handle_parent_msg(msg_id, request.body));
            let Ok(encoded) = reply.encode() else {
                return;
            };
            self.reply_seq = self.reply_seq.wrapping_add(1);
            let udp_out = UdpHeader {
                src_port: self.coord.cfg.ctrl_port,
                dst_port: udp.src_port,
            };
            self.wire.sent(encoded.len(), false);
            for f in proto::fragment(self.reply_seq, &encoded) {
                stack.send_raw(Packet::ctrl(stack.addr, from, udp_out, f), ctx);
            }
            // A commit may have queued the shard round: open it now
            // rather than waiting out the tick.
            self.coord.step(ctx.now(), ctx.rng(), &self.history);
            self.settle(stack, ctx);
        } else if udp.dst_port == self.coord.cfg.src_port {
            // Child reply.
            let Ok(reply) = Response::decode(&payload) else {
                return;
            };
            self.handle_child_reply(from, reply, stack, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::prio_epoch;
    use crate::proto::read_fragment;
    use crate::testnet::{star, table_ops, Star, Tap};
    use eden_core::{EnclaveOp, MatchSpec};
    use netsim::Time;

    #[test]
    fn parent_two_phase_lands_in_history_and_queues_shard_round() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12]);
        let r = a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
        );
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 0, "prepare must not commit");
        let r = a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 1);
        assert!(a.coord.round_active(), "commit queues the shard round");
        assert_eq!(a.history.len(), 2);
        let shipped = Request::decode(&a.current().full).expect("a full prepare");
        let CtrlMsg::Prepare { epoch: 1, ops } = shipped.body else {
            panic!("not the epoch's prepare: {:?}", shipped.body);
        };
        assert_eq!(ops[0], EnclaveOp::Reset);
    }

    #[test]
    fn parent_delta_prepare_anchors_on_the_committed_digest() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
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
        assert_eq!(a.current().config.tables()[0].len(), 2);

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

    // A rule off the wire naming a function index no table word can hold
    // gets a nack, as any unknown function does, and nothing is staged.
    #[test]
    fn a_rule_past_every_function_is_nacked() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        let mut ops = prio_epoch(5);
        ops.push(EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(eden_core::ClassId(9)),
            func: 1 << 31,
        });
        let wire = proto::encode_prepare(1, &ops).expect("fits the wire");
        let prepare = Request::decode(&wire).expect("decodes").body;
        match a.handle_parent_msg(1, prepare) {
            CtrlReply::Nack { reason, .. } => assert!(reason.contains("function"), "{reason}"),
            other => panic!("expected a nack, got {other:?}"),
        }
        assert!(a.staged.is_none(), "the configuration is not kept");
        let r = a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        assert!(!matches!(r, CtrlReply::Ack { .. }), "{r:?}");
        assert_eq!(a.committed_epoch(), 0);
    }

    // A delta can lead to a version whose Reset-led rebuild no longer fits
    // one message although every message that built it did.
    #[test]
    fn a_version_the_shard_could_not_ship_in_full_is_not_committed() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        let table = table_ops(5, 0..60_000);
        let ack = |r: CtrlReply| assert!(matches!(r, CtrlReply::Ack { .. }), "{r:?}");
        ack(a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: table,
            },
        ));
        ack(a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 }));
        let more = CtrlMsg::DeltaPrepare {
            epoch: 2,
            base_digest: a.current().digest,
            ops: table_ops(5, 60_000..70_000).split_off(2),
        };
        ack(a.handle_parent_msg(3, more));
        match a.handle_parent_msg(4, CtrlMsg::Commit { epoch: 2 }) {
            CtrlReply::Nack { reason, .. } => assert!(reason.contains("full ship"), "{reason}"),
            other => panic!("expected a nack, got {other:?}"),
        }
        assert_eq!(a.committed_epoch(), 1);
        assert_eq!(a.current().config.tables()[0].len(), 60_000);
        assert!(a.staged.is_none(), "the refused version is dropped");
    }

    #[test]
    fn agg_pong_summarizes_children() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12, 13]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        let want = (a.current().epoch, a.current().digest);
        let reports = [want, (0, 7), (want.0, 999)]; // in sync, lagging, diverged
        for (child, (epoch, digest)) in [11, 12, 13].into_iter().zip(reports) {
            let heard = a.coord.heard(child, Time::ZERO).expect("a child");
            heard.said(epoch, digest);
        }

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
    fn spans_up_keeps_the_newest_four_budgets() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        let span = |i: u64| Span {
            trace_id: 1,
            span_id: i,
            parent_span: 0,
            host: 11,
            name: "prepare".into(),
            start_ns: i,
            end_ns: i,
        };
        let cap = 4 * AGG_SPAN_BUDGET as u64;
        for burst in (0..cap + 100).collect::<Vec<_>>().chunks(48) {
            a.spans_up.extend(burst.iter().map(|&i| span(i)));
        }
        let CtrlReply::AggPong { spans, .. } = a.handle_parent_msg(
            1,
            CtrlMsg::AggSync {
                nonce: 1,
                views: Vec::new(),
            },
        ) else {
            panic!("expected AggPong");
        };
        let first: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(
            first,
            (100..100 + AGG_SPAN_BUDGET as u64).collect::<Vec<_>>()
        );
        let CtrlReply::Spans { spans, .. } =
            a.handle_parent_msg(2, CtrlMsg::PullTrace { max: u16::MAX })
        else {
            panic!("expected Spans");
        };
        let rest: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(
            rest,
            (100 + AGG_SPAN_BUDGET as u64..cap + 100).collect::<Vec<_>>()
        );
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
                ops: prio_epoch(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
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

    /// The frames of the message `id`: each one's index, count and
    /// chunk, everything but the id.
    fn frames_of(tap: &Tap, id: u32) -> Vec<(u16, u16, Vec<u8>)> {
        let frames = tap
            .frames
            .iter()
            .map(|f| read_fragment(f).expect("a control frame"));
        frames
            .filter(|(h, _)| h.msg_id == id)
            .map(|(h, chunk)| (h.idx, h.count, chunk.to_vec()))
            .collect()
    }

    /// The heartbeat frames child `leaf` recorded, decoded.
    fn heartbeats(rack: &mut Star<AggregatorApp>, leaf: usize) -> Vec<Request> {
        let heartbeat = CtrlMsg::Heartbeat { nonce: 0 }.tag();
        let frames = rack.tap(leaf).frames.iter();
        let chunks = frames.map(|f| read_fragment(f).expect("a control frame").1);
        chunks
            .filter(|chunk| chunk[0] == heartbeat)
            .map(|chunk| Request::decode(chunk).expect("a heartbeat"))
            .collect()
    }

    #[test]
    fn views_past_one_message_are_refused_and_the_other_children_keep_theirs() {
        // Two views of over half a message each for the first child, one
        // small view for the second. The root's encoder refuses a message
        // this long, but a fragment may be of any length, so it can
        // arrive: written with the codec's own view encoding, reassembled
        // and decoded as any AggSync is.
        let half = proto::MAX_FRAGS * proto::MAX_CHUNK / 2;
        let view = |func, bytes: usize| FuncView {
            func,
            remote_arrays: vec![(0, vec![7; bytes / 8])],
            ..FuncView::default()
        };
        let views = vec![
            (RACK[0], view(1, half)),
            (RACK[0], view(2, half)),
            (RACK[1], view(1, 64)),
        ];
        let mut w = eden_telemetry::le::Writer::default();
        w.u8(CtrlMsg::AggSync {
            nonce: 0,
            views: Vec::new(),
        }
        .tag());
        w.u64(9);
        w.seq(2, &views, |w, (host, v)| {
            w.u32(*host);
            proto::put_view(w, v);
        });
        let payload = w.finish().expect("counts fit");
        assert!(payload.len() > proto::MAX_FRAGS * proto::MAX_CHUNK);
        let mut frame = proto::fragment(5, &[]).remove(0);
        frame.extend_from_slice(&payload);
        let mut reasm = Reassembler::default();
        let (re, bytes) = reasm.accept(900, &frame).expect("a frame").expect("whole");
        let sync = Request::decode(&bytes).expect("an AggSync").body;

        let mut rack = rack();
        let r = rack.app().handle_parent_msg(re, sync);
        assert!(matches!(r, CtrlReply::AggPong { nonce: 9, .. }), "{r:?}");
        // heartbeats sent before the sync land first
        rack.run_ms(1);
        let before = rack.app().views_refused();
        for child in 0..RACK.len() {
            rack.tap(child).frames.clear();
        }
        rack.run_ms(3);

        let refused = rack.app().views_refused() - before;
        let to_first = heartbeats(&mut rack, 0);
        assert!(to_first.len() >= 2, "the aggregator keeps ticking");
        assert!(to_first.iter().all(|h| h.repl.is_empty()));
        assert_eq!(refused, to_first.len() as u64, "one refusal a heartbeat");
        let to_second = heartbeats(&mut rack, 1);
        assert_eq!(to_second.len(), to_first.len());
        assert!(to_second.iter().all(|h| h.repl == [views[2].1.clone()]));
        let to_third = heartbeats(&mut rack, 2);
        assert!(
            to_third.iter().all(|h| h.repl.is_empty()),
            "no views of its own"
        );
    }

    #[test]
    fn a_rack_on_one_base_is_sent_one_encoding() {
        let mut rack = rack();
        // 100 rules: the prepare spans several fragments
        push(&mut rack, 1, table_ops(5, 0..100));
        rack.run_ms(2);
        assert_eq!(rack.app().shard_synced(), 16);

        let mut ids = Vec::new();
        let mut first: Option<Vec<(u16, u16, Vec<u8>)>> = None;
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
        rack.run_ms(2); // RETRY_BASE is 0.5 ms: at least one retransmit

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
        assert!(!rack.app().coord.round_active(), "the shard round closed");
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
                ops: prio_epoch(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        // duplicate prepare of the active epoch: plain ack
        assert!(matches!(
            a.handle_parent_msg(
                3,
                CtrlMsg::Prepare {
                    epoch: 1,
                    ops: prio_epoch(5)
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
                    ops: prio_epoch(2)
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
