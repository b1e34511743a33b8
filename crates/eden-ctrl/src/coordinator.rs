//! The coordinator role of the two-phase protocol: one peer table, one
//! round, and the request each peer has outstanding — a state machine
//! with no I/O, no clock and no randomness of its own.
//!
//! The tier that owns a [`Coordinator`] feeds it virtual time, the
//! simulation RNG and what its peers said ([`tick`](Coordinator::tick),
//! [`heard`](Coordinator::heard), [`ack`](Coordinator::ack),
//! [`nack`](Coordinator::nack)), puts what it queued in
//! [`outbox`](Coordinator::outbox) on the wire, and reads
//! [`Event`]s for everything that is the tier's call rather than the
//! protocol's. The root [`ControllerApp`](crate::ControllerApp) runs one
//! over its hosts and aggregators; an
//! [`AggregatorApp`](crate::AggregatorApp) runs one over its children.
//! What differs between them is what they do with an event, never a
//! branch in here.
//!
//! * **Rounds are two-phase**: `Prepare` to every live peer, and only
//!   when *all* of them ack does `Commit` go out — so the peers can never
//!   serve a mix of old and new epochs because half of them raced ahead.
//! * **Every epoch-phase request is tracked**: retried with the same
//!   bytes under the same message id, with exponential backoff and
//!   jitter, until its ack or nack arrives; message ids correlate
//!   replies, so a late duplicate ack can never be mistaken for the
//!   answer to a newer request.
//! * **Failure detection** is heartbeat-driven: a peer that stays silent
//!   past `fail_after`, or exhausts a request's retries, is marked
//!   [`HostStatus::Down`] and dropped from the current round (2PC over an
//!   asynchronous network cannot wait forever); heartbeats keep flowing
//!   so its rejoin is noticed.
//! * **Reconciliation** closes the loop: with no round in flight, any
//!   peer whose report is behind the history's current version gets an
//!   individual prepare/commit resync — this is how a partitioned host
//!   catches up after the partition heals.

use std::collections::VecDeque;
use std::rc::Rc;

use eden_telemetry::{TraceContext, WireCounters};
use netsim::{SimRng, Time};

use crate::controller::{CtrlConfig, HEARTBEAT_EVERY, MAX_RETRIES, RETRY_BASE, RETRY_MAX};
use crate::delta::{ConfigHistory, Plan};
use crate::proto::{AckPhase, CtrlMsg};

/// Liveness verdict for one managed peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStatus {
    /// Answering heartbeats (or not yet past the silence threshold).
    Up,
    /// Silent past `fail_after`, or exhausted a request's retries.
    Down,
}

/// What a peer last said it serves — and, when the peer is an
/// aggregator, what it said of the shard behind it (zeros for a leaf).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Report {
    pub(crate) epoch: u64,
    pub(crate) digest: u64,
    /// Children converged to the aggregator's `(epoch, digest)`.
    pub(crate) synced: u32,
    /// Highest epoch any child reports.
    pub(crate) max_epoch: u64,
    /// Some child serves the aggregator's epoch with a wrong digest.
    pub(crate) diverged: bool,
}

/// The one epoch-phase request a peer has outstanding.
struct Tracked {
    id: u32,
    /// The encoded request, trace trailer included, as first sent: a
    /// retry puts the same bytes back on the wire under the same id.
    plan: Plan,
    phase: AckPhase,
    /// Part of the round, not an individual resync.
    in_round: bool,
    retries: u32,
    next_retry: Time,
    /// Trace context the bytes carry: a delta's full-ship fallback stays
    /// in the same trace.
    trace: Option<TraceContext>,
    /// When the most recent transmission left, for [`Event::Rtt`].
    sent_at: Time,
}

pub(crate) struct Peer {
    pub(crate) addr: u32,
    pub(crate) status: HostStatus,
    /// `None` until the peer is first heard.
    pub(crate) report: Option<Report>,
    last_heard: Time,
    tracked: Option<Tracked>,
    next_heartbeat: Time,
    /// Earliest time the reconciler may try this peer again after a
    /// failed resync (doubles per failure, resets on success).
    next_resync: Time,
    resync_backoff: Time,
}

impl Peer {
    fn new(addr: u32) -> Peer {
        Peer {
            addr,
            status: HostStatus::Up,
            report: None,
            last_heard: Time::ZERO,
            tracked: None,
            next_heartbeat: Time::ZERO,
            next_resync: Time::ZERO,
            resync_backoff: Time::ZERO,
        }
    }

    /// The peer serves `(epoch, digest)`; what it said of its shard stands.
    pub(crate) fn said(&mut self, epoch: u64, digest: u64) {
        let report = self.report.get_or_insert_with(Report::default);
        (report.epoch, report.digest) = (epoch, digest);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundPhase {
    Preparing,
    Committing,
    Aborting,
}

struct Round {
    epoch: u64,
    phase: RoundPhase,
    /// Peers whose ack for the current phase is still outstanding.
    pending: Vec<u32>,
    /// Peers that acked `Prepare` (the commit fan-out set).
    acked: Vec<u32>,
    trace: Option<TraceContext>,
    opened_at: Time,
}

/// One message for the wire: `bytes` to `to` under message id `id`.
pub(crate) struct Outgoing {
    pub(crate) to: u32,
    pub(crate) id: u32,
    pub(crate) bytes: Rc<[u8]>,
    /// Epoch configuration (a prepare, commit or abort), for
    /// [`WireCounters::sent`].
    pub(crate) is_config: bool,
}

/// What the coordinator leaves to its tier.
#[derive(Debug)]
pub(crate) enum Event {
    /// A tracked request was answered this long after its latest
    /// transmission, nanoseconds.
    Rtt(u64),
    /// Something to count on the endpoint's `ctrl_wire` row.
    Count(fn(&mut WireCounters)),
    /// The round is over: committed on every peer still reachable, or
    /// closed without a commit (aborted, or every target died).
    RoundDone {
        committed: bool,
        opened_at: Time,
        trace: Option<TraceContext>,
    },
    /// `peer` refused the round's prepare (a delta had its full-ship
    /// fallback first). The round waits on the tier:
    /// [`abort_round`](Coordinator::abort_round) or
    /// [`shelve`](Coordinator::shelve).
    PrepareNacked { peer: u32 },
    /// `peer` reports `digest` at `epoch`, at or past the current version
    /// without being it — or vouches for a shard that does. No resync can
    /// heal that; only a tier that mints epochs can outbid it.
    Ahead { peer: u32, epoch: u64, digest: u64 },
}

/// A fresh draw of retransmit jitter: up to half of [`RETRY_BASE`].
fn jitter(rng: &mut SimRng) -> Time {
    Time::from_nanos(rng.below(RETRY_BASE.as_nanos() / 2 + 1))
}

pub(crate) struct Coordinator {
    pub(crate) cfg: CtrlConfig,
    peers: Vec<Peer>,
    round: Option<Round>,
    /// A round was asked for (with this trace context); it opens on the
    /// next [`step`](Self::step) that finds none in flight.
    wanted: Option<Option<TraceContext>>,
    msg_seq: u32,
    nonce_seq: u64,
    /// Sends in wire order; the tier drains it after every call.
    pub(crate) outbox: Vec<Outgoing>,
    events: VecDeque<Event>,
}

impl Coordinator {
    pub(crate) fn new(cfg: CtrlConfig, peers: &[u32]) -> Coordinator {
        Coordinator {
            cfg,
            peers: peers.iter().map(|&addr| Peer::new(addr)).collect(),
            round: None,
            wanted: None,
            msg_seq: 0,
            nonce_seq: 0,
            outbox: Vec::new(),
            events: VecDeque::new(),
        }
    }

    pub(crate) fn add_peer(&mut self, addr: u32) {
        self.peers.push(Peer::new(addr));
    }

    pub(crate) fn peers(&self) -> &[Peer] {
        &self.peers
    }

    pub(crate) fn peer(&self, addr: u32) -> Option<&Peer> {
        self.peers.iter().find(|p| p.addr == addr)
    }

    fn index(&self, addr: u32) -> Option<usize> {
        self.peers.iter().position(|p| p.addr == addr)
    }

    /// Whether a round is in flight or asked for.
    pub(crate) fn round_active(&self) -> bool {
        self.round.is_some() || self.wanted.is_some()
    }

    /// Ask for a round to the history's current version, its messages
    /// carrying `trace`.
    pub(crate) fn request_round(&mut self, trace: Option<TraceContext>) {
        self.wanted = Some(trace);
    }

    pub(crate) fn next_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Queue the untracked message `bytes` (a heartbeat, a pull) to `to`.
    fn post(&mut self, to: u32, bytes: Rc<[u8]>) {
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.outbox.push(Outgoing {
            to,
            id: self.msg_seq,
            bytes,
            is_config: false,
        });
    }

    /// Queue each of the untracked `msgs`, in turn, to every Up peer.
    pub(crate) fn post_up(&mut self, msgs: &[Rc<[u8]>]) {
        for i in 0..self.peers.len() {
            if self.peers[i].status == HostStatus::Up {
                for bytes in msgs {
                    self.post(self.peers[i].addr, Rc::clone(bytes));
                }
            }
        }
    }

    /// Queue `plan` to peer `i` under a fresh message id and make it the
    /// peer's tracked request (superseding any other).
    #[allow(clippy::too_many_arguments)]
    fn track(
        &mut self,
        i: usize,
        plan: Plan,
        phase: AckPhase,
        in_round: bool,
        trace: Option<TraceContext>,
        now: Time,
        rng: &mut SimRng,
    ) {
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.outbox.push(Outgoing {
            to: self.peers[i].addr,
            id: self.msg_seq,
            bytes: Rc::clone(&plan.bytes),
            is_config: true,
        });
        self.peers[i].tracked = Some(Tracked {
            id: self.msg_seq,
            plan,
            phase,
            in_round,
            retries: 0,
            next_retry: now + RETRY_BASE + jitter(rng),
            trace,
            sent_at: now,
        });
    }

    /// The prepare for a peer whose last report is `base`.
    fn plan(
        &mut self,
        history: &ConfigHistory,
        base: Option<(u64, u64)>,
        trace: Option<&TraceContext>,
    ) -> Plan {
        let forgotten = |(epoch, digest): (u64, u64)| history.digest_of(epoch) != Some(digest);
        if self.cfg.delta_updates && base.is_some_and(forgotten) {
            self.events
                .push_back(Event::Count(|w| w.unknown_base_fulls += 1));
        }
        history.plan_prepare(base, self.cfg.delta_updates, trace)
    }

    /// One periodic step: failure detection, heartbeats (`heartbeat`
    /// encodes the one for a peer, given its address and nonce),
    /// retransmits, then [`step`](Self::step).
    pub(crate) fn tick(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        history: &ConfigHistory,
        mut heartbeat: impl FnMut(u32, u64) -> Vec<u8>,
    ) {
        // Silence past the threshold takes a peer out of the current
        // round (and marks it Down). Heartbeats continue, so a later
        // reply flips it back Up.
        for i in 0..self.peers.len() {
            let peer = &self.peers[i];
            let silent = now.as_nanos().saturating_sub(peer.last_heard.as_nanos());
            if peer.status == HostStatus::Up && silent > self.cfg.fail_after.as_nanos() {
                self.mark_down(i);
            }
        }

        // Heartbeats are fire-and-forget; the reply, not the send, is
        // tracked — via `last_heard`.
        for i in 0..self.peers.len() {
            if now >= self.peers[i].next_heartbeat {
                self.nonce_seq += 1;
                let to = self.peers[i].addr;
                self.post(to, heartbeat(to, self.nonce_seq).into());
                self.peers[i].next_heartbeat = now + HEARTBEAT_EVERY;
            }
        }

        // Retransmits, with exponential backoff + jitter. Exhausted
        // retries count as peer failure.
        for i in 0..self.peers.len() {
            let peer = &mut self.peers[i];
            let Some(tracked) = peer.tracked.as_mut() else {
                continue;
            };
            if now < tracked.next_retry {
                continue;
            }
            if tracked.retries >= MAX_RETRIES {
                self.mark_down(i);
                continue;
            }
            // Retries reuse the message id and the bytes: the receiver's
            // reassembler and handlers are idempotent, and the reply still
            // correlates.
            self.outbox.push(Outgoing {
                to: peer.addr,
                id: tracked.id,
                bytes: Rc::clone(&tracked.plan.bytes),
                is_config: true,
            });
            tracked.retries += 1;
            // RTT measures the *latest* transmission, not the first try.
            tracked.sent_at = now;
            let base = RETRY_BASE.as_nanos() << tracked.retries.min(20);
            let backoff = Time::from_nanos(base.min(RETRY_MAX.as_nanos()));
            tracked.next_retry = now + backoff + jitter(rng);
        }

        self.step(now, rng, history);
    }

    /// Whatever can happen without hearing anything new: move a round
    /// nobody is left to wait for, open the round that was asked for,
    /// and — with no round in flight — resync the peers that lag.
    pub(crate) fn step(&mut self, now: Time, rng: &mut SimRng, history: &ConfigHistory) {
        self.advance(now, rng);
        if self.round.is_none() {
            if let Some(trace) = self.wanted.take() {
                self.open_round(now, rng, history, trace);
            }
        }
        if self.round.is_none() {
            self.reconcile(now, rng, history);
        }
    }

    fn mark_down(&mut self, i: usize) {
        self.peers[i].status = HostStatus::Down;
        self.peers[i].tracked = None;
        self.leave_round(self.peers[i].addr);
    }

    fn leave_round(&mut self, addr: u32) {
        if let Some(round) = self.round.as_mut() {
            round.pending.retain(|&a| a != addr);
        }
    }

    fn open_round(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        history: &ConfigHistory,
        trace: Option<TraceContext>,
    ) {
        let mut pending = Vec::new();
        // Most of a converged fleet shares one base config, so plans are
        // cached per reported (epoch, digest) — one diff, encoded once,
        // serves every peer on that base and each of their retries.
        let mut plans: Vec<(Option<(u64, u64)>, Plan)> = Vec::new();
        for i in 0..self.peers.len() {
            if self.peers[i].status != HostStatus::Up {
                continue;
            }
            let base = self.peers[i].report.map(|r| (r.epoch, r.digest));
            let plan = match plans.iter().find(|(b, _)| *b == base) {
                Some((_, p)) => p.clone(),
                None => {
                    let p = self.plan(history, base, trace.as_ref());
                    plans.push((base, p.clone()));
                    p
                }
            };
            // An individual resync in flight is superseded by the round.
            self.track(i, plan, AckPhase::Prepare, true, trace, now, rng);
            pending.push(self.peers[i].addr);
        }
        if pending.is_empty() {
            // Nobody reachable: the current version stands, reconciliation
            // will push it to peers as they come back.
            return;
        }
        self.round = Some(Round {
            epoch: history.current().epoch,
            phase: RoundPhase::Preparing,
            pending,
            acked: Vec::new(),
            trace,
            opened_at: now,
        });
    }

    /// With nobody left to wait for: a fully prepare-acked round moves
    /// into its commit fan-out, and a round past that is over.
    fn advance(&mut self, now: Time, rng: &mut SimRng) {
        let Some(round) = self.round.as_mut().filter(|r| r.pending.is_empty()) else {
            return;
        };
        if round.phase == RoundPhase::Preparing && !round.acked.is_empty() {
            round.phase = RoundPhase::Committing;
            let (epoch, trace) = (round.epoch, round.trace);
            let acked = std::mem::take(&mut round.acked);
            let commit = Plan::phase(CtrlMsg::Commit { epoch }, trace);
            for addr in acked {
                let up = |p: &Peer| p.addr == addr && p.status == HostStatus::Up;
                if let Some(i) = self.peers.iter().position(up) {
                    self.track(i, commit.clone(), AckPhase::Commit, true, trace, now, rng);
                    self.round.as_mut().expect("held above").pending.push(addr);
                }
            }
        }
        let round = self.round.take_if(|r| r.pending.is_empty());
        if let Some(round) = round {
            // every acked peer has committed (or none was left to), the
            // abort is acknowledged, or every target died mid-prepare
            self.events.push_back(Event::RoundDone {
                committed: round.phase == RoundPhase::Committing,
                opened_at: round.opened_at,
                trace: round.trace,
            });
        }
    }

    /// Abort the round everywhere — the root's answer to
    /// [`Event::PrepareNacked`]. `Abort` goes to every Up peer, not only
    /// those that acked: a prepare whose ack was lost is staged too.
    /// Returns the aborted epoch, for the tier to roll its history back.
    pub(crate) fn abort_round(&mut self, now: Time, rng: &mut SimRng) -> Option<u64> {
        let round = self.round.as_ref()?;
        let (epoch, trace) = (round.epoch, round.trace);
        let abort = Plan::phase(CtrlMsg::Abort { epoch }, trace);
        let mut pending = Vec::new();
        for i in 0..self.peers.len() {
            if self.peers[i].status == HostStatus::Up {
                self.track(i, abort.clone(), AckPhase::Abort, true, trace, now, rng);
                pending.push(self.peers[i].addr);
            }
        }
        let round = self.round.as_mut().expect("held above");
        round.phase = RoundPhase::Aborting;
        round.pending = pending;
        round.acked.clear();
        self.advance(now, rng);
        Some(epoch)
    }

    /// Go on without `peer` — an aggregator's answer to
    /// [`Event::PrepareNacked`]: its parent already committed the epoch,
    /// so the shard cannot abort. The peer leaves the round and the
    /// reconciler, with backoff, keeps trying it.
    pub(crate) fn shelve(&mut self, peer: u32, now: Time, rng: &mut SimRng) {
        self.leave_round(peer);
        self.advance(now, rng);
        if let Some(i) = self.index(peer) {
            self.back_off(i, now);
        }
    }

    /// Hold the reconciler off peer `i`, doubling per failure, so a
    /// persistently unhappy peer cannot hot-loop.
    fn back_off(&mut self, i: usize, now: Time) {
        let next = (self.peers[i].resync_backoff.as_nanos() * 2)
            .clamp(RETRY_BASE.as_nanos(), self.cfg.fail_after.as_nanos() * 4);
        self.peers[i].resync_backoff = Time::from_nanos(next);
        self.peers[i].next_resync = now + Time::from_nanos(next);
    }

    fn reconcile(&mut self, now: Time, rng: &mut SimRng, history: &ConfigHistory) {
        let want = (history.current().epoch, history.current().digest);
        for i in 0..self.peers.len() {
            let peer = &self.peers[i];
            if peer.status != HostStatus::Up || peer.tracked.is_some() || now < peer.next_resync {
                continue;
            }
            let Some(report) = peer.report else {
                continue; // never heard: wait for the first pong
            };
            let at = (report.epoch, report.digest);
            // An aggregator whose own config converged can still be
            // vouching for a diverged or run-ahead child.
            let shard_ahead = at == want && (report.diverged || report.max_epoch > want.0);
            if at == want && !shard_ahead {
                continue;
            }
            if at.0 >= want.0 || shard_ahead {
                self.events.push_back(Event::Ahead {
                    peer: peer.addr,
                    epoch: at.0.max(report.max_epoch),
                    digest: at.1,
                });
                continue;
            }
            let plan = self.plan(history, Some(at), None);
            self.track(i, plan, AckPhase::Prepare, false, None, now, rng);
        }
    }

    /// Something arrived from `from`: it is alive. `None` if it is not a
    /// peer; otherwise the peer, for the tier to note what it reported.
    pub(crate) fn heard(&mut self, from: u32, now: Time) -> Option<&mut Peer> {
        let peer = self.peers.iter_mut().find(|p| p.addr == from)?;
        peer.last_heard = now;
        peer.status = HostStatus::Up;
        Some(peer)
    }

    /// `from` acked `phase` of `epoch`, answering message `re`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ack(
        &mut self,
        from: u32,
        re: u32,
        epoch: u64,
        phase: AckPhase,
        now: Time,
        rng: &mut SimRng,
        history: &ConfigHistory,
    ) {
        let Some(i) = self.index(from) else {
            return;
        };
        let answers = |t: &mut Tracked| t.id == re && t.phase == phase;
        let Some(tracked) = self.peers[i].tracked.take_if(answers) else {
            return; // stale or duplicate ack
        };
        self.rtt(&tracked, now);
        if phase == AckPhase::Commit {
            if let Some(digest) = history.digest_of(epoch) {
                self.peers[i].said(epoch, digest);
            }
        }
        match (tracked.in_round, phase) {
            (true, _) => {
                if let Some(round) = self.round.as_mut() {
                    round.pending.retain(|&a| a != from);
                    if phase == AckPhase::Prepare {
                        round.acked.push(from);
                    }
                }
                self.advance(now, rng);
            }
            (false, AckPhase::Prepare) => {
                let commit = Plan::phase(CtrlMsg::Commit { epoch }, None);
                self.track(i, commit, AckPhase::Commit, false, None, now, rng);
            }
            (false, AckPhase::Commit) => {
                self.peers[i].resync_backoff = Time::ZERO;
                self.peers[i].next_resync = now;
            }
            (false, AckPhase::Abort) => {}
        }
    }

    /// `from` nacked `epoch`, answering message `re`.
    pub(crate) fn nack(
        &mut self,
        from: u32,
        re: u32,
        epoch: u64,
        now: Time,
        rng: &mut SimRng,
        history: &ConfigHistory,
    ) {
        let Some(i) = self.index(from) else {
            return;
        };
        let Some(tracked) = self.peers[i].tracked.take_if(|t| t.id == re) else {
            return;
        };
        self.rtt(&tracked, now);
        let preparing = tracked.phase == AckPhase::Prepare;
        if tracked.plan.is_delta && preparing && epoch == history.current().epoch {
            // The digest anchor missed (the peer's config is not what its
            // last report promised) or the diff failed validation there:
            // fall back to the full Reset-led ship on the same track — a
            // round peer stays in the round's pending set, a resync stays
            // a resync.
            self.events
                .push_back(Event::Count(|w| w.delta_fallbacks += 1));
            let full = history.plan_full(tracked.trace.as_ref());
            let (in_round, trace) = (tracked.in_round, tracked.trace);
            self.track(i, full, AckPhase::Prepare, in_round, trace, now, rng);
        } else if !tracked.in_round {
            self.back_off(i, now);
        } else if preparing {
            self.events.push_back(Event::PrepareNacked { peer: from });
        } else {
            // A commit/abort nack means the peer lost its staging (e.g.
            // rebooted mid-round). Drop it from the round; reconciliation
            // will resync it.
            self.leave_round(from);
            self.advance(now, rng);
        }
    }

    fn rtt(&mut self, answered: &Tracked, now: Time) {
        let ns = now.as_nanos().saturating_sub(answered.sent_at.as_nanos());
        self.events.push_back(Event::Rtt(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{self, Request};
    use crate::testnet::table_ops;
    use eden_core::Config;

    const STEP: Time = Time::from_micros(100);

    /// A coordinator with everything it is fed, and no network.
    struct Driven {
        c: Coordinator,
        history: ConfigHistory,
        rng: SimRng,
        now: Time,
    }

    impl Driven {
        fn new(cfg: CtrlConfig, peers: &[u32]) -> Driven {
            Driven {
                c: Coordinator::new(cfg, peers),
                history: ConfigHistory::new(),
                rng: SimRng::new(7),
                now: Time::ZERO,
            }
        }

        /// Make a `rules`-rule table the current version, as `epoch`.
        fn version(&mut self, epoch: u64, rules: u32) {
            let ops = table_ops(5, 0..rules);
            let full = proto::encode_prepare(epoch, &ops).unwrap();
            let config = Config::from_ops(&ops).unwrap();
            self.history.push(epoch, config, full);
        }

        /// One tick `STEP` later; the epoch-phase sends it queued.
        fn tick(&mut self) -> Vec<Outgoing> {
            self.now += STEP;
            let heartbeat = |_, nonce| {
                let frame = Request::from(CtrlMsg::Heartbeat { nonce });
                frame.encode().unwrap()
            };
            self.c
                .tick(self.now, &mut self.rng, &self.history, heartbeat);
            self.sent()
        }

        /// The epoch-phase sends queued since the last look.
        fn sent(&mut self) -> Vec<Outgoing> {
            let all = self.c.outbox.drain(..);
            all.filter(|o| o.is_config).collect()
        }

        fn ack(&mut self, from: u32, re: u32, epoch: u64, phase: AckPhase) {
            self.c.heard(from, self.now).expect("a peer");
            self.c.ack(
                from,
                re,
                epoch,
                phase,
                self.now,
                &mut self.rng,
                &self.history,
            );
        }

        fn nack(&mut self, from: u32, re: u32, epoch: u64) {
            self.c.heard(from, self.now).expect("a peer");
            self.c
                .nack(from, re, epoch, self.now, &mut self.rng, &self.history);
        }

        /// Events since the last look, round trips left out; what they
        /// counted lands on `wire`.
        fn events(&mut self, wire: &mut WireCounters) -> Vec<Event> {
            let mut seen = Vec::new();
            while let Some(event) = self.c.next_event() {
                match event {
                    Event::Rtt(_) => {}
                    Event::Count(bump) => bump(wire),
                    other => seen.push(other),
                }
            }
            seen
        }
    }

    /// `(to, message tag)` of each send.
    fn tags(sent: &[Outgoing]) -> Vec<(u32, u8)> {
        sent.iter().map(|o| (o.to, o.bytes[0])).collect()
    }

    /// `(committed, opened_at)` if the one thing that happened is an
    /// untraced round ending.
    fn round_done(events: &[Event]) -> Option<(bool, Time)> {
        match events {
            [Event::RoundDone {
                committed,
                opened_at,
                trace: None,
            }] => Some((*committed, *opened_at)),
            _ => None,
        }
    }

    #[test]
    fn a_retry_resends_the_same_bytes_under_the_same_id_backing_off_to_the_ceiling_then_gives_up() {
        let cfg = CtrlConfig {
            fail_after: Time::from_millis(1_000), // only retries can fail the peer
            ..CtrlConfig::default()
        };
        let mut d = Driven::new(cfg.clone(), &[1]);
        d.version(1, 10);
        d.c.request_round(None);
        let first = d.tick().pop().expect("the prepare");
        assert_eq!((first.to, first.bytes[0]), (1, 1));

        let mut sent_at = vec![d.now];
        while d.c.round_active() {
            for retry in d.tick() {
                assert_eq!((retry.to, retry.id), (1, first.id));
                assert!(Rc::ptr_eq(&retry.bytes, &first.bytes));
                sent_at.push(d.now);
            }
        }
        assert_eq!(sent_at.len() as u32, 1 + MAX_RETRIES);
        // the delay before retry k+1 is RETRY_BASE << k, capped, plus up
        // to half of RETRY_BASE in jitter (and the tick's granularity)
        for (k, pair) in sent_at.windows(2).enumerate() {
            let gap = (pair[1] - pair[0]).as_nanos();
            let delay = (RETRY_BASE.as_nanos() << k).min(RETRY_MAX.as_nanos());
            let slack = RETRY_BASE.as_nanos() / 2 + STEP.as_nanos();
            assert!(
                (delay..=delay + slack).contains(&gap),
                "retry {k}: {gap} ns"
            );
        }
        assert_eq!(
            (sent_at[10] - sent_at[9]).as_nanos() / 1_000_000,
            10,
            "at the ceiling"
        );

        assert_eq!(d.c.peer(1).unwrap().status, HostStatus::Down);
        let mut wire = WireCounters::default();
        let closed = round_done(&d.events(&mut wire));
        assert_eq!(closed, Some((false, STEP)), "its only target died");
    }

    #[test]
    fn the_last_pending_peer_dying_commits_to_the_rest_and_an_all_dead_round_closes() {
        let mut d = Driven::new(CtrlConfig::default(), &[1, 2]);
        d.version(1, 10);
        d.c.request_round(None);
        let prepares = d.tick();
        assert_eq!(tags(&prepares), [(1, 1), (2, 1)]);
        d.ack(2, prepares[1].id, 1, AckPhase::Prepare);
        assert!(d.sent().is_empty(), "peer 1 has not answered");

        // peer 1 stays silent past `fail_after`; peer 2 keeps ponging
        let mut wire = WireCounters::default();
        let commit = loop {
            d.c.heard(2, d.now);
            let sent = d.tick();
            if let Some(commit) = sent.into_iter().find(|o| o.to == 2) {
                break commit;
            }
        };
        assert_eq!(commit.bytes[0], 2, "the commit goes to the peer that acked");
        assert_eq!(d.c.peer(1).unwrap().status, HostStatus::Down);
        assert!(d.now > CtrlConfig::default().fail_after);
        assert!(
            d.events(&mut wire).is_empty(),
            "the round is still committing"
        );
        d.ack(2, commit.id, 1, AckPhase::Commit);
        assert_eq!(round_done(&d.events(&mut wire)), Some((true, STEP)));
        assert!(!d.c.round_active());
        assert_eq!(d.c.peer(2).unwrap().report.map(|r| r.epoch), Some(1));

        // the next round goes to peer 2 alone, and it dies too
        d.version(2, 11);
        d.c.request_round(None);
        let opened_at = d.now + STEP;
        assert_eq!(tags(&d.tick()), [(2, 7)], "a delta to the peer that is up");
        while d.c.round_active() {
            d.tick();
        }
        assert_eq!(d.c.peer(2).unwrap().status, HostStatus::Down);
        assert_eq!(round_done(&d.events(&mut wire)), Some((false, opened_at)));
    }

    #[test]
    fn an_ack_with_the_wrong_id_or_phase_is_ignored() {
        let mut d = Driven::new(CtrlConfig::default(), &[1]);
        d.version(1, 10);
        d.c.request_round(None);
        let prepare = d.tick().pop().expect("the prepare");

        d.ack(1, prepare.id.wrapping_add(1), 1, AckPhase::Prepare);
        d.ack(1, prepare.id, 1, AckPhase::Commit);
        let mut wire = WireCounters::default();
        assert!(d.sent().is_empty() && d.events(&mut wire).is_empty());
        assert!(d.c.next_event().is_none(), "not even a round trip");

        d.ack(1, prepare.id, 1, AckPhase::Prepare);
        let commit = d.sent().pop().expect("the commit");
        assert_eq!((commit.to, commit.bytes[0]), (1, 2));
        // a duplicate of the ack that was taken answers nothing either
        d.ack(1, prepare.id, 1, AckPhase::Prepare);
        assert!(d.sent().is_empty());
        d.ack(1, commit.id, 1, AckPhase::Commit);
        assert_eq!(round_done(&d.events(&mut wire)), Some((true, STEP)));
    }

    #[test]
    fn a_nacked_delta_becomes_the_full_ship_on_the_same_track_and_a_second_nack_is_the_tiers_call()
    {
        let mut d = Driven::new(CtrlConfig::default(), &[1, 2]);
        d.version(1, 10);
        let digest = d.history.current().digest;
        for peer in [1, 2] {
            d.c.heard(peer, d.now).unwrap().said(1, digest);
        }
        d.version(2, 11);
        d.c.request_round(None);
        let deltas = d.tick();
        assert_eq!(tags(&deltas), [(1, 7), (2, 7)]);
        assert!(Rc::ptr_eq(&deltas[0].bytes, &deltas[1].bytes), "one plan");

        let mut wire = WireCounters::default();
        d.nack(1, deltas[0].id, 2);
        let full = d.sent().pop().expect("the fallback");
        assert_eq!((full.to, full.bytes[0]), (1, 1), "the full prepare");
        assert_ne!(full.id, deltas[0].id, "under a fresh id");
        assert!(d.events(&mut wire).is_empty());
        assert_eq!(wire.delta_fallbacks, 1);

        // still one round: peer 2's ack does not commit past peer 1
        d.ack(2, deltas[1].id, 2, AckPhase::Prepare);
        assert!(d.sent().is_empty());

        d.nack(1, full.id, 2);
        let nacked = d.events(&mut wire);
        assert!(matches!(nacked[..], [Event::PrepareNacked { peer: 1 }]));
        assert!(
            d.sent().is_empty() && d.c.round_active(),
            "the tier decides"
        );
        assert_eq!((wire.delta_fallbacks, wire.unknown_base_fulls), (1, 0));

        // an aggregator goes on without the peer...
        d.c.shelve(1, d.now, &mut d.rng);
        assert_eq!(tags(&d.sent()), [(2, 2)], "commit to the rest");
        // ...and the root would have aborted everywhere instead
        assert_eq!(d.c.abort_round(d.now, &mut d.rng), Some(2));
        assert_eq!(tags(&d.sent()), [(1, 3), (2, 3)]);
    }
}
