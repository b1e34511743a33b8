//! The per-host stack: socket table, demux, NIC queues, rate limiters, and
//! the enclave hook.
//!
//! Packet path down: TCP emits a segment → the §4.2 intercept has already
//! tagged it with its message's metadata → [`PacketHook::on_egress`] (the
//! Eden enclave) → verdict: pass to the NIC's priority queues, drop, or
//! detour through a token-bucket rate limiter → NIC serializer.
//!
//! Packet path up: NIC → [`PacketHook::on_ingress`] → TCP demux →
//! application events.

use std::collections::{HashMap, HashSet, VecDeque};

use eden_telemetry::{FlightEvent, FlightKind, FlightRing, FlowCounters, HostCounters};
use netsim::{Ctx, EdenMeta, Packet, PortId, PriorityPort, Time};

use crate::hook::{HookEnv, HookVerdict, PacketHook};
use crate::ratelimit::TokenBucket;
use crate::tcp::{Conn, ConnStats, TcpConfig, TcpEvent, TcpOutput};

/// Handle to one connection on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub usize);

/// Stack construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    pub tcp: TcpConfig,
    /// Per-priority-class byte capacity of the NIC egress queues.
    pub nic_queue_bytes: usize,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            tcp: TcpConfig::default(),
            nic_queue_bytes: 1 << 20,
        }
    }
}

/// Events surfaced to the application (see [`crate::host::App`]).
#[derive(Debug)]
pub enum AppEvent {
    /// Active open completed.
    Connected(ConnId),
    /// Passive open completed.
    Accepted(ConnId),
    /// In-order payload delivered.
    Data { conn: ConnId, bytes: u32 },
    /// A full application message arrived.
    Message {
        conn: ConnId,
        app_tag: u64,
        size: u32,
    },
    /// The peer closed its half of the connection.
    PeerClosed(ConnId),
    /// Our close completed.
    Closed(ConnId),
    /// A non-TCP packet arrived (raw apps, e.g. the port-knocking example).
    Raw(Packet),
}

// Timer-token subsystems (top byte of the u64 token).
pub(crate) const TOKEN_APP: u64 = 0;
pub(crate) const TOKEN_RTO: u64 = 1;
pub(crate) const TOKEN_LIMITER: u64 = 2;
pub(crate) const TOKEN_REORDER: u64 = 3;
pub(crate) const TOKEN_PAYLOAD_MASK: u64 = (1 << 56) - 1;

pub(crate) fn token(subsystem: u64, payload: u64) -> u64 {
    (subsystem << 56) | (payload & TOKEN_PAYLOAD_MASK)
}

/// One of a connection's timers as the stack runs it. [`Conn`] says
/// whether the timer is armed; the stack holds when it is due and keeps one
/// event queued for it however often the deadline moves later — TCP
/// restarts its RTO on every new ACK, and an event per restart would sit in
/// the simulator's queue until its own deadline only to be discarded.
#[derive(Debug, Clone, Copy, Default)]
struct ConnTimer {
    /// When the timer is due; read only while `Conn` has it armed.
    deadline: Time,
    /// When the event queued for this timer fires: never after `deadline`
    /// while armed. `None`: no event is queued.
    queued: Option<Time>,
}

impl ConnTimer {
    /// The timer is due at `deadline` from now on. Queues an event (carrying
    /// `token`) only when none is queued or the queued one would come late.
    fn arm(&mut self, deadline: Time, token: u64, ctx: &mut Ctx<'_>) {
        self.deadline = deadline;
        if self.queued.is_none_or(|at| deadline < at) {
            self.queued = Some(deadline);
            ctx.timer_at(deadline, token);
        }
    }

    /// An event of this timer fired; `armed` is the connection's word.
    /// True when the timer is due now and its handler must run. Otherwise
    /// the event came early and re-queues itself at the deadline, or the
    /// timer was disarmed and the event lapses.
    fn fired(&mut self, armed: bool, token: u64, ctx: &mut Ctx<'_>) -> bool {
        let now = ctx.now();
        if self.queued != Some(now) {
            // left behind when the deadline moved earlier than this event;
            // the event queued then has fired, or will
            return false;
        }
        self.queued = None;
        if !armed {
            return false;
        }
        if self.deadline > now {
            self.arm(self.deadline, token, ctx);
            return false;
        }
        true
    }
}

/// The stack's side of a connection's two timers.
#[derive(Debug, Clone, Copy, Default)]
struct ConnTimers {
    rto: ConnTimer,
    reorder: ConnTimer,
}

/// The host network stack.
pub struct Stack {
    /// This host's IPv4 address.
    pub addr: u32,
    cfg: StackConfig,
    conns: Vec<Conn>,
    /// Deadline and queued event of each connection's timers, by
    /// connection index.
    timers: Vec<ConnTimers>,
    /// (remote ip, remote port, local port) → connection index.
    demux: HashMap<(u32, u16, u16), usize>,
    listeners: HashSet<u16>,
    next_ephemeral: u16,
    hook: Option<Box<dyn PacketHook>>,
    /// UDP port of the control-plane endpoint, if one is open.
    ctrl_port: Option<u16>,
    /// Control frames delivered to the hook's `on_ctrl`.
    pub ctrl_frames_in: u64,
    /// Control frames emitted in reply by the hook's `on_ctrl`.
    pub ctrl_frames_out: u64,
    limiters: Vec<TokenBucket>,
    limiter_armed: Vec<bool>,
    nic: PriorityPort,
    events: VecDeque<AppEvent>,
    /// Packets dropped below TCP: by a hook verdict, at a full NIC queue,
    /// or for naming a queue that does not exist.
    drops: HostCounters,
    /// Packet-path trace: one flight event per layer a packet crosses;
    /// `None` (the default) records nothing and costs one branch per
    /// trace point. Enabled by [`Stack::enable_trace`].
    trace: Option<FlightRing>,
    /// Per-host sequence for trace packet ids (only advanced while
    /// tracing; ids are namespaced by `addr` so two hosts' traces can be
    /// merged without collisions).
    trace_pkt_seq: u64,
    /// Recycled egress batch buffer: every [`TcpOutput`] takes it and
    /// [`egress_batch`](Self::egress_batch) puts it back drained. A
    /// transmission opportunity runs to completion before the next one
    /// starts, so one warm allocation serves them all.
    batch_buf: Vec<Packet>,
    /// Recycled verdict buffer for the batch egress path.
    verdict_buf: Vec<HookVerdict>,
}

/// First Eden class on a packet (0 = unclassified) — the class a trace
/// event is labelled with.
fn pkt_class(p: &Packet) -> u32 {
    meta_class(p.meta.as_ref())
}

fn meta_class(meta: Option<&EdenMeta>) -> u32 {
    meta.and_then(|m| m.classes.first().copied()).unwrap_or(0)
}

impl Stack {
    /// A stack for a host with address `addr`.
    pub fn new(addr: u32, cfg: StackConfig) -> Stack {
        Stack {
            addr,
            cfg,
            conns: Vec::new(),
            timers: Vec::new(),
            demux: HashMap::new(),
            listeners: HashSet::new(),
            next_ephemeral: 40_000,
            hook: None,
            ctrl_port: None,
            ctrl_frames_in: 0,
            ctrl_frames_out: 0,
            limiters: Vec::new(),
            limiter_armed: Vec::new(),
            nic: PriorityPort::new(cfg.nic_queue_bytes),
            events: VecDeque::new(),
            drops: HostCounters::default(),
            trace: None,
            trace_pkt_seq: 0,
            batch_buf: Vec::new(),
            verdict_buf: Vec::new(),
        }
    }

    /// A [`TcpOutput`] whose packet batch is the stack's batch buffer;
    /// [`apply_output`](Self::apply_output) puts it back after egress.
    fn new_output(&mut self) -> TcpOutput {
        TcpOutput {
            packets: std::mem::take(&mut self.batch_buf),
            ..TcpOutput::default()
        }
    }

    // ------------------------------------------------------------------
    // telemetry
    // ------------------------------------------------------------------

    /// Start packet-path tracing into a fresh ring of `capacity` events
    /// (min 1; replaces any existing ring).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(FlightRing::new(capacity.max(1)));
    }

    /// Stop tracing and hand over the ring of flight events, oldest first.
    pub fn take_trace(&mut self) -> Option<FlightRing> {
        self.trace.take()
    }

    /// Record one packet-path event while tracing: `a` = packet id (the
    /// app tag at send), `b` = class. The class is read only while tracing.
    fn trace_event(&mut self, kind: FlightKind, now: Time, id: u64, class: impl FnOnce() -> u32) {
        if let Some(t) = self.trace.as_mut() {
            t.push(FlightEvent {
                at_ns: now.as_nanos(),
                lane: 0,
                kind,
                a: id,
                b: u64::from(class()),
            });
        }
    }

    /// Per-flow TCP counters for every connection ever created here.
    pub fn flow_counters(&self) -> Vec<FlowCounters> {
        self.conns
            .iter()
            .enumerate()
            .map(|(i, c)| FlowCounters {
                conn: i,
                state: format!("{:?}", c.state),
                counts: c.counters(),
            })
            .collect()
    }

    /// Host-level counters outside the enclave: the stack's drops.
    pub fn host_counters(&self) -> HostCounters {
        self.drops
    }

    /// Install the enclave (or any packet processor).
    pub fn set_hook(&mut self, hook: impl PacketHook) {
        self.hook = Some(Box::new(hook));
    }

    /// Borrow the hook downcast to a concrete type (controller access to an
    /// installed enclave).
    pub fn hook_mut<T: PacketHook>(&mut self) -> Option<&mut T> {
        self.hook
            .as_mut()
            .and_then(|h| h.as_any_mut().downcast_mut::<T>())
    }

    /// Open the control-plane endpoint on UDP `port`: control frames
    /// arriving there are handed to the hook's
    /// [`on_ctrl`](PacketHook::on_ctrl) instead of the data path, and its
    /// replies are sent straight to the NIC. Replies bypass the egress
    /// hook by design — the management plane must stay reachable even
    /// when the data-plane tables are mid-update.
    pub fn set_ctrl_port(&mut self, port: u16) {
        self.ctrl_port = Some(port);
    }

    /// Create a rate-limited queue (Pulsar's `queueMap` targets); returns
    /// its queue id for `HookVerdict::Queue`.
    pub fn add_limiter(&mut self, rate_bps: u64, burst_bytes: u64) -> usize {
        self.limiters.push(TokenBucket::new(rate_bps, burst_bytes));
        self.limiter_armed.push(false);
        self.limiters.len() - 1
    }

    /// Borrow a limiter (stats).
    pub fn limiter(&self, queue: usize) -> &TokenBucket {
        &self.limiters[queue]
    }

    /// Start listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Active-open a connection; the SYN leaves immediately.
    pub fn connect(&mut self, remote_ip: u32, remote_port: u16, ctx: &mut Ctx<'_>) -> ConnId {
        let local_port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
        let mut out = self.new_output();
        let conn = Conn::connect(
            self.cfg.tcp,
            (self.addr, local_port),
            (remote_ip, remote_port),
            ctx.now(),
            &mut out,
        );
        let idx = self.add_conn(conn, (remote_ip, remote_port, local_port));
        self.apply_output(idx, out, ctx);
        ConnId(idx)
    }

    /// Register `conn` under its demux `key`; returns its index.
    fn add_conn(&mut self, conn: Conn, key: (u32, u16, u16)) -> usize {
        let idx = self.conns.len();
        self.conns.push(conn);
        self.timers.push(ConnTimers::default());
        self.demux.insert(key, idx);
        idx
    }

    /// The paper's extended send primitive (§4.2): send `bytes` as one
    /// application message with optional class/metadata information. The
    /// final segment carries `app_tag` so the receiving application can
    /// frame the message.
    pub fn send_message(
        &mut self,
        conn: ConnId,
        bytes: u32,
        app_tag: u64,
        meta: Option<EdenMeta>,
        ctx: &mut Ctx<'_>,
    ) {
        // the packet doesn't exist yet; the message's app_tag stands in as
        // the event id
        self.trace_event(FlightKind::StackSend, ctx.now(), app_tag, || {
            meta_class(meta.as_ref())
        });
        let mut out = self.new_output();
        self.conns[conn.0].send_message(bytes, app_tag, meta, ctx.now(), &mut out);
        self.conns[conn.0].gc_messages();
        self.apply_output(conn.0, out, ctx);
    }

    /// Close after all queued data drains.
    pub fn close(&mut self, conn: ConnId, ctx: &mut Ctx<'_>) {
        let mut out = self.new_output();
        self.conns[conn.0].close(ctx.now(), &mut out);
        self.apply_output(conn.0, out, ctx);
    }

    /// Connection counters.
    pub fn conn_stats(&self, conn: ConnId) -> ConnStats {
        self.conns[conn.0].counters()
    }

    /// Congestion window, bytes.
    pub fn conn_cwnd(&self, conn: ConnId) -> u32 {
        self.conns[conn.0].cwnd()
    }

    /// Current retransmission timeout.
    pub fn conn_rto(&self, conn: ConnId) -> Time {
        self.conns[conn.0].rto()
    }

    /// Bytes in flight.
    pub fn conn_in_flight(&self, conn: ConnId) -> u32 {
        self.conns[conn.0].in_flight()
    }

    /// Whether all data queued on `conn` has been acknowledged.
    pub fn conn_all_acked(&self, conn: ConnId) -> bool {
        self.conns[conn.0].all_acked()
    }

    /// Number of connections ever created on this stack.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Send a raw (typically UDP) packet through the egress path.
    pub fn send_raw(&mut self, packet: Packet, ctx: &mut Ctx<'_>) {
        self.egress(packet, ctx);
    }

    /// Drain application events produced by the last stack call.
    pub fn take_event(&mut self) -> Option<AppEvent> {
        self.events.pop_front()
    }

    // ------------------------------------------------------------------
    // fabric-facing entry points (called by Host)
    // ------------------------------------------------------------------

    /// A packet arrived from the NIC.
    pub(crate) fn handle_ingress(&mut self, mut packet: Box<Packet>, ctx: &mut Ctx<'_>) {
        self.trace_event(FlightKind::WireDeliver, ctx.now(), packet.id, || {
            pkt_class(&packet)
        });
        // Control-endpoint demux: frames for the control port short-circuit
        // to the hook's control handler before the data-path ingress hook,
        // so a half-updated rule table can never filter its own repairs.
        if let Some(port) = self.ctrl_port {
            let udp_dst = match &packet.l4 {
                netsim::L4Header::Udp(u) if u.dst_port == port => Some(u.src_port),
                _ => None,
            };
            if let (Some(reply_port), Some(frame)) = (udp_dst, packet.ctrl.as_ref()) {
                self.ctrl_frames_in += 1;
                let from = packet.ip.src;
                let replies = match self.hook.as_mut() {
                    Some(hook) => {
                        let mut env = HookEnv {
                            now: ctx.now(),
                            rng: ctx.rng(),
                        };
                        hook.on_ctrl(from, frame, &mut env)
                    }
                    None => Vec::new(),
                };
                for bytes in replies {
                    self.ctrl_frames_out += 1;
                    let reply = Packet::ctrl(
                        self.addr,
                        from,
                        netsim::UdpHeader {
                            src_port: port,
                            dst_port: reply_port,
                        },
                        bytes,
                    );
                    self.nic_enqueue(Box::new(reply), ctx);
                }
                return;
            }
        }
        if let Some(hook) = self.hook.as_mut() {
            let mut env = HookEnv {
                now: ctx.now(),
                rng: ctx.rng(),
            };
            let verdict = hook.on_ingress(&mut packet, &mut env);
            match verdict {
                HookVerdict::Pass => {}
                HookVerdict::Drop | HookVerdict::Queue { .. } => {
                    // a Queue verdict on ingress is not part of the model
                    // and drops like a Drop verdict
                    self.drops.hook_drops += 1;
                    self.trace_event(FlightKind::EnclaveDrop, ctx.now(), packet.id, || {
                        pkt_class(&packet)
                    });
                    return;
                }
            }
        }
        let Some(hdr) = packet.tcp_header().copied() else {
            self.events.push_back(AppEvent::Raw(*packet));
            return;
        };
        let key = (packet.ip.src, hdr.src_port, hdr.dst_port);
        if let Some(&idx) = self.demux.get(&key) {
            let mut out = self.new_output();
            self.conns[idx].on_segment(&packet, ctx.now(), &mut out);
            self.apply_output(idx, out, ctx);
        } else if hdr.flags.syn && !hdr.flags.ack && self.listeners.contains(&hdr.dst_port) {
            let mut out = self.new_output();
            let conn = Conn::accept(
                self.cfg.tcp,
                (self.addr, hdr.dst_port),
                (packet.ip.src, hdr.src_port),
                hdr.seq,
                ctx.now(),
                &mut out,
            );
            let idx = self.add_conn(conn, key);
            self.apply_output(idx, out, ctx);
        }
        // else: no socket — silently dropped (no RST machinery)
    }

    /// The NIC finished serializing a packet.
    pub(crate) fn handle_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.nic.dequeue() {
            Some(next) => {
                self.trace_event(FlightKind::WireTx, ctx.now(), next.id, || pkt_class(&next));
                ctx.start_tx(PortId(0), next)
            }
            None => self.nic.busy = false,
        }
    }

    /// An event of the RTO timer of connection `payload` fired.
    pub(crate) fn handle_rto_timer(&mut self, payload: u64, ctx: &mut Ctx<'_>) {
        let idx = payload as usize;
        let Some(conn) = self.conns.get(idx) else {
            return;
        };
        if !self.timers[idx]
            .rto
            .fired(conn.rto_armed, token(TOKEN_RTO, payload), ctx)
        {
            return;
        }
        let mut out = self.new_output();
        self.conns[idx].on_rto(ctx.now(), &mut out);
        self.apply_output(idx, out, ctx);
    }

    /// An event of the reorder-tolerance timer of connection `payload`
    /// fired.
    pub(crate) fn handle_reorder_timer(&mut self, payload: u64, ctx: &mut Ctx<'_>) {
        let idx = payload as usize;
        let Some(conn) = self.conns.get(idx) else {
            return;
        };
        if !self.timers[idx]
            .reorder
            .fired(conn.reorder_armed, token(TOKEN_REORDER, payload), ctx)
        {
            return;
        }
        let mut out = self.new_output();
        self.conns[idx].on_reorder_timeout(ctx.now(), &mut out);
        self.apply_output(idx, out, ctx);
    }

    /// A limiter release timer fired.
    pub(crate) fn handle_limiter_timer(&mut self, queue: usize, ctx: &mut Ctx<'_>) {
        if queue >= self.limiters.len() {
            return;
        }
        self.limiter_armed[queue] = false;
        let released = self.limiters[queue].release(ctx.now());
        for p in released {
            self.nic_enqueue(p, ctx);
        }
        self.arm_limiter(queue, ctx);
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn apply_output(&mut self, idx: usize, out: TcpOutput, ctx: &mut Ctx<'_>) {
        for ev in out.events {
            let conn = ConnId(idx);
            self.events.push_back(match ev {
                TcpEvent::Connected => AppEvent::Connected(conn),
                TcpEvent::Accepted => AppEvent::Accepted(conn),
                TcpEvent::Data { bytes } => AppEvent::Data { conn, bytes },
                TcpEvent::Message { app_tag, size } => AppEvent::Message {
                    conn,
                    app_tag,
                    size,
                },
                TcpEvent::PeerClosed => AppEvent::PeerClosed(conn),
                TcpEvent::Closed => AppEvent::Closed(conn),
            });
        }
        let timers = &mut self.timers[idx];
        if let Some(deadline) = out.arm_rto {
            timers.rto.arm(deadline, token(TOKEN_RTO, idx as u64), ctx);
        }
        if let Some(deadline) = out.arm_reorder {
            timers
                .reorder
                .arm(deadline, token(TOKEN_REORDER, idx as u64), ctx);
        }
        // Everything TCP emitted in this transmission opportunity leaves as
        // one batch, so a hook with a real batch path (the enclave's staged
        // pipeline) sees the packets together.
        self.egress_batch(out.packets, ctx);
    }

    /// Pre-hook egress fixup: stamp the source address and, while tracing,
    /// assign the packet a trace id namespaced by host address so merged
    /// multi-host traces cannot collide with each other or with the
    /// fabric's small sequential ids. With tracing off the id is untouched.
    fn prep_egress(&mut self, packet: &mut Packet) {
        packet.eth.src = u64::from(self.addr);
        if self.trace.is_some() && packet.id == 0 {
            self.trace_pkt_seq += 1;
            packet.id = (u64::from(self.addr) << 40) | self.trace_pkt_seq;
        }
    }

    fn egress(&mut self, mut packet: Packet, ctx: &mut Ctx<'_>) {
        self.prep_egress(&mut packet);
        if self.hook.is_some() {
            let verdict = {
                let hook = self.hook.as_mut().expect("checked above");
                let mut env = HookEnv {
                    now: ctx.now(),
                    rng: ctx.rng(),
                };
                hook.on_egress(&mut packet, &mut env)
            };
            self.route_egress_verdict(packet, verdict, ctx);
        } else {
            self.nic_enqueue(Box::new(packet), ctx);
        }
    }

    /// Send a same-tick batch of packets through the hook and route each
    /// verdict, in order — observably identical to calling
    /// [`egress`](Self::egress) per packet, since everything happens at one
    /// simulated instant and verdict routing preserves batch order. The
    /// batch buffer and the verdict buffer are both recycled: the hook
    /// mutates packets in place (zero-copy handoff), the drained `Vec`
    /// goes back to `batch_buf`, and the next batch reuses it warm.
    fn egress_batch(&mut self, mut packets: Vec<Packet>, ctx: &mut Ctx<'_>) {
        // TCP often emits nothing (an ACK that only advanced the window's
        // left edge): the hook is not called with an empty batch, and one
        // packet takes the per-packet path.
        if packets.len() <= 1 {
            let packet = packets.pop();
            self.batch_buf = packets;
            if let Some(packet) = packet {
                self.egress(packet, ctx);
            }
            return;
        }
        for packet in packets.iter_mut() {
            self.prep_egress(packet);
        }
        if self.hook.is_none() {
            for packet in packets.drain(..) {
                self.nic_enqueue(Box::new(packet), ctx);
            }
            self.batch_buf = packets;
            return;
        }
        let mut verdicts = std::mem::take(&mut self.verdict_buf);
        verdicts.clear();
        {
            let hook = self.hook.as_mut().expect("checked above");
            let mut env = HookEnv {
                now: ctx.now(),
                rng: ctx.rng(),
            };
            hook.on_egress_batch(&mut packets, &mut env, &mut verdicts);
        }
        debug_assert_eq!(verdicts.len(), packets.len(), "one verdict per packet");
        for (packet, verdict) in packets.drain(..).zip(verdicts.drain(..)) {
            self.route_egress_verdict(packet, verdict, ctx);
        }
        self.verdict_buf = verdicts;
        self.batch_buf = packets;
    }

    fn route_egress_verdict(&mut self, packet: Packet, verdict: HookVerdict, ctx: &mut Ctx<'_>) {
        let kind = match verdict {
            HookVerdict::Pass => FlightKind::EnclavePass,
            HookVerdict::Drop => FlightKind::EnclaveDrop,
            HookVerdict::Queue { .. } => FlightKind::EnclaveQueue,
        };
        self.trace_event(kind, ctx.now(), packet.id, || pkt_class(&packet));
        match verdict {
            HookVerdict::Pass => self.nic_enqueue(Box::new(packet), ctx),
            HookVerdict::Drop => {
                self.drops.hook_drops += 1;
            }
            HookVerdict::Queue { queue, charge } => {
                if queue >= self.limiters.len() {
                    self.drops.bad_queue_drops += 1;
                    self.trace_event(FlightKind::LimiterDrop, ctx.now(), packet.id, || {
                        pkt_class(&packet)
                    });
                    return;
                }
                self.trace_event(FlightKind::LimiterEnqueue, ctx.now(), packet.id, || {
                    pkt_class(&packet)
                });
                self.limiters[queue].enqueue(Box::new(packet), charge, ctx.now());
                let released = self.limiters[queue].release(ctx.now());
                for p in released {
                    self.nic_enqueue(p, ctx);
                }
                self.arm_limiter(queue, ctx);
            }
        }
    }

    fn arm_limiter(&mut self, queue: usize, ctx: &mut Ctx<'_>) {
        if self.limiter_armed[queue] {
            return;
        }
        if let Some(at) = self.limiters[queue].next_release_at(ctx.now()) {
            let at = at.max(ctx.now() + Time::from_nanos(1));
            self.limiter_armed[queue] = true;
            ctx.timer_at(at, token(TOKEN_LIMITER, queue as u64));
        }
    }

    fn nic_enqueue(&mut self, packet: Box<Packet>, ctx: &mut Ctx<'_>) {
        if !self.nic.busy && !self.nic.has_backlog() {
            self.trace_event(FlightKind::WireTx, ctx.now(), packet.id, || {
                pkt_class(&packet)
            });
            self.nic.busy = true;
            ctx.start_tx(PortId(0), packet);
            return;
        }
        // Local ACK prioritization: pure control packets (no payload) jump
        // the host's own data backlog, like real stacks' thin-stream
        // handling. This is host-local — the wire 802.1Q priority is
        // untouched, so switches still schedule by the enclave's marking.
        // Without it, a host saturating its uplink with data starves the
        // ACK stream that clocks its peers (visible as total WRITE-tenant
        // collapse in the Figure 11 scenario).
        let class = if packet.payload_len == 0 {
            7
        } else {
            packet.priority()
        };
        let (pid, pclass) = (packet.id, pkt_class(&packet));
        let accepted = self.nic.enqueue_with_class(packet, class);
        if !accepted {
            self.drops.nic_drops += 1;
        }
        let kind = if accepted {
            FlightKind::NicEnqueue
        } else {
            FlightKind::NicDrop
        };
        self.trace_event(kind, ctx.now(), pid, || pclass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NullHook;
    use crate::host::{app_timer_token, App, Host};
    use netsim::{LinkSpec, Network, Switch, SwitchConfig};

    /// Connects, then sends one message of many segments.
    struct Sender;

    impl App for Sender {
        fn on_timer(&mut self, _token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            stack.connect(2, 7000, ctx);
        }

        fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            stack.send_message(conn, 200_000, 1, None, ctx);
        }
    }

    /// Listens and counts the messages delivered.
    struct Receiver(u32);

    impl App for Receiver {
        fn on_timer(&mut self, _token: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
            stack.listen(7000);
        }

        fn on_message(
            &mut self,
            _c: ConnId,
            _tag: u64,
            _s: u32,
            _st: &mut Stack,
            _ctx: &mut Ctx<'_>,
        ) {
            self.0 += 1;
        }
    }

    /// Every transmission opportunity of a hooked stack takes the one batch
    /// buffer and puts it back drained, so between events it is empty and
    /// its allocation is only ever replaced by a batch that outgrew it.
    #[test]
    fn one_batch_buffer_comes_back_drained_and_warm() {
        let mut net = Network::new(1);
        let mut sender = Stack::new(1, StackConfig::default());
        sender.set_hook(NullHook);
        let mut receiver = Stack::new(2, StackConfig::default());
        receiver.set_hook(NullHook);
        let s = net.add_node(Host::new(sender, Sender));
        let r = net.add_node(Host::new(receiver, Receiver(0)));
        let sw = net.add_node(Switch::new(SwitchConfig::default()));
        let (_, ps) = net.connect(s, sw, LinkSpec::ten_gbps());
        let (_, pr) = net.connect(r, sw, LinkSpec::ten_gbps());
        {
            let swn = net.node_mut::<Switch>(sw);
            swn.install_route(1, ps);
            swn.install_route(2, pr);
        }
        net.schedule_timer(r, Time::ZERO, app_timer_token(0));
        net.schedule_timer(s, Time::from_micros(1), app_timer_token(0));

        // (pointer, capacity) of each stack's buffer once it has one
        let mut warm: [Option<(*const Packet, usize)>; 2] = [None, None];
        for us in 1..=5_000 {
            net.run_until(Time::from_micros(us));
            let bufs = [
                &net.node::<Host<Sender>>(s).stack.batch_buf,
                &net.node::<Host<Receiver>>(r).stack.batch_buf,
            ];
            for (buf, warm) in bufs.into_iter().zip(&mut warm) {
                assert!(buf.is_empty(), "batch buffer left full at {us} µs");
                if buf.capacity() == 0 {
                    assert!(warm.is_none(), "batch buffer lost at {us} µs");
                    continue;
                }
                let now = (buf.as_ptr(), buf.capacity());
                if let Some((ptr, cap)) = *warm {
                    // the sender's SYN allocates it, its first window
                    // outgrows that once
                    assert!(
                        now.0 == ptr || now.1 > cap,
                        "batch buffer replaced at {us} µs"
                    );
                }
                *warm = Some(now);
            }
            if net.node::<Host<Receiver>>(r).app.0 > 0 {
                break;
            }
        }
        assert_eq!(net.node::<Host<Receiver>>(r).app.0, 1, "message delivered");
        assert!(warm.iter().all(Option::is_some), "both stacks sent batches");
    }
}
