//! Reno-style TCP.
//!
//! Implements the congestion behaviour that the paper's evaluation leans on:
//! slow start, congestion avoidance, fast retransmit/recovery on three
//! duplicate ACKs (NewReno-flavoured partial-ACK handling), and RFC 6298
//! RTO estimation with exponential backoff. Receive-side: cumulative ACKs,
//! out-of-order segment buffering, and delivery of application message
//! markers in order.
//!
//! Sequence space: the simulator uses ISS = 0 on both sides (flows in the
//! evaluation are far below 4 GB, and nothing here needs ISN randomization).
//! The SYN and FIN each consume one sequence number, per the RFC.
//!
//! Message tagging (§4.2): [`Conn::send_message`] records the sequence range
//! and metadata of each application message; every emitted segment is
//! tagged with its message's [`EdenMeta`] (and an [`AppMarker`] on the
//! final segment), including on retransmission.

use std::collections::{BTreeMap, VecDeque};

/// Counters kept per connection: the `flow` group of a telemetry
/// snapshot, incremented in place.
pub use eden_telemetry::ConnStats;
use netsim::{AppMarker, EdenMeta, Packet, TcpFlags, TcpHeader, Time};

/// Maximum segment size, bytes of payload per packet (1500 MTU − 40).
pub const MSS: usize = 1460;

/// Initial congestion window, bytes.
const INIT_CWND: u32 = 10 * MSS as u32;
/// Receive window advertised to the peer, bytes.
const RWND: u32 = 1 << 20;
/// Upper bound on the retransmission timeout.
const MAX_RTO: Time = Time::from_secs(2);

/// TCP tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Lower bound on the retransmission timeout.
    pub min_rto: Time,
    /// Reordering tolerance (RACK-style): on the third duplicate ACK, wait
    /// this long for the hole to fill before declaring loss. `None` is
    /// classic Reno (immediate fast retransmit). Per-packet multipath
    /// spraying (the paper's WCMP case study) needs `Some(_)` to avoid
    /// collapsing on benign reordering, mirroring the reordering
    /// resilience of production stacks.
    pub reorder_window: Option<Time>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            min_rto: Time::from_millis(2),
            reorder_window: None,
        }
    }
}

/// Connection lifecycle states (simplified TCP state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Active open sent a SYN.
    SynSent,
    /// Passive open answered with SYN-ACK.
    SynReceived,
    /// Data may flow.
    Established,
    /// We sent a FIN and await its ACK.
    FinWait,
    /// Both sides are done.
    Closed,
}

/// One application message's place in the sequence space (§4.2: "we record
/// the sequence number of the sender along with the extra information").
#[derive(Debug, Clone)]
struct MsgRange {
    start: u32,
    end: u32,
    app_tag: u64,
    meta: Option<EdenMeta>,
}

/// Events a connection reports up to the application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TcpEvent {
    /// Three-way handshake finished (active side).
    Connected,
    /// Three-way handshake finished (passive side).
    Accepted,
    /// `bytes` new in-order payload bytes were delivered.
    Data { bytes: u32 },
    /// A complete application message arrived.
    Message { app_tag: u64, size: u32 },
    /// The peer closed (FIN received and all data delivered).
    PeerClosed,
    /// Our FIN was acknowledged; the connection is fully closed.
    Closed,
}

/// A TCP connection.
#[derive(Debug)]
pub struct Conn {
    pub state: ConnState,
    pub local_ip: u32,
    pub local_port: u16,
    pub remote_ip: u32,
    pub remote_port: u16,
    cfg: TcpConfig,

    // --- send side -------------------------------------------------------
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// End of data buffered by the application (exclusive).
    buffered_end: u32,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// NewReno: in fast recovery until snd_una passes `recover`.
    in_recovery: bool,
    recover: u32,
    /// Peer's advertised window, bytes.
    peer_wnd: u32,
    messages: Vec<MsgRange>,
    fin_queued: bool,
    fin_sent: bool,

    // --- RTO -------------------------------------------------------------
    srtt: Option<f64>,
    rttvar: f64,
    rto: Time,
    /// Outstanding RTT probe: (sequence that must be acked, send time).
    rtt_probe: Option<(u32, Time)>,
    /// Whether the RTO timer is running. The stack holds its deadline
    /// (the last [`TcpOutput::arm_rto`]) and asks this flag when the
    /// timer's event fires, so disarming is just clearing it.
    pub(crate) rto_armed: bool,
    /// The same for the reorder-tolerance timer (see
    /// [`TcpConfig::reorder_window`]).
    pub(crate) reorder_armed: bool,
    /// The unacked sequence the pending reorder timer is watching.
    reorder_hole: u32,

    // --- receive side ----------------------------------------------------
    rcv_nxt: u32,
    /// Out-of-order segments: start seq → (len, marker).
    ooo: BTreeMap<u32, (u32, Option<AppMarker>)>,
    /// Markers whose message end has not yet been delivered in order,
    /// sorted by `end_seq` (arrival order among equals).
    pending_markers: VecDeque<AppMarker>,
    peer_fin_at: Option<u32>,
    peer_closed_delivered: bool,

    pub stats: ConnStats,
}

/// What `Conn` methods hand back to the stack for transmission and timer
/// management.
#[derive(Debug, Default)]
pub struct TcpOutput {
    /// Packets to push down the egress path (enclave → NIC).
    pub packets: Vec<Packet>,
    /// Application-visible events.
    pub events: Vec<TcpEvent>,
    /// `Some(deadline)`: the RTO timer is now due at `deadline`, replacing
    /// any earlier deadline; `None`: leave as is. The stack reads
    /// `rto_armed == false` to cancel.
    pub arm_rto: Option<Time>,
    /// `Some(deadline)`: the same for the reorder-tolerance timer.
    pub arm_reorder: Option<Time>,
}

impl Conn {
    fn new(cfg: TcpConfig, state: ConnState, local: (u32, u16), remote: (u32, u16)) -> Conn {
        Conn {
            state,
            local_ip: local.0,
            local_port: local.1,
            remote_ip: remote.0,
            remote_port: remote.1,
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            buffered_end: 1, // SYN occupies seq 0; data starts at 1
            cwnd: INIT_CWND as f64,
            ssthresh: f64::MAX,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            peer_wnd: RWND,
            messages: Vec::new(),
            fin_queued: false,
            fin_sent: false,
            srtt: None,
            rttvar: 0.0,
            rto: Time::from_millis(200),
            rtt_probe: None,
            rto_armed: false,
            reorder_armed: false,
            reorder_hole: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            pending_markers: VecDeque::new(),
            peer_fin_at: None,
            peer_closed_delivered: false,
            stats: ConnStats::default(),
        }
    }

    /// Active open: returns the connection and its SYN.
    pub fn connect(
        cfg: TcpConfig,
        local: (u32, u16),
        remote: (u32, u16),
        now: Time,
        out: &mut TcpOutput,
    ) -> Conn {
        let mut c = Conn::new(cfg, ConnState::SynSent, local, remote);
        let syn = c.control_packet(
            0,
            TcpFlags {
                syn: true,
                ..Default::default()
            },
        );
        c.snd_nxt = 1;
        c.stats.packets_sent += 1;
        out.packets.push(syn);
        c.arm_rto(now, out);
        c
    }

    /// Passive open from a received SYN: returns the connection and its
    /// SYN-ACK.
    pub fn accept(
        cfg: TcpConfig,
        local: (u32, u16),
        remote: (u32, u16),
        syn_seq: u32,
        now: Time,
        out: &mut TcpOutput,
    ) -> Conn {
        let mut c = Conn::new(cfg, ConnState::SynReceived, local, remote);
        c.rcv_nxt = syn_seq.wrapping_add(1);
        let synack = c.control_packet(
            0,
            TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
        );
        c.snd_nxt = 1;
        c.stats.packets_sent += 1;
        out.packets.push(synack);
        c.arm_rto(now, out);
        c
    }

    /// Queue an application message of `bytes` with optional Eden metadata;
    /// the final segment will carry an [`AppMarker`] with `app_tag`.
    pub fn send_message(
        &mut self,
        bytes: u32,
        app_tag: u64,
        meta: Option<EdenMeta>,
        now: Time,
        out: &mut TcpOutput,
    ) {
        assert!(bytes > 0, "empty messages are not sendable");
        assert!(!self.fin_queued, "send after close");
        let start = self.buffered_end;
        let end = start + bytes;
        self.messages.push(MsgRange {
            start,
            end,
            app_tag,
            meta,
        });
        self.buffered_end = end;
        self.try_send(now, out);
    }

    /// Ask to close once all buffered data is sent.
    pub fn close(&mut self, now: Time, out: &mut TcpOutput) {
        if !self.fin_queued {
            self.fin_queued = true;
            self.try_send(now, out);
        }
    }

    /// Bytes queued but not yet acknowledged.
    pub fn unacked(&self) -> u32 {
        self.buffered_end.saturating_sub(self.snd_una.max(1))
    }

    /// Whether every buffered byte has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una >= self.buffered_end
    }

    /// Current congestion window in bytes (for tests/instrumentation).
    pub fn cwnd(&self) -> u32 {
        self.cwnd as u32
    }

    /// Current retransmission timeout (for tests/instrumentation).
    pub fn rto(&self) -> Time {
        self.rto
    }

    /// Smoothed RTT estimate in nanoseconds (0 before the first sample).
    pub fn srtt_ns(&self) -> u64 {
        self.srtt.unwrap_or(0.0) as u64
    }

    /// Bytes currently in flight (sent, unacked).
    pub fn in_flight(&self) -> u32 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// The connection's counters, with the gauges read off it now.
    pub fn counters(&self) -> ConnStats {
        ConnStats {
            cwnd_bytes: u64::from(self.cwnd()),
            srtt_ns: self.srtt_ns(),
            in_flight: u64::from(self.in_flight()),
            ..self.stats
        }
    }

    // ------------------------------------------------------------------
    // segment construction
    // ------------------------------------------------------------------

    fn header(&self, seq: u32, flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            // advertised window in units of 64 bytes (fixed scale)
            window: (RWND / 64).min(u16::MAX as u32) as u16,
        }
    }

    fn control_packet(&self, seq: u32, flags: TcpFlags) -> Packet {
        Packet::tcp(self.local_ip, self.remote_ip, self.header(seq, flags), 0)
    }

    /// Build the data segment starting at `seq`, clipped to MSS, buffered
    /// data, and its message boundary (segments never span messages, so
    /// every packet has exactly one message's metadata).
    fn data_segment(&self, seq: u32) -> Packet {
        let msg = self
            .messages
            .iter()
            .find(|m| m.start <= seq && seq < m.end)
            .expect("segment sequence inside a recorded message");
        let end = (seq + MSS as u32).min(msg.end).min(self.buffered_end);
        let len = (end - seq) as usize;
        let is_msg_end = end == msg.end;
        let mut p = Packet::tcp(
            self.local_ip,
            self.remote_ip,
            self.header(
                seq,
                TcpFlags {
                    ack: true,
                    psh: is_msg_end,
                    ..Default::default()
                },
            ),
            len,
        );
        if let Some(meta) = &msg.meta {
            let mut meta = meta.clone();
            meta.msg_start = seq == msg.start;
            p.meta = Some(meta);
        }
        if is_msg_end {
            p.app_marker = Some(AppMarker {
                app_tag: msg.app_tag,
                end_seq: msg.end,
                msg_size: msg.end - msg.start,
            });
        }
        p
    }

    fn effective_window(&self) -> u32 {
        (self.cwnd as u32).min(self.peer_wnd)
    }

    /// Emit as many new segments as the window allows.
    fn try_send(&mut self, now: Time, out: &mut TcpOutput) {
        if !matches!(self.state, ConnState::Established | ConnState::FinWait) {
            return;
        }
        let mut sent_any = false;
        while self.snd_nxt < self.buffered_end {
            let in_flight = self.snd_nxt.saturating_sub(self.snd_una);
            if in_flight >= self.effective_window() {
                break;
            }
            let p = self.data_segment(self.snd_nxt);
            self.snd_nxt += p.payload_len as u32;
            self.stats.packets_sent += 1;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            out.packets.push(p);
            sent_any = true;
        }
        // FIN once all data is out
        if self.fin_queued && !self.fin_sent && self.snd_nxt == self.buffered_end {
            let fin = self.control_packet(
                self.snd_nxt,
                TcpFlags {
                    fin: true,
                    ack: true,
                    ..Default::default()
                },
            );
            self.snd_nxt += 1;
            self.fin_sent = true;
            self.state = ConnState::FinWait;
            self.stats.packets_sent += 1;
            out.packets.push(fin);
            sent_any = true;
        }
        if sent_any && !self.rto_armed {
            self.arm_rto(now, out);
        }
    }

    fn arm_rto(&mut self, now: Time, out: &mut TcpOutput) {
        self.rto_armed = true;
        out.arm_rto = Some(now + self.rto);
    }

    fn cancel_rto(&mut self) {
        self.rto_armed = false;
    }

    // ------------------------------------------------------------------
    // inbound processing
    // ------------------------------------------------------------------

    /// Process a segment addressed to this connection.
    pub fn on_segment(&mut self, packet: &Packet, now: Time, out: &mut TcpOutput) {
        let hdr = match packet.tcp_header() {
            Some(h) => *h,
            None => return,
        };
        self.peer_wnd = u32::from(hdr.window) * 64;

        // --- handshake ---------------------------------------------------
        if hdr.flags.syn && hdr.flags.ack {
            if self.state == ConnState::SynSent {
                self.rcv_nxt = hdr.seq.wrapping_add(1);
                self.snd_una = hdr.ack; // = 1
                self.state = ConnState::Established;
                self.cancel_rto();
                let ack = self.control_packet(
                    self.snd_nxt,
                    TcpFlags {
                        ack: true,
                        ..Default::default()
                    },
                );
                self.stats.packets_sent += 1;
                out.packets.push(ack);
                out.events.push(TcpEvent::Connected);
                self.try_send(now, out);
            }
            return;
        }
        if hdr.flags.syn {
            // duplicate SYN for an existing connection: re-send SYN-ACK
            let synack = self.control_packet(
                0,
                TcpFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                },
            );
            self.stats.packets_sent += 1;
            out.packets.push(synack);
            return;
        }

        // --- ACK processing ------------------------------------------------
        if hdr.flags.ack {
            self.process_ack(hdr.ack, packet.payload_len == 0 && !hdr.flags.fin, now, out);
        }

        // --- payload ---------------------------------------------------------
        if packet.payload_len > 0 {
            self.process_data(&hdr, packet, now, out);
        }

        // --- FIN -------------------------------------------------------------
        if hdr.flags.fin {
            let fin_seq = hdr.seq + packet.payload_len as u32;
            self.peer_fin_at = Some(fin_seq);
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = fin_seq + 1;
            }
            let ack = self.control_packet(
                self.snd_nxt,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
            );
            self.stats.packets_sent += 1;
            out.packets.push(ack);
            if !self.peer_closed_delivered && self.rcv_nxt > fin_seq {
                self.peer_closed_delivered = true;
                out.events.push(TcpEvent::PeerClosed);
            }
        }
    }

    fn process_ack(&mut self, ack: u32, pure_ack: bool, now: Time, out: &mut TcpOutput) {
        if self.state == ConnState::SynReceived && ack >= 1 {
            self.state = ConnState::Established;
            self.cancel_rto();
            out.events.push(TcpEvent::Accepted);
        }

        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            // a late ACK may overtake a go-back-N rewind of snd_nxt
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.stats.bytes_acked += u64::from(newly);
            self.dupacks = 0;
            if self.reorder_armed {
                // hole filled: benign reordering, cancel the pending cut
                self.reorder_armed = false;
                self.stats.reorder_events += 1;
            }

            // RTT sample (Karn's algorithm: probe invalidated on retransmit)
            if let Some((need, sent)) = self.rtt_probe {
                if ack >= need {
                    self.rtt_sample(now.saturating_sub(sent));
                    self.rtt_probe = None;
                }
            }

            if self.in_recovery {
                if ack >= self.recover {
                    // full recovery
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole
                    let seg = self.data_segment(self.snd_una);
                    self.stats.packets_sent += 1;
                    self.stats.retransmits += 1;
                    out.packets.push(seg);
                }
            } else if self.cwnd < self.ssthresh {
                // slow start
                self.cwnd += (newly as f64).min(MSS as f64);
            } else {
                // congestion avoidance: ~MSS per RTT
                self.cwnd += (MSS as f64) * (MSS as f64) / self.cwnd;
            }

            // FIN acknowledged?
            if self.fin_sent && ack > self.buffered_end && self.state == ConnState::FinWait {
                self.state = ConnState::Closed;
                self.cancel_rto();
                out.events.push(TcpEvent::Closed);
                return;
            }

            if self.snd_una < self.snd_nxt {
                self.arm_rto(now, out); // restart for remaining data
            } else {
                self.cancel_rto();
            }
            self.try_send(now, out);
        } else if ack == self.snd_una && pure_ack && self.snd_una < self.snd_nxt {
            // duplicate ACK
            self.dupacks += 1;
            self.stats.dup_acks_received += 1;
            if self.dupacks == 3 && !self.in_recovery {
                match self.cfg.reorder_window {
                    // RACK-style: give reordering a chance to resolve
                    Some(window) => {
                        if !self.reorder_armed {
                            self.reorder_armed = true;
                            self.reorder_hole = self.snd_una;
                            out.arm_reorder = Some(now + window);
                        }
                    }
                    None => self.fast_retransmit(now, out),
                }
            } else if self.in_recovery {
                // window inflation keeps the pipe full during recovery
                self.cwnd += MSS as f64;
                self.try_send(now, out);
            }
        }
    }

    fn process_data(&mut self, hdr: &TcpHeader, packet: &Packet, _now: Time, out: &mut TcpOutput) {
        let seq = hdr.seq;
        let len = packet.payload_len as u32;

        if seq.wrapping_add(len) <= self.rcv_nxt {
            // old retransmission — re-ACK
        } else if seq <= self.rcv_nxt {
            // in-order (possibly partially old)
            let before = self.rcv_nxt;
            let new_end = seq + len;
            self.rcv_nxt = new_end;
            if let Some(m) = packet.app_marker {
                self.queue_marker(m);
            }
            // drain contiguous out-of-order segments
            while let Some((&s, &(l, marker))) = self.ooo.iter().next() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&s);
                let seg_end = s + l;
                if seg_end > self.rcv_nxt {
                    self.rcv_nxt = seg_end;
                }
                if let Some(m) = marker {
                    self.queue_marker(m);
                }
            }
            // everything newly contiguous counts: the fresh segment plus
            // whatever it released from the out-of-order buffer
            out.events.push(TcpEvent::Data {
                bytes: self.rcv_nxt - before,
            });
            // deliver completed messages in order
            while let Some(m) = self.pending_markers.front().copied() {
                if m.end_seq > self.rcv_nxt {
                    break;
                }
                self.pending_markers.pop_front();
                out.events.push(TcpEvent::Message {
                    app_tag: m.app_tag,
                    size: m.msg_size,
                });
            }
            // FIN that arrived earlier out of order
            if let Some(fin_seq) = self.peer_fin_at {
                if fin_seq == self.rcv_nxt {
                    self.rcv_nxt = fin_seq + 1;
                    if !self.peer_closed_delivered {
                        self.peer_closed_delivered = true;
                        out.events.push(TcpEvent::PeerClosed);
                    }
                }
            }
        } else {
            // out of order: buffer and dup-ACK
            self.ooo.insert(seq, (len, packet.app_marker));
        }

        let ack = self.control_packet(
            self.snd_nxt,
            TcpFlags {
                ack: true,
                ..Default::default()
            },
        );
        self.stats.packets_sent += 1;
        out.packets.push(ack);
    }

    /// Keep `pending_markers` sorted by `end_seq`. Markers almost always
    /// arrive in order, so this is a push at the back.
    fn queue_marker(&mut self, m: AppMarker) {
        let at = self
            .pending_markers
            .partition_point(|q| q.end_seq <= m.end_seq);
        self.pending_markers.insert(at, m);
    }

    fn rtt_sample(&mut self, rtt: Time) {
        let r = rtt.as_nanos() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ns = self.srtt.expect("set above") + (4.0 * self.rttvar).max(1000.0);
        let rto = Time::from_nanos(rto_ns as u64);
        self.rto = rto.max(self.cfg.min_rto).min(MAX_RTO);
    }

    /// Classic Reno fast retransmit + entry into (New)Reno recovery.
    fn fast_retransmit(&mut self, now: Time, out: &mut TcpOutput) {
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
        self.cwnd = self.ssthresh + 3.0 * MSS as f64;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        let seg = self.data_segment(self.snd_una);
        self.stats.packets_sent += 1;
        self.stats.retransmits += 1;
        self.stats.fast_retransmits += 1;
        out.packets.push(seg);
        self.arm_rto(now, out);
    }

    /// The reorder-tolerance timer fired: if the hole is still unfilled,
    /// the dup-ACKs meant loss, not reordering — retransmit and cut. If it
    /// resolved in the meantime, the event was benign reordering and the
    /// window is untouched (the WCMP case study depends on this).
    pub fn on_reorder_timeout(&mut self, now: Time, out: &mut TcpOutput) {
        self.reorder_armed = false;
        if self.snd_una == self.reorder_hole
            && self.snd_una < self.snd_nxt
            && !self.in_recovery
            && self.dupacks >= 3
        {
            self.fast_retransmit(now, out);
        } else {
            self.stats.reorder_events += 1;
        }
    }

    /// The RTO timer fired (the stack verified it is armed and due).
    pub fn on_rto(&mut self, now: Time, out: &mut TcpOutput) {
        self.rto_armed = false;
        match self.state {
            ConnState::SynSent => {
                let syn = self.control_packet(
                    0,
                    TcpFlags {
                        syn: true,
                        ..Default::default()
                    },
                );
                self.stats.packets_sent += 1;
                self.stats.timeouts += 1;
                out.packets.push(syn);
            }
            ConnState::SynReceived => {
                let synack = self.control_packet(
                    0,
                    TcpFlags {
                        syn: true,
                        ack: true,
                        ..Default::default()
                    },
                );
                self.stats.packets_sent += 1;
                self.stats.timeouts += 1;
                out.packets.push(synack);
            }
            ConnState::Established | ConnState::FinWait => {
                if self.snd_una >= self.snd_nxt {
                    return; // nothing outstanding
                }
                self.stats.timeouts += 1;
                self.stats.retransmits += 1;
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
                self.cwnd = MSS as f64;
                self.dupacks = 0;
                self.in_recovery = false;
                self.rtt_probe = None; // Karn: no sample from retransmit
                if self.fin_sent && self.snd_una == self.buffered_end {
                    // only the FIN is outstanding
                    let fin = self.control_packet(
                        self.buffered_end,
                        TcpFlags {
                            fin: true,
                            ack: true,
                            ..Default::default()
                        },
                    );
                    self.stats.packets_sent += 1;
                    out.packets.push(fin);
                } else {
                    // Go-back-N: rewind to the oldest unacked byte and let
                    // slow start re-send from there. Without SACK the
                    // sender cannot know which later segments survived;
                    // retransmitting only the head would leave every
                    // subsequent hole to its own full (backed-off) RTO.
                    self.snd_nxt = self.snd_una;
                    if self.fin_sent {
                        self.fin_sent = false; // resend the FIN after data
                    }
                    self.try_send(now, out);
                }
            }
            ConnState::Closed => return,
        }
        // exponential backoff
        self.rto = Time::from_nanos((self.rto.as_nanos() * 2).min(MAX_RTO.as_nanos()));
        self.arm_rto(now, out);
    }

    /// Drop message ranges that are fully acknowledged (bounds memory on
    /// long-lived connections).
    pub fn gc_messages(&mut self) {
        let una = self.snd_una;
        if self.messages.len() > 64 {
            self.messages.retain(|m| m.end > una);
        }
    }
}
