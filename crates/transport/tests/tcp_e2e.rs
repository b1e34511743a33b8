//! End-to-end transport tests over the simulated fabric: handshake, bulk
//! transfer at line rate, loss recovery (fast retransmit and RTO),
//! message framing, rate-limited queues, and close.

use netsim::{Ctx, LinkSpec, Network, NodeId, Packet, PortId, Time};
use transport::{
    app_timer_token, App, ConnId, HookEnv, HookVerdict, Host, PacketHook, Stack, StackConfig, MSS,
};

/// Client: at t=0 connects and sends `send_bytes` as one message; records
/// when its request is fully acked and when a response arrives.
#[derive(Default)]
struct Client {
    server: u32,
    port: u16,
    send_bytes: u32,
    conn: Option<ConnId>,
    connected_at: Option<Time>,
    response_at: Option<Time>,
    response_size: u32,
}

impl App for Client {
    fn on_timer(&mut self, _token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let conn = stack.connect(self.server, self.port, ctx);
        self.conn = Some(conn);
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        self.connected_at = Some(ctx.now());
        if self.send_bytes > 0 {
            stack.send_message(conn, self.send_bytes, 1, None, ctx);
        }
    }

    fn on_message(
        &mut self,
        _conn: ConnId,
        _tag: u64,
        size: u32,
        _stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        self.response_at = Some(ctx.now());
        self.response_size = size;
    }
}

/// Server: listens; when a full request message arrives, responds with
/// `respond_bytes` (0 = no response).
#[derive(Default)]
struct Server {
    respond_bytes: u32,
    requests: Vec<(Time, u64, u32)>,
}

impl App for Server {
    fn on_timer(&mut self, _token: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        stack.listen(7000);
    }

    fn on_message(
        &mut self,
        conn: ConnId,
        app_tag: u64,
        size: u32,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        self.requests.push((ctx.now(), app_tag, size));
        if self.respond_bytes > 0 {
            stack.send_message(conn, self.respond_bytes, app_tag | 0x8000_0000, None, ctx);
        }
    }
}

/// Build: client(ip=1) — switch — server(ip=2), both links `spec`.
fn pair(spec: LinkSpec, client: Client, server: Server) -> (Network, NodeId, NodeId) {
    let mut net = Network::new(1);
    let c = net.add_node(Host::new(Stack::new(1, StackConfig::default()), client));
    let s = net.add_node(Host::new(Stack::new(2, StackConfig::default()), server));
    let sw = net.add_node(netsim::Switch::new(netsim::SwitchConfig::default()));
    net.connect(c, sw, spec);
    net.connect(s, sw, spec);
    {
        let swn = net.node_mut::<netsim::Switch>(sw);
        swn.install_route(1, PortId(0));
        swn.install_route(2, PortId(1));
    }
    net.schedule_timer(s, Time::ZERO, app_timer_token(0));
    net.schedule_timer(c, Time::from_nanos(10), app_timer_token(0));
    (net, c, s)
}

type CHost = Host<Client>;
type SHost = Host<Server>;

#[test]
fn handshake_completes() {
    let (mut net, c, _s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 0,
            ..Default::default()
        },
        Server::default(),
    );
    net.run_until(Time::from_millis(10));
    let client = net.node::<CHost>(c);
    let t = client.app.connected_at.expect("handshake done");
    // SYN + SYN-ACK ≈ 2 * (serialization + propagation) ≈ a few microseconds
    assert!(t < Time::from_micros(20), "handshake took {t}");
}

#[test]
fn message_delivered_intact() {
    let (mut net, _c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 123_456,
            ..Default::default()
        },
        Server::default(),
    );
    net.run_until(Time::from_millis(100));
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1);
    let (_, tag, size) = server.app.requests[0];
    assert_eq!(tag, 1);
    assert_eq!(size, 123_456);
}

#[test]
fn request_response_round_trip() {
    let (mut net, c, _s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 100,
            ..Default::default()
        },
        Server {
            respond_bytes: 20_000,
            ..Default::default()
        },
    );
    net.run_until(Time::from_millis(100));
    let client = net.node::<CHost>(c);
    assert_eq!(client.app.response_size, 20_000);
    let fct = client.app.response_at.expect("response arrived");
    assert!(fct < Time::from_millis(1), "20KB over 10G took {fct}");
}

#[test]
fn bulk_flow_approaches_line_rate() {
    // 10 MB over 1 Gbps ≈ 80ms at line rate (plus slow start).
    let (mut net, _c, s) = pair(
        LinkSpec::one_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 10_000_000,
            ..Default::default()
        },
        Server::default(),
    );
    net.run_until(Time::from_secs(2));
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1, "flow completed");
    let (t, _, size) = server.app.requests[0];
    assert_eq!(size, 10_000_000);
    let goodput = size as f64 * 8.0 / t.as_secs_f64();
    assert!(
        goodput > 0.85e9,
        "goodput {:.0} Mbps below 85% of line rate",
        goodput / 1e6
    );
    assert!(goodput < 1.0e9, "goodput cannot exceed line rate");
}

/// Hook that drops chosen data packets (by count of data segments seen).
struct DropNth {
    drop: Vec<u64>,
    seen: u64,
}

impl PacketHook for DropNth {
    fn on_egress(&mut self, packet: &mut Packet, _env: &mut HookEnv<'_>) -> HookVerdict {
        if packet.payload_len == 0 {
            return HookVerdict::Pass;
        }
        self.seen += 1;
        if self.drop.contains(&self.seen) {
            HookVerdict::Drop
        } else {
            HookVerdict::Pass
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn fast_retransmit_recovers_single_loss() {
    let (mut net, c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 500_000,
            ..Default::default()
        },
        Server::default(),
    );
    // Drop the 20th data segment at the client's egress.
    net.node_mut::<CHost>(c).stack.set_hook(DropNth {
        drop: vec![20],
        seen: 0,
    });
    net.run_until(Time::from_secs(1));
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1, "flow still completes");
    let client = net.node::<CHost>(c);
    let conn = client.app.conn.expect("connected");
    let stats = client.stack.conn_stats(conn);
    assert!(
        stats.fast_retransmits >= 1,
        "loss in a big window must trigger fast retransmit: {stats:?}"
    );
    assert_eq!(
        stats.timeouts, 0,
        "single mid-window loss should not need an RTO: {stats:?}"
    );
}

#[test]
fn rto_recovers_tail_loss() {
    // Drop the very last data segment: no dup ACKs follow, so recovery must
    // come from the retransmission timer.
    let total: u32 = 10 * MSS as u32;
    let last_seg = total.div_ceil(MSS as u32) as u64;
    let (mut net, c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: total,
            ..Default::default()
        },
        Server::default(),
    );
    net.node_mut::<CHost>(c).stack.set_hook(DropNth {
        drop: vec![last_seg],
        seen: 0,
    });
    net.run_until(Time::from_secs(1));
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1, "flow completes after RTO");
    let client = net.node::<CHost>(c);
    let stats = client.stack.conn_stats(client.app.conn.unwrap());
    assert!(stats.timeouts >= 1, "tail loss needs the timer: {stats:?}");
}

#[test]
fn multiple_messages_frame_independently() {
    #[derive(Default)]
    struct Multi {
        conn: Option<ConnId>,
    }
    impl App for Multi {
        fn on_timer(&mut self, _t: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            self.conn = Some(stack.connect(2, 7000, ctx));
        }
        fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            for (i, size) in [5_000u32, 100, 40_000, 1].iter().enumerate() {
                stack.send_message(conn, *size, 100 + i as u64, None, ctx);
            }
        }
    }

    let mut net = Network::new(1);
    let c = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        Multi::default(),
    ));
    let s = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        Server::default(),
    ));
    let sw = net.add_node(netsim::Switch::new(netsim::SwitchConfig::default()));
    net.connect(c, sw, LinkSpec::ten_gbps());
    net.connect(s, sw, LinkSpec::ten_gbps());
    {
        let swn = net.node_mut::<netsim::Switch>(sw);
        swn.install_route(1, PortId(0));
        swn.install_route(2, PortId(1));
    }
    net.schedule_timer(s, Time::ZERO, app_timer_token(0));
    net.schedule_timer(c, Time::from_nanos(10), app_timer_token(0));
    net.run_until(Time::from_millis(100));

    let server = net.node::<SHost>(s);
    let got: Vec<(u64, u32)> = server
        .app
        .requests
        .iter()
        .map(|&(_, t, s)| (t, s))
        .collect();
    assert_eq!(
        got,
        vec![(100, 5_000), (101, 100), (102, 40_000), (103, 1)],
        "messages delivered in order with correct sizes"
    );
}

/// Hook that diverts every data packet to rate-limit queue 0, charging the
/// packet's wire size.
struct LimitAll;

impl PacketHook for LimitAll {
    fn on_egress(&mut self, packet: &mut Packet, _env: &mut HookEnv<'_>) -> HookVerdict {
        if packet.payload_len == 0 {
            HookVerdict::Pass
        } else {
            HookVerdict::Queue {
                queue: 0,
                charge: packet.wire_len() as u64,
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn rate_limited_queue_caps_throughput() {
    let (mut net, c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 1_000_000,
            ..Default::default()
        },
        Server::default(),
    );
    {
        let host = net.node_mut::<CHost>(c);
        let q = host.stack.add_limiter(100_000_000, 30_000); // 100 Mbps
        assert_eq!(q, 0);
        host.stack.set_hook(LimitAll);
    }
    net.run_until(Time::from_secs(2));
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1);
    let (t, _, size) = server.app.requests[0];
    let goodput = size as f64 * 8.0 / t.as_secs_f64();
    assert!(
        goodput < 115e6,
        "limiter must cap at ~100 Mbps, got {:.0} Mbps",
        goodput / 1e6
    );
    assert!(
        goodput > 60e6,
        "limiter should not strangle the flow: {:.0} Mbps",
        goodput / 1e6
    );
}

#[test]
fn close_handshake_completes() {
    #[derive(Default)]
    struct Closer {
        conn: Option<ConnId>,
        closed_at: Option<Time>,
    }
    impl App for Closer {
        fn on_timer(&mut self, _t: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            self.conn = Some(stack.connect(2, 7000, ctx));
        }
        fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
            stack.send_message(conn, 5000, 9, None, ctx);
            stack.close(conn, ctx);
        }
        fn on_closed(&mut self, _c: ConnId, _s: &mut Stack, ctx: &mut Ctx<'_>) {
            self.closed_at = Some(ctx.now());
        }
    }

    let mut net = Network::new(1);
    let c = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        Closer::default(),
    ));
    let s = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        Server::default(),
    ));
    let sw = net.add_node(netsim::Switch::new(netsim::SwitchConfig::default()));
    net.connect(c, sw, LinkSpec::ten_gbps());
    net.connect(s, sw, LinkSpec::ten_gbps());
    {
        let swn = net.node_mut::<netsim::Switch>(sw);
        swn.install_route(1, PortId(0));
        swn.install_route(2, PortId(1));
    }
    net.schedule_timer(s, Time::ZERO, app_timer_token(0));
    net.schedule_timer(c, Time::from_nanos(10), app_timer_token(0));
    net.run_until(Time::from_millis(50));

    let closer = net.node::<Host<Closer>>(c);
    assert!(closer.app.closed_at.is_some(), "FIN acked");
    let server = net.node::<SHost>(s);
    assert_eq!(server.app.requests.len(), 1, "data before FIN delivered");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (mut net, c, _s) = pair(
            LinkSpec::ten_gbps(),
            Client {
                server: 2,
                port: 7000,
                send_bytes: 250_000,
                ..Default::default()
            },
            Server::default(),
        );
        net.run_until(Time::from_millis(50));
        let client = net.node::<CHost>(c);
        let stats = client.stack.conn_stats(client.app.conn.unwrap());
        (
            stats.packets_sent,
            stats.bytes_acked,
            net.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

// ----------------------------------------------------------------------
// connection timers: one queued event per timer, fired at the deadline
// ----------------------------------------------------------------------

/// The most events pending in `net` at any 10 µs step until `until`.
fn max_pending_events(net: &mut Network, until: Time) -> usize {
    let (mut max, mut t) = (0, net.now());
    while t < until {
        t += Time::from_micros(10);
        net.run_until(t);
        max = max.max(net.pending_events());
    }
    max
}

#[test]
fn clean_transfer_keeps_a_handful_of_events_queued() {
    let (mut net, _c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 10_000_000,
            ..Default::default()
        },
        Server::default(),
    );
    let max = max_pending_events(&mut net, Time::from_millis(100));
    assert_eq!(net.node::<SHost>(s).app.requests.len(), 1, "flow completed");
    // Per direction of each of the two links: a transmit completion and the
    // frames inside the 1 µs of propagation; plus one event per timer: 11
    // here. An event per RTO restart makes it 1,664: an ACK every 1.2 µs,
    // each leaving a timer queued for 2 ms.
    assert!(
        max <= 16,
        "{max} events queued at once for one connection on two links"
    );
}

/// Hook noting when the stack sent each data segment and when the last ACK
/// that acknowledged new data came in.
#[derive(Default)]
struct SendTimes {
    data_sent_at: Vec<Time>,
    highest_ack: u32,
    last_new_ack_at: Time,
}

impl PacketHook for SendTimes {
    fn on_egress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        if packet.payload_len > 0 {
            self.data_sent_at.push(env.now);
        }
        HookVerdict::Pass
    }

    fn on_ingress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        if let Some(hdr) = packet.tcp_header() {
            if hdr.flags.ack && hdr.ack > self.highest_ack {
                self.highest_ack = hdr.ack;
                self.last_new_ack_at = env.now;
            }
        }
        HookVerdict::Pass
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn rto_fires_at_last_arm_plus_rto_and_doubles() {
    let (mut net, c, _s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 10_000_000,
            ..Default::default()
        },
        Server::default(),
    );
    net.node_mut::<CHost>(c)
        .stack
        .set_hook(SendTimes::default());
    // Mid-transfer the client's link dies. Frames already on it land; then
    // the client hears nothing, and only its RTO makes it send again.
    let down_at = Time::from_millis(1);
    net.run_until(down_at);
    let (link, _) = net.port_link(c, PortId(0));
    net.set_link_down(link, true);
    net.run_until(down_at + Time::from_micros(100));

    let client = net.node_mut::<CHost>(c);
    let conn = client.app.conn.expect("connected");
    assert!(!client.stack.conn_all_acked(conn), "cut mid-transfer");
    let rto = client.stack.conn_rto(conn);
    let hook = client.stack.hook_mut::<SendTimes>().expect("installed");
    // every new ACK restarted the timer; the last restart stands
    let last_arm = hook.last_new_ack_at;
    assert!(last_arm > down_at - Time::from_micros(100) && last_arm < down_at + rto);
    let quiet_from = hook.data_sent_at.len();

    net.run_until(down_at + Time::from_millis(100));
    let client = net.node_mut::<CHost>(c);
    let timeouts = client.stack.conn_stats(conn).timeouts;
    let hook = client.stack.hook_mut::<SendTimes>().expect("installed");
    let fires = &hook.data_sent_at[quiet_from..];
    assert!(fires.len() >= 4, "RTOs in 100 ms: {fires:?}");
    let mut expect = last_arm + rto;
    let mut backoff = rto;
    for (i, &at) in fires.iter().take(4).enumerate() {
        assert_eq!(at, expect, "RTO {i} of {fires:?}, first timeout {rto}");
        backoff = Time::from_nanos(backoff.as_nanos() * 2);
        expect = at + backoff;
    }
    assert_eq!(timeouts, fires.len() as u64);
}

/// What a sender's connection did and when the server had its message:
/// `(packets_sent, retransmits, fast_retransmits, timeouts, reorder_events,
/// bytes_acked, completion ns)`.
type FlowOutcome = (u64, u64, u64, u64, u64, u64, u64);

/// Two senders share a lossy, jittery link to one server; the senders
/// tolerate reordering for 100 µs, so RTO and reorder timers are armed,
/// restarted, cancelled and fired throughout.
fn lossy_reordering_two_flows(seed: u64) -> [FlowOutcome; 2] {
    let cfg = StackConfig {
        tcp: transport::TcpConfig {
            reorder_window: Some(Time::from_micros(100)),
            ..Default::default()
        },
        ..StackConfig::default()
    };
    // sizes differ so the server's two requests can be told apart
    const BYTES: [u32; 2] = [3_000_000, 2_000_000];
    let sender = |send_bytes| Client {
        server: 2,
        port: 7000,
        send_bytes,
        ..Default::default()
    };
    let mut net = Network::new(seed);
    let senders = [
        net.add_node(Host::new(Stack::new(1, cfg), sender(BYTES[0]))),
        net.add_node(Host::new(Stack::new(3, cfg), sender(BYTES[1]))),
    ];
    let s = net.add_node(Host::new(Stack::new(2, cfg), Server::default()));
    let sw = net.add_node(netsim::Switch::new(netsim::SwitchConfig::default()));
    for (node, addr) in [(senders[0], 1), (senders[1], 3), (s, 2)] {
        let (_, port) = net.connect(node, sw, LinkSpec::ten_gbps());
        net.node_mut::<netsim::Switch>(sw).install_route(addr, port);
    }
    let (shared, _) = net.port_link(s, PortId(0));
    net.set_link_loss_permille(shared, 5);
    net.set_link_jitter(shared, Time::from_micros(20));
    net.schedule_timer(s, Time::ZERO, app_timer_token(0));
    net.schedule_timer(senders[0], Time::from_nanos(10), app_timer_token(0));
    net.schedule_timer(senders[1], Time::from_micros(3), app_timer_token(0));
    net.run_until(Time::from_secs(5));

    let requests = &net.node::<SHost>(s).app.requests;
    [0, 1].map(|i| {
        let client = net.node::<CHost>(senders[i]);
        let st = client.stack.conn_stats(client.app.conn.expect("connected"));
        let (done, ..) = requests
            .iter()
            .find(|&&(_, _, size)| size == BYTES[i])
            .expect("the flow completed");
        (
            st.packets_sent,
            st.retransmits,
            st.fast_retransmits,
            st.timeouts,
            st.reorder_events,
            st.bytes_acked,
            done.as_nanos(),
        )
    })
}

/// Recorded at commit 5f7824c, where every timer restart queued its own
/// generation-stamped event. One event per timer must fire the handlers at
/// the same nanoseconds, so TCP's decisions and the flows' finish times
/// stay the same to the packet.
#[test]
fn lossy_reordering_outcome_is_unchanged_by_the_timer_rewrite() {
    assert_eq!(
        lossy_reordering_two_flows(0x5eed),
        [
            (2068, 11, 11, 0, 55, 3_000_000, 6_601_409),
            (1386, 12, 10, 2, 37, 2_000_000, 9_799_488),
        ]
    );
}

/// One 2 MB transfer from a 10 Gbps host to a 1 Gbps one through a switch
/// with 30 KB per class (the egress port overflows) over a client link
/// that loses 3 ‰ of its frames: `(events dispatched, final virtual ns,
/// client ConnStats, server ConnStats, switch drops)`.
fn lossy_congested_transfer() -> (u64, u64, [u64; 10], [u64; 10], u64) {
    let client = Client {
        server: 2,
        port: 7000,
        send_bytes: 2_000_000,
        ..Default::default()
    };
    let mut net = Network::new(0xfab);
    let c = net.add_node(Host::new(Stack::new(1, StackConfig::default()), client));
    let s = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        Server {
            respond_bytes: 100_000,
            ..Default::default()
        },
    ));
    let sw = net.add_node(netsim::Switch::new(netsim::SwitchConfig {
        per_queue_bytes: 30_000,
    }));
    for (node, addr, spec) in [(c, 1, LinkSpec::ten_gbps()), (s, 2, LinkSpec::one_gbps())] {
        let (_, port) = net.connect(node, sw, spec);
        net.node_mut::<netsim::Switch>(sw).install_route(addr, port);
    }
    let (lossy, _) = net.port_link(c, PortId(0));
    net.set_link_loss_permille(lossy, 3);
    net.schedule_timer(s, Time::ZERO, app_timer_token(0));
    net.schedule_timer(c, Time::from_nanos(10), app_timer_token(0));
    net.run_to_completion();

    let client = net.node::<CHost>(c);
    assert_eq!(client.app.response_size, 100_000, "the exchange completed");
    let sent = client.stack.conn_stats(client.app.conn.expect("connected"));
    let served = net.node::<SHost>(s).stack.conn_stats(ConnId(0));
    (
        net.events_processed(),
        net.now().as_nanos(),
        sent.values(),
        served.values(),
        net.node::<netsim::Switch>(sw).total_drops(),
    )
}

/// Recorded at commit 64cd155, where a packet crossed the fabric by value
/// and the event heap ordered `(time, sequence)` pairs. Handing it over as
/// a `Box` and packing the key change who owns a packet's bytes and how a
/// key compares — not one timestamp, sequence number or tie-break, so the
/// schedule and every TCP decision stay the same.
#[test]
fn lossy_congested_schedule_is_unchanged_by_packet_handles() {
    assert_eq!(
        lossy_congested_transfer(),
        (
            12_379,
            200_002_486,
            [1661, 2_000_000, 102, 16, 1, 703, 0, 22_368, 202_887, 0],
            [1507, 100_001, 0, 0, 0, 0, 0, 114_601, 61_839, 0],
            147,
        )
    );
}

/// Hook noting how the stack handed it each transmission opportunity: the
/// size of every batch, and the packets that came one at a time.
#[derive(Default)]
struct BatchSizes {
    batches: Vec<usize>,
    singles: u64,
}

impl PacketHook for BatchSizes {
    fn on_egress(&mut self, _packet: &mut Packet, _env: &mut HookEnv<'_>) -> HookVerdict {
        self.singles += 1;
        HookVerdict::Pass
    }

    fn on_egress_batch(
        &mut self,
        packets: &mut [Packet],
        _env: &mut HookEnv<'_>,
        verdicts: &mut Vec<HookVerdict>,
    ) {
        self.batches.push(packets.len());
        verdicts.extend(packets.iter().map(|_| HookVerdict::Pass));
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Most of what TCP is asked produces no packet (an ACK inside a full
/// window, a segment that only fills the receive buffer's accounting): the
/// hook hears of a transmission opportunity only when something leaves.
#[test]
fn the_hook_never_sees_an_empty_batch() {
    let (mut net, c, s) = pair(
        LinkSpec::ten_gbps(),
        Client {
            server: 2,
            port: 7000,
            send_bytes: 250_000,
            ..Default::default()
        },
        Server {
            respond_bytes: 50_000,
            ..Default::default()
        },
    );
    net.node_mut::<CHost>(c)
        .stack
        .set_hook(BatchSizes::default());
    net.node_mut::<SHost>(s)
        .stack
        .set_hook(BatchSizes::default());
    net.run_until(Time::from_millis(100));
    assert_eq!(net.node::<CHost>(c).app.response_size, 50_000);

    let client = net.node_mut::<CHost>(c);
    let sent = client
        .stack
        .conn_stats(client.app.conn.unwrap())
        .packets_sent;
    let hook = client.stack.hook_mut::<BatchSizes>().expect("installed");
    assert!(!hook.batches.is_empty(), "slow start sends two per ACK");
    assert_eq!(
        hook.singles + hook.batches.iter().sum::<usize>() as u64,
        sent,
        "every packet passed the hook once"
    );
    let mut batches = std::mem::take(&mut hook.batches);
    let server = net.node_mut::<SHost>(s);
    batches.append(
        &mut server
            .stack
            .hook_mut::<BatchSizes>()
            .expect("installed")
            .batches,
    );
    assert!(
        batches.iter().all(|&n| n >= 2),
        "a batch call carries a batch: {batches:?}"
    );
}
