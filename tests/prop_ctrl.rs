//! Property tests for the distributed control plane under an unreliable
//! fabric: random loss and jitter on the controller's link (dropping,
//! delaying, and reordering control messages) plus a timed partition of
//! one managed host.
//!
//! Invariants checked on every run, per the control plane's contract:
//!
//! 1. **Epoch atomicity** — no enclave ever serves a mixed-epoch rule
//!    table (checked every 200µs slice on every host), and data packets
//!    observed at a sink never step *backwards* through epochs per
//!    sender (old-epoch priority after new-epoch priority).
//! 2. **Bounded reconvergence** — after the partition heals, the whole
//!    fleet reports the desired epoch + digest within the run's horizon
//!    (retries with backoff, no livelock).

use eden::core::{Enclave, EnclaveConfig};
use eden::ctrl::fleet::prio_epoch;
use eden::ctrl::{ControllerApp, CtrlConfig, EnclaveAgent, TICK};
use eden::netsim::{LinkSpec, Network, Packet, Switch, SwitchConfig, Time, UdpHeader};
use eden::transport::{app_timer_token, App, Host, Stack, StackConfig};
use proptest::prelude::*;

const SINK_ADDR: u32 = 9;
const CTRL_ADDR: u32 = 100;
const N_HOSTS: usize = 3;

/// Sends one raw UDP data packet to the sink every 50µs, forever.
struct UdpTicker;

impl App for UdpTicker {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut netsim::Ctx<'_>) {
        if token == 1 {
            let udp = UdpHeader {
                src_port: 5000,
                dst_port: 6000,
            };
            stack.send_raw(Packet::udp(stack.addr, SINK_ADDR, udp, 400), ctx);
            ctx.timer_in(Time::from_micros(50), app_timer_token(1));
        }
    }
}

struct Idle;
impl App for Idle {}

/// Sink-side ingress hook recording `(sender, priority)` of data packets.
struct RecordPrio {
    seen: Vec<(u32, u8)>,
}

impl eden::transport::PacketHook for RecordPrio {
    fn on_egress(
        &mut self,
        _p: &mut Packet,
        _e: &mut eden::transport::HookEnv<'_>,
    ) -> eden::transport::HookVerdict {
        eden::transport::HookVerdict::Pass
    }

    fn on_ingress(
        &mut self,
        p: &mut Packet,
        _e: &mut eden::transport::HookEnv<'_>,
    ) -> eden::transport::HookVerdict {
        if p.payload_len > 0 && p.ctrl.is_none() {
            self.seen.push((p.ip.src, p.priority()));
        }
        eden::transport::HookVerdict::Pass
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const EPOCH1_PRIO: u8 = 3;
const EPOCH2_PRIO: u8 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn updates_stay_atomic_and_fleet_reconverges_under_impairment(
        seed in 1u64..500,
        loss_permille in 0u32..300,
        jitter_us in 0u64..20,
        victim in 0usize..N_HOSTS,
        part_start_us in 500u64..4_000,
        part_len_us in 1_000u64..10_000,
    ) {
        let cfg = CtrlConfig::default();
        let mut net = Network::new(seed);
        let sw = net.add_node(Switch::new(SwitchConfig::default()));

        let mut host_nodes = Vec::new();
        let mut host_links = Vec::new();
        for i in 0..N_HOSTS {
            let addr = (i + 1) as u32;
            let mut stack = Stack::new(addr, StackConfig::default());
            stack.set_hook(EnclaveAgent::new(Enclave::new(EnclaveConfig::default())));
            stack.set_ctrl_port(cfg.ctrl_port);
            let node = net.add_node(Host::new(stack, UdpTicker));
            let (hp, sp) = net.connect(node, sw, LinkSpec::ten_gbps());
            net.node_mut::<Switch>(sw).install_route(addr, sp);
            host_links.push(net.port_link(node, hp).0);
            host_nodes.push(node);
            net.schedule_timer(node, Time::from_micros(10), app_timer_token(1));
        }

        let mut sink_stack = Stack::new(SINK_ADDR, StackConfig::default());
        sink_stack.set_hook(RecordPrio { seen: Vec::new() });
        let sink = net.add_node(Host::new(sink_stack, Idle));
        let (_, sp) = net.connect(sink, sw, LinkSpec::ten_gbps());
        net.node_mut::<Switch>(sw).install_route(SINK_ADDR, sp);

        let addrs: Vec<u32> = (1..=N_HOSTS as u32).collect();
        let ctrl = net.add_node(Host::new(
            Stack::new(CTRL_ADDR, StackConfig::default()),
            ControllerApp::new(cfg, &addrs),
        ));
        let (cp, sp) = net.connect(ctrl, sw, LinkSpec::ten_gbps());
        net.node_mut::<Switch>(sw).install_route(CTRL_ADDR, sp);
        let ctrl_link = net.port_link(ctrl, cp).0;
        net.schedule_timer(ctrl, Time::ZERO, app_timer_token(TICK));

        // Impair the control channel: the controller's own link carries
        // only control traffic, so loss/jitter here drops, delays, and
        // reorders control messages without disturbing the data-plane
        // FIFO the monotonicity check below relies on.
        net.set_link_loss_permille(ctrl_link, loss_permille);
        net.set_link_jitter(ctrl_link, Time::from_micros(jitter_us));

        let part_start = Time::from_micros(part_start_us);
        let part_end = part_start + Time::from_micros(part_len_us);
        let push1 = Time::from_micros(1_000);
        let push2 = Time::from_micros(4_000);
        let horizon = Time::from_micros(40_000);

        let mut partitioned = false;
        let mut healed = false;
        let mut pushed1 = false;
        let mut pushed2 = false;

        let mut t = Time::ZERO;
        while t < horizon {
            t += Time::from_micros(200);
            // Event boundaries, in virtual-time order within this slice.
            if !partitioned && t >= part_start {
                net.set_link_down(host_links[victim], true);
                partitioned = true;
            }
            if !pushed1 && t >= push1 {
                net.node_mut::<Host<ControllerApp>>(ctrl)
                    .app
                    .set_desired(prio_epoch(EPOCH1_PRIO))
                    .expect("valid ops");
                pushed1 = true;
            }
            if !pushed2 && t >= push2 {
                net.node_mut::<Host<ControllerApp>>(ctrl)
                    .app
                    .set_desired(prio_epoch(EPOCH2_PRIO))
                    .expect("valid ops");
                pushed2 = true;
            }
            if partitioned && !healed && t >= part_end {
                net.set_link_down(host_links[victim], false);
                healed = true;
            }
            net.run_until(t);

            // Invariant 1: no enclave ever serves a mixed-epoch table.
            for (i, &node) in host_nodes.iter().enumerate() {
                let enclave = net
                    .node_mut::<Host<UdpTicker>>(node)
                    .stack
                    .hook_mut::<EnclaveAgent>()
                    .expect("agent installed")
                    .enclave();
                prop_assert!(
                    enclave.serves_single_epoch(),
                    "host {i} serves a mixed-epoch table at {t:?}"
                );
            }
        }

        // Invariant 2: bounded reconvergence. The partition healed at
        // least 15ms before the horizon (worst case 14ms in), which
        // bounds detection + resync retries with plenty of slack.
        {
            let app = &net.node_mut::<Host<ControllerApp>>(ctrl).app;
            prop_assert_eq!(app.desired_epoch(), 2);
            prop_assert!(
                app.all_in_sync(),
                "fleet failed to reconverge by {:?} (in sync: {}/{})",
                horizon,
                app.in_sync_count(),
                N_HOSTS
            );
        }
        for &node in &host_nodes {
            let enclave = net
                .node_mut::<Host<UdpTicker>>(node)
                .stack
                .hook_mut::<EnclaveAgent>()
                .unwrap()
                .enclave();
            prop_assert_eq!(enclave.active_epoch(), 2);
            prop_assert!(enclave.serves_single_epoch());
        }

        // Data-plane view of atomicity: per sender, priorities only ever
        // step forward through the epoch sequence 0 → 3 → 6.
        let seen = net
            .node_mut::<Host<Idle>>(sink)
            .stack
            .hook_mut::<RecordPrio>()
            .unwrap()
            .seen
            .clone();
        prop_assert!(seen.len() > 100, "data flowed ({} packets)", seen.len());
        let rank = |p: u8| match p {
            0 => 0u8,
            EPOCH1_PRIO => 1,
            EPOCH2_PRIO => 2,
            other => panic!("impossible priority {other}"),
        };
        let mut last = [0u8; N_HOSTS + 1];
        for (src, prio) in seen {
            let r = rank(prio);
            prop_assert!(
                r >= last[src as usize],
                "sender {src} stepped backwards: rank {} after {}",
                r,
                last[src as usize]
            );
            last[src as usize] = r;
        }
    }
}
