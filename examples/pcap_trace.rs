//! Capture simulated Eden traffic to a pcap file you can open in Wireshark.
//!
//! A bulk sender's enclave WCMP-balances packets across two labelled paths;
//! a tap at the receiver's ingress records every frame — VLAN tags with the
//! enclave-chosen route labels included — into `/tmp/eden_wcmp.pcap`.
//!
//! Run with `cargo run --release --example pcap_trace`.

use eden::apps::apps::bulk::{BulkSender, MeteredSink};
use eden::apps::functions::{self, Form};
use eden::core::Controller;
use eden::netsim::pcap::PcapTrace;
use eden::netsim::{LinkSpec, Network, Packet, Switch, SwitchConfig, Time};
use eden::transport::{
    app_timer_token, HookEnv, HookVerdict, Host, PacketHook, Stack, StackConfig,
};
use eden_bench::fig10::{self, Balancer};

/// Ingress tap: records every arriving frame into a pcap trace.
struct Tap {
    trace: PcapTrace,
    /// Stop recording after this many packets (keep the file small).
    limit: u64,
}

impl PacketHook for Tap {
    fn on_egress(&mut self, _p: &mut Packet, _e: &mut HookEnv<'_>) -> HookVerdict {
        HookVerdict::Pass
    }

    fn on_ingress(&mut self, p: &mut Packet, e: &mut HookEnv<'_>) -> HookVerdict {
        if self.trace.packets < self.limit {
            self.trace.record(e.now, p);
        }
        HookVerdict::Pass
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn main() {
    let mut controller = Controller::new();
    let lb = controller.class("bulk.flows.LB");

    let mut net = Network::new(1);
    let sender = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        BulkSender::new(2, 7000, 1, 5_000_000, vec![lb.0]),
    ));
    let receiver = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        MeteredSink::new(7000),
    ));
    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let (_, ps) = net.connect(sender, sw, LinkSpec::ten_gbps());
    let (_, pr) = net.connect(receiver, sw, LinkSpec::ten_gbps());
    {
        let s = net.node_mut::<Switch>(sw);
        s.install_route(1, ps);
        s.install_route(2, pr);
        s.install_label(1, pr); // both labels reach the receiver here;
        s.install_label(2, pr); // the tag itself is what we want on file
    }

    // WCMP 10:1 at the sender: Figure 10's sender host
    let rules = fig10::sender_rules(Balancer::Wcmp, lb);
    let wcmp = [functions::wcmp()];
    let enclave = functions::host(&wcmp, Form::Interpreted, Default::default(), rules);
    net.node_mut::<Host<BulkSender>>(sender)
        .stack
        .set_hook(enclave);

    // pcap tap at the receiver
    net.node_mut::<Host<MeteredSink>>(receiver)
        .stack
        .set_hook(Tap {
            trace: PcapTrace::new(),
            limit: 500,
        });

    net.schedule_timer(receiver, Time::ZERO, app_timer_token(0));
    net.schedule_timer(sender, Time::from_micros(10), app_timer_token(0));
    net.run_until(Time::from_millis(20));

    let tap = net
        .node_mut::<Host<MeteredSink>>(receiver)
        .stack
        .hook_mut::<Tap>()
        .expect("tap installed");
    let packets = tap.trace.packets;
    let path = std::path::Path::new("/tmp/eden_wcmp.pcap");
    tap.trace.write_to(path).expect("writable /tmp");
    println!("captured {packets} frames to {}", path.display());
    println!("open it in Wireshark: the 802.1Q VID column shows the WCMP");
    println!("labels (1 = fast path ~10/11 of packets, 2 = slow path ~1/11),");
    println!("with real IPv4 checksums and TCP sequence numbers throughout.");
}
