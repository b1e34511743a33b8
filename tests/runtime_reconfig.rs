//! Runtime reconfiguration: "allowing for the functions to be dynamically
//! updated by the controller without impacting data plane performance"
//! (§3.4.3). The controller reaches a *running* host's enclave between
//! simulation epochs and (a) retunes global state (PIAS thresholds —
//! "calculated periodically", §2.1.3), and (b) installs a brand-new
//! compiled function and rewires the match rule, all without restarting
//! anything or losing per-message state.

use eden::apps::functions;
use eden::core::{Controller, Enclave, EnclaveConfig, EnclaveOp};
use eden::netsim::{EdenMeta, LinkSpec, Network, Switch, SwitchConfig, Time};
use eden::transport::{app_timer_token, App, ConnId, Host, Stack, StackConfig};
use netsim::Ctx;

/// Streams fixed-size messages forever; one message per timer tick.
struct Ticker {
    class: u32,
    conn: Option<ConnId>,
    next_msg: u64,
}

impl App for Ticker {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        match token {
            0 => {
                self.conn = Some(stack.connect(2, 7000, ctx));
            }
            1 => {
                if let Some(conn) = self.conn {
                    let meta = EdenMeta {
                        classes: vec![self.class],
                        msg_id: self.next_msg,
                        msg_size: 1000,
                        msg_start: true,
                        ..Default::default()
                    };
                    stack.send_message(conn, 1000, self.next_msg, Some(meta), ctx);
                    self.next_msg += 1;
                    ctx.timer_in(Time::from_micros(100), app_timer_token(1));
                }
            }
            _ => {}
        }
    }

    fn on_connected(&mut self, _c: ConnId, _s: &mut Stack, ctx: &mut Ctx<'_>) {
        ctx.timer_in(Time::from_micros(1), app_timer_token(1));
    }
}

/// Listens for the ticker's stream; the recording happens in the host's
/// ingress hook below.
#[derive(Default)]
struct PrioritySink;

impl App for PrioritySink {
    fn on_timer(&mut self, _t: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        stack.listen(7000);
    }
}

// record priorities at the ingress hook of the sink host
struct RecordPrio {
    seen: Vec<(Time, u8)>,
}

impl eden::transport::PacketHook for RecordPrio {
    fn on_egress(
        &mut self,
        _p: &mut netsim::Packet,
        _e: &mut eden::transport::HookEnv<'_>,
    ) -> eden::transport::HookVerdict {
        eden::transport::HookVerdict::Pass
    }

    fn on_ingress(
        &mut self,
        p: &mut netsim::Packet,
        e: &mut eden::transport::HookEnv<'_>,
    ) -> eden::transport::HookVerdict {
        if p.payload_len > 0 {
            self.seen.push((e.now, p.priority()));
        }
        eden::transport::HookVerdict::Pass
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Epoch-based rule swap against a live batch pipeline: every
/// `process_batch` call runs against exactly one epoch's rule table —
/// a swap staged (or even committed) between batches can never split a
/// batch across configurations.
#[test]
fn epoch_swap_between_batches_is_observed_atomically() {
    use eden::ctrl::fleet::prio_epoch;
    use eden::netsim::{Packet, SimRng, UdpHeader};

    let mut enclave = Enclave::new(EnclaveConfig::default());
    enclave.stage_epoch(1, prio_epoch(3)).expect("valid");
    assert!(enclave.commit_epoch(1));

    let mut rng = SimRng::new(5);
    let batch = |n: u64| -> Vec<Packet> {
        (0..16)
            .map(|_| Packet::udp(1, 2, UdpHeader::default(), 400 + n as usize))
            .collect()
    };

    let mut batch_prios: Vec<Vec<u8>> = Vec::new();
    for i in 0..20u64 {
        // Mid-sequence, swap the rule set: stage after batch 5 (staging
        // alone must be invisible), commit after batch 10.
        if i == 5 {
            enclave.stage_epoch(2, prio_epoch(6)).expect("valid");
        }
        if i == 10 {
            assert!(enclave.commit_epoch(2));
        }
        let mut packets = batch(i);
        enclave.process_batch(&mut packets, &mut rng, eden::netsim::Time::from_micros(i));
        assert!(
            enclave.serves_single_epoch(),
            "mixed-epoch table after batch {i}"
        );
        batch_prios.push(packets.iter().map(|p| p.priority()).collect());
    }

    for (i, prios) in batch_prios.iter().enumerate() {
        let expect = if i < 10 { 3 } else { 6 };
        assert!(
            prios.iter().all(|&p| p == expect),
            "batch {i} not homogeneous at priority {expect}: {prios:?}"
        );
    }
}

#[test]
fn controller_retunes_and_replaces_functions_mid_run() {
    let mut controller = Controller::new();
    let class = controller.class("app.r.STREAM");

    let mut net = Network::new(11);
    let sender = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        Ticker {
            class: class.0,
            conn: None,
            next_msg: 1,
        },
    ));
    let sink = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        PrioritySink,
    ));
    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let (_, p1) = net.connect(sender, sw, LinkSpec::ten_gbps());
    let (_, p2) = net.connect(sink, sw, LinkSpec::ten_gbps());
    {
        let s = net.node_mut::<Switch>(sw);
        s.install_route(1, p1);
        s.install_route(2, p2);
    }

    // sender enclave: SFF with priority 5 for everything ≤ 1MB
    let bundle = functions::sff();
    let ladder = |prio| EnclaveOp::SetArray {
        func: 0,
        array: 0,
        values: vec![1 << 20, prio, i64::MAX, 0],
    };
    let mut enclave = Enclave::new(EnclaveConfig::default());
    enclave
        .apply([
            controller
                .plan_function("sff", &bundle.source, &bundle.schema())
                .expect("compiles"),
            EnclaveOp::class_rule(class, 0),
            ladder(5),
        ])
        .expect("valid ops");
    net.node_mut::<Host<Ticker>>(sender).stack.set_hook(enclave);
    net.node_mut::<Host<PrioritySink>>(sink)
        .stack
        .set_hook(RecordPrio { seen: Vec::new() });

    net.schedule_timer(sink, Time::ZERO, app_timer_token(0));
    net.schedule_timer(sender, Time::from_micros(1), app_timer_token(0));

    // epoch 1: run 5ms with priority 5
    net.run_until(Time::from_millis(5));

    // --- controller action (a): retune thresholds in the live enclave ----
    {
        let host = net.node_mut::<Host<Ticker>>(sender);
        let enclave = host.stack.hook_mut::<Enclave>().expect("enclave installed");
        enclave.apply([ladder(7)]).expect("valid ops");
    }
    net.run_until(Time::from_millis(10));

    // --- controller action (b): ship a different function + rewire -------
    {
        let host = net.node_mut::<Host<Ticker>>(sender);
        let enclave = host.stack.hook_mut::<Enclave>().expect("enclave installed");
        let fixed = functions::fixed_priority();
        let shipped = controller
            .plan_function("fixed", &fixed.source, &fixed.schema())
            .expect("ships");
        enclave
            .apply([
                shipped,
                EnclaveOp::SetGlobal {
                    func: 1,
                    slot: 0,
                    value: 2,
                },
                EnclaveOp::ClearTable { table: 0 },
                EnclaveOp::class_rule(class, 1),
            ])
            .expect("decodes, verifies and links");
    }
    net.run_until(Time::from_millis(15));

    // --- verify: three epochs, three priorities, no gaps ------------------
    let seen = net
        .node_mut::<Host<PrioritySink>>(sink)
        .stack
        .hook_mut::<RecordPrio>()
        .expect("recorder installed")
        .seen
        .clone();
    let epoch = |from: u64, to: u64| -> Vec<u8> {
        seen.iter()
            .filter(|(t, _)| {
                *t > Time::from_millis(from) + Time::from_micros(200) && *t < Time::from_millis(to)
            })
            .map(|&(_, p)| p)
            .collect()
    };
    let e1 = epoch(0, 5);
    let e2 = epoch(5, 10);
    let e3 = epoch(10, 15);
    assert!(
        e1.len() > 20 && e2.len() > 20 && e3.len() > 20,
        "traffic flowed in every epoch"
    );
    assert!(e1.iter().all(|&p| p == 5), "epoch 1 at priority 5: {e1:?}");
    assert!(e2.iter().all(|&p| p == 7), "epoch 2 retuned to 7");
    assert!(e3.iter().all(|&p| p == 2), "epoch 3 replaced function at 2");
}
