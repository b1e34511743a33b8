//! Whole-system integration through the `eden` facade: stage → metadata →
//! enclave bytecode → 802.1Q header → switch priority queue → delivery
//! order. If any link of that chain breaks, small flows stop overtaking
//! bulk flows and this test fails.

use eden::core::{Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden::netsim::{LinkSpec, Network, Switch, SwitchConfig, Time};
use eden::transport::{app_timer_token, App, ConnId, Host, Stack, StackConfig};
use netsim::{Ctx, EdenMeta};

/// Sender: one bulk flow (low class) first, then a small message (high
/// class) once the bulk flow is in full swing.
struct TwoClassSender {
    bulk_class: u32,
    small_class: u32,
    bulk_conn: Option<ConnId>,
    small_conn: Option<ConnId>,
}

impl App for TwoClassSender {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        match token {
            0 => {
                // both connections up front: a shared connection would
                // serialize the small message behind the bulk bytes at the
                // transport, and a mid-flow handshake would measure SYN
                // queueing rather than data-path prioritization
                self.bulk_conn = Some(stack.connect(2, 7000, ctx));
                self.small_conn = Some(stack.connect(2, 7000, ctx));
            }
            1 => {
                let conn = self.small_conn.expect("connected at t=0");
                let meta = EdenMeta {
                    classes: vec![self.small_class],
                    msg_id: 2,
                    msg_size: 2000,
                    msg_start: true,
                    ..Default::default()
                };
                stack.send_message(conn, 2000, 2, Some(meta), ctx);
            }
            _ => {}
        }
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if Some(conn) == self.bulk_conn {
            let meta = EdenMeta {
                classes: vec![self.bulk_class],
                msg_id: 1,
                msg_size: 50_000_000,
                msg_start: true,
                ..Default::default()
            };
            stack.send_message(conn, 50_000_000, 1, Some(meta), ctx);
        }
    }
}

/// Receiver: records when each tagged message completes.
#[derive(Default)]
struct Receiver {
    completions: Vec<(u64, Time)>,
}

impl App for Receiver {
    fn on_timer(&mut self, _t: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        stack.listen(7000);
    }

    fn on_message(&mut self, _c: ConnId, tag: u64, _s: u32, _st: &mut Stack, ctx: &mut Ctx<'_>) {
        self.completions.push((tag, ctx.now()));
    }
}

#[test]
fn enclave_priorities_reach_the_switch_scheduler() {
    let mut controller = Controller::new();
    let bulk = controller.class("app.r.BULK");
    let small = controller.class("app.r.SMALL");

    // SFF-style: priority comes from the stage-declared message size
    let bundle = eden::apps::functions::sff();
    // four lanes: the bulk flow's bursts fan out, so the lane path is the
    // one that has to carry the priorities to the switch
    let build_enclave = |controller: &Controller| {
        let mut e = Enclave::new(EnclaveConfig {
            lanes: 4,
            ..EnclaveConfig::default()
        });
        e.apply([
            controller
                .plan_function("sff", &bundle.source, &bundle.schema())
                .expect("compiles"),
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::AnyOf(vec![bulk, small]),
                func: 0,
            },
            EnclaveOp::SetArray {
                func: 0,
                array: 0,
                values: vec![10 * 1024, 7, i64::MAX, 0],
            },
        ])
        .expect("valid ops");
        e
    };

    // Topology: sender -10G- switch -1G- receiver (slow egress → backlog)
    let run = |with_enclave: bool| -> (Time, Time) {
        let mut net = Network::new(5);
        let sender = net.add_node(Host::new(
            Stack::new(1, StackConfig::default()),
            TwoClassSender {
                bulk_class: bulk.0,
                small_class: small.0,
                bulk_conn: None,
                small_conn: None,
            },
        ));
        let receiver = net.add_node(Host::new(
            Stack::new(2, StackConfig::default()),
            Receiver::default(),
        ));
        let sw = net.add_node(Switch::new(SwitchConfig::default()));
        let (_, p1) = net.connect(sender, sw, LinkSpec::ten_gbps());
        let (_, p2) = net.connect(receiver, sw, LinkSpec::one_gbps());
        {
            let s = net.node_mut::<Switch>(sw);
            s.install_route(1, p1);
            s.install_route(2, p2);
        }
        if with_enclave {
            let e = build_enclave(&controller);
            net.node_mut::<Host<TwoClassSender>>(sender)
                .stack
                .set_hook(e);
        }
        net.schedule_timer(receiver, Time::ZERO, app_timer_token(0));
        net.schedule_timer(sender, Time::from_micros(1), app_timer_token(0));
        // small message injected at 20ms, well into the bulk transfer
        net.schedule_timer(sender, Time::from_millis(20), app_timer_token(1));
        net.run_until(Time::from_millis(600));

        let comps = &net.node::<Host<Receiver>>(receiver).app.completions;
        let small_done = comps
            .iter()
            .find(|(t, _)| *t == 2)
            .map(|&(_, at)| at)
            .expect("small message completes");
        let bulk_done = comps
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|&(_, at)| at)
            .unwrap_or(Time::from_secs(100));
        (small_done, bulk_done)
    };

    let (small_plain, _) = run(false);
    let (small_eden, bulk_eden) = run(true);

    // Without the enclave the 2KB message waits behind the bulk backlog at
    // the switch; with SFF priorities it overtakes.
    let plain_latency = small_plain.saturating_sub(Time::from_millis(20));
    let eden_latency = small_eden.saturating_sub(Time::from_millis(20));
    assert!(
        eden_latency.as_nanos() * 5 < plain_latency.as_nanos(),
        "priorities must cut the small message's completion time >5x: \
         plain {plain_latency}, eden {eden_latency}"
    );
    assert!(
        small_eden < bulk_eden,
        "small message finishes before the 50MB bulk flow"
    );
}

#[test]
fn same_seed_same_everything() {
    // Determinism across the whole stack: two identical fig9 runs produce
    // byte-identical completion lists.
    use eden_bench::fig09::{run, Config, Engine, Scheme};
    let cfg = Config {
        seed: 77,
        duration: Time::from_millis(30),
        ..Default::default()
    };
    let a = run(Scheme::Pias, Engine::Eden, &cfg);
    let b = run(Scheme::Pias, Engine::Eden, &cfg);
    assert_eq!(a.small_us, b.small_us);
    assert_eq!(a.intermediate_us, b.intermediate_us);
    assert_eq!(a.background_bytes, b.background_bytes);
}

#[test]
fn eden_and_native_make_identical_decisions_in_vivo() {
    // In virtual time the interpreter costs nothing, so the two engines
    // must produce *identical* application results — the structural
    // counterpart of the paper's "differences are not statistically
    // significant".
    use eden_bench::fig09::{run, Config, Engine, Scheme};
    let cfg = Config {
        seed: 3,
        duration: Time::from_millis(30),
        ..Default::default()
    };
    let native = run(Scheme::Pias, Engine::Native, &cfg);
    let eden = run(Scheme::Pias, Engine::Eden, &cfg);
    assert_eq!(native.small_us, eden.small_us);
    assert_eq!(native.intermediate_us, eden.intermediate_us);
}
