//! Telemetry end-to-end: a controller pulls a `StatsSnapshot` from an
//! enclave running inside a live host stack, the stack's packet-path
//! flight events record the journey, opcode profiling attributes interpreter work,
//! and the fabric monitor samples switch queues — all without changing
//! what the data path does.

use eden::core::{Controller, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden::netsim::{LinkSpec, Network, QueueMonitor, Switch, SwitchConfig, Time};
use eden::telemetry::{FlightKind, ToJson};
use eden::transport::{app_timer_token, App, ConnId, Host, Stack, StackConfig};
use netsim::{Ctx, EdenMeta};

/// Sends one tagged bulk message as soon as its connection is up.
struct BulkSender {
    class: u32,
    conn: Option<ConnId>,
}

impl App for BulkSender {
    fn on_timer(&mut self, _token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        self.conn = Some(stack.connect(2, 7000, ctx));
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let meta = EdenMeta {
            classes: vec![self.class],
            msg_id: 1,
            msg_size: 400_000,
            msg_start: true,
            ..Default::default()
        };
        stack.send_message(conn, 400_000, 1, Some(meta), ctx);
    }
}

#[derive(Default)]
struct Sink {
    messages: u64,
}

impl App for Sink {
    fn on_timer(&mut self, _t: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        stack.listen(7000);
    }

    fn on_message(&mut self, _c: ConnId, _tag: u64, _s: u32, _st: &mut Stack, _ctx: &mut Ctx<'_>) {
        self.messages += 1;
    }
}

#[test]
fn controller_pulls_snapshot_from_running_enclave() {
    let mut controller = Controller::new();
    let class = controller.class("app.r.BULK");

    let bundle = eden::apps::functions::sff();
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let f = enclave.install_function(eden::core::InstalledFunction::interpreted(
        "sff",
        controller
            .compile_function("sff", &bundle.source, &bundle.schema())
            .expect("compiles"),
    ));
    enclave.install_rule(TableId(0), MatchSpec::Class(class), f);
    enclave.set_array(f, 0, vec![10 * 1024, 7, i64::MAX, 0]);
    enclave.set_opcode_profiling(true);

    let mut net = Network::new(9);
    let sender = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        BulkSender {
            class: class.0,
            conn: None,
        },
    ));
    let receiver = net.add_node(Host::new(
        Stack::new(2, StackConfig::default()),
        Sink::default(),
    ));
    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let (_, p1) = net.connect(sender, sw, LinkSpec::ten_gbps());
    let (_, p2) = net.connect(receiver, sw, LinkSpec::one_gbps());
    {
        let s = net.node_mut::<Switch>(sw);
        s.install_route(1, p1);
        s.install_route(2, p2);
    }
    {
        let stack = &mut net.node_mut::<Host<BulkSender>>(sender).stack;
        stack.set_hook(enclave);
        stack.enable_trace(16384);
    }
    net.schedule_timer(receiver, Time::ZERO, app_timer_token(0));
    net.schedule_timer(sender, Time::from_micros(1), app_timer_token(0));

    // run with the fabric monitor sampling the switch
    let mut monitor = QueueMonitor::new(Time::from_micros(100), 4096);
    net.run_monitored(Time::from_millis(20), &[sw], &mut monitor);

    assert!(
        net.node::<Host<Sink>>(receiver).app.messages >= 1,
        "bulk message delivered"
    );

    // --- the controller's stats pull -----------------------------------
    let stack = &mut net.node_mut::<Host<BulkSender>>(sender).stack;
    let snap = controller
        .pull_host_stats(stack)
        .expect("sender stack has an enclave hook");

    assert!(snap.enclave.packets > 0, "enclave saw traffic");
    assert!(snap.enclave.conserved(), "conservation invariant");
    assert_eq!(snap.enclave.forwarded, snap.enclave.packets);
    assert!(snap.captured_at_ns > 0, "stamped with enclave time");

    // per-table / per-rule / per-function attribution
    assert_eq!(snap.tables.len(), 1);
    assert!(snap.tables[0].counts.lookups > 0);
    assert_eq!(snap.rules.len(), 1);
    assert!(snap.rules[0].counts.hits > 0, "the SFF rule matched");
    assert_eq!(snap.functions.len(), 1);
    assert_eq!(snap.functions[0].name, "sff");
    assert!(snap.functions[0].counts.invocations > 0);
    assert_eq!(snap.functions[0].counts.faults, 0);

    // interpreter counters + the opcode histogram we enabled
    assert!(snap.vm.invocations > 0, "interpreted function ran");
    assert!(snap.vm.steps > 0);
    assert_eq!(snap.vm.traps, 0);
    assert!(
        !snap.opcode_counts.is_empty(),
        "opcode profiling was enabled"
    );

    // host-stack views merged in by pull_host_stats
    assert!(!snap.flows.is_empty(), "per-flow TCP stats present");
    assert!(snap.flows[0].counts.packets_sent > 0);
    let host = snap.host.as_ref().expect("host counters present");
    assert_eq!(host.hook_drops, 0, "the SFF function drops nothing");

    // the whole snapshot renders as one JSON document
    let json = snap.to_json().render();
    for key in [
        "\"enclave\"",
        "\"tables\"",
        "\"vm\"",
        "\"flows\"",
        "\"host\"",
    ] {
        assert!(json.contains(key), "snapshot JSON has {key}");
    }

    // plain pull from the enclave alone also works (flows/host empty)
    let hook_snap = {
        let e = stack.hook_mut::<Enclave>().expect("hook present");
        controller.pull_stats(e)
    };
    assert_eq!(hook_snap.enclave.packets, snap.enclave.packets);
    assert!(hook_snap.flows.is_empty());
    assert!(hook_snap.host.is_none());

    // --- packet-path flight events -------------------------------------
    let trace = stack.take_trace().expect("tracing was enabled");
    assert!(trace.recorded() > 0, "trace events recorded");
    let kinds: Vec<FlightKind> = trace.iter().map(|ev| ev.kind).collect();
    let send = trace
        .iter()
        .find(|ev| ev.kind == FlightKind::StackSend)
        .expect("send_message traced");
    assert_eq!((send.a, send.b), (1, u64::from(class.0)), "app tag, class");
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            FlightKind::EnclavePass | FlightKind::EnclaveQueue | FlightKind::EnclaveDrop
        )),
        "enclave verdict traced"
    );
    assert!(
        kinds.contains(&FlightKind::WireTx) && kinds.contains(&FlightKind::WireDeliver),
        "wire tx/deliver traced"
    );
    let trace_json = trace.to_json().render();
    assert!(
        trace_json.contains(r#""kind":"stack_send""#),
        "{trace_json:.200}"
    );

    // --- fabric sampling -----------------------------------------------
    assert_eq!(monitor.series().len(), 1, "one switch sampled");
    let series = &monitor.series()[0];
    assert!(series.occupancy_bytes.len() > 10, "periodic samples taken");
    assert!(
        series.occupancy_bytes.max().unwrap_or(0.0) > 0.0,
        "the 10G->1G bottleneck queued bytes at the switch"
    );
}
