//! `fullstack`: app → stage → transport → enclave → wire, in one
//! `netsim::Network` holding the three case-study islands at once.
//!
//! * flow scheduling: a `RequestClient`/`Worker` pair under three
//!   `BackgroundSender`s, interpreted `pias` on every sender;
//! * load balancing: four `BulkSender` flows sprayed by interpreted `wcmp`
//!   over a 10G and a 1G path;
//! * storage QoS: a READ and a WRITE tenant against one server, interpreted
//!   `pulsar` queueing the READ tenant behind a rate limiter.
//!
//! The islands share nothing but the event loop, so together they cover
//! every verdict kind (header write, route label, `Queue`) in one run.

use eden_apps::apps::bulk::{BulkSender, MeteredSink};
use eden_apps::apps::reqresp::{BackgroundSender, RequestClient, Worker};
use eden_apps::apps::storage::{StorageServer, TenantClient};
use eden_apps::functions::{self, FunctionBundle, MSG_TYPE_READ, MSG_TYPE_WRITE};
use eden_apps::stages::storage_stage;
use eden_apps::workload::{FlowSizeDist, PoissonArrivals};
use eden_core::{
    ClassId, Controller, Enclave, EnclaveConfig, EnclaveStats, FuncId, MatchSpec, Stage, TableId,
};
use netsim::{LinkSpec, Network, NodeId, SimRng, Switch, SwitchConfig, Time};
use transport::{app_timer_token, App, ConnId, Host, Stack, StackConfig, TcpConfig};

use crate::harness::{Check, Round, Sampler, Workload};
use crate::spec::Metrics;
use crate::trace::{Agg, Report, Tag};
use crate::wrap::{TracedApp, TracedHook, TracedNode};

/// Virtual time per timed sample.
const SLICE: Time = Time::from_millis(1);
/// Virtual time simulated before the first timed sample: past slow start.
const WARM: Time = Time::from_millis(30);
/// After the last timed sample outstanding requests get this much virtual
/// time to finish, [`DRAIN_STEPS`] times over at most: a 30 MB response
/// sharing the lowest priority with three background flows takes a while.
const DRAIN_STEP: Time = Time::from_millis(100);
const DRAIN_STEPS: usize = 20;
/// Bytes of a flow that must outlast any run; TCP sequence numbers are 32
/// bits and do not wrap in this stack.
const FOREVER: u32 = 4_000_000_000;
/// A stop time no run reaches.
const NEVER: Time = Time(u64::MAX);

type TracedHost<A> = Host<TracedApp<A>>;
/// Reaches a host's stack whatever its application type.
type StackOf = Box<dyn Fn(&mut Network) -> &mut Stack>;

struct HostRef {
    stack: StackOf,
    /// Whether an enclave sits on this host's egress.
    enclave: bool,
}

/// The network under construction.
struct Fabric {
    net: Network,
    hosts: Vec<HostRef>,
    switches: Vec<NodeId>,
    controller: Controller,
}

impl Fabric {
    /// Add a host, its node and application wrapped for tracing, and start
    /// its application at `start`; returns its node and its index in `hosts`.
    fn host<A: App>(&mut self, stack: Stack, app: A, start: Time) -> (NodeId, usize) {
        let host = Host::new(stack, TracedApp::new(Tag::App, app));
        let id = self.net.add_node(TracedNode::new(Tag::NodeHost, host));
        self.net.schedule_timer(id, start, app_timer_token(0));
        self.hosts.push(HostRef {
            stack: Box::new(move |net| &mut net.node_mut::<TracedHost<A>>(id).stack),
            enclave: false,
        });
        (id, self.hosts.len() - 1)
    }

    fn switch(&mut self, per_queue_bytes: usize) -> NodeId {
        let id = self
            .net
            .add_node(Switch::new(SwitchConfig { per_queue_bytes }));
        self.switches.push(id);
        id
    }

    /// Connect `host` (address `addr`) to `switch` and route to it.
    fn attach(&mut self, host: NodeId, addr: u32, switch: NodeId, link: LinkSpec) {
        let (_, port) = self.net.connect(host, switch, link);
        self.net
            .node_mut::<Switch>(switch)
            .install_route(addr, port);
    }

    /// Put an enclave running `bundle`, interpreted, on `class` below the
    /// stack of host `at`; `state` installs what the function reads.
    fn enclave(
        &mut self,
        at: usize,
        bundle: FunctionBundle,
        class: ClassId,
        state: impl FnOnce(&mut Enclave, FuncId, &mut Stack),
    ) {
        let mut enclave = Enclave::new(EnclaveConfig::default());
        let f = enclave.install_function(bundle.interpreted());
        enclave.install_rule(TableId(0), MatchSpec::Class(class), f);
        let stack = (self.hosts[at].stack)(&mut self.net);
        state(&mut enclave, f, stack);
        stack.set_hook(TracedHook(enclave));
        self.hosts[at].enclave = true;
    }
}

/// Case study 1 (addresses 1..=5): a client fires requests at a worker that
/// answers with search-sized flows at 70% of the client's 10G downlink,
/// while three background senders fill the rest; `pias` demotes by bytes
/// sent on every sender. Returns the client.
fn flow_scheduling(f: &mut Fabric, seed: u64) -> NodeId {
    let all = f.controller.class("app.flows.ALL");
    let dist = FlowSizeDist::web_search();
    let mean = dist.empirical_mean(&mut SimRng::new(0xE0E0), 20_000);
    let arrivals = PoissonArrivals::for_load(10e9, 0.7, mean);
    let client_rng = SimRng::new(seed.wrapping_add(11));
    let client_app = RequestClient::new(2, 7000, arrivals, client_rng, 64, NEVER);
    let mut worker_app = Worker::new(7000, dist, SimRng::new(seed.wrapping_add(22)));
    let mut stage = Stage::new("app", &["msg_type", "msg_size"], &["msg_id", "msg_size"]);
    f.controller
        .create_stage_rule(&mut stage, "flows", vec![], "ALL");
    worker_app.stage = stage;

    let stack = |addr| Stack::new(addr, StackConfig::default());
    let (client, _) = f.host(stack(1), client_app, Time::from_micros(1));
    let mut island = vec![(client, None)];
    let (worker, at) = f.host(stack(2), worker_app, Time::ZERO);
    island.push((worker, Some(at)));
    for i in 0..3 {
        let app = BackgroundSender::new(1, 7001, FOREVER, vec![all.0], 1 + i);
        let (node, at) = f.host(stack(3 + i as u32), app, Time::from_micros(100 + 7 * i));
        island.push((node, Some(at)));
    }
    let sw = f.switch(1 << 20);
    // the testbed's kernel and NIC latency, folded into the access links
    let access = LinkSpec {
        propagation: Time::from_micros(26),
        ..LinkSpec::ten_gbps()
    };
    for (i, &(node, sender)) in island.iter().enumerate() {
        f.attach(node, 1 + i as u32, sw, access);
        if let Some(at) = sender {
            f.enclave(at, functions::pias(), all, |enclave, func, _| {
                let rows = Controller::fixed_thresholds([7, 5, 1]);
                enclave.set_array(func, 0, Controller::flatten_pairs(&rows));
            });
        }
    }
    client
}

/// Case study 2 (addresses 11, 12): four long flows sprayed per packet by
/// `wcmp`, 10:1, over a 10G and a 1G path. Returns the sender's index in
/// `hosts` and the sink.
fn load_balancing(f: &mut Fabric) -> (usize, NodeId) {
    let lb = f.controller.class("bulk.flows.LB");
    // spraying reorders constantly; the stack tolerates it RACK-style
    let cfg = StackConfig {
        tcp: TcpConfig {
            reorder_window: Some(Time::from_micros(100)),
            ..TcpConfig::default()
        },
        ..StackConfig::default()
    };
    let sender_app = BulkSender::new(12, 7000, 4, FOREVER, vec![lb.0]);
    let (sender, at) = f.host(Stack::new(11, cfg), sender_app, Time::from_micros(10));
    let (sink, _) = f.host(Stack::new(12, cfg), MeteredSink::new(7000), Time::ZERO);
    let (sw0, sw1) = (f.switch(150_000), f.switch(150_000));
    f.attach(sender, 11, sw0, LinkSpec::ten_gbps());
    f.attach(sink, 12, sw1, LinkSpec::forty_gbps());
    let (sw0_fast, sw1_fast) = f.net.connect(sw0, sw1, LinkSpec::ten_gbps());
    let (sw0_slow, _) = f.net.connect(sw0, sw1, LinkSpec::one_gbps());
    // labels: 1 = fast path, 2 = slow path; unlabelled SYNs and the
    // returning ACKs take the fast one
    let s0 = f.net.node_mut::<Switch>(sw0);
    s0.install_label(1, sw0_fast);
    s0.install_label(2, sw0_slow);
    s0.install_route(12, sw0_fast);
    f.net.node_mut::<Switch>(sw1).install_route(11, sw1_fast);
    f.enclave(at, functions::wcmp(), lb, |enclave, func, _| {
        enclave.set_array(func, 0, vec![1, 10, 2, 1]);
        enclave.set_global(func, 0, 11);
    });
    (at, sink)
}

/// Case study 3 (addresses 21..=23): a READ and a WRITE tenant issue 64 KB
/// IOs against one server behind a 1G link; `pulsar` charges the READ
/// tenant's requests by operation size at a 500 Mb/s limiter. Returns the
/// tenants and the server.
fn storage_qos(f: &mut Fabric) -> ([NodeId; 2], NodeId) {
    let (read_stage, classes) = storage_stage(&mut f.controller);
    let (write_stage, _) = storage_stage(&mut f.controller);
    // a limiter below TCP delays packets; a datacenter min RTO would read
    // that as loss and have the limiter charge the retransmissions too
    let cfg = StackConfig {
        tcp: TcpConfig {
            min_rto: Time::from_millis(50),
            ..TcpConfig::default()
        },
        ..StackConfig::default()
    };
    const IO: u32 = 64 * 1024;
    let tenant = |id, msg_type, window, stage| {
        TenantClient::new(23, 7100, id, msg_type, IO, window, stage, NEVER)
    };
    let read_app = tenant(0, MSG_TYPE_READ, 24, read_stage);
    let (reader, at) = f.host(Stack::new(21, cfg), read_app, Time::from_micros(10));
    let write_app = tenant(1, MSG_TYPE_WRITE, 8, write_stage);
    let (writer, _) = f.host(Stack::new(22, cfg), write_app, Time::from_micros(20));
    let server_app = StorageServer::new(7100, 1_000_000_000);
    let server_stack = Stack::new(23, StackConfig::default());
    let (server, _) = f.host(server_stack, server_app, Time::ZERO);
    let sw = f.switch(SwitchConfig::default().per_queue_bytes);
    f.attach(reader, 21, sw, LinkSpec::ten_gbps());
    f.attach(writer, 22, sw, LinkSpec::ten_gbps());
    f.attach(server, 23, sw, LinkSpec::one_gbps());
    f.enclave(
        at,
        functions::pulsar(),
        classes.io,
        |enclave, func, stack| {
            let queue = stack.add_limiter(500_000_000, u64::from(IO));
            enclave.set_array(func, 0, vec![queue as i64]);
        },
    );
    ([reader, writer], server)
}

pub struct Fullstack {
    net: Network,
    hosts: Vec<HostRef>,
    switches: Vec<NodeId>,
    client: NodeId,
    sink: NodeId,
    bulk: usize,
    tenants: [NodeId; 2],
    server: NodeId,
    now: Time,
    /// Packets through the enclaves so far.
    packets: u64,
    /// Counters when set-up ended: events, switch drops, retransmits.
    base: [u64; 3],
    base_packets: u64,
}

impl Fullstack {
    pub fn build(seed: u64) -> Fullstack {
        let mut f = Fabric {
            net: Network::new(seed),
            hosts: Vec::new(),
            switches: Vec::new(),
            controller: Controller::new(),
        };
        let client = flow_scheduling(&mut f, seed);
        let (bulk, sink) = load_balancing(&mut f);
        let (tenants, server) = storage_qos(&mut f);
        let mut w = Fullstack {
            net: f.net,
            hosts: f.hosts,
            switches: f.switches,
            client,
            sink,
            bulk,
            tenants,
            server,
            now: Time::ZERO,
            packets: 0,
            base: [0; 3],
            base_packets: 0,
        };
        w.run_to(WARM);
        w.base = w.counters();
        w.base_packets = w.packets;
        w
    }

    fn app<A: App>(&self, id: NodeId) -> &A {
        &self.net.node::<TracedHost<A>>(id).app.inner
    }

    fn app_mut<A: App>(&mut self, id: NodeId) -> &mut A {
        &mut self.net.node_mut::<TracedHost<A>>(id).app.inner
    }

    /// Advance virtual time to `until`; returns the packets that crossed an
    /// enclave on the way.
    fn run_to(&mut self, until: Time) -> u64 {
        self.net.run_until(until);
        self.now = until;
        let before = self.packets;
        self.packets = self.enclave_stats().iter().map(|s| s.packets).sum();
        self.packets - before
    }

    fn enclave_stats(&mut self) -> Vec<EnclaveStats> {
        let net = &mut self.net;
        self.hosts
            .iter()
            .filter(|h| h.enclave)
            .map(|h| {
                let enclave = (h.stack)(net).hook_mut::<Enclave>();
                enclave.expect("enclave installed").stats
            })
            .collect()
    }

    /// `[events, switch drops, retransmits]` so far.
    fn counters(&mut self) -> [u64; 3] {
        let drops = self
            .switches
            .iter()
            .map(|&s| self.net.node::<Switch>(s).total_drops())
            .sum();
        let net = &mut self.net;
        let retransmits = self
            .hosts
            .iter()
            .map(|h| {
                let stack = (h.stack)(net);
                (0..stack.conn_count())
                    .map(|c| stack.conn_stats(ConnId(c)).retransmits)
                    .sum::<u64>()
            })
            .sum();
        [self.net.events_processed(), drops, retransmits]
    }
}

impl Sampler for Fullstack {
    fn sample(&mut self) -> u64 {
        self.run_to(self.now + SLICE)
    }
}

impl Workload for Fullstack {
    fn count_samples(&self) -> usize {
        50
    }

    fn counts(&mut self, ops: u64, spans: &[Agg; Tag::COUNT], m: &mut Metrics) {
        let now = self.counters();
        let per_op = |i: usize| (now[i] - self.base[i]) as f64 / ops as f64;
        m.set("netsim.events_per_op", per_op(0));
        m.set("netsim.switch_drops_per_kop", per_op(1) * 1e3);
        m.set("transport.retransmits_per_kop", per_op(2) * 1e3);
        // packets per egress hook call, whichever entry point the stack took
        let (one, many) = (
            spans[Tag::HookEgress as usize],
            spans[Tag::HookEgressBatch as usize],
        );
        m.set(
            "transport.egress_batch_mean",
            (one.items + many.items) as f64 / (one.count + many.count) as f64,
        );
        let faults: u64 = self.enclave_stats().iter().map(|s| s.faults).sum();
        m.set("core.faults", faults as f64);
    }

    fn layers(&mut self, round: &Round, report: &Report, m: &mut Metrics) {
        let per_op = |ns: u64| ns as f64 / round.ops as f64;
        // what a slice spends outside every host: event queue, links, switches
        m.set(
            "netsim.self_ns_per_op",
            per_op(report.self_ns(&[Tag::Sample])),
        );
        m.set(
            "transport.self_ns_per_op",
            per_op(report.self_ns(&[Tag::NodeHost])),
        );
        m.set("apps.self_ns_per_op", per_op(report.self_ns(&[Tag::App])));
        let hooks = [Tag::HookEgress, Tag::HookEgressBatch, Tag::HookIngress];
        m.set("core.hook_ns_per_op", per_op(report.total_ns(&hooks)));
        let events = self.net.events_processed() - self.base[0];
        m.set(
            "netsim.events_per_s",
            events as f64 * 1e9 / round.timed_ns as f64,
        );
    }

    fn check(&mut self) -> Check {
        let measured = self.packets - self.base_packets;
        // Long flows must have outlasted the timed region, or its tail
        // measured an emptier network than its head.
        let bulk_open = {
            let stack = (self.hosts[self.bulk].stack)(&mut self.net);
            (0..stack.conn_count()).all(|c| !stack.conn_all_acked(ConnId(c)))
        };
        // Stop the request sources, let what is outstanding finish.
        let now = self.now;
        self.app_mut::<RequestClient>(self.client).stop_at = now;
        for t in self.tenants {
            self.app_mut::<TenantClient>(t).stop_at = now;
        }
        for _ in 0..DRAIN_STEPS {
            self.run_to(self.now + DRAIN_STEP);
            if self.app::<RequestClient>(self.client).outstanding == 0 {
                break;
            }
        }

        let mut c = Check {
            attempted: measured,
            ..Check::default()
        };
        c.require(bulk_open, || {
            "a bulk flow ended inside the timed region".into()
        });
        let client = self.app::<RequestClient>(self.client);
        c.attempted += (client.completions.len() + client.outstanding) as u64;
        c.failed += client.outstanding as u64;
        let ios: usize = self
            .tenants
            .iter()
            .map(|&t| self.app::<TenantClient>(t).completions.len())
            .sum();
        let serviced = self.app::<StorageServer>(self.server).ops_serviced;
        c.attempted += serviced;
        c.failed += serviced.abs_diff(ios as u64);

        // every byte the bulk sender saw acknowledged reached the sink, in order
        let acked: u64 = {
            let stack = (self.hosts[self.bulk].stack)(&mut self.net);
            (0..stack.conn_count())
                .map(|i| stack.conn_stats(ConnId(i)).bytes_acked)
                .sum()
        };
        let sunk = self.app::<MeteredSink>(self.sink).bytes;
        c.require(
            acked > 0 && acked <= sunk && sunk <= 4 * u64::from(FOREVER),
            || format!("bulk sender saw {acked} bytes acked, the sink holds {sunk}"),
        );

        let stats = self.enclave_stats();
        c.failed += stats.iter().map(|s| s.faults).sum::<u64>();
        c.require(stats.iter().all(EnclaveStats::conserved), || {
            format!("an enclave stopped conserving: {stats:?}")
        });
        let (writes, queued) = stats
            .iter()
            .fold((0, 0), |(w, q), s| (w + s.header_modifies, q + s.queued));
        c.require(writes > 0 && queued > 0, || {
            format!("{writes} header writes and {queued} queue verdicts")
        });
        let dropped: u64 = self
            .hosts
            .iter()
            .map(|h| {
                let counters = (h.stack)(&mut self.net).host_counters();
                counters.hook_drops + counters.bad_queue_drops
            })
            .sum();
        c.require(dropped == 0, || {
            format!("{dropped} packets dropped below TCP")
        });
        c
    }
}
