//! Figure 9 — case study 1: flow scheduling (PIAS and SFF vs. baseline).
//!
//! Setup mirrors §5.1: one worker answers requests with response flows
//! drawn from a search-like size distribution at ~70% load on the client's
//! 10 Gbps downlink, while three background sources pump long flows at the
//! same client. Priority thresholds define three classes — small (<10 KB,
//! highest), intermediate (10 KB–1 MB), background. We report the mean and
//! 95th-percentile flow completion time of small and intermediate response
//! flows, for {baseline, PIAS, SFF} × {native, Eden}.
//!
//! The "baseline/Eden" arm reproduces the paper's subtlety: classification
//! and the data-plane function run, "but ignoring the interpreter output
//! before packets are transmitted" — here the function's `Priority` slot is
//! simply not header-mapped, so the same computation happens and nothing
//! reaches the wire.

use eden_apps::apps::reqresp::{BackgroundSender, RequestClient, Worker};
use eden_apps::functions::{self, host, Form, FunctionBundle};
use eden_apps::workload::{flow_class, FlowClass, FlowSizeDist, PoissonArrivals};
use eden_core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, Stage};
use eden_lang::{compile, Schema};
use netsim::{LinkSpec, Network, NodeId, SimRng, Switch, SwitchConfig, Time};
use transport::{app_timer_token, Host, Stack, StackConfig};

/// Scheduling schemes of case study 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No prioritization.
    Baseline,
    /// Priority demotion by bytes sent (application-agnostic).
    Pias,
    /// Shortest flow first from application-provided sizes.
    Sff,
}

/// Data-plane execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Hard-coded function in the enclave.
    Native,
    /// Bytecode through the Eden interpreter.
    Eden,
}

impl Engine {
    /// The bundle form this engine runs.
    pub fn form(self) -> Form {
        match self {
            Engine::Native => Form::Native,
            Engine::Eden => Form::Interpreted,
        }
    }
}

/// Experiment knobs (defaults follow the paper's setup, scaled in time).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Request-issuing window; the run drains afterwards.
    pub duration: Time,
    /// Target load on the client downlink from responses.
    pub load: f64,
    /// Number of background senders.
    pub background_senders: usize,
    /// Switch buffer per (port, priority class). Defaults to 1 MB — the
    /// paper's Arista 7050 has megabytes of shared buffer, and the baseline
    /// queueing delay the figure shows needs deep buffers to exist.
    pub switch_buffer_bytes: usize,
    /// One-way host latency folded into each access link's propagation
    /// delay. The simulator's stack is otherwise instantaneous; real
    /// kernel/NIC paths on the 2015 testbed cost tens of microseconds per
    /// direction, which is most of a small flow's FCT floor.
    pub host_latency: Time,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 1,
            duration: Time::from_millis(120),
            load: 0.7,
            background_senders: 3,
            switch_buffer_bytes: 1 << 20,
            host_latency: Time::from_micros(25),
        }
    }
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// FCTs of small (<10 KB) responses, microseconds.
    pub small_us: Vec<f64>,
    /// FCTs of intermediate (10 KB–1 MB) responses, microseconds.
    pub intermediate_us: Vec<f64>,
    /// Background bytes the client sank (link saturation check).
    pub background_bytes: u64,
    /// Total exchanges completed.
    pub completions: usize,
}

/// A PIAS/SFF bundle whose `Priority` packet field is *not* header-mapped:
/// same computation, no effect on the wire (the baseline/Eden arm).
fn blind_schema(bundle: &FunctionBundle) -> Schema {
    let mapped = bundle.schema();
    let mut blind = Schema::new();
    for f in mapped.fields() {
        let header = if f.name == "Priority" { None } else { f.header };
        blind = match f.scope {
            eden_lang::Scope::Packet => blind.packet_field(&f.name, f.access, header),
            eden_lang::Scope::Message => blind.msg_field(&f.name, f.access),
            eden_lang::Scope::Global => blind.global_field(&f.name, f.access),
        };
    }
    for a in mapped.arrays() {
        let fields: Vec<&str> = a.fields.iter().map(String::as_str).collect();
        blind = blind.global_array(&a.name, &fields, a.access);
    }
    blind
}

/// The bundle a scheme's sender hosts run.
fn bundle(scheme: Scheme) -> FunctionBundle {
    match scheme {
        Scheme::Baseline | Scheme::Pias => functions::pias(),
        Scheme::Sff => functions::sff(),
    }
}

/// What a sender host holds beside its function: every packet of class
/// `all` runs function 0 over the thresholds of the three flow classes
/// (§5.1): small → 7, intermediate → 5, background → 1.
pub fn sender_rules(all: ClassId) -> Vec<EnclaveOp> {
    let thresholds = Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1]));
    vec![
        EnclaveOp::class_rule(all, 0),
        EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: thresholds,
        },
    ]
}

/// A sender host's enclave for one (scheme, engine) arm: its function,
/// then [`sender_rules`]; `None` for the native baseline (no enclave at
/// all).
fn sender_enclave(scheme: Scheme, engine: Engine, all: ClassId) -> Option<Enclave> {
    let (bundle, rules) = (bundle(scheme), sender_rules(all));
    let config = EnclaveConfig::default();
    match (scheme, engine) {
        (Scheme::Baseline, Engine::Native) => None,
        (Scheme::Baseline, Engine::Eden) => {
            // classification + interpretation run; output unmapped
            let schema = blind_schema(&bundle);
            let compiled = compile(bundle.name, &bundle.source, &schema).expect("compiles");
            let function = EnclaveOp::ship("baseline-blind", &compiled);
            let mut enclave = Enclave::new(config);
            let ops = [vec![function], rules].concat();
            enclave.apply(ops).expect("the baseline's ops apply");
            Some(enclave)
        }
        (_, engine) => Some(host(&[bundle], engine.form(), config, rules)),
    }
}

/// Run one arm of Figure 9.
pub fn run(scheme: Scheme, engine: Engine, cfg: &Config) -> RunResult {
    let mut net = Network::new(cfg.seed);
    let mut controller = Controller::new();
    let all_class = controller.class("app.flows.ALL");

    // --- workload planning ----------------------------------------------
    let dist = FlowSizeDist::web_search();
    let mut planning_rng = SimRng::new(0xE0E0);
    let mean = dist.empirical_mean(&mut planning_rng, 20_000);
    let arrivals = PoissonArrivals::for_load(10e9, cfg.load, mean);

    // --- hosts ------------------------------------------------------------
    let client_app = RequestClient::new(
        2,
        7000,
        arrivals,
        SimRng::new(cfg.seed.wrapping_add(11)),
        64,
        cfg.duration,
    );
    let mut worker_app = Worker::new(7000, dist, SimRng::new(cfg.seed.wrapping_add(22)));
    let mut stage = Stage::new("app", &["msg_type", "msg_size"], &["msg_id", "msg_size"]);
    controller.create_stage_rule(&mut stage, "flows", vec![], "ALL");
    worker_app.stage = stage;

    let client = net.add_node(Host::new(Stack::new(1, StackConfig::default()), client_app));
    let worker = net.add_node(Host::new(Stack::new(2, StackConfig::default()), worker_app));
    let mut senders = vec![worker];
    let mut bg_nodes = Vec::new();
    for i in 0..cfg.background_senders {
        let ip = 3 + i as u32;
        let app = BackgroundSender::new(1, 7001, 1_500_000_000, vec![all_class.0], 1);
        let node = net.add_node(Host::new(Stack::new(ip, StackConfig::default()), app));
        senders.push(node);
        bg_nodes.push(node);
    }

    let sw = net.add_node(Switch::new(SwitchConfig {
        per_queue_bytes: cfg.switch_buffer_bytes,
    }));
    let mut all_hosts = vec![client, worker];
    all_hosts.extend(&bg_nodes);
    let link = LinkSpec {
        propagation: Time::from_micros(1) + cfg.host_latency,
        ..LinkSpec::ten_gbps()
    };
    for (i, &h) in all_hosts.iter().enumerate() {
        let (_, sw_port) = net.connect(h, sw, link);
        net.node_mut::<Switch>(sw)
            .install_route(1 + i as u32, sw_port);
    }

    // --- enclaves on every sender (worker + background) -------------------
    for &node in &senders {
        if let Some(enclave) = sender_enclave(scheme, engine, all_class) {
            install_enclave(&mut net, node, enclave);
        }
    }

    // --- go ----------------------------------------------------------------
    net.schedule_timer(worker, Time::ZERO, app_timer_token(0));
    net.schedule_timer(client, Time::from_micros(1), app_timer_token(0));
    for (i, &bg) in bg_nodes.iter().enumerate() {
        net.schedule_timer(
            bg,
            Time::from_micros(100 + 7 * i as u64),
            app_timer_token(0),
        );
    }
    // generous drain so late small flows complete
    net.run_until(cfg.duration + Time::from_millis(30));

    // --- collect -------------------------------------------------------------
    let mut small_us = Vec::new();
    let mut intermediate_us = Vec::new();
    let (completions, background_bytes) = {
        let host: &Host<RequestClient> = net.node(client);
        for c in &host.app.completions {
            let us = c.fct.as_nanos() as f64 / 1_000.0;
            match flow_class(u64::from(c.size)) {
                FlowClass::Small => small_us.push(us),
                FlowClass::Intermediate => intermediate_us.push(us),
                FlowClass::Background => {}
            }
        }
        (host.app.completions.len(), host.app.background_bytes)
    };
    RunResult {
        small_us,
        intermediate_us,
        background_bytes,
        completions,
    }
}

/// Sender hosts come in two concrete types (worker, background sender), so
/// enclave installation dispatches on the node's app type.
fn install_enclave(net: &mut Network, node: NodeId, enclave: Enclave) {
    if let Some(h) = net.try_node_mut::<Host<Worker>>(node) {
        h.stack.set_hook(enclave);
    } else if let Some(h) = net.try_node_mut::<Host<BackgroundSender>>(node) {
        h.stack.set_hook(enclave);
    } else {
        panic!("unknown sender node type");
    }
}
