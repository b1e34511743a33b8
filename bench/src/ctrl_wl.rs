//! `ctrl-churn`: the control plane with no data traffic. A root
//! `ControllerApp` pushes epoch after epoch through 16 rack
//! `AggregatorApp`s to 256 `EnclaveAgent`s over a `netsim::TwoTier` fabric.

use eden_core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden_ctrl::{
    AggConfig, AggregatorApp, ControllerApp, CtrlConfig, EnclaveAgent, WireCounters, TICK,
};
use eden_lang::{Access, HeaderField, Schema};
use netsim::{LinkSpec, Network, NodeId, SimRng, Time, TwoTier};
use transport::{app_timer_token, App, Host, Stack, StackConfig};

use crate::harness::{Check, Round, Sampler, Workload};
use crate::spec::Metrics;
use crate::stats::Sorted;
use crate::trace::{span, Agg, Report, Tag};
use crate::wrap::{TracedApp, TracedHook, TracedNode};

const RACKS: usize = 16;
const HOSTS: usize = 256;
const RULES: usize = 256;
/// Every this many pushes the function itself changes, which no delta can
/// express: the push goes out as a Reset-led full table.
const FULL_EVERY: u64 = 8;
const ROOT_ADDR: u32 = 1_000_000;
const AGG_BASE: u32 = 500_000;
/// Convergence is polled at this virtual granularity.
const SLICE: Time = Time::from_micros(50);
/// A push that has not converged by then has failed.
const DEADLINE: Time = Time::from_millis(100);

struct Idle;
impl App for Idle {}

type Root = Host<TracedApp<ControllerApp>>;

/// What one push put on the root's wire (messages, bytes, epoch-config
/// bytes; both directions), and how long it took in virtual time.
struct Push {
    virtual_us: f64,
    wire: [u64; 3],
}

fn wire_totals(w: WireCounters) -> [u64; 3] {
    [
        w.msgs_sent + w.msgs_received,
        w.bytes_sent + w.bytes_received,
        w.config_bytes_sent,
    ]
}

pub struct CtrlChurn {
    net: Network,
    root: NodeId,
    leaves: Vec<NodeId>,
    rng: SimRng,
    /// `InstallFunction` ops of the function's variants, compiled at set-up.
    variants: Vec<EnclaveOp>,
    pushes: u64,
    next_ops: Vec<EnclaveOp>,
    now: Time,
    log: Vec<Push>,
    /// Config bytes of the first, necessarily full, table install.
    full_bytes: u64,
    /// Host-commits that missed the deadline or landed a wrong digest.
    failed: u64,
    /// Pushes in `log`, and simulator events, when set-up ended.
    base: usize,
    base_events: u64,
}

fn agent_stack(addr: u32, cfg: &CtrlConfig) -> Stack {
    let mut stack = Stack::new(addr, StackConfig::default());
    let agent = EnclaveAgent::new(Enclave::new(EnclaveConfig::default()));
    stack.set_hook(TracedHook(agent));
    stack.set_ctrl_port(cfg.ctrl_port);
    stack
}

impl CtrlChurn {
    pub fn build(seed: u64) -> CtrlChurn {
        let cfg = CtrlConfig::default();
        let mut net = Network::new(seed);
        let topo = TwoTier::build(&mut net, RACKS, LinkSpec::forty_gbps());
        let mut ctrl = ControllerApp::new(cfg.clone(), &[]);
        let mut leaves = Vec::with_capacity(HOSTS);
        for rack in 0..RACKS {
            let children: Vec<u32> = (0..HOSTS / RACKS)
                .map(|i| {
                    let addr = (rack * HOSTS / RACKS + i + 1) as u32;
                    let host = Host::new(agent_stack(addr, &cfg), Idle);
                    let node = net.add_node(TracedNode::new(Tag::NodeLeaf, host));
                    topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps());
                    leaves.push(node);
                    addr
                })
                .collect();
            let addr = AGG_BASE + rack as u32;
            let agg = AggregatorApp::new(AggConfig { ctrl: cfg.clone() }, &children);
            let host = Host::new(
                Stack::new(addr, StackConfig::default()),
                TracedApp::new(Tag::AppAgg, agg),
            );
            let node = net.add_node(TracedNode::new(Tag::NodeAgg, host));
            topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps());
            net.schedule_timer(node, Time::ZERO, app_timer_token(TICK));
            ctrl.manage_aggregator(addr, children);
        }
        let host = Host::new(
            Stack::new(ROOT_ADDR, StackConfig::default()),
            TracedApp::new(Tag::AppRoot, ctrl),
        );
        let root = net.add_node(TracedNode::new(Tag::NodeRoot, host));
        topo.attach_core(&mut net, root, ROOT_ADDR, LinkSpec::forty_gbps());
        net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));

        let schema =
            Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
        let variants = (0..8)
            .map(|prio| {
                let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
                Controller::new()
                    .plan_function("set_prio", &source, &schema)
                    .expect("compiles")
            })
            .collect();

        let mut w = CtrlChurn {
            net,
            root,
            leaves,
            rng: SimRng::new(seed ^ 0xC7A1),
            variants,
            pushes: 0,
            next_ops: Vec::new(),
            now: Time::ZERO,
            log: Vec::new(),
            full_bytes: 0,
            failed: 0,
            base: 0,
            base_events: 0,
        };
        // bootstrap: every agent reports in, the first table lands, and two
        // cycles of pushes bring allocators and histories to their run shape
        w.converge();
        for _ in 0..=2 * FULL_EVERY {
            w.prepare();
            w.sample();
        }
        w.full_bytes = w.log[0].wire[2];
        w.base = w.log.len();
        w.base_events = w.net.events_processed();
        w
    }

    fn app(&mut self) -> &mut ControllerApp {
        &mut self.net.node_mut::<Root>(self.root).app.inner
    }

    /// Run until the root reports the fleet in sync *and* every leaf serves
    /// the desired epoch; `false` when the deadline passes first. The root's
    /// word alone is not enough: an aggregator's shard tally reaches it one
    /// heartbeat late, so right after a commit `all_in_sync()` can still be
    /// vouching for the previous epoch's shards.
    fn converge(&mut self) -> bool {
        let deadline = self.now + DEADLINE;
        let epoch = self.app().desired_epoch();
        while self.now < deadline {
            self.now += SLICE;
            self.net.run_until(self.now);
            if self.app().all_in_sync() && self.lagging(|e| e.active_epoch() != epoch) == 0 {
                return true;
            }
        }
        false
    }

    /// Leaves whose enclave `is_behind`.
    fn lagging(&mut self, is_behind: impl Fn(&Enclave) -> bool) -> u64 {
        let net = &mut self.net;
        let behind = |&&leaf: &&NodeId| {
            let stack = &mut net.node_mut::<Host<Idle>>(leaf).stack;
            let agent = stack.hook_mut::<EnclaveAgent>().expect("agent installed");
            is_behind(agent.enclave())
        };
        self.leaves.iter().filter(behind).count() as u64
    }

    /// Hosts whose enclave does not hold the desired configuration.
    fn diverged(&mut self) -> u64 {
        let want = self.app().desired_digest();
        self.lagging(|e| e.config_digest() != want)
    }
}

impl Sampler for CtrlChurn {
    /// Plan the next push: one function and [`RULES`] rules, the last
    /// rule's class drawn afresh. Every [`FULL_EVERY`] pushes, first read
    /// each leaf's digest: the root only knows what the leaves reported.
    fn prepare(&mut self) {
        if self.pushes % FULL_EVERY == 0 {
            self.failed += self.diverged();
        }
        let variant = (self.pushes / FULL_EVERY) as usize % self.variants.len();
        let fresh = 1000 + self.rng.below(1 << 20) as u32;
        let classes = (0..RULES as u32 - 1).chain([fresh]);
        self.next_ops = [EnclaveOp::Reset, self.variants[variant].clone()]
            .into_iter()
            .chain(classes.map(|c| EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Class(ClassId(c)),
                func: 0,
            }))
            .collect();
    }

    /// One push, from `set_desired` to the whole fleet in sync. The op is a
    /// host committing the epoch.
    fn sample(&mut self) -> u64 {
        let ops = std::mem::take(&mut self.next_ops);
        let before = wire_totals(self.app().wire());
        let start = self.now;
        {
            let _s = span(Tag::CtrlSetDesired);
            self.app().set_desired(ops).expect("valid ops");
        }
        self.pushes += 1;
        if !self.converge() {
            let (fleet, synced) = (self.app().fleet_size(), self.app().in_sync_hosts());
            self.failed += (fleet - synced) as u64;
        }
        let after = wire_totals(self.app().wire());
        self.log.push(Push {
            virtual_us: (self.now - start).as_nanos() as f64 / 1e3,
            wire: std::array::from_fn(|i| after[i] - before[i]),
        });
        HOSTS as u64
    }
}

impl Workload for CtrlChurn {
    fn count_samples(&self) -> usize {
        2 * FULL_EVERY as usize
    }

    fn counts(&mut self, ops: u64, _spans: &[Agg; Tag::COUNT], m: &mut Metrics) {
        let events = self.net.events_processed() - self.base_events;
        m.set("netsim.events_per_op", events as f64 / ops as f64);
        let log = &self.log[self.base..];
        let names = [
            "ctrl.root_msgs_per_push",
            "ctrl.root_bytes_per_push",
            "ctrl.config_bytes_per_push",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let total: u64 = log.iter().map(|p| p.wire[i]).sum();
            m.set(name, total as f64 / log.len() as f64);
        }
        let virtual_us = Sorted::new(log.iter().map(|p| p.virtual_us).collect());
        m.set_with_samples(
            "ctrl.push_virtual_us_p50",
            virtual_us.median(),
            virtual_us.count(),
        );
    }

    fn layers(&mut self, round: &Round, report: &Report, m: &mut Metrics) {
        let per_op = |ns: u64| ns as f64 / round.ops as f64;
        m.set(
            "ctrl.root_self_ns_per_op",
            per_op(report.total_ns(&[Tag::NodeRoot, Tag::CtrlSetDesired])),
        );
        m.set(
            "ctrl.agg_self_ns_per_op",
            per_op(report.total_ns(&[Tag::NodeAgg])),
        );
        let frames = report.get(Tag::HookCtrl);
        m.set(
            "ctrl.agent_ns_per_frame",
            frames.total_ns as f64 / frames.count as f64,
        );
        m.set(
            "netsim.self_ns_per_op",
            per_op(report.self_ns(&[Tag::Sample])),
        );
        let events = self.net.events_processed() - self.base_events;
        m.set(
            "netsim.events_per_s",
            events as f64 * 1e9 / round.timed_ns as f64,
        );
        m.set(
            "transport.self_ns_per_op",
            per_op(report.self_ns(&[Tag::NodeLeaf])),
        );
    }

    fn check(&mut self) -> Check {
        let mut c = Check {
            attempted: self.pushes * HOSTS as u64,
            failed: self.failed + self.diverged(),
            ..Check::default()
        };
        // a delta ships one rule, a full push the function and every rule
        let measured = &self.log[self.base..];
        let fulls = measured
            .iter()
            .filter(|p| 2 * p.wire[2] > self.full_bytes)
            .count();
        let deltas = measured.len() - fulls;
        c.require(
            deltas > 0 && (fulls > 0 || measured.len() < FULL_EVERY as usize),
            || format!("{deltas} delta pushes and {fulls} full pushes"),
        );
        c
    }
}
