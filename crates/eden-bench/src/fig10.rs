//! Figure 10 — case study 2: per-packet ECMP vs WCMP on programmable-NIC
//! enclaves, over the asymmetric topology of Figure 1.
//!
//! Two hosts are connected through two paths, one 10 Gbps and one 1 Gbps.
//! The sender's enclave source-routes every packet by stamping a VLAN
//! label chosen in a weighted random fashion: equal weights (ECMP) or 10:1
//! (WCMP). The paper's result: ECMP throughput is dominated by the slow
//! path (~2 Gbps); per-packet WCMP reaches ~7.8 Gbps — ~3× better, but
//! below the 11 Gbps min-cut because in-network reordering triggers TCP's
//! dup-ACK machinery. Native and Eden must be statistically identical.

use eden_apps::apps::bulk::{BulkSender, MeteredSink};
use eden_apps::functions::{self, host};
use eden_core::{ClassId, Controller, EnclaveOp, PathSpec};
use netsim::{LinkSpec, Network, Switch, SwitchConfig, Time};
use transport::{app_timer_token, Host, Stack, StackConfig, TcpConfig};

pub use crate::fig09::Engine;

/// Load-balancing policies compared in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancer {
    Ecmp,
    Wcmp,
}

/// Experiment knobs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measurement window start (lets TCP ramp first).
    pub warmup: Time,
    /// Measurement window end.
    pub until: Time,
    /// Parallel long-running flows.
    pub flows: usize,
    /// TCP reordering tolerance. Per-packet spraying over asymmetric paths
    /// reorders constantly; production stacks absorb it (RACK-style),
    /// which is what lets the paper's WCMP approach the min-cut instead of
    /// collapsing on spurious fast retransmits. `Time::ZERO` selects
    /// classic Reno (immediate fast retransmit) for ablations.
    pub reorder_window: Time,
    /// Switch buffer per (port, class): the slow path's queue. Deeper
    /// buffers absorb the spray bursts (fewer drops, more delay).
    pub switch_buffer_bytes: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 1,
            warmup: Time::from_millis(50),
            until: Time::from_millis(250),
            flows: 4,
            reorder_window: Time::from_micros(100),
            switch_buffer_bytes: 150_000,
        }
    }
}

/// What the sender host holds beside its `wcmp` function: every packet
/// of class `lb` runs function 0, over per-path weights the controller
/// computes from Figure 1's two paths (10 and 1 Gbps) and their sum.
pub fn sender_rules(balancer: Balancer, lb: ClassId) -> Vec<EnclaveOp> {
    let paths = [
        PathSpec {
            label: 1,
            bottleneck_bps: 10_000_000_000,
        },
        PathSpec {
            label: 2,
            bottleneck_bps: 1_000_000_000,
        },
    ];
    let weights = match balancer {
        Balancer::Wcmp => Controller::wcmp_weights(&paths, 100),
        Balancer::Ecmp => Controller::ecmp_weights(&paths),
    };
    let flat: Vec<i64> = weights
        .iter()
        .flat_map(|&(label, w)| [i64::from(label), i64::from(w)])
        .collect();
    let total: i64 = weights.iter().map(|&(_, w)| i64::from(w)).sum();
    vec![
        EnclaveOp::class_rule(lb, 0),
        EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: flat,
        },
        EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: total,
        },
    ]
}

/// Run one arm; returns aggregate goodput in bits/second over the window.
pub fn run(balancer: Balancer, engine: Engine, cfg: &Config) -> f64 {
    let mut net = Network::new(cfg.seed);
    let mut controller = Controller::new();
    let lb_class = controller.class("bulk.flows.LB");

    // --- topology: sender — sw0 ={10G, 1G}= sw1 — receiver ----------------
    let stack_cfg = StackConfig {
        tcp: TcpConfig {
            reorder_window: if cfg.reorder_window == Time::ZERO {
                None // classic Reno, for the ablation
            } else {
                Some(cfg.reorder_window)
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let sender_app = BulkSender::new(2, 7000, cfg.flows, 2_000_000_000, vec![lb_class.0]);
    let sender = net.add_node(Host::new(Stack::new(1, stack_cfg), sender_app));
    let receiver = net.add_node(Host::new(Stack::new(2, stack_cfg), MeteredSink::new(7000)));
    let sw_cfg = SwitchConfig {
        per_queue_bytes: cfg.switch_buffer_bytes,
    };
    let sw0 = net.add_node(Switch::new(sw_cfg));
    let sw1 = net.add_node(Switch::new(sw_cfg));

    let (_, sw0_host_port) = net.connect(sender, sw0, LinkSpec::ten_gbps());
    let (sw0_fast, sw1_fast) = net.connect(sw0, sw1, LinkSpec::ten_gbps());
    let (sw0_slow, sw1_slow) = net.connect(sw0, sw1, LinkSpec::one_gbps());
    let (_, sw1_host_port) = net.connect(
        receiver,
        sw1,
        LinkSpec {
            rate_bps: 40_000_000_000,
            propagation: Time::from_micros(1),
            mtu: 1500,
        },
    );

    // labels: 1 = fast path, 2 = slow path (paper §3.5's label routing)
    {
        let s0 = net.node_mut::<Switch>(sw0);
        s0.install_label(1, sw0_fast);
        s0.install_label(2, sw0_slow);
        s0.install_route(2, sw0_fast); // unlabeled (SYNs) take the fast path
        s0.install_route(1, sw0_host_port); // returning ACKs to the sender
    }
    {
        let s1 = net.node_mut::<Switch>(sw1);
        s1.install_route(2, sw1_host_port);
        s1.install_route(1, sw1_fast); // ACKs go back over the fast path
        let _ = sw1_slow;
    }

    // --- sender enclave: (W)CMP over the LB class -------------------------
    let rules = sender_rules(balancer, lb_class);
    let enclave = host(
        &[functions::wcmp()],
        engine.form(),
        Default::default(),
        rules,
    );
    net.node_mut::<Host<BulkSender>>(sender)
        .stack
        .set_hook(enclave);

    // --- run & meter --------------------------------------------------------
    net.schedule_timer(receiver, Time::ZERO, app_timer_token(0));
    net.schedule_timer(sender, Time::from_micros(10), app_timer_token(0));
    net.run_until(cfg.warmup);
    let b0 = net.node::<Host<MeteredSink>>(receiver).app.bytes;
    net.run_until(cfg.until);
    let b1 = net.node::<Host<MeteredSink>>(receiver).app.bytes;
    (b1 - b0) as f64 * 8.0 / (cfg.until - cfg.warmup).as_secs_f64()
}
