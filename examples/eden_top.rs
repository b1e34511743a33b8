//! `eden_top` — a live cluster view, the observability stack end to end.
//!
//! Builds a three-host cluster over the simulated fabric (enclave agents
//! with 1-in-8 trace sampling, a controller pulling stats and spans),
//! pushes a configuration epoch, drives synthetic data-plane load on
//! every host, and renders a `top`-style frame every few simulated
//! milliseconds: per-host counters and p50/p99 data-path latencies from
//! [`ClusterStats`], control-plane RTT and epoch-convergence histograms,
//! and finally the assembled cross-host trace tree of the epoch update
//! plus a Prometheus rendering of the whole cluster.
//!
//! Run with `cargo run --example eden_top`.

use eden::core::{Controller, EnclaveConfig};
use eden::ctrl::fleet::Fleet;
use eden::ctrl::CtrlConfig;
use eden::lang::{Access, HeaderField, ReplMode, Schema};
use eden::netsim::{SimRng, Time};
use eden::telemetry::{render_cluster, LatencyStat};
use netsim::{Packet, UdpHeader};

/// `p50/p99` of a named histogram in a latency report, as a short cell.
fn lat_cell(latencies: &[LatencyStat], name: &str) -> String {
    match latencies.iter().find(|l| l.name == name) {
        Some(l) => match (l.hist.p50(), l.hist.p99()) {
            (Some(p50), Some(p99)) => format!("{p50}/{p99}ns"),
            _ => "-".into(),
        },
        None => "-".into(),
    }
}

fn main() {
    let cfg = CtrlConfig {
        stats_every: Time::from_micros(500),
        ..CtrlConfig::default()
    };
    let enclave = EnclaveConfig {
        trace_sample: 8,
        ..EnclaveConfig::default()
    };
    let mut fleet = Fleet::flat(42, 3, cfg, enclave);

    // Bootstrap, then push one epoch across the fleet: priority stamping
    // plus a fleet-wide packet counter on merged replicated state, so the
    // replica-lag column below has a live feed.
    fleet.net.run_until(Time::from_millis(2));
    let schema = Schema::new()
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_field("Count", Access::ReadWrite)
        .replicated(ReplMode::MergedSum);
    let source = "fun (packet, msg, _global) ->\n    packet.Priority <- 5\n    _global.Count <- _global.Count + 1";
    let ops = Controller::new()
        .plan_epoch("set_prio", source, &schema)
        .expect("compiles");
    fleet.root().set_desired(ops).expect("valid ops");

    // Frames: synthetic load on every host, advance the fabric, render.
    let mut rng = SimRng::new(7);
    for frame in 1..=4u64 {
        let frame_end = Time::from_millis(2 + frame * 4);
        for i in 0..3 {
            let enclave = fleet.enclave(i);
            // each host sees a different packet rate, so the rows differ
            for n in 0..200 * (i as u64 + 1) {
                let mut p = Packet::udp(1, 2, UdpHeader::default(), 200);
                enclave.process(&mut p, &mut rng, frame_end + Time::from_nanos(n));
            }
        }
        fleet.net.run_until(frame_end);

        let app = fleet.root();
        let cluster = app.cluster();
        println!(
            "── eden_top ── t={:>5}us  epoch {} ({}/3 in sync){}",
            frame_end.as_nanos() / 1_000,
            app.desired_epoch(),
            app.in_sync_count(),
            if app.round_active() {
                "  [round in flight]"
            } else {
                ""
            }
        );
        println!(
            "{:<5} {:>6} {:>10} {:>10} {:>6} {:>6} {:>16} {:>16} {:>10}",
            "host",
            "epoch",
            "processed",
            "forwarded",
            "drops",
            "faults",
            "exec p50/p99",
            "vm p50/p99",
            "repl lag"
        );
        for addr in 1..=3u32 {
            // replica age, from the controller's replication hub
            let repl_cell = match cluster.repl_lags.iter().find(|l| l.host == addr) {
                Some(l) if l.divergent => format!("{}us!", l.lag_ns / 1_000),
                Some(l) => format!("{}us", l.lag_ns / 1_000),
                None => "-".into(),
            };
            match cluster.host(addr) {
                Some(r) => println!(
                    "{:<5} {:>6} {:>10} {:>10} {:>6} {:>6} {:>16} {:>16} {:>10}",
                    addr,
                    r.epoch,
                    r.enclave.packets,
                    r.enclave.forwarded,
                    r.enclave.dropped,
                    r.enclave.faults,
                    lat_cell(&r.latencies, "stage.execute"),
                    lat_cell(&r.latencies, "vm.exec"),
                    repl_cell,
                ),
                None => println!("{addr:<5} (no report yet)"),
            }
        }
        println!(
            "ctrl: rtt {}  converge {}  repl staleness {}  fleet count {}  spans {}\n",
            lat_cell(&cluster.ctrl_latencies, "ctrl.rtt"),
            lat_cell(&cluster.ctrl_latencies, "epoch.converge"),
            lat_cell(&cluster.ctrl_latencies, "repl.staleness"),
            app.repl().merged_total(0, 0),
            app.trace().len(),
        );
    }

    // The epoch update's cross-host trace tree, as the controller sees it.
    let app = fleet.root();
    assert!(app.all_in_sync(), "fleet converged");
    let trace = app.trace();
    // the store also holds sampled data-path `pkt` traces; the epoch
    // update is the one whose root span the controller ingested itself
    let tid = trace
        .trace_ids()
        .into_iter()
        .find(|&t| trace.root(t).is_some_and(|r| r.name == "epoch"))
        .expect("the traced round reached the store");
    println!("epoch-update trace tree (trace {tid:#x}):");
    let root = trace.root(tid).expect("root span");
    println!(
        "  {} [host {}] {}..{}ns",
        root.name, root.host, root.start_ns, root.end_ns
    );
    let mut children = trace.children(tid, root.span_id);
    children.sort_by_key(|s| (s.host, s.name.clone()));
    for s in &children {
        println!("    {} [host {}] at {}ns", s.name, s.host, s.start_ns);
    }
    assert_eq!(children.len(), 6, "prepare+commit from all three hosts");

    // And the same cluster state as a Prometheus scrape.
    let prom = render_cluster(app.cluster());
    let interesting: Vec<&str> = prom
        .lines()
        .filter(|l| l.contains("processed") || l.contains("ctrl.rtt"))
        .take(8)
        .collect();
    println!("\nprometheus rendering (excerpt):");
    for l in interesting {
        println!("  {l}");
    }
}
