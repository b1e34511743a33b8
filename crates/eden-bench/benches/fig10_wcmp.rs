//! Regenerates **Figure 10**: aggregate TCP throughput under per-packet
//! ECMP vs WCMP on the asymmetric topology of Figure 1 (10 G + 1 G paths),
//! native vs Eden.
//!
//! Paper reference points (§5.2): ECMP peaks just over 2 Gbps (dominated by
//! the slow path); WCMP at 10:1 reaches ~7.8 Gbps — 3× better but below the
//! 11 Gbps min-cut because reordering trips TCP; Eden ≈ native.
//!
//! Run with `cargo bench -p eden-bench --bench fig10_wcmp`. Writes what
//! it prints to `BENCH_fig10.json`: virtual time only, so the default run
//! repeats byte for byte on any machine.

use eden_bench::fig10::{run, Balancer, Config, Engine};
use eden_bench::report::{bps, emit_json, Table};
use eden_telemetry::Json;
use netsim::{Summary, Time};

fn main() {
    let runs: u64 = std::env::var("EDEN_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("== Figure 10: ECMP vs WCMP aggregate throughput (case study 2) ==");
    println!("topology: two paths (10G, 1G); per-packet balancing; {runs} runs/arm\n");

    let mut table = Table::new(&["balancer", "engine", "throughput", "ci95"]);
    let mut rows = Vec::new();
    for (balancer, bname) in [(Balancer::Ecmp, "ECMP"), (Balancer::Wcmp, "WCMP")] {
        for (engine, ename) in [(Engine::Native, "native"), (Engine::Eden, "EDEN")] {
            let samples: Vec<f64> = (0..runs)
                .map(|seed| {
                    let cfg = Config {
                        seed: 10 + seed,
                        warmup: Time::from_millis(50),
                        until: Time::from_millis(250),
                        ..Default::default()
                    };
                    run(balancer, engine, &cfg)
                })
                .collect();
            let s = Summary::new(samples);
            rows.push(Json::obj(vec![
                ("balancer", Json::Str(bname.into())),
                ("engine", Json::Str(ename.into())),
                ("throughput_bps", Json::Float(s.mean())),
                ("ci95_bps", Json::Float(s.ci95())),
            ]));
            table.row(&[
                bname.to_string(),
                ename.to_string(),
                bps(s.mean()),
                bps(s.ci95()),
            ]);
        }
    }
    println!("{}", table.render());
    println!("paper (testbed): ECMP ~2.1 Gb/s, WCMP ~7.8 Gb/s (3x), EDEN ~= native");

    // --- ablation: TCP reordering tolerance --------------------------------
    // The paper's WCMP number is only reachable with a reorder-tolerant
    // transport; this quantifies how sensitive the result is to the
    // tolerance window (0 = classic Reno, which collapses).
    println!("\n== ablation: WCMP throughput vs TCP reorder-tolerance window ==");
    let mut ab = Table::new(&["reorder window", "WCMP throughput"]);
    let mut ablation = Vec::new();
    for window_us in [0u64, 50, 100, 300, 1000] {
        let samples: Vec<f64> = (0..runs.min(3))
            .map(|seed| {
                let cfg = Config {
                    seed: 10 + seed,
                    reorder_window: Time::from_micros(window_us),
                    ..Default::default()
                };
                run(Balancer::Wcmp, Engine::Native, &cfg)
            })
            .collect();
        let s = Summary::new(samples);
        ablation.push(Json::obj(vec![
            ("reorder_window_us", Json::UInt(window_us)),
            ("wcmp_bps", Json::Float(s.mean())),
        ]));
        let label = if window_us == 0 {
            "classic Reno".to_string()
        } else {
            format!("{window_us} us")
        };
        ab.row(&[label, bps(s.mean())]);
    }
    println!("{}", ab.render());

    let artifact = Json::obj(vec![
        ("runs", Json::UInt(runs)),
        ("arms", Json::Arr(rows)),
        ("reorder_ablation", Json::Arr(ablation)),
    ]);
    match emit_json("fig10", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_fig10.json: {e}"),
    }
}
