//! Regenerates **Figure 11**: READ vs WRITE tenant throughput against a
//! storage server, in isolation, simultaneously, and with Pulsar's
//! size-aware rate control at the READ tenant's enclave.
//!
//! Paper reference points (§5.3): both tenants reach ~110–120 MB/s in
//! isolation; run together, WRITE throughput drops by ~72%; charging READ
//! requests by operation size equalizes the two.
//!
//! Run with `cargo bench -p eden-bench --bench fig11_pulsar`. Writes what
//! it prints to `BENCH_fig11.json`: virtual time only, so the default run
//! repeats byte for byte on any machine.

use eden_bench::fig11::{run, Config, Mode};
use eden_bench::report::{emit_json, Table};
use eden_telemetry::Json;
use netsim::{Summary, Time};

fn main() {
    let runs: u64 = std::env::var("EDEN_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("== Figure 11: Pulsar READ/WRITE isolation (case study 3) ==");
    println!("64KB IOs; storage server behind 1 Gbps; {runs} runs/mode\n");

    let mut table = Table::new(&["mode", "READ MB/s", "WRITE MB/s"]);
    let arms = [
        (Mode::ReadIsolated, "isolated (READ only)"),
        (Mode::WriteIsolated, "isolated (WRITE only)"),
        (Mode::Simultaneous, "simultaneous"),
        (Mode::RateControlled, "rate-controlled"),
    ];
    let mut write_iso = 0.0;
    let mut write_sim = 0.0;
    let mut rows = Vec::new();
    for (mode, name) in arms {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for seed in 0..runs {
            let cfg = Config {
                seed: 20 + seed,
                warmup: Time::from_millis(100),
                until: Time::from_millis(500),
                ..Default::default()
            };
            let r = run(mode, &cfg);
            reads.push(r.read_mbps);
            writes.push(r.write_mbps);
        }
        let rs = Summary::new(reads);
        let ws = Summary::new(writes);
        rows.push(Json::obj(vec![
            ("mode", Json::Str(name.into())),
            ("read_mbps", Json::Float(rs.mean())),
            ("read_ci95", Json::Float(rs.ci95())),
            ("write_mbps", Json::Float(ws.mean())),
            ("write_ci95", Json::Float(ws.ci95())),
        ]));
        if mode == Mode::WriteIsolated {
            write_iso = ws.mean();
        }
        if mode == Mode::Simultaneous {
            write_sim = ws.mean();
        }
        table.row(&[
            name.to_string(),
            format!("{:.1} ±{:.1}", rs.mean(), rs.ci95()),
            format!("{:.1} ±{:.1}", ws.mean(), ws.ci95()),
        ]);
    }
    println!("{}", table.render());
    let collapse = (write_iso > 0.0).then(|| (1.0 - write_sim / write_iso) * 100.0);
    if let Some(pct) = collapse {
        println!("measured WRITE collapse under contention: {pct:.0}% (paper: ~72%)");
    }
    println!("paper (testbed): isolated ~110-120 MB/s each; rate control equalizes");

    let artifact = Json::obj(vec![
        ("runs", Json::UInt(runs)),
        ("modes", Json::Arr(rows)),
        (
            "write_collapse_pct",
            collapse.map_or(Json::Null, Json::Float),
        ),
    ]);
    match emit_json("fig11", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_fig11.json: {e}"),
    }
}
