//! Replication-plane sync: replica staleness and delta wire cost for a
//! fleet-wide `replicated(merged)` counter, swept over host count ×
//! control-channel loss, plus the exact-total-after-heal quality flag.
//!
//! Run with `cargo bench -p eden-bench --bench repl_sync`.

use eden_bench::repl;
use eden_bench::report::{emit_json, Table};
use eden_telemetry::{Json, ToJson};

const HOST_COUNTS: [usize; 3] = [2, 4, 8];
/// Control-channel loss in per mille.
const LOSSES: [u32; 3] = [0, 20, 100];
const SEEDS: [u64; 3] = [1, 2, 3];

fn main() {
    println!("== eden-repl: replica staleness + delta bytes vs hosts x loss ==");
    println!(
        "merged counter on every host; {} seed(s) per point\n",
        SEEDS.len()
    );

    let mut table = Table::new(&[
        "hosts",
        "ctrl loss",
        "staleness mean",
        "staleness p99",
        "delta p50",
        "delta p99",
        "exact after heal",
    ]);
    let mut points = Vec::new();
    for hosts in HOST_COUNTS {
        for loss in LOSSES {
            let p = repl::run(hosts, loss, &SEEDS);
            table.row(&[
                format!("{hosts}"),
                format!("{:.1}%", f64::from(loss) / 10.0),
                format!("{:.0} us", p.staleness_mean_us),
                format!("{:.0} us", p.staleness_p99_us),
                format!("{:.0} B", p.delta_bytes_p50),
                format!("{:.0} B", p.delta_bytes_p99),
                format!("{}", p.exact_after_heal),
            ]);
            points.push(p);
        }
    }
    println!("{}", table.render());
    println!("staleness = age of a host's contribution when the hub ingests it");
    println!("exact     = hub total and every replica equal the increment count after heal");

    let artifact = Json::obj(vec![(
        "points",
        Json::Arr(points.iter().map(|p| p.to_json()).collect()),
    )]);
    match emit_json("repl", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_repl.json: {e}"),
    }
}
