//! Micro: batch-size and parallel-speedup curves of the batched enclave
//! data path (`Enclave::process_batch`), per catalogue function.
//!
//! Emits `BENCH_batch.json`, wall-clock and so not gated: CI uploads it as
//! the lane series, with the runner's core count beside it (a 4-lane point
//! from a box with fewer cores measures time slicing, not lanes). Set
//! `EDEN_BENCH_SMOKE=1` for a CI-sized run.
//!
//! Run with `cargo bench -p eden-bench --bench batch`.

use eden_bench::batch;
use eden_bench::report::{emit_json, Table};
use eden_telemetry::{Json, ToJson};

fn main() {
    let smoke = std::env::var("EDEN_BENCH_SMOKE").is_ok();
    println!("== micro: batched enclave data path ==");
    println!(
        "ns/packet by (function, lanes, batch size){}\n",
        if smoke { " — smoke sizes" } else { "" }
    );

    let points = batch::run(smoke);

    let mut table = Table::new(&["function", "concurrency", "lanes", "batch", "ns/packet"]);
    for p in &points {
        table.row(&[
            p.function.into(),
            p.concurrency.into(),
            p.lanes.to_string(),
            p.batch_size.to_string(),
            format!("{:.0}", p.ns_per_packet),
        ]);
    }
    println!("{}", table.render());

    println!("amortization (lanes=4 series, smallest vs largest batch):");
    let mut amortized_all = true;
    for (name, small, large) in batch::amortization_check(&points) {
        let ok = large < small;
        amortized_all &= ok;
        println!(
            "  {name}: {small:.0} -> {large:.0} ns/packet {}",
            if ok { "(amortized)" } else { "(NOT amortized)" }
        );
    }
    println!(
        "\nnote: wall-clock speedup from lane concurrency needs multiple \
         cores; the batch-size trend above is the machine-independent signal."
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("cores: {cores}");
    let artifact = Json::obj(vec![
        ("smoke", smoke.into()),
        ("cores", cores.into()),
        ("amortized_all", amortized_all.into()),
        (
            "points",
            Json::Arr(points.iter().map(|p| p.to_json()).collect()),
        ),
    ]);
    match emit_json("batch", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_batch.json: {e}"),
    }
}
