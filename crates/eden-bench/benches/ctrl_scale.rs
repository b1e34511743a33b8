//! Control-plane scale: root wire load and convergence time of the flat
//! controller vs the hierarchical aggregator tier, a six-figure fleet over
//! virtual shards, plus the wire savings of digest-anchored delta updates.
//!
//! Run with `cargo bench -p eden-bench --bench ctrl_scale`.

use eden_bench::ctrl_scale::{self, ScalePoint};
use eden_bench::report::{emit_json, Table};
use eden_telemetry::{Json, ToJson};

const RULES: usize = 8;
const HOST_COUNTS: [usize; 2] = [256, 1024];
const SEEDS: [u64; 3] = [1, 2, 3];
/// The virtual-shard point: one seed, the scale the paper's datacenter
/// deployment story implies.
const VIRTUAL_HOSTS: usize = 100_000;
const DELTA_HOSTS: usize = 32;
const DELTA_RULES: usize = 64;

fn main() {
    println!("== eden-ctrl: flat vs hierarchical control plane at scale ==");
    println!(
        "root wire load + convergence over the push window; {} seed(s) per point\n",
        SEEDS.len()
    );

    let mut table = Table::new(&[
        "mode",
        "hosts",
        "racks",
        "push mean",
        "root msgs",
        "root KiB",
    ]);
    let mut points: Vec<ScalePoint> = Vec::new();
    for hosts in HOST_COUNTS {
        points.push(ctrl_scale::run_flat(hosts, RULES, &SEEDS));
        points.push(ctrl_scale::run_hier(hosts, RULES, &SEEDS));
    }
    points.push(ctrl_scale::run_virtual(VIRTUAL_HOSTS, RULES, &[1]));
    for p in &points {
        table.row(&[
            p.mode.to_string(),
            format!("{}", p.hosts),
            if p.mode == "flat" {
                "-".into()
            } else {
                format!("{}", ctrl_scale::rack_count(p.hosts))
            },
            format!("{:.0} us", p.push_mean_us),
            format!("{:.0}", p.root_msgs_mean),
            format!("{:.1}", p.root_kb_mean),
        ]);
    }
    println!("{}", table.render());

    let [small, large] = HOST_COUNTS;
    let h = ctrl_scale::headline(&points, small, large);
    println!(
        "\nroot messages at {large} hosts: {:.1}x fewer through the hierarchy",
        h.reduction
    );
    println!(
        "root message growth {small} -> {large} hosts: flat {:.2}x, \
         hier {:.2}x (sub-linear: {})",
        h.flat_growth, h.hier_growth, h.sublinear
    );

    println!("\n== delta updates vs full-table ships ==");
    let delta = ctrl_scale::run_delta(DELTA_HOSTS, DELTA_RULES, &SEEDS);
    println!(
        "one-rule change over a {DELTA_RULES}-rule table, {DELTA_HOSTS} hosts: \
         full {:.2} KiB vs delta {:.2} KiB ({:.1}x fewer config bytes)",
        delta.full_kb_mean,
        delta.delta_kb_mean,
        delta.reduction()
    );

    let artifact = Json::obj(vec![
        (
            "points",
            Json::Arr(points.iter().map(|p| p.to_json()).collect()),
        ),
        ("hier_root_msg_reduction_rate", Json::Float(h.reduction)),
        ("hier_sublinear", Json::Bool(h.sublinear)),
        ("delta", delta.to_json()),
        ("delta_reduction_10x", Json::Bool(delta.reduction_10x())),
    ]);
    match emit_json("ctrl_scale", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_ctrl_scale.json: {e}"),
    }
}
