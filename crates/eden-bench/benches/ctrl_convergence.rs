//! Control-plane convergence: virtual time for the `eden-ctrl` runtime to
//! drive a fleet to a freshly pushed epoch (two-phase prepare/commit) and
//! to resync a partitioned host after its link heals, swept over host
//! count × control-channel loss.
//!
//! Run with `cargo bench -p eden-bench --bench ctrl_convergence`.

use eden_bench::ctrl;
use eden_bench::report::{emit_json, Table};
use eden_telemetry::{Json, ToJson};

const HOST_COUNTS: [usize; 3] = [2, 4, 8];
/// Control-channel loss in per mille.
const LOSSES: [u32; 3] = [0, 20, 100];
const SEEDS: [u64; 3] = [1, 2, 3];

fn main() {
    println!("== eden-ctrl: fleet convergence vs host count x control loss ==");
    println!(
        "virtual time to all-in-sync; {} seed(s) per point\n",
        SEEDS.len()
    );

    let mut table = Table::new(&[
        "hosts",
        "ctrl loss",
        "push mean",
        "push max",
        "rejoin mean",
        "rejoin max",
    ]);
    let mut points = Vec::new();
    for hosts in HOST_COUNTS {
        for loss in LOSSES {
            let p = ctrl::run(hosts, loss, &SEEDS);
            table.row(&[
                format!("{hosts}"),
                format!("{:.1}%", f64::from(loss) / 10.0),
                format!("{:.0} us", p.push_mean_us),
                format!("{:.0} us", p.push_max_us),
                format!("{:.0} us", p.rejoin_mean_us),
                format!("{:.0} us", p.rejoin_max_us),
            ]);
            points.push(p);
        }
    }
    println!("{}", table.render());
    println!("push   = set_desired -> every host at the desired (epoch, digest)");
    println!("rejoin = partition heals -> fleet back in sync (detection + resync)");

    let artifact = Json::obj(vec![(
        "points",
        Json::Arr(points.iter().map(|p| p.to_json()).collect()),
    )]);
    match emit_json("ctrl", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_ctrl.json: {e}"),
    }
}
