//! Regenerates **Figure 9**: average and 95th-percentile flow completion
//! times for small and intermediate flows under {baseline, PIAS, SFF} ×
//! {native, Eden}, with 95% confidence intervals over several seeded runs.
//!
//! Paper reference points (§5.1): small flows improve from 363 µs to
//! 274 µs on average and from 1.6 ms to 1 ms at the 95th percentile
//! (25–40% reduction); native and Eden are statistically indistinguishable.
//!
//! Run with `cargo bench -p eden-bench --bench fig09_flow_scheduling`.
//! `EDEN_RUNS` (default 5) selects the number of seeded runs per arm.
//! Writes what it prints to `BENCH_fig09.json`: virtual time only, so the
//! default run repeats byte for byte on any machine.

use eden_bench::fig09::{run, Config, Engine, Scheme};
use eden_bench::report::{emit_json, us, Table};
use eden_telemetry::Json;
use netsim::{Summary, Time};

fn env_runs() -> u64 {
    std::env::var("EDEN_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn main() {
    let runs = env_runs();
    let arms = [
        ("baseline", Scheme::Baseline, Engine::Native, "native"),
        ("baseline", Scheme::Baseline, Engine::Eden, "EDEN"),
        ("PIAS", Scheme::Pias, Engine::Native, "native"),
        ("PIAS", Scheme::Pias, Engine::Eden, "EDEN"),
        ("SFF", Scheme::Sff, Engine::Native, "native"),
        ("SFF", Scheme::Sff, Engine::Eden, "EDEN"),
    ];

    println!("== Figure 9: flow completion times (case study 1) ==");
    println!("workload: search-distribution responses at 70% load + background; {runs} runs/arm\n");

    let mut table = Table::new(&[
        "scheme",
        "engine",
        "small avg",
        "small p95",
        "interm avg",
        "interm p95",
        "n",
    ]);
    let mut rows = Vec::new();
    for (name, scheme, engine, engine_name) in arms {
        let mut small_avg = Vec::new();
        let mut small_p95 = Vec::new();
        let mut mid_avg = Vec::new();
        let mut mid_p95 = Vec::new();
        let mut n = 0;
        for seed in 0..runs {
            let cfg = Config {
                seed: 100 + seed,
                duration: Time::from_millis(200),
                ..Default::default()
            };
            let r = run(scheme, engine, &cfg);
            let s = Summary::new(r.small_us.clone());
            let m = Summary::new(r.intermediate_us.clone());
            if !s.is_empty() {
                small_avg.push(s.mean());
                small_p95.push(s.percentile(95.0));
            }
            if !m.is_empty() {
                mid_avg.push(m.mean());
                mid_p95.push(m.percentile(95.0));
            }
            n += r.small_us.len() + r.intermediate_us.len();
        }
        let fmt = |v: &[f64]| {
            let s = Summary::new(v.to_vec());
            format!("{} ±{}", us(s.mean()), us(s.ci95()))
        };
        rows.push(Json::obj(vec![
            ("scheme", Json::Str(name.into())),
            ("engine", Json::Str(engine_name.into())),
            ("small_avg_us", mean_ci(&small_avg)),
            ("small_p95_us", mean_ci(&small_p95)),
            ("interm_avg_us", mean_ci(&mid_avg)),
            ("interm_p95_us", mean_ci(&mid_p95)),
            ("n", Json::UInt(n as u64)),
        ]));
        table.row(&[
            name.to_string(),
            engine_name.to_string(),
            fmt(&small_avg),
            fmt(&small_p95),
            fmt(&mid_avg),
            fmt(&mid_p95),
            n.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("paper (testbed):   baseline small avg 363us -> PIAS 274us; p95 1.6ms -> 1.0ms");
    println!("expected shape:    PIAS/SFF << baseline; SFF <= PIAS; native ~= EDEN");

    let artifact = Json::obj(vec![("runs", Json::UInt(runs)), ("arms", Json::Arr(rows))]);
    match emit_json("fig09", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_fig09.json: {e}"),
    }
}

/// The mean of `v` and its 95% confidence interval, as printed.
fn mean_ci(v: &[f64]) -> Json {
    let s = Summary::new(v.to_vec());
    Json::obj(vec![
        ("mean", Json::Float(s.mean())),
        ("ci95", Json::Float(s.ci95())),
    ])
}
