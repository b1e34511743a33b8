//! `eden-perf`: the repository's performance benchmark.
//!
//! ```text
//! eden-perf [run|trace] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! eden-perf aa [--runs N] [--workload W] [--seconds S]
//! ```
//!
//! With `--workload` one workload runs in this process; without it each of
//! the five runs in a process of its own, so that peak memory is per
//! workload. Every run prints a `name value unit` line per metric, then one
//! JSON object as its last line, and exits non-zero when a correctness
//! check fails. See `README.md` beside this package.

mod aa;
mod arms;
mod ctrl_wl;
mod enclave_wl;
mod fullstack;
mod harness;
mod pool;
mod proc;
mod spec;
mod stats;
mod trace;
mod wrap;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use eden_telemetry::Json;

use enclave_wl::{EnclaveWorkload, Kind};
use harness::{calibrate, collect, Check, Workload};
use spec::{Metrics, WORKLOADS};
use stats::Sorted;
use trace::Tag;

/// Length of a timed round of an untraced run. Each metric is taken per
/// round and the run reports the decile round on the good side: a busy
/// neighbour on this shared box slows rounds by 10–40% for seconds or
/// minutes at a time and never speeds one up, so the better decile holds
/// still with up to nine rounds in ten disturbed, where the median gives
/// way at five.
const ROUND: Duration = Duration::from_millis(500);
/// Set-up is done at least [`MIN_SETUPS`] times in a run, and again while
/// that has taken less than [`SETUP_BUDGET`], up to [`MAX_SETUPS`] times;
/// `setup_s` is the median. A set-up of milliseconds needs the repeats.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `run`, `trace` or `aa`.
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            mode: "run".into(),
            workload: None,
            seed: 1,
            seconds: spec::run_seconds(),
            trace: false,
            runs: 10,
        };
        let mut first = true;
        while let Some(arg) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "run" | "trace" | "aa" if std::mem::take(&mut first) => a.mode = arg,
                "--workload" => {
                    let w = value("a workload name")?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                    }
                    a.workload = Some(w);
                }
                "--seed" => a.seed = num(&value("a number")?)?,
                "--seconds" => a.seconds = num(&value("a number")?)?,
                "--runs" => a.runs = num(&value("a number")?)?,
                "--trace" => a.trace = num::<u8>(&value("0 or 1")?)? != 0,
                "--quick" => a.seconds = 2.0,
                _ => return Err(format!("unknown argument {arg}")),
            }
            first = false;
        }
        a.trace |= a.mode == "trace";
        if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.runs < 2 {
            return Err("--seconds must be in (0, 60] and --runs at least 2".into());
        }
        Ok(a)
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{s} is not a valid number"))
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "bare-forward" => Box::new(EnclaveWorkload::build(Kind::Bare, seed)),
        "catalogue-mix" => Box::new(EnclaveWorkload::build(Kind::Mix, seed)),
        "flow-churn" => Box::new(EnclaveWorkload::build(Kind::Churn, seed)),
        "fullstack" => Box::new(fullstack::Fullstack::build(seed)),
        "ctrl-churn" => Box::new(ctrl_wl::CtrlChurn::build(seed)),
        other => unreachable!("{other} passed argument checking"),
    }
}

/// The untraced run: every end-to-end metric.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> (Metrics, Check) {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut w = None;
    let mut rss_mb = 0.0;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(build(workload, seed));
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == 1 {
            // Read here, memory is what one built and warmed-up workload
            // holds. Later it also holds what the allocator kept of the
            // earlier set-ups and what a run of this length happened to
            // grow, which moves with how many ops the run got through.
            rss_mb = proc::peak_rss_mb();
        }
    }
    let mut w = w.expect("built");
    let count = (seconds / ROUND.as_secs_f64()).round().max(3.0) as u32;
    let budget = Duration::from_secs_f64(seconds) / count;
    let rounds: Vec<_> = (0..count).map(|_| collect(&mut *w, budget, 1)).collect();
    let check = w.check();

    let mut m = Metrics::end_to_end();
    let per_round = |f: fn(&harness::Round) -> f64| Sorted::new(rounds.iter().map(f).collect());
    let rates = per_round(|r| r.ops_per_s());
    println!(
        "# ops_per_s over {} rounds: min {:.0} median {:.0} max {:.0}",
        rates.count(),
        rates.percentile(1.0),
        rates.median(),
        rates.percentile(100.0)
    );
    m.set("ops_per_s", rates.percentile(90.0));
    let samples = rounds.iter().map(|r| r.per_op_ns.len()).sum();
    m.set_with_samples(
        "op_ns_p50",
        per_round(|r| r.op_ns_p50()).percentile(10.0),
        samples,
    );
    m.set(
        "cpu_ns_per_op",
        per_round(|r| r.cpu_ns_per_op()).percentile(10.0),
    );
    m.set_with_samples("setup_s", stats::median(&setups), setups.len());
    m.set("rss_mb", rss_mb);
    (m, check)
}

/// The traced run: every per-layer metric, and the span file.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> (Metrics, Check) {
    let mut m = Metrics::per_layer();
    m.set("bench.calib_ns", calibrate());
    let share = |part: f64| Duration::from_secs_f64(seconds * part);

    // set-up, with the spans of its compile, verify and install steps
    trace::start();
    let mut w = build(workload, seed);
    let setup = trace::stop();
    // shares of the run: traced round, untraced reference, ablation arms
    let arms = w.has_arms();
    let (traced_share, reference_share) = if arms { (0.4, 0.2) } else { (0.6, 0.4) };
    let us = |tag| setup.total_ns(&[tag]) as f64 / 1e3;
    m.set("lang.compile_us", us(Tag::LangCompile));
    m.set("vm.verify_us", us(Tag::VmVerify));
    m.set("core.install_us", us(Tag::CoreInstall));

    // traced round: counters after a fixed count window, times over all of it
    trace::start();
    let started = Instant::now();
    let window = w.count_samples();
    let mut traced = collect(&mut *w, Duration::ZERO, window);
    w.counts(traced.ops, &trace::totals(), &mut m);
    traced.merge(collect(
        &mut *w,
        share(traced_share).saturating_sub(started.elapsed()),
        0,
    ));
    let report = trace::stop();
    assert_eq!(report.dropped, 0, "span buffer overflowed inside a sample");
    w.layers(&traced, &report, &mut m);
    for (name, tag) in [
        ("core.config_digest_us", Tag::CoreDigest),
        ("core.epoch_stage_us", Tag::CoreStage),
        ("core.epoch_commit_us", Tag::CoreCommit),
        ("core.snapshot_us", Tag::CoreSnapshot),
        ("telemetry.json_us", Tag::TelemetryJson),
        ("telemetry.prom_us", Tag::TelemetryProm),
        ("repl.sync_us", Tag::ReplSync),
    ] {
        m.set(name, report.mean_us(tag));
    }
    let path = out_dir().join(format!("trace-{workload}.json"));
    write_out(&path, &report.to_json(workload, seed));

    // the same work untraced, for the cost of tracing and the sample tail
    let reference = collect(&mut *w, share(reference_share), 1);
    m.set(
        "bench.trace_overhead_pct",
        (reference.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
    );
    m.set("bench.cpu_busy_ratio", reference.cpu_busy_ratio());
    let samples = Sorted::new(reference.per_op_ns);
    let (p, tail) = samples.tail().unwrap_or((50.0, samples.median()));
    if p != 99.0 {
        println!("# bench.op_ns_p99 is p{p}: fewer than ten samples lie beyond a higher one");
    }
    m.set_with_samples("bench.op_ns_p99", tail, samples.count());

    let check = w.check();
    drop(w);
    if arms {
        arms::run(seed, share(0.4), &mut m);
    }
    (m, check)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(path: &std::path::Path, text: &str) {
    let dir = path.parent().expect("a file under out/");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// The result object the contract asks for as the last line of output.
fn result_json(m: &Metrics, check: &Check) -> Json {
    let metrics =
        m.0.iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
    Json::obj(vec![
        ("correct", Json::Bool(check.correct())),
        ("attempted", Json::UInt(check.attempted.max(1))),
        ("failed", Json::UInt(check.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload in this process.
fn run_one(workload: &str, a: &Args) -> ExitCode {
    println!(
        "# workload={workload} seed={} seconds={} trace={}",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let (m, check) = if a.trace {
        run_traced(workload, a.seed, a.seconds)
    } else {
        run_untraced(workload, a.seed, a.seconds)
    };
    for metric in &m.0 {
        let samples = metric.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!("{} {} {}{samples}", metric.name, metric.value, metric.unit);
    }
    for v in &check.violations {
        println!("# FAILED CHECK: {v}");
    }
    let ratio = check.failed as f64 / check.attempted.max(1) as f64;
    println!(
        "# attempted={} failed={} fail_ratio={ratio}",
        check.attempted, check.failed
    );
    let json = result_json(&m, &check).render();
    write_out(&out_dir().join("result.json"), &format!("{json}\n"));
    println!("{json}");
    exit_code(check.correct())
}

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child process reported.
pub struct ChildRun {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
}

impl ChildRun {
    /// The result object on the last line of output.
    pub fn result(&self) -> Option<Json> {
        Json::parse(self.stdout.lines().last()?).ok()
    }

    /// The value of metric `name` in the result object.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Run one workload in a process of its own.
pub fn spawn(workload: &str, seed: u64, seconds: f64, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn a workload process");
    ChildRun {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// All five workloads, one process each; `result.json` holds all of them.
fn run_all(a: &Args) -> ExitCode {
    let mut all = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let child = spawn(workload, a.seed, a.seconds, a.trace);
        print!("{}", child.stdout);
        ok &= child.ok;
        let last = child.stdout.lines().last().unwrap_or_default();
        all.push((
            workload.to_string(),
            Json::parse(last).unwrap_or(Json::Null),
        ));
    }
    write_out(
        &out_dir().join("result.json"),
        &format!("{}\n", Json::Obj(all).render()),
    );
    println!(
        "# {}",
        if ok {
            "all workloads correct"
        } else {
            "A WORKLOAD FAILED"
        }
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eden-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.mode.as_str(), &args.workload) {
        ("aa", _) => aa::run(&args),
        (_, Some(w)) => run_one(w, &args),
        (_, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "flow-churn",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("flow-churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        assert!(parse(&["trace", "--quick"]).unwrap().trace);
        assert_eq!(parse(&["--quick"]).unwrap().seconds, 2.0);
        assert_eq!(parse(&["aa", "--runs", "4"]).unwrap().runs, 4);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "1", "run"]).is_err());
    }

    #[test]
    fn result_object_has_the_contract_keys() {
        let mut m = Metrics::end_to_end();
        m.set("op_ns_p50", 231.25);
        let check = Check {
            attempted: 10,
            failed: 1,
            ..Check::default()
        };
        let json = result_json(&m, &check).render();
        assert!(json.starts_with(r#"{"correct":false,"attempted":10,"failed":1,"metrics":{"#));
        assert!(json.contains(r#""op_ns_p50":{"value":231.25,"unit":"ns"}"#));
        let child = ChildRun {
            ok: true,
            stdout: format!("# x\nop_ns_p50 231.25 ns n=5\n{json}\n"),
            stderr: String::new(),
        };
        assert_eq!(child.metric("op_ns_p50"), Some(231.25));
        assert_eq!(child.metric("ops_per_s"), Some(0.0));
        assert_eq!(child.metric("nope"), None);
    }
}
