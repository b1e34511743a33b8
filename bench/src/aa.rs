//! `eden-perf aa`: the same binary against itself.
//!
//! Two sets of runs per workload, each run with another seed, judged the
//! way a later change will be: a metric's spread (quartile distance over
//! median) must stay within its bound in both sets, and the second median
//! may not be worse than the first by more than the bound. Two traced runs
//! at one seed must agree on every exact count.

use std::process::ExitCode;

use crate::spec::{self, EXACT, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{exit_code, spawn, Args};

/// The untraced runs of one set: one value list per end-to-end metric.
fn run_set(workload: &str, seeds: std::ops::Range<u64>, seconds: f64) -> Option<Vec<Vec<f64>>> {
    let names = spec::bounds();
    let mut values = vec![Vec::new(); names.len()];
    for seed in seeds {
        let child = spawn(workload, seed, seconds, false);
        if !child.ok {
            println!(
                "{workload} seed {seed} failed:\n{}{}",
                child.stdout, child.stderr
            );
            return None;
        }
        for (list, (name, ..)) in values.iter_mut().zip(&names) {
            list.push(child.metric(name)?);
        }
    }
    Some(values)
}

/// Spread of a set: distance between its quartiles as a share of its median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Metrics on which two traced runs at `seed` disagree, or `None` when a
/// run failed.
fn exact_mismatches(workload: &str, seed: u64, seconds: f64) -> Option<Vec<String>> {
    let runs = [(); 2].map(|()| spawn(workload, seed, seconds, true));
    if let Some(bad) = runs.iter().find(|r| !r.ok) {
        println!(
            "{workload} traced run failed:\n{}{}",
            bad.stdout, bad.stderr
        );
        return None;
    }
    let differ = |name: &str| runs[0].metric(name) != runs[1].metric(name);
    let names = EXACT.iter().filter(|n| differ(n));
    Some(names.map(|n| n.to_string()).collect())
}

pub fn run(a: &Args) -> ExitCode {
    let n = a.runs as u64;
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
    );
    for workload in WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|o| o == **w))
    {
        let sets = [1..n + 1, n + 1..2 * n + 1].map(|seeds| run_set(workload, seeds, a.seconds));
        let [Some(set_a), Some(set_b)] = sets else {
            ok = false;
            continue;
        };
        for (((name, bound, lower), va), vb) in spec::bounds().into_iter().zip(set_a).zip(set_b) {
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
            let (sa, sb) = (spread(&va), spread(&vb));
            // set-up time is judged on its medians alone
            let steady = name == "setup_s" || sa.max(sb) <= bound;
            let pass = steady && worse <= bound;
            ok &= pass;
            println!(
                "{workload:<14} {name:<14} {ma:>14.3} {mb:>14.3} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "OUTSIDE BOUND" }
            );
        }
        match exact_mismatches(workload, 1, a.seconds) {
            Some(names) if names.is_empty() => println!("{workload:<14} exact counts repeat"),
            Some(names) => {
                ok = false;
                println!("{workload:<14} EXACT COUNTS DIFFER: {names:?}");
            }
            None => ok = false,
        }
    }
    exit_code(ok)
}
