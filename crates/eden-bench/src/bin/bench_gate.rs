//! Bench regression gate: compare a fresh `BENCH_*.json` run against the
//! checked-in baselines and fail on regressions past a threshold.
//!
//! ```text
//! bench_gate --baseline baselines --current bench-artifacts [--threshold 0.25]
//! ```
//!
//! Both paths may be directories (every `BENCH_*.json` in the baseline
//! dir must have a counterpart in the current dir) or a pair of files.
//! The comparator is schema-agnostic: it flattens each JSON document
//! into `(metric path, value)` pairs, using non-metric fields (strings,
//! identity integers like `lanes` or `hosts`) to key array elements, and
//! only gates fields whose *names* identify a direction:
//!
//! * lower-is-better — time-like tokens: `ns`, `us`, `ms`, `latency`,
//!   `p50`/`p95`/`p99`, `mean`, `max`; cost counts: `steps`, `bytes`
//! * higher-is-better — rate-like tokens: `throughput`, `rate`, `sec`,
//!   `ops`, `gbps`, `mbps`
//!
//! A gated metric moving in its bad direction by more than `threshold`
//! (relative) is a regression. A baseline metric missing from the
//! current run, or a quality flag (any boolean except `smoke`) flipping
//! `true -> false`, is also a failure: silent schema drift must not
//! read as a pass. Exit codes: 0 ok, 1 regression, 2 usage/IO error.
//!
//! Every baseline holds virtual time or counts, so one run is the
//! measurement: a smoke run repeats bit for bit, and refreshing a baseline
//! is copying one. Wall-clock time is not gated here; `eden-perf` reads it
//! in alternating parent/change pairs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use eden_telemetry::Json;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerBetter,
    HigherBetter,
    /// Not a recognized metric: carried for presence checks only.
    Unknown,
}

/// Classify a field name by its `_`-separated tokens.
fn direction(name: &str) -> Direction {
    let tokens: Vec<&str> = name.split('_').collect();
    const LOWER: &[&str] = &[
        "ns", "us", "ms", "latency", "p50", "p95", "p99", "mean", "max", "steps", "bytes",
    ];
    const HIGHER: &[&str] = &["throughput", "rate", "sec", "ops", "gbps", "mbps"];
    if tokens.iter().any(|t| LOWER.contains(t)) {
        Direction::LowerBetter
    } else if tokens.iter().any(|t| HIGHER.contains(t)) {
        Direction::HigherBetter
    } else {
        Direction::Unknown
    }
}

/// One extracted value: a gated number or a quality flag.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Number(f64, Direction),
    Flag(bool),
}

/// Flatten a document into `path -> metric`. Array elements of objects
/// are keyed by their identity fields (strings plus numbers that are not
/// direction-classified), so reordering points does not shift metrics.
fn flatten(doc: &Json) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    walk(doc, "", &mut out);
    out
}

fn walk(v: &Json, path: &str, out: &mut BTreeMap<String, Metric>) {
    match v {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match v {
                    Json::Bool(b) if k != "smoke" => {
                        out.insert(sub, Metric::Flag(*b));
                    }
                    Json::Bool(_) => {}
                    Json::Int(_) | Json::UInt(_) | Json::Float(_) => {
                        let d = direction(k);
                        if d != Direction::Unknown {
                            out.insert(sub, Metric::Number(as_f64(v), d));
                        }
                    }
                    _ => walk(v, &sub, out),
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let key = element_key(item).unwrap_or_else(|| format!("[{i}]"));
                walk(item, &format!("{path}{key}"), out);
            }
        }
        _ => {}
    }
}

fn as_f64(v: &Json) -> f64 {
    match v {
        Json::Int(i) => *i as f64,
        Json::UInt(u) => *u as f64,
        Json::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// Identity key for an object inside an array: every string field plus
/// every number field that is not itself a gated metric. A boolean is a
/// quality flag, not identity, so a point's flag that flips reads as a
/// flip rather than as a missing point.
fn element_key(v: &Json) -> Option<String> {
    let Json::Obj(fields) = v else { return None };
    let mut parts = Vec::new();
    for (k, v) in fields {
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Int(_) | Json::UInt(_) | Json::Float(_) if direction(k) == Direction::Unknown => {
                parts.push(format!("{k}={}", as_f64(v)))
            }
            _ => {}
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(format!("[{}]", parts.join(",")))
    }
}

/// Token set of a metric path: split on every non-alphanumeric
/// character, lowercase. The unit of similarity for [`nearest`].
fn path_tokens(path: &str) -> Vec<String> {
    path.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// The up-to-three candidate paths most similar to `target`, by Jaccard
/// similarity over path tokens. Renames and typos share most tokens with
/// their old spelling, so the hint usually names the moved metric; paths
/// below a 0.3 similarity floor are noise, not candidates.
fn nearest<'a>(target: &str, candidates: impl Iterator<Item = &'a String>) -> Vec<&'a String> {
    let want = path_tokens(target);
    let mut scored: Vec<(f64, &String)> = candidates
        .filter_map(|c| {
            let have = path_tokens(c);
            let shared = want.iter().filter(|t| have.contains(t)).count();
            let union = want.len() + have.len() - shared;
            let score = shared as f64 / union.max(1) as f64;
            (score >= 0.3).then_some((score, c))
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(3).map(|(_, c)| c).collect()
}

/// Compare two flattened documents; returns human-readable failures.
fn compare(
    baseline: &BTreeMap<String, Metric>,
    current: &BTreeMap<String, Metric>,
    threshold: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (path, base) in baseline {
        let Some(cur) = current.get(path) else {
            let hints = nearest(path, current.keys().filter(|k| !baseline.contains_key(*k)));
            let suffix = if hints.is_empty() {
                String::new()
            } else {
                let names: Vec<&str> = hints.iter().map(|h| h.as_str()).collect();
                format!(" (closest in current run: {})", names.join(", "))
            };
            failures.push(format!(
                "{path}: present in baseline, missing from current run{suffix}"
            ));
            continue;
        };
        match (base, cur) {
            (Metric::Flag(was), Metric::Flag(is)) => {
                if *was && !*is {
                    failures.push(format!("{path}: quality flag regressed true -> false"));
                }
            }
            (Metric::Number(b, d), Metric::Number(c, _)) => {
                if *b == 0.0 || !b.is_finite() || !c.is_finite() {
                    continue;
                }
                let rel = (c - b) / b;
                let regressed = match d {
                    Direction::LowerBetter => rel > threshold,
                    Direction::HigherBetter => rel < -threshold,
                    Direction::Unknown => false,
                };
                if regressed {
                    failures.push(format!(
                        "{path}: {b:.3} -> {c:.3} ({:+.1}%, threshold {:.0}%)",
                        rel * 100.0,
                        threshold * 100.0
                    ));
                }
            }
            _ => failures.push(format!("{path}: metric changed kind between runs")),
        }
    }
    failures
}

fn load(path: &Path) -> Result<BTreeMap<String, Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(flatten(&doc))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate --baseline <dir|file> --current <dir|file> [--threshold 0.25]\n\
         \x20      bench_gate --list <dir|file>"
    );
    ExitCode::from(2)
}

/// Every `BENCH_*.json` under `root` (or `root` itself if it is a file).
fn bench_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    if root.is_file() {
        return Ok(vec![root.to_path_buf()]);
    }
    let entries = std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("BENCH_") && n.ends_with(".json")
                })
                .unwrap_or(false)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", root.display()));
    }
    Ok(files)
}

/// The `--list` mode: dump every flattened metric path so missing-metric
/// reports can be matched against the real names instead of guessed.
fn list_metrics(root: &Path) -> Result<(), String> {
    for file in bench_files(root)? {
        println!("{}:", file.display());
        for (path, metric) in load(&file)? {
            let kind = match metric {
                Metric::Number(_, Direction::LowerBetter) => "gated, lower is better",
                Metric::Number(_, Direction::HigherBetter) => "gated, higher is better",
                Metric::Number(_, Direction::Unknown) => "ungated number",
                Metric::Flag(_) => "quality flag",
            };
            println!("  {path}  [{kind}]");
        }
    }
    Ok(())
}

/// Each baseline file against its counterpart: the current file itself
/// for a file baseline, the same name under the current directory for a
/// directory of baselines.
fn pair_up(baseline: &Path, current: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if baseline.is_file() {
        return Ok(vec![(baseline.to_path_buf(), current.to_path_buf())]);
    }
    Ok(bench_files(baseline)?
        .into_iter()
        .map(|b| {
            let name = b.file_name().expect("listed files have names").to_owned();
            (b, current.join(name))
        })
        .collect())
}

/// Gate every baseline against its counterpart; the number of failures.
fn gate(baseline: &Path, current: &Path, threshold: f64) -> Result<usize, String> {
    let mut total = 0;
    for (base_path, cur_path) in pair_up(baseline, current)? {
        let base = load(&base_path)?;
        let failures = compare(&base, &load(&cur_path)?, threshold);
        let gated = base
            .values()
            .filter(|m| matches!(m, Metric::Number(..)))
            .count();
        println!(
            "{}: {} gated metrics, {} regressions",
            base_path.display(),
            gated,
            failures.len()
        );
        for f in &failures {
            println!("  REGRESSION {f}");
        }
        total += failures.len();
    }
    Ok(total)
}

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut list: Option<PathBuf> = None;
    let mut threshold = 0.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            "--list" => &mut list,
            "--threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => {
                    threshold = t;
                    continue;
                }
                None => return usage(),
            },
            _ => return usage(),
        };
        // each path once: a second `--current` is not a repetition to merge
        if slot.is_some() {
            return usage();
        }
        match args.next() {
            Some(path) => *slot = Some(PathBuf::from(path)),
            None => return usage(),
        }
    }
    let result = match (list, baseline, current) {
        (Some(root), None, None) => list_metrics(&root).map(|()| 0),
        (None, Some(baseline), Some(current)) => gate(&baseline, &current, threshold),
        _ => return usage(),
    };
    match result {
        Ok(0) => {
            println!("bench_gate: ok");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("bench_gate: {n} regression(s) past the threshold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(text: &str) -> BTreeMap<String, Metric> {
        flatten(&Json::parse(text).unwrap())
    }

    #[test]
    fn directions_classify_by_token() {
        assert_eq!(direction("ns_per_packet"), Direction::LowerBetter);
        assert_eq!(direction("push_mean_us"), Direction::LowerBetter);
        assert_eq!(direction("rejoin_max_us"), Direction::LowerBetter);
        assert_eq!(direction("msgs_per_sec"), Direction::HigherBetter);
        assert_eq!(direction("fused_steps_per_packet"), Direction::LowerBetter);
        assert_eq!(direction("stack_bytes"), Direction::LowerBetter);
        // "functions" must not match the "ns" token, "lanes" is identity
        assert_eq!(direction("functions"), Direction::Unknown);
        assert_eq!(direction("lanes"), Direction::Unknown);
        assert_eq!(direction("batch_size"), Direction::Unknown);
    }

    #[test]
    fn array_elements_key_by_identity_not_position() {
        let a = flat(r#"{"points":[{"function":"sff","lanes":4,"ns_per_packet":100}]}"#);
        let b = flat(
            r#"{"points":[{"function":"wcmp","lanes":1,"ns_per_packet":5},
                          {"function":"sff","lanes":4,"ns_per_packet":100}]}"#,
        );
        // the sff point matches across runs even though its index moved
        assert!(compare(&a, &b, 0.25).is_empty());
    }

    #[test]
    fn regression_past_threshold_fails_in_the_bad_direction_only() {
        let base = flat(r#"{"ns_per_packet":100,"msgs_per_sec":1000}"#);
        let slower = flat(r#"{"ns_per_packet":126,"msgs_per_sec":1000}"#);
        let faster = flat(r#"{"ns_per_packet":10,"msgs_per_sec":4000}"#);
        let lower_rate = flat(r#"{"ns_per_packet":100,"msgs_per_sec":700}"#);
        assert_eq!(compare(&base, &slower, 0.25).len(), 1);
        assert!(compare(&base, &faster, 0.25).is_empty());
        assert_eq!(compare(&base, &lower_rate, 0.25).len(), 1);
    }

    #[test]
    fn missing_metric_and_flag_flip_fail() {
        let base = flat(r#"{"amortized_all":true,"ns_per_packet":100}"#);
        let flipped = flat(r#"{"amortized_all":false,"ns_per_packet":100}"#);
        let gone = flat(r#"{"amortized_all":true}"#);
        assert_eq!(compare(&base, &flipped, 0.25).len(), 1);
        assert_eq!(compare(&base, &gone, 0.25).len(), 1);
    }

    #[test]
    fn missing_metric_suggests_the_renamed_counterpart() {
        let base = flat(r#"{"push":{"ns_per_packet":100}}"#);
        let cur = flat(r#"{"push":{"ns_per_pkt":100},"msgs_per_sec":900}"#);
        let failures = compare(&base, &cur, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("closest in current run: push.ns_per_pkt"),
            "{}",
            failures[0]
        );
        // the unrelated rate metric must not outrank the rename
        assert!(!failures[0].contains("msgs_per_sec"), "{}", failures[0]);
    }

    #[test]
    fn missing_metric_with_no_overlap_gets_no_hint() {
        let base = flat(r#"{"ns_per_packet":100}"#);
        let cur = flat(r#"{"qq_zz_mean":1.0}"#);
        let failures = compare(&base, &cur, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(!failures[0].contains("closest"), "{}", failures[0]);
    }

    #[test]
    fn nearest_prefers_higher_token_overlap() {
        let candidates = [
            "overheads.average.api_pct_mean".to_string(),
            "interp[function=sff].fused_ns_per_packet".to_string(),
            "interp[function=sff].unopt_ns_per_packet".to_string(),
        ];
        let hits = nearest("interp[function=sff].ns_per_packet", candidates.iter());
        assert_eq!(hits[0], "interp[function=sff].fused_ns_per_packet");
    }

    #[test]
    fn smoke_flag_is_not_gated() {
        let base = flat(r#"{"smoke":true,"ns_per_packet":100}"#);
        let cur = flat(r#"{"smoke":false,"ns_per_packet":100}"#);
        assert!(compare(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn fig12_artifact_gates_steps_rate_bytes_and_the_flag() {
        let m = flat(
            r#"{"footprints":[{"name":"sff","stack_bytes":24,"heap_bytes":24}],
                "interp":[{"function":"sff","unopt_steps_per_packet":30,
                           "fused_steps_per_packet":20,"step_reduction_rate":1.5}],
                "new_bundles":[{"function":"l4lb","peer":"wcmp","fused_steps_per_packet":9,
                                "peer_fused_steps_per_packet":8,"within_2x":true}]}"#,
        );
        let numbers = m
            .values()
            .filter(|v| matches!(v, Metric::Number(..)))
            .count();
        assert_eq!(numbers, 7, "{m:?}");
        assert_eq!(
            m.get("interp[function=sff].step_reduction_rate"),
            Some(&Metric::Number(1.5, Direction::HigherBetter))
        );
        assert_eq!(
            m.get("footprints[name=sff].heap_bytes"),
            Some(&Metric::Number(24.0, Direction::LowerBetter))
        );
        assert_eq!(
            m.get("new_bundles[function=l4lb,peer=wcmp].within_2x"),
            Some(&Metric::Flag(true))
        );
    }
}
