//! The names this binary emits. `BENCHMARK.json` at the repository root is
//! the contract; a unit test holds the two lists equal.

use eden_telemetry::Json;

pub const WORKLOADS: [&str; 5] = [
    "bare-forward",
    "catalogue-mix",
    "flow-churn",
    "fullstack",
    "ctrl-churn",
];

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("op_ns_p50", "ns"),
    ("cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// The catalogue, in `eden_apps::functions::catalogue()` order.
pub const BUNDLES: [&str; 19] = [
    "pias",
    "pias-fig7",
    "sff",
    "fixed-priority",
    "wcmp",
    "message-wcmp",
    "pulsar",
    "replica-select",
    "port-knock",
    "flow-counter",
    "conntrack",
    "qjump",
    "dist-rate-limit",
    "conn-steer",
    "l4lb",
    "conga",
    "ids",
    "stateful-firewall",
    "rate-limit",
];

/// Per-layer metrics other than the per-bundle `vm.run_ns.*` rows.
const PER_LAYER: [(&str, &str); 45] = [
    ("bench.calib_ns", "ns"),
    ("bench.cpu_busy_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.op_ns_p99", "ns"),
    ("netsim.self_ns_per_op", "ns"),
    ("netsim.events_per_op", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.switch_drops_per_kop", "count"),
    ("transport.self_ns_per_op", "ns"),
    ("transport.egress_batch_mean", "count"),
    ("transport.retransmits_per_kop", "count"),
    ("apps.self_ns_per_op", "ns"),
    ("apps.stage_classify_ns", "ns"),
    ("core.hook_ns_per_op", "ns"),
    ("core.miss_ns", "ns"),
    ("core.native_ns", "ns"),
    ("core.interp_ns", "ns"),
    ("core.batch1_ns", "ns"),
    ("core.batch64_ns", "ns"),
    ("core.batch256_ns", "ns"),
    ("core.lane_ns", "ns"),
    ("core.evictions_per_kop", "count"),
    ("core.msg_blocks_live", "count"),
    ("core.epoch_stage_us", "us"),
    ("core.epoch_commit_us", "us"),
    ("core.config_digest_us", "us"),
    ("core.snapshot_us", "us"),
    ("core.install_us", "us"),
    ("core.faults", "count"),
    ("vm.steps_per_op", "count"),
    ("vm.invocations_per_op", "count"),
    ("vm.verify_us", "us"),
    ("lang.compile_us", "us"),
    ("lang.code_ops", "count"),
    ("ctrl.root_self_ns_per_op", "ns"),
    ("ctrl.agg_self_ns_per_op", "ns"),
    ("ctrl.agent_ns_per_frame", "ns"),
    ("ctrl.root_msgs_per_push", "count"),
    ("ctrl.root_bytes_per_push", "count"),
    ("ctrl.config_bytes_per_push", "count"),
    ("ctrl.push_virtual_us_p50", "us"),
    ("repl.sync_us", "us"),
    ("telemetry.json_us", "us"),
    ("telemetry.prom_us", "us"),
    ("telemetry.sampled_overhead_pct", "%"),
];

/// Counts that must repeat bit for bit at a fixed seed; `aa` compares them.
pub const EXACT: [&str; 13] = [
    "netsim.events_per_op",
    "netsim.switch_drops_per_kop",
    "transport.egress_batch_mean",
    "transport.retransmits_per_kop",
    "core.evictions_per_kop",
    "core.msg_blocks_live",
    "core.faults",
    "vm.steps_per_op",
    "vm.invocations_per_op",
    "ctrl.root_msgs_per_push",
    "ctrl.root_bytes_per_push",
    "ctrl.config_bytes_per_push",
    "ctrl.push_virtual_us_p50",
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile, printed beside it.
    pub samples: Option<usize>,
}

/// The metrics of one run, in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn zeroed(names: impl Iterator<Item = (String, &'static str)>) -> Metrics {
        Metrics(
            names
                .map(|(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: None,
                })
                .collect(),
        )
    }

    pub fn end_to_end() -> Metrics {
        Metrics::zeroed(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
    }

    /// Every per-layer metric at 0: a layer a workload never enters spends
    /// nothing there.
    pub fn per_layer() -> Metrics {
        let fixed = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u));
        let vm_rows = BUNDLES.iter().map(|b| (format!("vm.run_ns.{b}"), "ns"));
        Metrics::zeroed(fixed.chain(vm_rows))
    }

    /// Set a metric; an unknown name is a bug in this package.
    pub fn set(&mut self, name: &str, value: f64) {
        self.entry(name).value = value;
    }

    pub fn set_with_samples(&mut self, name: &str, value: f64, samples: usize) {
        let m = self.entry(name);
        m.value = value;
        m.samples = Some(samples);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
            .value
    }

    fn entry(&mut self, name: &str) -> &mut Metric {
        self.0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
    }
}

/// The contract file, compiled in so the binary needs no path to it.
pub fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json: {key} is not a list"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    match item.get(key) {
        Some(Json::Str(s)) => s,
        _ => panic!("BENCHMARK.json: item without {key}"),
    }
}

/// `(name, bound, lower_is_better)` of every end-to-end metric.
pub fn bounds() -> Vec<(String, f64, bool)> {
    items(&benchmark_json(), "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (
                text(m, "name").to_string(),
                bound,
                text(m, "better") == "lower",
            )
        })
        .collect()
}

/// `run_seconds` of the contract file, the default for `--seconds`.
pub fn run_seconds() -> f64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        items(doc, key)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    }

    fn emitted(m: Metrics) -> Vec<(String, String)> {
        m.0.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_contract_file() {
        let doc = benchmark_json();
        assert_eq!(
            listed(&doc, "end_to_end"),
            emitted(Metrics::end_to_end()),
            "end_to_end"
        );
        assert_eq!(
            listed(&doc, "per_layer"),
            emitted(Metrics::per_layer()),
            "per_layer"
        );
        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet() {
        let all = emitted(Metrics::end_to_end())
            .into_iter()
            .chain(emitted(Metrics::per_layer()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(valid_name(&name), "bad name {name}");
            assert!(valid_unit(&unit), "bad unit {unit}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w.to_string()), "workload {w}");
        }
        assert_eq!(Metrics::per_layer().0.len(), 64);
        let per_layer = Metrics::per_layer();
        for name in EXACT {
            per_layer.get(name);
        }
    }

    #[test]
    fn contract_file_is_within_its_own_limits() {
        let doc = benchmark_json();
        for (name, bound, lower) in bounds() {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            assert_eq!(lower, name != "ops_per_s", "{name}: direction");
        }
        assert!(bounds()
            .iter()
            .any(|(n, _, lower)| n == "setup_s" && *lower));
        let secs = run_seconds();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        for w in items(&doc, "workloads") {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        assert_eq!(items(&doc, "paths").len(), 1);
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
    }

    #[test]
    fn bundle_list_is_the_catalogue() {
        let names: Vec<&str> = eden_apps::functions::catalogue()
            .iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(names, BUNDLES);
    }
}
