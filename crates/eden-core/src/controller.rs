//! The logically centralized controller (§3.2).
//!
//! "A network function is conceptually a combination of a control-plane
//! function residing at the controller and a data-plane function." The
//! controller here owns everything that needs global visibility or coarse
//! timescales:
//!
//! * the class-name registry (fully qualified `stage.rule-set.class` names
//!   → data-path ids);
//! * compilation of action functions from DSL source to bytecode, shipped
//!   to enclaves;
//! * stage programming through the Table 3 API;
//! * the control-plane halves of the case studies: WCMP path-weight
//!   computation from topology (§2.1.1), PIAS priority thresholds from the
//!   datacenter's flow-size distribution (§2.1.3), and Pulsar tenant→queue
//!   maps (§2.1.2).
//!
//! In the simulator the controller reaches stages/enclaves/switches by
//! `&mut` reference during setup or between simulation epochs; the *API
//! surface* is the paper's, the RPC plumbing is not modelled.

use eden_lang::{compile, CompileError, CompiledFunction, Schema};
use eden_telemetry::StatsSnapshot;

use crate::action::{FuncId, InstalledFunction};
use crate::class::{ClassId, ClassRegistry};
use crate::enclave::{Enclave, MatchSpec};
use crate::ops::{EnclaveOp, ShippedFunction};
use crate::stage::{Matcher, Stage, StageInfo};

/// A candidate network path for weighted load balancing: the controller
/// reduces topology to (label, bottleneck capacity) pairs per
/// source-destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSpec {
    /// Source-route label to stamp into packets (switch tables must map it).
    pub label: u16,
    /// Bottleneck capacity along the path, bits/second.
    pub bottleneck_bps: u64,
}

/// The Eden controller.
#[derive(Default)]
pub struct Controller {
    registry: ClassRegistry,
}

impl Controller {
    /// A controller with an empty registry.
    pub fn new() -> Controller {
        Controller {
            registry: ClassRegistry::new(),
        }
    }

    /// Intern (or look up) a fully qualified class name.
    pub fn class(&mut self, fq_name: &str) -> ClassId {
        self.registry.intern(fq_name)
    }

    /// Resolve a class id back to its name (debugging, dashboards).
    pub fn class_name(&self, id: ClassId) -> Option<&str> {
        self.registry.name(id)
    }

    /// Borrow the registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    // ------------------------------------------------------------------
    // stage programming (Table 3)
    // ------------------------------------------------------------------

    /// S0: discover a stage's classification surface.
    pub fn get_stage_info<'a>(&self, stage: &'a Stage) -> &'a StageInfo {
        stage.get_info()
    }

    /// S1: install `<classifier> → [class_name, {…}]` in `rule_set` of
    /// `stage`. The class name is qualified as
    /// `<stage>.<rule_set>.<class_name>` and interned. Returns the rule id.
    pub fn create_stage_rule(
        &mut self,
        stage: &mut Stage,
        rule_set: &str,
        classifier: Vec<(String, Matcher)>,
        class_name: &str,
    ) -> u64 {
        let fq = format!("{}.{}.{}", stage.get_info().name, rule_set, class_name);
        let class = self.registry.intern(&fq);
        stage.create_rule(rule_set, classifier, class)
    }

    /// S2: remove a rule. Returns `false` — with a warning on stderr —
    /// when `rule_set`/`rule_id` names nothing; callers should check it
    /// (a missed removal usually means the rule id was captured from the
    /// wrong rule set).
    #[must_use = "a false return means the rule was not found"]
    pub fn remove_stage_rule(&self, stage: &mut Stage, rule_set: &str, rule_id: u64) -> bool {
        let removed = stage.remove_rule(rule_set, rule_id);
        if !removed {
            eprintln!(
                "warning: remove_stage_rule: no rule {rule_id} in rule set '{rule_set}' of stage '{}'",
                stage.get_info().name
            );
        }
        removed
    }

    // ------------------------------------------------------------------
    // enclave programming (§3.4.5)
    // ------------------------------------------------------------------

    /// Compile DSL `source` against `schema` (controller-side; only
    /// bytecode ships to the data plane).
    pub fn compile_function(
        &self,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<CompiledFunction, CompileError> {
        compile(name, source, schema)
    }

    /// Compile and install an interpreted action function into `enclave`.
    pub fn install_program(
        &self,
        enclave: &mut Enclave,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<FuncId, CompileError> {
        let compiled = self.compile_function(name, source, schema)?;
        Ok(enclave.install_function(InstalledFunction::interpreted(name, compiled)))
    }

    /// Compile `source` and serialize the bytecode for shipping to a remote
    /// enclave (the paper's dynamic injection path, §3.4.3). The enclave
    /// side decodes with [`eden_vm::decode_program`], which re-verifies.
    pub fn ship_function(
        &self,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<Vec<u8>, CompileError> {
        let compiled = self.compile_function(name, source, schema)?;
        Ok(eden_vm::encode_program(&compiled.program))
    }

    /// Compile `source` into a protocol op ready to ship inside an epoch:
    /// the [`EnclaveOp::InstallFunction`] carrying verified bytecode plus
    /// the schema and derived concurrency the enclave needs to host it.
    /// This is how the distributed control plane (`eden-ctrl`) installs
    /// programs — [`install_program`](Self::install_program) is the
    /// same-process shortcut.
    pub fn plan_function(
        &self,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<EnclaveOp, CompileError> {
        let compiled = self.compile_function(name, source, schema)?;
        Ok(EnclaveOp::InstallFunction(Box::new(ShippedFunction {
            name: name.to_string(),
            bytecode: eden_vm::encode_program(&compiled.program),
            schema: schema.clone(),
            concurrency: compiled.concurrency,
        })))
    }

    /// A whole Reset-led desired state around one function: `Reset`, the
    /// [`plan_function`](Self::plan_function) op, and one match-all rule
    /// in table 0 that runs it on every packet.
    pub fn plan_epoch(
        &self,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<Vec<EnclaveOp>, CompileError> {
        let func = self.plan_function(name, source, schema)?;
        Ok(vec![
            EnclaveOp::Reset,
            func,
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            },
        ])
    }

    // ------------------------------------------------------------------
    // statistics pull (§3.2: the controller polls enclaves for stats)
    // ------------------------------------------------------------------

    /// Pull a point-in-time [`StatsSnapshot`] from `enclave`.
    /// Non-perturbing: the enclave's counters keep accumulating.
    pub fn pull_stats(&self, enclave: &Enclave) -> StatsSnapshot {
        enclave.stats_snapshot()
    }

    /// Pull a snapshot from the enclave installed on `stack`, merged with
    /// the stack's own telemetry: per-flow TCP counters and host-level
    /// drop counters. Returns `None` when no [`Enclave`] hook is
    /// installed.
    pub fn pull_host_stats(&self, stack: &mut transport::Stack) -> Option<StatsSnapshot> {
        let flows = stack.flow_counters();
        let host = stack.host_counters();
        let enclave = stack.hook_mut::<Enclave>()?;
        let mut snap = enclave.stats_snapshot();
        snap.flows = flows;
        snap.host = Some(host);
        Some(snap)
    }

    // ------------------------------------------------------------------
    // control-plane computations for the case studies
    // ------------------------------------------------------------------

    /// WCMP (§2.1.1): per-path weights proportional to bottleneck capacity,
    /// reduced to the smallest integer ratio (capped at `max_weight` as in
    /// the WCMP paper's table-size reduction). Returns `(label, weight)`
    /// rows for the data-plane `pathMatrix` array.
    pub fn wcmp_weights(paths: &[PathSpec], max_weight: u32) -> Vec<(u16, u32)> {
        assert!(!paths.is_empty());
        let min = paths
            .iter()
            .map(|p| p.bottleneck_bps)
            .min()
            .expect("non-empty");
        assert!(min > 0, "zero-capacity path");
        paths
            .iter()
            .map(|p| {
                let w = (p.bottleneck_bps / min).max(1);
                (p.label, (w as u32).min(max_weight))
            })
            .collect()
    }

    /// ECMP is WCMP with equal weights.
    pub fn ecmp_weights(paths: &[PathSpec]) -> Vec<(u16, u32)> {
        paths.iter().map(|p| (p.label, 1)).collect()
    }

    /// PIAS (§2.1.3): demotion thresholds from a sample of the flow-size
    /// distribution. With `k` priority levels, thresholds sit at the
    /// `1/k, 2/k, …` quantiles so each level carries equal message mass;
    /// highest priority first. Returns `(size_limit, priority)` rows for
    /// the `priorityThresholds` array, ending with an unbounded row at the
    /// lowest priority.
    pub fn pias_thresholds(flow_sizes: &mut [i64], priorities: &[u8]) -> Vec<(i64, i64)> {
        assert!(!priorities.is_empty());
        flow_sizes.sort_unstable();
        let k = priorities.len();
        let mut rows = Vec::with_capacity(k);
        for (i, &prio) in priorities.iter().enumerate() {
            if i + 1 == k || flow_sizes.is_empty() {
                rows.push((i64::MAX, i64::from(prio)));
            } else {
                let idx = ((i + 1) * flow_sizes.len() / k).min(flow_sizes.len() - 1);
                rows.push((flow_sizes[idx], i64::from(prio)));
            }
        }
        rows
    }

    /// Static thresholds used by the paper's case study 1: small (<10 KB)
    /// → `priorities[0]`, intermediate (<1 MB) → `priorities[1]`,
    /// everything else → `priorities[2]`.
    pub fn fixed_thresholds(priorities: [u8; 3]) -> Vec<(i64, i64)> {
        vec![
            (10 * 1024, i64::from(priorities[0])),
            (1024 * 1024, i64::from(priorities[1])),
            (i64::MAX, i64::from(priorities[2])),
        ]
    }

    /// Pulsar (§2.1.2): a tenant → rate-limited queue map. Creates one
    /// limiter per tenant on `stack` at the given rate and returns the
    /// flattened `queueMap` array (indexed by tenant id).
    pub fn pulsar_queue_map(
        stack: &mut transport::Stack,
        tenant_rates_bps: &[u64],
        burst_bytes: u64,
    ) -> Vec<i64> {
        tenant_rates_bps
            .iter()
            .map(|&rate| stack.add_limiter(rate, burst_bytes) as i64)
            .collect()
    }

    /// Flatten `(a, b)` rows into the interleaved layout of a two-field
    /// global array (`stride == 2`).
    pub fn flatten_pairs(rows: &[(i64, i64)]) -> Vec<i64> {
        rows.iter().flat_map(|&(a, b)| [a, b]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcmp_weights_reduce_to_smallest_ratio() {
        // Figure 1: one path bottlenecked at 10G, one at 1G → 10:1
        let paths = [
            PathSpec {
                label: 1,
                bottleneck_bps: 10_000_000_000,
            },
            PathSpec {
                label: 2,
                bottleneck_bps: 1_000_000_000,
            },
        ];
        assert_eq!(Controller::wcmp_weights(&paths, 100), vec![(1, 10), (2, 1)]);
        assert_eq!(Controller::ecmp_weights(&paths), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn wcmp_weight_cap_applies() {
        let paths = [
            PathSpec {
                label: 1,
                bottleneck_bps: 100_000_000_000,
            },
            PathSpec {
                label: 2,
                bottleneck_bps: 1_000_000_000,
            },
        ];
        assert_eq!(Controller::wcmp_weights(&paths, 16), vec![(1, 16), (2, 1)]);
    }

    #[test]
    fn pias_thresholds_split_mass_equally() {
        let mut sizes: Vec<i64> = (1..=100).map(|i| i * 1000).collect();
        let rows = Controller::pias_thresholds(&mut sizes, &[7, 5, 1]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (34_000, 7), "first third of the distribution");
        assert_eq!(rows[1], (67_000, 5));
        assert_eq!(rows[2], (i64::MAX, 1), "last row unbounded");
    }

    #[test]
    fn fixed_thresholds_match_case_study_1() {
        let rows = Controller::fixed_thresholds([7, 5, 1]);
        assert_eq!(rows[0].0, 10 * 1024);
        assert_eq!(rows[1].0, 1024 * 1024);
        assert_eq!(rows[2], (i64::MAX, 1));
    }

    #[test]
    fn class_names_round_trip() {
        let mut c = Controller::new();
        let id = c.class("memcached.r1.GET");
        assert_eq!(c.class_name(id), Some("memcached.r1.GET"));
        assert_eq!(c.class("memcached.r1.GET"), id);
    }

    #[test]
    fn flatten_pairs_interleaves() {
        assert_eq!(
            Controller::flatten_pairs(&[(1, 2), (3, 4)]),
            vec![1, 2, 3, 4]
        );
    }
}
