//! The logically centralized controller (§3.2).
//!
//! "A network function is conceptually a combination of a control-plane
//! function residing at the controller and a data-plane function." The
//! controller here owns everything that needs global visibility or coarse
//! timescales:
//!
//! * the class-name registry (fully qualified `stage.rule-set.class` names
//!   → data-path ids);
//! * stage programming through the Table 3 API;
//! * planning enclave configurations: compiling action functions from DSL
//!   source into the [`EnclaveOp`]s that ship them;
//! * the control-plane halves of the case studies: WCMP path-weight
//!   computation from topology (§2.1.1) and PIAS priority thresholds from
//!   the datacenter's flow-size distribution (§2.1.3).
//!
//! The controller plans and does not install: a host takes the planned op
//! list through [`Enclave::apply`](crate::Enclave::apply), or `eden-ctrl`
//! ships the same list in-band as an epoch (DESIGN, "One configuration path").

use eden_lang::{compile, CompileError, Schema};

use crate::class::{ClassId, ClassRegistry};
use crate::enclave::MatchSpec;
use crate::ops::EnclaveOp;
use crate::stage::{Matcher, Stage};

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

    // ------------------------------------------------------------------
    // stage programming (Table 3)
    // ------------------------------------------------------------------

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

    /// Compile `source` into a protocol op ready to ship: the
    /// [`EnclaveOp::InstallFunction`] carrying verified bytecode plus the
    /// schema and derived concurrency the enclave needs to host it. Only
    /// bytecode reaches the data plane, whether a host applies the op
    /// itself or `eden-ctrl` ships it.
    pub fn plan_function(
        &self,
        name: &str,
        source: &str,
        schema: &Schema,
    ) -> Result<EnclaveOp, CompileError> {
        Ok(EnclaveOp::ship(name, &compile(name, source, schema)?))
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
