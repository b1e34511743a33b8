//! Property tests for the scaled control plane.
//!
//! 1. **Delta/full equivalence** — for arbitrary pairs of rule-table
//!    configurations, the planner's digest-anchored diff, staged on a
//!    real enclave holding the base config, lands on *exactly* the same
//!    config digest as a full Reset-led replay of the target, and as the
//!    target's [`Config`]. This is
//!    the invariant that makes delta updates safe to substitute for
//!    full-table ships.
//! 2. **Hierarchical convergence under loss** — a root → aggregators →
//!    hosts tree over a lossy two-tier fabric still converges within the
//!    horizon, and no leaf ever serves a mixed-epoch table along the way.

use eden::core::{Config, Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden::ctrl::delta;
use eden::ctrl::fleet::Fleet;
use eden::ctrl::CtrlConfig;
use eden::lang::{Access, HeaderField, Schema};
use eden::netsim::Time;
use proptest::prelude::*;

fn planned_funcs() -> Vec<EnclaveOp> {
    let controller = Controller::new();
    let schema =
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
    (0..2u8)
        .map(|i| {
            let source = format!("fun (packet, msg, _global) -> packet.Priority <- {}", i + 1);
            controller
                .plan_function(&format!("f{i}"), &source, &schema)
                .expect("compiles")
        })
        .collect()
}

/// Reset-led full configuration: both functions, then `rules` as
/// `(class, func)` pairs in one table.
fn full_ops(rules: &[(u32, usize)]) -> Vec<EnclaveOp> {
    let mut ops = vec![EnclaveOp::Reset];
    ops.extend(planned_funcs());
    ops.extend(rules.iter().map(|&(class, func)| EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Class(eden::core::ClassId(class)),
        func,
    }));
    ops
}

fn rules_strategy() -> impl Strategy<Value = Vec<(u32, usize)>> {
    proptest::collection::vec((0u32..6, 0usize..2), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Diff-staged and fully-replayed configurations are digest-identical.
    #[test]
    fn delta_diff_equals_full_replay(
        base_rules in rules_strategy(),
        target_rules in rules_strategy(),
    ) {
        let base_ops = full_ops(&base_rules);
        let target_ops = full_ops(&target_rules);
        let base = Config::from_ops(&base_ops).expect("base valid");
        let target = Config::from_ops(&target_ops).expect("target valid");
        let ops = delta::diff(&base, &target)
            .expect("same function prefix and table count always diffs");

        // enclave A: base config, then the delta
        let mut a = Enclave::new(EnclaveConfig::default());
        a.stage_epoch(1, base_ops).expect("base valid");
        assert!(a.commit_epoch(1));
        let anchor = a.config_digest();
        a.stage_epoch_delta(2, anchor, ops).expect("delta stages");
        assert!(a.commit_epoch(2));

        // enclave B: the target, replayed whole
        let mut b = Enclave::new(EnclaveConfig::default());
        b.stage_epoch(2, target_ops).expect("target valid");
        assert!(b.commit_epoch(2));

        prop_assert_eq!(a.config_digest(), b.config_digest());
        prop_assert_eq!(a.config_digest(), target.digest());
        prop_assert!(a.serves_single_epoch());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tree converges under uplink + access loss; epoch service
    /// stays atomic on every leaf throughout.
    #[test]
    fn hierarchy_converges_under_loss(
        seed in 0u64..1000,
        uplink_loss in 0u32..150,
        access_loss in 0u32..150,
    ) {
        let mut fleet = Fleet::tiered(seed, 4, 2, CtrlConfig::default(), EnclaveConfig::default());
        for leaf in 0..4 {
            fleet.net.set_link_loss_permille(fleet.leaf_link(leaf), access_loss);
        }
        for rack in 0..2 {
            fleet.net.set_link_loss_permille(fleet.uplink(rack), uplink_loss);
        }

        // push the epoch as soon as the fleet bootstraps, then step in
        // 200µs slices checking leaf atomicity until full convergence
        let horizon = Time::from_millis(300);
        let slice = Time::from_micros(200);
        let mut t = Time::ZERO;
        let mut pushed = false;
        loop {
            t += slice;
            prop_assert!(
                t <= horizon,
                "no convergence under loss ({uplink_loss}/{access_loss} permille)"
            );
            fleet.net.run_until(t);
            for leaf in 0..4 {
                let e = fleet.enclave(leaf);
                prop_assert!(e.serves_single_epoch(), "mixed-epoch table on a leaf");
            }
            let app = fleet.root();
            if !pushed && app.all_in_sync() {
                let rule = full_ops(&[(1, 0), (2, 1)]);
                app.set_desired(rule).expect("valid ops");
                pushed = true;
            } else if pushed && app.all_in_sync() {
                break;
            }
        }
        let app = fleet.root();
        prop_assert_eq!(app.desired_epoch(), 1);
        prop_assert_eq!(app.in_sync_hosts(), 4);
    }
}
