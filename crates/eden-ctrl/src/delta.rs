//! Delta planning: turn two desired configurations into the smallest
//! [`EnclaveOp`] sequence that converts one into the other.
//!
//! The controller's full-replacement epochs are `Reset`-led, which makes
//! them simple but quadratic at fleet scale: every rule of every table
//! re-ships to every host on every change. Both tiers keep one
//! [`Config`] per version in a bounded `ConfigHistory`, beside that
//! version's full `Prepare` as encoded bytes, and nothing else: no op
//! list. The history calls [`diff`] to plan a [`CtrlMsg::DeltaPrepare`]
//! anchored at the base's config digest, encodes each plan once, and hands
//! it out as shared bytes.
//!
//! `diff` is deliberately conservative: it only claims a plan when the
//! base is a *structural prefix* of the target (functions append-only,
//! tables never dropped, no global write to take back). Anything else
//! returns `None` and the controller ships the full table — correctness
//! never depends on the diff being clever, only on the digest anchor
//! rejecting a stale base
//! ([`Enclave::stage_epoch_delta`](eden_core::Enclave::stage_epoch_delta)).
//!
//! One behavioral difference worth naming: a delta epoch carries no
//! `Reset`, so function runtime state (globals written by the data path,
//! flow tables) *survives* the update on untouched functions. For a
//! config-only change that is exactly what an operator wants — the
//! full-replacement path zeroed counters as collateral damage.

use std::collections::VecDeque;
use std::rc::Rc;

use eden_core::{Config, EnclaveOp, RuleList};
use eden_telemetry::TraceContext;

use crate::proto::{self, CtrlMsg, ProtoError, Request};

/// `config` as the untraced full [`CtrlMsg::Prepare`] of `epoch` that
/// builds it on any enclave — the full-table ship the delta path falls
/// back to — written straight from the configuration. The ops are
/// `Reset`, the functions, a `CreateTable` for every table past table 0
/// (`Reset` leaves that one in place), the rules table by table, then the
/// globals and the arrays. Refused like any message that does not fit the
/// wire.
pub fn encode_full(config: &Config, epoch: u64) -> Result<Vec<u8>, ProtoError> {
    proto::encode_prepare_with(epoch, |w| {
        w.op(&EnclaveOp::Reset);
        for f in config.functions() {
            w.function(f);
        }
        for _ in 1..config.tables().len() {
            w.op(&EnclaveOp::CreateTable);
        }
        for (table, rules) in config.tables().iter().enumerate() {
            for (spec, func) in rules.iter() {
                w.rule(table, &spec, func);
            }
        }
        for (&(func, slot), &value) in config.globals() {
            w.op(&EnclaveOp::SetGlobal { func, slot, value });
        }
        for (&(func, array), values) in config.arrays() {
            w.array(func, array, values);
        }
    })
}

/// Plan the op sequence converting `base` into `target`, or `None` when
/// no safe in-place plan exists (the caller ships the full table).
///
/// A plan exists when `base` is a structural prefix of `target`:
/// functions append-only (an enclave cannot uninstall one function),
/// tables never dropped, and no `(func, slot)`/`(func, array)` write in
/// `base` that `target` lacks (a delta cannot "unwrite" state it never
/// knew the default of). Within a common table the plan is a
/// longest-common-prefix splice: pop divergent rules from the tail,
/// append the target's.
pub fn diff(base: &Config, target: &Config) -> Option<Vec<EnclaveOp>> {
    let held = base.functions().len();
    if held > target.functions().len()
        || base.functions().ne(target.functions().take(held))
        || base.tables().len() > target.tables().len()
        || base
            .globals()
            .keys()
            .any(|k| !target.globals().contains_key(k))
        || base
            .arrays()
            .keys()
            .any(|k| !target.arrays().contains_key(k))
    {
        return None;
    }
    let mut ops = Vec::new();
    // Functions first: rules and state writes below may reference the
    // appended indices.
    let appended = target.functions().skip(held);
    ops.extend(appended.map(|f| EnclaveOp::InstallFunction(Box::new(f.clone()))));
    for _ in base.tables().len()..target.tables().len() {
        ops.push(EnclaveOp::CreateTable);
    }
    let empty = RuleList::default();
    for (table, want) in target.tables().iter().enumerate() {
        let have = base.tables().get(table).unwrap_or(&empty);
        // rule by rule: a general rule's spec is compared, not its place
        // on either list's side list
        let lcp = have
            .iter()
            .zip(want.iter())
            .take_while(|(a, b)| a == b)
            .count();
        // Remove the divergent tail highest-index-first so positions
        // stay valid as rules shift down.
        for rule in (lcp..have.len()).rev() {
            ops.push(EnclaveOp::RemoveRule { table, rule });
        }
        for (spec, func) in want.iter().skip(lcp) {
            ops.push(EnclaveOp::InstallRule {
                table,
                spec: spec.into_owned(),
                func,
            });
        }
    }
    for (&(func, slot), &value) in target.globals() {
        if base.globals().get(&(func, slot)) != Some(&value) {
            ops.push(EnclaveOp::SetGlobal { func, slot, value });
        }
    }
    for (&(func, array), values) in target.arrays() {
        if base.arrays().get(&(func, array)) != Some(values) {
            ops.push(EnclaveOp::SetArray {
                func,
                array,
                values: values.clone(),
            });
        }
    }
    Some(ops)
}

/// Config versions a coordinator remembers as delta anchors and rollback
/// targets, at the root and at every aggregator alike. A peer reporting
/// an older base than that is simply an unknown base: it gets the full
/// Reset-led ship.
pub(crate) const AGG_HISTORY: usize = 8;

/// One version of the configuration a coordinator drives its peers to,
/// held once: as a configuration and as the bytes that ship it.
pub(crate) struct ConfigEntry {
    pub(crate) epoch: u64,
    /// What an enclave holding this version reports.
    pub(crate) digest: u64,
    /// This version — the diff anchor for later ones.
    pub(crate) config: Config,
    /// This version as an untraced full [`CtrlMsg::Prepare`]: what a peer
    /// whose base is unknown is sent, and, decoded, the ops the root
    /// re-issues when it outbids a peer. Whoever makes a version encodes
    /// it — the root from the ops it was given ([`proto::encode_prepare`]),
    /// an aggregator from its configuration ([`encode_full`]) — which is
    /// where a configuration too large for the wire is refused, before
    /// anything commits to it.
    pub(crate) full: Rc<[u8]>,
}

/// An epoch-phase request ready for the wire: encoded once, shared by
/// every peer it goes to and by every retry. All of it counts as epoch
/// configuration in [`WireCounters`](crate::WireCounters).
#[derive(Clone)]
pub(crate) struct Plan {
    /// The encoded frame, trace trailer included.
    pub(crate) bytes: Rc<[u8]>,
    /// A digest-anchored [`CtrlMsg::DeltaPrepare`]: a Nack falls back to
    /// [`ConfigHistory::plan_full`] on the same track.
    pub(crate) is_delta: bool,
}

impl Plan {
    /// A `Commit` or `Abort`, encoded once for a whole fan-out.
    pub(crate) fn phase(msg: CtrlMsg, trace: Option<TraceContext>) -> Plan {
        Plan {
            bytes: encode_shared(msg, trace),
            is_delta: false,
        }
    }
}

/// A message with no ops and no replication section (a phase, a pull),
/// encoded once for every peer it goes to.
pub(crate) fn encode_shared(msg: CtrlMsg, trace: Option<TraceContext>) -> Rc<[u8]> {
    let frame = Request {
        trace,
        ..msg.into()
    };
    frame.encode().expect("a few bytes").into()
}

/// The bounded history of configuration versions both tiers keep (the
/// root's desired state, an aggregator's committed state): the last
/// entry is current, the rest are delta anchors and rollback targets.
/// Each version is one [`ConfigEntry`]: a configuration and its encoded
/// full ship, never an op list.
pub(crate) struct ConfigHistory {
    entries: VecDeque<ConfigEntry>,
}

impl ConfigHistory {
    /// A history holding only the configuration of a fresh enclave, as
    /// epoch 0.
    pub(crate) fn new() -> ConfigHistory {
        let mut h = ConfigHistory {
            entries: VecDeque::with_capacity(AGG_HISTORY + 1),
        };
        let full = proto::encode_prepare(0, &[]).expect("an empty prepare");
        h.push(0, Config::new(), full);
        h
    }

    /// The version peers should converge to.
    pub(crate) fn current(&self) -> &ConfigEntry {
        self.entries.back().expect("history never empty")
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Make `config` current as `epoch`, `full` being its untraced full
    /// `Prepare` (see [`ConfigEntry::full`]); the oldest version beyond
    /// [`AGG_HISTORY`] is forgotten.
    pub(crate) fn push(&mut self, epoch: u64, config: Config, full: Vec<u8>) {
        self.entries.push_back(ConfigEntry {
            epoch,
            digest: config.digest(),
            config,
            full: full.into(),
        });
        if self.entries.len() > AGG_HISTORY {
            self.entries.pop_front();
        }
    }

    /// Roll back from epoch `epoch` to the version before it, if `epoch`
    /// is current and there is one. Returns whether anything changed.
    pub(crate) fn roll_back(&mut self, epoch: u64) -> bool {
        let can = self.entries.len() > 1 && self.current().epoch == epoch;
        if can {
            self.entries.pop_back();
        }
        can
    }

    /// The digest version `epoch` had, while it is remembered.
    pub(crate) fn digest_of(&self, epoch: u64) -> Option<u64> {
        let found = self.entries.iter().rev().find(|e| e.epoch == epoch);
        found.map(|e| e.digest)
    }

    /// The current version as a full Reset-led [`CtrlMsg::Prepare`].
    pub(crate) fn plan_full(&self, trace: Option<&TraceContext>) -> Plan {
        let full = &self.current().full;
        Plan {
            bytes: match trace {
                None => Rc::clone(full),
                Some(t) => proto::with_trailer(full, t).into(),
            },
            is_delta: false,
        }
    }

    /// Choose the cheapest safe prepare for a peer whose last report is
    /// `reported`. When the report matches a remembered version exactly
    /// (epoch *and* digest — the peer provably holds that configuration),
    /// a diff from that version to the current one ships as a
    /// digest-anchored [`CtrlMsg::DeltaPrepare`]; anything else — deltas
    /// switched off, unknown or forgotten base, undiffable shapes, or a
    /// diff that is not actually smaller on the wire — ships the full
    /// Reset-led table. The receiver's digest check backstops any stale
    /// plan: a mismatch nacks and the sender falls back to
    /// [`plan_full`](Self::plan_full).
    pub(crate) fn plan_prepare(
        &self,
        reported: Option<(u64, u64)>,
        delta_updates: bool,
        trace: Option<&TraceContext>,
    ) -> Plan {
        let entry = self.current();
        let trailer = trace.map_or(0, |_| proto::TRACE_TRAILER);
        let delta = reported
            .filter(|_| delta_updates)
            .and_then(|(e, d)| self.entries.iter().find(|x| x.epoch == e && x.digest == d))
            .and_then(|base| {
                let frame = Request {
                    trace: trace.copied(),
                    ..CtrlMsg::DeltaPrepare {
                        epoch: entry.epoch,
                        base_digest: base.digest,
                        ops: diff(&base.config, &entry.config)?,
                    }
                    .into()
                };
                frame.encode().ok()
            })
            .filter(|bytes| bytes.len() - trailer < entry.full.len());
        match delta {
            Some(bytes) => Plan {
                bytes: bytes.into(),
                is_delta: true,
            },
            None => self.plan_full(trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec};
    use eden_lang::{Access, HeaderField, Schema};

    fn schema() -> Schema {
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
    }

    fn install(prio: u8) -> EnclaveOp {
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        eden_core::Controller::new()
            .plan_function(&format!("prio{prio}"), &source, &schema())
            .expect("compiles")
    }

    fn rule(table: usize, class: u32, func: usize) -> EnclaveOp {
        EnclaveOp::InstallRule {
            table,
            spec: MatchSpec::Class(ClassId(class)),
            func,
        }
    }

    fn base_ops() -> Vec<EnclaveOp> {
        vec![
            EnclaveOp::Reset,
            install(3),
            rule(0, 1, 0),
            rule(0, 2, 0),
            rule(0, 3, 0),
        ]
    }

    /// Applying `diff(base, target)` on a real enclave at `base` lands on
    /// exactly `target`'s digest — the property the wire protocol leans on.
    fn assert_diff_converges(base_ops: &[EnclaveOp], target_ops: &[EnclaveOp]) -> Vec<EnclaveOp> {
        let base = Config::from_ops(base_ops).unwrap();
        let target = Config::from_ops(target_ops).unwrap();
        let plan = diff(&base, &target).expect("diffable");

        let mut via_delta = Enclave::new(EnclaveConfig::default());
        via_delta.stage_epoch(1, base_ops).unwrap();
        assert!(via_delta.commit_epoch(1));
        let anchor = via_delta.config_digest();
        via_delta.stage_epoch_delta(2, anchor, &plan[..]).unwrap();
        assert!(via_delta.commit_epoch(2));

        let mut via_full = Enclave::new(EnclaveConfig::default());
        via_full.stage_epoch(2, target_ops).unwrap();
        assert!(via_full.commit_epoch(2));

        assert_eq!(via_delta.config_digest(), via_full.config_digest());
        assert!(via_delta.serves_single_epoch());
        plan
    }

    #[test]
    fn single_rule_append_is_one_op() {
        let mut target = base_ops();
        target.push(rule(0, 4, 0));
        let plan = assert_diff_converges(&base_ops(), &target);
        assert_eq!(plan, vec![rule(0, 4, 0)]);
    }

    #[test]
    fn mid_table_edit_splices_the_tail() {
        let mut target = base_ops();
        target[3] = rule(0, 9, 0); // replace the middle rule
        let plan = assert_diff_converges(&base_ops(), &target);
        assert_eq!(
            plan,
            vec![
                EnclaveOp::RemoveRule { table: 0, rule: 2 },
                EnclaveOp::RemoveRule { table: 0, rule: 1 },
                rule(0, 9, 0),
                rule(0, 3, 0),
            ]
        );
    }

    #[test]
    fn appended_function_and_table_diff_in_order() {
        let mut target = base_ops();
        target.push(install(5));
        target.push(EnclaveOp::CreateTable);
        target.push(rule(1, 7, 1));
        let plan = assert_diff_converges(&base_ops(), &target);
        assert!(
            matches!(plan[0], EnclaveOp::InstallFunction { .. }),
            "function must precede the rule that references it"
        );
        assert_eq!(plan[1], EnclaveOp::CreateTable);
        assert_eq!(plan[2], rule(1, 7, 1));
    }

    #[test]
    fn global_and_array_writes_diff_by_value() {
        let mut base = base_ops();
        base[1] = counter();
        base.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 1,
        });
        let mut target = base.clone();
        target.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 2,
        });
        let plan = diff(
            &Config::from_ops(&base).unwrap(),
            &Config::from_ops(&target).unwrap(),
        )
        .expect("diffable");
        assert_eq!(
            plan,
            vec![EnclaveOp::SetGlobal {
                func: 0,
                slot: 0,
                value: 2
            }]
        );
        // An unchanged write ships nothing.
        assert_eq!(
            diff(
                &Config::from_ops(&target).unwrap(),
                &Config::from_ops(&target).unwrap()
            ),
            Some(vec![])
        );
    }

    #[test]
    fn structural_regressions_refuse_to_diff() {
        let base = Config::from_ops(&base_ops()).unwrap();

        // fewer functions than base
        let target = Config::from_ops(&[EnclaveOp::Reset]).unwrap();
        assert_eq!(diff(&base, &target), None);

        // a different function at the same index
        let mut swapped = base_ops();
        swapped[1] = install(7);
        assert_eq!(diff(&base, &Config::from_ops(&swapped).unwrap()), None);

        // a global write the target never made
        let mut without = base_ops();
        without.push(counter());
        let mut with_global = without.clone();
        with_global.push(EnclaveOp::SetGlobal {
            func: 1,
            slot: 0,
            value: 5,
        });
        assert_eq!(
            diff(
                &Config::from_ops(&with_global).unwrap(),
                &Config::from_ops(&without).unwrap()
            ),
            None,
            "cannot unwrite a global"
        );
    }

    /// Two general rules sit at the same place on their side lists, so
    /// their words are equal: the diff compares their specs, and a configuration
    /// that took a general rule back equals one that never had it.
    #[test]
    fn general_rules_compare_by_spec_not_by_side_list_place() {
        let general = |spec: MatchSpec| EnclaveOp::InstallRule {
            table: 0,
            spec,
            func: 0,
        };
        let mut base = base_ops();
        base.insert(2, general(MatchSpec::Any));
        let mut target = base_ops();
        target.insert(2, general(MatchSpec::AnyOf(vec![ClassId(4)])));
        let plan = assert_diff_converges(&base, &target);
        assert_eq!(
            plan.len(),
            8,
            "everything from the general rule on: {plan:?}"
        );
        assert_eq!(plan[4], general(MatchSpec::AnyOf(vec![ClassId(4)])));

        let mut taken_back = base.clone();
        taken_back.insert(2, general(MatchSpec::AnyOf(vec![ClassId(9)])));
        taken_back.push(EnclaveOp::RemoveRule { table: 0, rule: 0 });
        assert_eq!(
            Config::from_ops(&taken_back).unwrap(),
            Config::from_ops(&base).unwrap()
        );
        let from = Config::from_ops(&taken_back).unwrap();
        assert_eq!(diff(&from, &Config::from_ops(&base).unwrap()), Some(vec![]));
    }

    fn counter() -> EnclaveOp {
        let schema = schema()
            .global_array("Weights", &["W"], Access::ReadOnly)
            .global_field("Tokens", Access::ReadWrite);
        let source = "fun (packet, msg, _global) -> _global.Tokens <- _global.Tokens + 1";
        eden_core::Controller::new()
            .plan_function("count", source, &schema)
            .expect("compiles")
    }

    #[test]
    fn the_full_prepare_is_encoded_from_the_config_in_reset_led_order() {
        let any_of = |table, classes: &[u32], func| EnclaveOp::InstallRule {
            table,
            spec: MatchSpec::AnyOf(classes.iter().map(|&c| ClassId(c)).collect()),
            func,
        };
        let global = EnclaveOp::SetGlobal {
            func: 1,
            slot: 0,
            value: -3,
        };
        let array = EnclaveOp::SetArray {
            func: 1,
            array: 0,
            values: vec![1, 2, 3],
        };
        // built in an order of its own, with a rule taken back
        let built = [
            EnclaveOp::Reset,
            install(3),
            rule(0, 1, 0),
            EnclaveOp::CreateTable,
            counter(),
            array.clone(),
            rule(1, 7, 1),
            any_of(0, &[2, 4], 1),
            global.clone(),
            rule(0, 9, 0),
            EnclaveOp::RemoveRule { table: 0, rule: 2 },
        ];
        let m = Config::from_ops(&built).unwrap();
        assert_eq!(m.tables().iter().map(RuleList::len).sum::<usize>(), 3);

        let reset_led = vec![
            EnclaveOp::Reset,
            install(3),
            counter(),
            EnclaveOp::CreateTable,
            rule(0, 1, 0),
            any_of(0, &[2, 4], 1),
            rule(1, 7, 1),
            global,
            array,
        ];
        let full = encode_full(&m, 5).expect("fits");
        assert_eq!(full, proto::encode_prepare(5, &reset_led).unwrap());
        let CtrlMsg::Prepare { epoch: 5, ops } = Request::decode(&full).unwrap().body else {
            panic!("not a prepare of epoch 5");
        };
        assert_eq!(Config::from_ops(&ops).unwrap(), m);
    }

    #[test]
    fn a_fresh_config_encodes_as_a_lone_reset() {
        assert_eq!(
            encode_full(&Config::new(), 1).unwrap(),
            proto::encode_prepare(1, &[EnclaveOp::Reset]).unwrap()
        );
    }

    /// A history whose current version is `table_ops(5, 0..rules)` as
    /// epoch 1, pushed the way the root pushes it.
    fn history_at(rules: u32) -> ConfigHistory {
        let mut h = ConfigHistory::new();
        let ops = crate::testnet::table_ops(5, 0..rules);
        let full = proto::encode_prepare(1, &ops).unwrap();
        h.push(1, Config::from_ops(&ops).unwrap(), full);
        h
    }

    #[test]
    fn a_traced_full_plan_is_the_traced_encoding_of_the_prepare() {
        let h = history_at(40);
        let trace = TraceContext::sampled(0xABC, 0xDEF);
        let frame = Request {
            trace: Some(trace),
            ..CtrlMsg::Prepare {
                epoch: 1,
                ops: crate::testnet::table_ops(5, 0..40),
            }
            .into()
        };
        let plan = h.plan_full(Some(&trace));
        assert_eq!(&plan.bytes[..], &frame.encode().unwrap()[..]);
        assert!(!plan.is_delta);
        let untraced = h.plan_full(None);
        assert!(Rc::ptr_eq(&untraced.bytes, &h.current().full), "shared");
    }

    #[test]
    fn a_roll_back_makes_the_previous_bytes_current_without_encoding() {
        let mut h = history_at(10);
        let kept = Rc::clone(&h.current().full);
        let ops = crate::testnet::table_ops(5, 0..11);
        let full = proto::encode_prepare(2, &ops).unwrap();
        h.push(2, Config::from_ops(&ops).unwrap(), full);
        assert!(!h.roll_back(1), "only the current epoch rolls back");
        assert!(h.roll_back(2));
        assert_eq!(h.current().epoch, 1);
        assert!(Rc::ptr_eq(&h.current().full, &kept));
        assert!(Rc::ptr_eq(&h.plan_full(None).bytes, &kept));
    }
}
