//! Delta planning: turn two desired configurations into the smallest
//! [`EnclaveOp`] sequence that converts one into the other.
//!
//! The controller's full-replacement epochs are `Reset`-led, which makes
//! them simple but quadratic at fleet scale: every rule of every table
//! re-ships to every host on every change. [`ConfigModel`] is a pure
//! value model of an enclave's *configuration* (not its runtime state) —
//! both tiers keep one per version in a bounded `ConfigHistory`, beside
//! that version's full `Prepare` as encoded bytes, and nothing else: no
//! op list. The history calls [`diff`] to plan a
//! [`CtrlMsg::DeltaPrepare`] anchored at the base's config digest,
//! encodes each plan once, and hands it out as shared bytes.
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

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use eden_core::{EnclaveOp, MatchSpec};
use eden_telemetry::TraceContext;

use crate::proto::{self, CtrlMsg, ProtoError, Request};

/// A pure value model of an enclave's configuration, as produced by a
/// sequence of [`EnclaveOp`]s applied to an empty enclave. Mirrors the
/// enclave's own apply semantics (`Reset` recreates empty table 0;
/// rule indices shift down on removal).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigModel {
    /// Installed functions in index order, kept as their original
    /// `InstallFunction` ops (compared structurally for diffing).
    funcs: Vec<EnclaveOp>,
    /// Match-action tables: `(spec, func index)` per rule, first match
    /// wins. An empty model still has table 0, like a fresh enclave.
    tables: Vec<Vec<(MatchSpec, usize)>>,
    /// Last value written per `(func, slot)` by `SetGlobal`.
    globals: BTreeMap<(usize, usize), i64>,
    /// Last value written per `(func, array)` by `SetArray`.
    arrays: BTreeMap<(usize, usize), Vec<i64>>,
}

impl ConfigModel {
    /// The configuration of a fresh enclave: one empty table, nothing
    /// else.
    pub fn new() -> ConfigModel {
        ConfigModel {
            funcs: Vec::new(),
            tables: vec![Vec::new()],
            globals: BTreeMap::new(),
            arrays: BTreeMap::new(),
        }
    }

    /// Model the configuration `ops` produce on a fresh enclave.
    pub fn from_ops(ops: &[EnclaveOp]) -> ConfigModel {
        let mut m = ConfigModel::new();
        m.apply(ops);
        m
    }

    /// Apply `ops` to this model, mirroring the enclave's semantics.
    /// Out-of-range indices are ignored (the controller only models op
    /// sequences its shadow enclave already validated).
    pub fn apply(&mut self, ops: &[EnclaveOp]) {
        for op in ops {
            match op {
                EnclaveOp::Reset => *self = ConfigModel::new(),
                EnclaveOp::CreateTable => self.tables.push(Vec::new()),
                EnclaveOp::ClearTable { table } => {
                    if let Some(t) = self.tables.get_mut(*table) {
                        t.clear();
                    }
                }
                EnclaveOp::InstallFunction { .. } => self.funcs.push(op.clone()),
                EnclaveOp::InstallRule { table, spec, func } => {
                    if let Some(t) = self.tables.get_mut(*table) {
                        t.push((spec.clone(), *func));
                    }
                }
                EnclaveOp::RemoveRule { table, rule } => {
                    if let Some(t) = self.tables.get_mut(*table) {
                        if *rule < t.len() {
                            t.remove(*rule);
                        }
                    }
                }
                EnclaveOp::SetGlobal { func, slot, value } => {
                    self.globals.insert((*func, *slot), *value);
                }
                EnclaveOp::SetArray {
                    func,
                    array,
                    values,
                } => {
                    self.arrays.insert((*func, *array), values.clone());
                }
            }
        }
    }

    /// This configuration as the untraced full [`CtrlMsg::Prepare`] of
    /// `epoch` that builds it on any enclave — the full-table ship the
    /// delta path falls back to — written straight from the model. The
    /// ops are `Reset`, the functions, a `CreateTable` for every table
    /// past table 0 (`Reset` leaves that one in place), the rules table by
    /// table, then the globals and the arrays. Refused like any message
    /// that does not fit the wire.
    pub fn encode_full(&self, epoch: u64) -> Result<Vec<u8>, ProtoError> {
        proto::encode_prepare_with(epoch, |w| {
            w.op(&EnclaveOp::Reset);
            for f in &self.funcs {
                w.op(f);
            }
            for _ in 1..self.tables.len() {
                w.op(&EnclaveOp::CreateTable);
            }
            for (table, rules) in self.tables.iter().enumerate() {
                for (spec, func) in rules {
                    w.rule(table, spec, *func);
                }
            }
            for (&(func, slot), &value) in &self.globals {
                w.op(&EnclaveOp::SetGlobal { func, slot, value });
            }
            for (&(func, array), values) in &self.arrays {
                w.array(func, array, values);
            }
        })
    }

    /// Rule count across all tables (bench/telemetry).
    pub fn rule_count(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }
}

impl Default for ConfigModel {
    /// [`ConfigModel::new`]: a fresh enclave still has table 0.
    fn default() -> ConfigModel {
        ConfigModel::new()
    }
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
pub fn diff(base: &ConfigModel, target: &ConfigModel) -> Option<Vec<EnclaveOp>> {
    if base.funcs.len() > target.funcs.len()
        || base.funcs[..] != target.funcs[..base.funcs.len()]
        || base.tables.len() > target.tables.len()
        || base.globals.keys().any(|k| !target.globals.contains_key(k))
        || base.arrays.keys().any(|k| !target.arrays.contains_key(k))
    {
        return None;
    }
    let mut ops = Vec::new();
    // Functions first: rules and state writes below may reference the
    // appended indices.
    ops.extend(target.funcs[base.funcs.len()..].iter().cloned());
    for _ in base.tables.len()..target.tables.len() {
        ops.push(EnclaveOp::CreateTable);
    }
    for (table, want) in target.tables.iter().enumerate() {
        let have: &[(MatchSpec, usize)] = base.tables.get(table).map_or(&[], Vec::as_slice);
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
        for (spec, func) in &want[lcp..] {
            ops.push(EnclaveOp::InstallRule {
                table,
                spec: spec.clone(),
                func: *func,
            });
        }
    }
    for (&(func, slot), &value) in &target.globals {
        if base.globals.get(&(func, slot)) != Some(&value) {
            ops.push(EnclaveOp::SetGlobal { func, slot, value });
        }
    }
    for (&(func, array), values) in &target.arrays {
        if base.arrays.get(&(func, array)) != Some(values) {
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
/// held once: as a model and as the bytes that ship it.
pub(crate) struct ConfigEntry {
    pub(crate) epoch: u64,
    /// What an enclave holding this version reports.
    pub(crate) digest: u64,
    /// Value model of this version — the diff anchor for later ones.
    pub(crate) model: ConfigModel,
    /// This version as an untraced full [`CtrlMsg::Prepare`]: what a peer
    /// whose base is unknown is sent, and, decoded, what a shadow enclave
    /// replays. Whoever makes a version encodes it — the root from the
    /// ops it was given ([`proto::encode_prepare`]), an aggregator from
    /// its model ([`ConfigModel::encode_full`]) — which is where a
    /// configuration too large for the wire is refused, before anything
    /// commits to it.
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
/// Each version is one [`ConfigEntry`]: a model and its encoded full
/// ship, never an op list.
pub(crate) struct ConfigHistory {
    entries: VecDeque<ConfigEntry>,
}

impl ConfigHistory {
    /// A history holding only the configuration of a fresh enclave, whose
    /// digest is `digest`, as epoch 0.
    pub(crate) fn new(digest: u64) -> ConfigHistory {
        let mut h = ConfigHistory {
            entries: VecDeque::with_capacity(AGG_HISTORY + 1),
        };
        let full = proto::encode_prepare(0, &[]).expect("an empty prepare");
        h.push(0, digest, ConfigModel::new(), full);
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

    /// Make `(epoch, digest, model)` current, `full` being its untraced
    /// full `Prepare` (see [`ConfigEntry::full`]); the oldest version
    /// beyond [`AGG_HISTORY`] is forgotten.
    pub(crate) fn push(&mut self, epoch: u64, digest: u64, model: ConfigModel, full: Vec<u8>) {
        self.entries.push_back(ConfigEntry {
            epoch,
            digest,
            model,
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
                        ops: diff(&base.model, &entry.model)?,
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
    use eden_core::{ClassId, Enclave, EnclaveConfig};
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
        let base = ConfigModel::from_ops(base_ops);
        let target = ConfigModel::from_ops(target_ops);
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
            &ConfigModel::from_ops(&base),
            &ConfigModel::from_ops(&target),
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
                &ConfigModel::from_ops(&target),
                &ConfigModel::from_ops(&target)
            ),
            Some(vec![])
        );
    }

    #[test]
    fn structural_regressions_refuse_to_diff() {
        let base = ConfigModel::from_ops(&base_ops());

        // fewer functions than base
        let target = ConfigModel::from_ops(&[EnclaveOp::Reset, rule(0, 1, 0)]);
        assert_eq!(diff(&base, &target), None);

        // a different function at the same index
        let mut swapped = base_ops();
        swapped[1] = install(7);
        assert_eq!(diff(&base, &ConfigModel::from_ops(&swapped)), None);

        // a global write the target never made
        let mut with_global = base_ops();
        with_global.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 5,
        });
        assert_eq!(
            diff(&ConfigModel::from_ops(&with_global), &base),
            None,
            "cannot unwrite a global"
        );
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
    fn the_full_prepare_is_encoded_from_the_model_in_reset_led_order() {
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
        let m = ConfigModel::from_ops(&built);
        assert_eq!(m.rule_count(), 3);

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
        let full = m.encode_full(5).expect("fits");
        assert_eq!(full, proto::encode_prepare(5, &reset_led).unwrap());
        let CtrlMsg::Prepare { epoch: 5, ops } = Request::decode(&full).unwrap().body else {
            panic!("not a prepare of epoch 5");
        };
        assert_eq!(ConfigModel::from_ops(&ops), m);
    }

    #[test]
    fn a_fresh_model_encodes_as_a_lone_reset() {
        assert_eq!(ConfigModel::default(), ConfigModel::new());
        assert_eq!(
            ConfigModel::default().encode_full(1).unwrap(),
            proto::encode_prepare(1, &[EnclaveOp::Reset]).unwrap()
        );
    }

    /// A history whose current version is `table_ops(5, 0..rules)` as
    /// epoch 1, pushed the way the root pushes it.
    fn history_at(rules: u32) -> ConfigHistory {
        let mut h = ConfigHistory::new(0);
        let ops = crate::testnet::table_ops(5, 0..rules);
        let full = proto::encode_prepare(1, &ops).unwrap();
        h.push(1, 1, ConfigModel::from_ops(&ops), full);
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
        h.push(2, 2, ConfigModel::from_ops(&ops), full);
        assert!(!h.roll_back(1), "only the current epoch rolls back");
        assert!(h.roll_back(2));
        assert_eq!(h.current().epoch, 1);
        assert!(Rc::ptr_eq(&h.current().full, &kept));
        assert!(Rc::ptr_eq(&h.plan_full(None).bytes, &kept));
    }
}
