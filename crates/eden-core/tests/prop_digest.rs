//! Property tests for the maintained configuration digest and the
//! incrementally maintained rule index (`eden_core::enclave`).
//!
//! The enclave keeps its digest current as rules and functions come and
//! go instead of re-hashing the configuration on every call, and a rule
//! removal patches the class→rule index instead of rebuilding it. Both
//! are checked against doing the work from scratch: a model of the
//! configuration is rebuilt on a fresh enclave by one Reset-led epoch
//! after every step, and the rule a packet hits is compared with a linear
//! first-match scan of the model. (Integration tests cannot reach the
//! `#[cfg(test)]` re-hash inside the crate; the unit test
//! `digest_and_rule_index_stay_exact_under_random_edits` uses that one.)

use eden_core::{
    ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, FuncId, InstalledFunction, MatchSpec,
    TableId,
};
use eden_lang::{Access, HeaderField, ReplMode, Schema};
use netsim::{EdenMeta, Packet, SimRng, Time, UdpHeader};
use proptest::prelude::*;

/// Classes rules are drawn from: few, so duplicates are the norm.
const CLASSES: u32 = 6;

fn prio_schema() -> Schema {
    Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
}

fn counter_schema() -> Schema {
    prio_schema()
        .global_array("Weights", &["W"], Access::ReadOnly)
        .global_field("Tokens", Access::ReadWrite)
        .replicated(ReplMode::MergedSum)
}

/// The `InstallFunction` ops steps draw from: two programs one constant
/// apart, the first again under another name, and one with global state.
fn variants() -> Vec<EnclaveOp> {
    let c = Controller::new();
    let prio = |name: &str, p: u8| {
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {p}");
        c.plan_function(name, &source, &prio_schema())
            .expect("compiles")
    };
    vec![
        prio("prio", 3),
        prio("prio", 4),
        prio("other", 3),
        c.plan_function(
            "count",
            "fun (packet, msg, _global) -> _global.Tokens <- _global.Tokens + 1",
            &counter_schema(),
        )
        .expect("compiles"),
    ]
}

fn shipped(op: &EnclaveOp) -> InstalledFunction {
    let EnclaveOp::InstallFunction(f) = op else {
        panic!("not an InstallFunction: {op:?}");
    };
    InstalledFunction::from_shipped(f).expect("verifies")
}

fn lean() -> Enclave {
    Enclave::new(EnclaveConfig {
        lanes: 1,
        ..EnclaveConfig::default()
    })
}

/// What the configuration is, and nothing about how it got there.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    /// Indices into [`variants`].
    funcs: Vec<usize>,
    tables: Vec<Vec<(MatchSpec, usize)>>,
}

impl Model {
    fn new() -> Model {
        Model {
            funcs: Vec::new(),
            tables: vec![Vec::new()],
        }
    }

    /// The configuration as one Reset-led epoch.
    fn full_ops(&self, pool: &[EnclaveOp]) -> Vec<EnclaveOp> {
        let mut ops = vec![EnclaveOp::Reset];
        ops.extend(self.funcs.iter().map(|&v| pool[v].clone()));
        ops.extend((1..self.tables.len()).map(|_| EnclaveOp::CreateTable));
        for (table, rules) in self.tables.iter().enumerate() {
            ops.extend(rules.iter().map(|(spec, func)| EnclaveOp::InstallRule {
                table,
                spec: spec.clone(),
                func: *func,
            }));
        }
        ops
    }

    /// The digest of this configuration built from nothing.
    fn digest(&self, pool: &[EnclaveOp]) -> u64 {
        let mut fresh = lean();
        fresh
            .stage_epoch(1, self.full_ops(pool))
            .expect("model is valid");
        assert!(fresh.commit_epoch(1));
        fresh.config_digest()
    }

    /// Apply `op` as the enclave would (indices already in range).
    fn apply(&mut self, op: &EnclaveOp, pool: &[EnclaveOp]) {
        match op {
            EnclaveOp::CreateTable => self.tables.push(Vec::new()),
            EnclaveOp::ClearTable { table } => self.tables[*table].clear(),
            EnclaveOp::InstallFunction(_) => {
                let v = pool.iter().position(|p| p == op).expect("from the pool");
                self.funcs.push(v);
            }
            EnclaveOp::InstallRule { table, spec, func } => {
                self.tables[*table].push((spec.clone(), *func));
            }
            EnclaveOp::RemoveRule { table, rule } => {
                self.tables[*table].remove(*rule);
            }
            other => panic!("not a structural edit: {other:?}"),
        }
    }
}

/// One structural edit, with selectors reduced modulo what exists when it
/// is applied.
#[derive(Debug, Clone)]
enum Edit {
    CreateTable,
    InstallFunction(usize),
    InstallRule {
        table: usize,
        spec: MatchSpec,
        func: usize,
    },
    /// `last` removes the table's last rule (the O(1) case) instead of `at`.
    RemoveRule {
        table: usize,
        at: usize,
        last: bool,
    },
    ClearTable(usize),
}

impl Edit {
    /// The op this edit is against `model`, or `None` if it has nothing to
    /// act on.
    fn resolve(&self, model: &Model, pool: &[EnclaveOp]) -> Option<EnclaveOp> {
        let tables = model.tables.len();
        Some(match self {
            Edit::CreateTable if tables < 4 => EnclaveOp::CreateTable,
            Edit::CreateTable => return None,
            Edit::InstallFunction(v) if model.funcs.len() < 6 => pool[v % pool.len()].clone(),
            Edit::InstallFunction(_) => return None,
            Edit::InstallRule { table, spec, func } => EnclaveOp::InstallRule {
                table: table % tables,
                spec: spec.clone(),
                func: func % model.funcs.len().max(1),
            },
            Edit::RemoveRule { table, at, last } => {
                let table = table % tables;
                let len = model.tables[table].len();
                if len == 0 {
                    return None;
                }
                let rule = if *last { len - 1 } else { at % len };
                EnclaveOp::RemoveRule { table, rule }
            }
            Edit::ClearTable(table) => EnclaveOp::ClearTable {
                table: table % tables,
            },
        })
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// One edit through the enclave's direct API.
    Direct(Edit),
    /// Several edits as one digest-anchored delta epoch.
    Delta(Vec<Edit>),
    /// The whole configuration again, as one Reset-led epoch.
    Full,
    /// Traffic and state writes: none of it structure.
    Touch(i64),
}

// Arms are picked by a drawn `kind` so that they can be weighted.

fn spec() -> impl Strategy<Value = MatchSpec> {
    let class = || (0..CLASSES).prop_map(ClassId);
    let any_of = proptest::collection::vec(class(), 0..4);
    (0u8..9, class(), any_of).prop_map(|(kind, c, cs)| match kind {
        0 => MatchSpec::Any,
        1..=2 => MatchSpec::AnyOf(cs),
        _ => MatchSpec::Class(c),
    })
}

fn edit() -> impl Strategy<Value = Edit> {
    let sel = || 0usize..64;
    (0u8..16, sel(), sel(), spec(), any::<bool>()).prop_map(|(kind, table, at, spec, last)| {
        match kind {
            0 => Edit::CreateTable,
            1 => Edit::InstallFunction(at),
            2 => Edit::ClearTable(table),
            3..=7 => Edit::RemoveRule { table, at, last },
            _ => Edit::InstallRule {
                table,
                spec,
                func: at,
            },
        }
    })
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let delta = proptest::collection::vec(edit(), 1..6);
    let step = (0u8..15, edit(), delta, -9i64..10).prop_map(|(kind, edit, delta, v)| match kind {
        0 => Step::Full,
        1 => Step::Touch(v),
        2..=4 => Step::Delta(delta),
        _ => Step::Direct(edit),
    });
    proptest::collection::vec(step, 1..60)
}

/// Apply `op` through the calls a local administrator would make.
fn apply_direct(e: &mut Enclave, op: &EnclaveOp) {
    match op {
        EnclaveOp::CreateTable => {
            e.create_table();
        }
        EnclaveOp::ClearTable { table } => e.clear_table(TableId(*table)),
        EnclaveOp::InstallFunction(_) => {
            e.install_function(shipped(op));
        }
        EnclaveOp::InstallRule { table, spec, func } => {
            e.install_rule(TableId(*table), spec.clone(), FuncId(*func));
        }
        EnclaveOp::RemoveRule { table, rule } => assert!(e.remove_rule(TableId(*table), *rule)),
        other => panic!("not a structural edit: {other:?}"),
    }
}

fn packet(classes: &[u32]) -> Packet {
    let mut p = Packet::udp(1, 2, UdpHeader::default(), 100);
    p.meta = Some(EdenMeta {
        classes: classes.to_vec(),
        msg_id: 7,
        ..EdenMeta::default()
    });
    p
}

/// The table-0 rule a packet carrying `classes` hits, read off the
/// per-rule counters.
fn hit_rule(e: &mut Enclave, classes: &[u32]) -> Option<usize> {
    let hits = |e: &Enclave| -> Vec<u64> {
        let rules = e.stats_snapshot().rules;
        let table0 = rules.iter().filter(|r| r.table == 0);
        table0.map(|r| r.counts.hits).collect()
    };
    let before = hits(e);
    e.process(&mut packet(classes), &mut SimRng::new(1), Time::ZERO);
    let after = hits(e);
    let mut bumped = (0..after.len()).filter(|&i| after[i] != before[i]);
    let hit = bumped.next();
    assert_eq!(bumped.next(), None, "one packet, at most one table-0 hit");
    hit
}

fn matches(spec: &MatchSpec, classes: &[u32]) -> bool {
    match spec {
        MatchSpec::Any => true,
        MatchSpec::Class(c) => classes.contains(&c.0),
        MatchSpec::AnyOf(cs) => cs.iter().any(|c| classes.contains(&c.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step the maintained digest equals the configuration's
    /// digest built from nothing — so a configuration reached by direct
    /// edits and delta epochs digests equal to the same one shipped as one
    /// full epoch — and table 0 resolves every class list to the rule a
    /// linear first-match scan finds.
    #[test]
    fn maintained_digest_and_index_match_a_rebuild(steps in steps()) {
        let pool = variants();
        let mut e = lean();
        let mut model = Model::new();
        apply_direct(&mut e, &pool[0]);
        model.apply(&pool[0], &pool);
        for step in steps {
            match step {
                Step::Direct(edit) => {
                    let Some(op) = edit.resolve(&model, &pool) else { continue };
                    apply_direct(&mut e, &op);
                    model.apply(&op, &pool);
                }
                Step::Delta(edits) => {
                    let mut ops = Vec::new();
                    for edit in edits {
                        if let Some(op) = edit.resolve(&model, &pool) {
                            model.apply(&op, &pool);
                            ops.push(op);
                        }
                    }
                    let epoch = e.active_epoch() + 1;
                    e.stage_epoch_delta(epoch, e.config_digest(), ops).expect("valid delta");
                    prop_assert!(e.commit_epoch(epoch));
                    prop_assert!(e.serves_single_epoch());
                }
                Step::Full => {
                    let before = e.config_digest();
                    let epoch = e.active_epoch() + 1;
                    e.stage_epoch(epoch, model.full_ops(&pool)).expect("valid epoch");
                    prop_assert!(e.commit_epoch(epoch));
                    prop_assert_eq!(e.config_digest(), before, "same structure, rebuilt");
                }
                Step::Touch(v) => {
                    let before = e.config_digest();
                    for f in 0..model.funcs.len() {
                        if model.funcs[f] == 3 {
                            e.set_global(FuncId(f), 0, v);
                            e.set_array(FuncId(f), 0, vec![v; 3]);
                            e.apply_repl_view(
                                &eden_repl::FuncView {
                                    func: f as u32,
                                    version: 1,
                                    remote: vec![(0, v)],
                                    ..Default::default()
                                },
                                1_000,
                            );
                        }
                    }
                    prop_assert_eq!(e.config_digest(), before, "state is not structure");
                }
            }
            prop_assert_eq!(e.config_digest(), model.digest(&pool), "model {:?}", model);
            let before = e.config_digest();
            for classes in [&[][..], &[0], &[1], &[2], &[3], &[4], &[5], &[9], &[5, 0], &[2, 9, 4]] {
                let first = model.tables[0].iter().position(|(s, _)| matches(s, classes));
                prop_assert_eq!(hit_rule(&mut e, classes), first, "classes {:?} in {:?}", classes, model);
            }
            prop_assert_eq!(e.config_digest(), before, "traffic is not structure");
        }
    }
}

fn digest_of(funcs: &[usize], tables: &[Vec<(MatchSpec, usize)>]) -> u64 {
    let model = Model {
        funcs: funcs.to_vec(),
        tables: tables.to_vec(),
    };
    model.digest(&variants())
}

#[test]
fn digest_is_sensitive_to_order_placement_and_bytecode() {
    let a = || (MatchSpec::Class(ClassId(1)), 0);
    let b = || (MatchSpec::Class(ClassId(2)), 0);
    let base = digest_of(&[0], &[vec![a(), b()], vec![]]);
    assert_eq!(base, digest_of(&[0], &[vec![a(), b()], vec![]]));
    assert_ne!(
        base,
        digest_of(&[0], &[vec![b(), a()], vec![]]),
        "swapping two different rules"
    );
    assert_ne!(
        base,
        digest_of(&[0], &[vec![a()], vec![b()]]),
        "moving a rule to another table"
    );
    assert_ne!(
        base,
        digest_of(&[0], &[vec![a(), b()]]),
        "dropping an empty table"
    );
    assert_ne!(
        digest_of(&[0, 2], &[vec![a(), b()]]),
        digest_of(&[0, 2], &[vec![a(), (b().0, 1)]]),
        "pointing a rule at another function"
    );

    // the two `prio` programs are one constant — one byte — apart
    let pool = variants();
    let (EnclaveOp::InstallFunction(x), EnclaveOp::InstallFunction(y)) = (&pool[0], &pool[1])
    else {
        panic!("pool holds InstallFunction ops");
    };
    let (x, y) = (&x.bytecode, &y.bytecode);
    assert_eq!(x.len(), y.len());
    assert_eq!(x.iter().zip(y).filter(|(p, q)| p != q).count(), 1);
    let with_func = |v| digest_of(&[v], &[vec![a()]]);
    assert_ne!(with_func(0), with_func(1), "one bytecode byte");
    assert_ne!(with_func(0), with_func(2), "the function's name");
}

#[test]
fn digest_ignores_the_op_sequence_that_built_the_configuration() {
    let pool = variants();
    let rule = |c| MatchSpec::Class(ClassId(c));

    let mut one = lean();
    one.create_table();
    let f = one.install_function(shipped(&pool[0]));
    one.install_rule(TableId(0), rule(1), f);
    one.install_rule(TableId(1), rule(2), f);

    // the same configuration by a detour: extra rules that come and go,
    // the tables filled in the other order, a table cleared and refilled
    let mut two = lean();
    let f = two.install_function(shipped(&pool[0]));
    two.install_rule(TableId(0), rule(5), f);
    two.install_rule(TableId(0), rule(1), f);
    two.create_table();
    two.install_rule(TableId(1), rule(9), f);
    two.clear_table(TableId(1));
    two.install_rule(TableId(1), rule(2), f);
    assert!(two.remove_rule(TableId(0), 0));
    two.install_rule(TableId(0), MatchSpec::Any, f);
    assert!(two.remove_rule(TableId(0), 1));

    assert_eq!(one.config_digest(), two.config_digest());
}
