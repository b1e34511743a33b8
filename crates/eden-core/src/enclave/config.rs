//! The configuration value ([`Config`]) and the one check of an
//! [`EnclaveOp`], `Shape::check`, which an enclave staging an epoch and a
//! `Config` applying ops both call: both refuse the same ops with the same
//! [`ApplyError`], op index included.

use std::collections::BTreeMap;
use std::rc::Rc;

use eden_lang::{Schema, Scope};
use eden_vm::Limits;

use super::epoch::{fold_digest, function_digest};
use super::link::{self, Linked};
use super::tables::{mix, rule_hash, RuleList};
use crate::action::InstalledFunction;
use crate::ops::{ApplyError, Cap, EnclaveOp, ShippedFunction};

/// Longest global array one `SetArray` op may write, in values. Every
/// array a workload, figure, test, example or fuzz case ships holds at
/// most 12 values; this is 16× a 256-value array, and 32 KiB of values.
pub const MAX_ARRAY_LEN: usize = 4096;

/// Most match-action tables a configuration holds. Every configuration a
/// workload, figure, test, example or fuzz case stages holds at most 4;
/// this is 16× that.
pub const MAX_TABLES: usize = 64;

/// Most functions a configuration installs. The most any workload,
/// figure, test, example or fuzz case stages an epoch over is 21 (the
/// catalogue's 19 bundles and two more, in `tests/alloc_free.rs`); this
/// is 16× 32.
pub const MAX_FUNCTIONS: usize = 512;

/// Most rules one table holds. The largest table anything stages is the
/// 70,000 rules an aggregator test builds past what one full `Prepare`
/// carries (the workloads' largest is `ctrl-churn`'s 256); this is about
/// 30× that, and 80 MB of committed rules at 40 B a rule. It also bounds
/// what one commit compares and truncates.
pub const MAX_RULES_PER_TABLE: usize = 1 << 21;

/// What the op check needs of a configuration at one point of an op
/// sequence: the rules each table holds, and each function's
/// `(global slots, global arrays)`.
pub(super) struct Shape {
    pub(super) rules: Vec<usize>,
    funcs: Vec<(usize, usize)>,
}

fn state_shape(schema: &Schema) -> (usize, usize) {
    (schema.scope_len(Scope::Global), schema.arrays().len())
}

impl Shape {
    /// Tables holding `rules` rules each, and functions of `schemas`.
    pub(super) fn new<'a>(
        rules: impl Iterator<Item = usize>,
        schemas: impl Iterator<Item = &'a Schema>,
    ) -> Shape {
        Shape {
            rules: rules.collect(),
            funcs: schemas.map(state_shape).collect(),
        }
    }

    /// Whether op number `i` applies to a configuration of this shape;
    /// if it does, the shape becomes the one the op leaves. A shipped
    /// function's program is not looked at here (see `link_shipped`).
    pub(super) fn check(&mut self, i: usize, op: &EnclaveOp) -> Result<(), ApplyError> {
        let no_table = |table: usize| ApplyError::NoSuchTable { op: i, table };
        let no_func = |func: usize| ApplyError::NoSuchFunction { op: i, func };
        match op {
            EnclaveOp::Reset => {
                self.rules = vec![0];
                self.funcs.clear();
            }
            EnclaveOp::CreateTable => {
                room(i, Cap::Tables, self.rules.len())?;
                self.rules.push(0);
            }
            EnclaveOp::ClearTable { table } => {
                *self.rules.get_mut(*table).ok_or(no_table(*table))? = 0;
            }
            EnclaveOp::InstallFunction(shipped) => {
                room(i, Cap::Functions, self.funcs.len())?;
                self.funcs.push(state_shape(&shipped.schema));
            }
            EnclaveOp::InstallRule { table, func, .. } => {
                let n = self.rules.get_mut(*table).ok_or(no_table(*table))?;
                if *func >= self.funcs.len() {
                    return Err(no_func(*func));
                }
                room(i, Cap::RulesPerTable, *n)?;
                *n += 1;
            }
            EnclaveOp::RemoveRule { table, rule } => {
                let n = self.rules.get_mut(*table).ok_or(no_table(*table))?;
                if *rule >= *n {
                    return Err(ApplyError::NoSuchRule { op: i, rule: *rule });
                }
                *n -= 1;
            }
            EnclaveOp::SetGlobal { func, slot, .. } => {
                let &(slots, _) = self.funcs.get(*func).ok_or(no_func(*func))?;
                if *slot >= slots {
                    return Err(ApplyError::NoSuchSlot { op: i, slot: *slot });
                }
            }
            EnclaveOp::SetArray {
                func,
                array,
                values,
            } => {
                let &(_, arrays) = self.funcs.get(*func).ok_or(no_func(*func))?;
                if *array >= arrays {
                    return Err(ApplyError::NoSuchArray {
                        op: i,
                        array: *array,
                    });
                }
                if values.len() > MAX_ARRAY_LEN {
                    let len = values.len();
                    return Err(ApplyError::ArrayTooLong { op: i, len });
                }
            }
        }
        Ok(())
    }
}

/// Whether op number `i` may add one more to the `held` that `cap`
/// bounds.
fn room(i: usize, cap: Cap, held: usize) -> Result<(), ApplyError> {
    if held < cap.limit() {
        Ok(())
    } else {
        Err(ApplyError::OverCap { op: i, cap })
    }
}

/// Decode, re-verify and link the program op number `i` ships, for an
/// enclave enforcing `limits`.
pub(super) fn link_shipped(
    i: usize,
    shipped: &ShippedFunction,
    limits: &Limits,
) -> Result<Linked, ApplyError> {
    let f = InstalledFunction::from_shipped(shipped).map_err(|e| ApplyError::BadBytecode {
        op: i,
        reason: format!("{e:?}"),
    })?;
    link::link(f, limits).map_err(|error| ApplyError::Unlinkable { op: i, error })
}

/// One installed function of a [`Config`]: as shipped (shared by clones
/// and by a version that reinstalls it at the same index), and its share
/// of the digest, hashed once when it was linked.
#[derive(Debug, Clone, PartialEq)]
struct Function {
    shipped: Rc<ShippedFunction>,
    digest: u64,
}

/// An enclave configuration as a value: what a sequence of
/// [`EnclaveOp`]s applied to a fresh enclave produces, without the
/// enclave — what a tier that serves no packet (the root, an aggregator)
/// holds. Equal configurations compare and digest equal however they
/// were built.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    funcs: Vec<Function>,
    /// Each rule one 8-byte word, first match wins; table 0 always exists.
    tables: Vec<RuleList>,
    globals: BTreeMap<(usize, usize), i64>,
    arrays: BTreeMap<(usize, usize), Vec<i64>>,
}

impl Config {
    /// The configuration of a fresh enclave: one empty table.
    pub fn new() -> Config {
        Config {
            funcs: Vec::new(),
            tables: vec![RuleList::default()],
            globals: BTreeMap::new(),
            arrays: BTreeMap::new(),
        }
    }

    /// The configuration `ops` produce on a fresh enclave, or why an
    /// enclave would refuse them.
    pub fn from_ops(ops: &[EnclaveOp]) -> Result<Config, ApplyError> {
        Config::new().apply(ops)
    }

    /// The configuration `ops` lead to from this one, applied as one unit
    /// as an enclave under the default [`Limits`] stages and commits
    /// them: every op is checked against the shape it meets and every
    /// shipped program is decoded and linked, and the first refusal is
    /// returned. A function installed at the index a `Reset` of the same
    /// ops dropped an equal one from keeps that one's copy and digest, and
    /// is not linked again.
    pub fn apply(&self, ops: &[EnclaveOp]) -> Result<Config, ApplyError> {
        let mut shape = Shape::new(
            self.tables.iter().map(RuleList::len),
            self.funcs.iter().map(|f| &f.shipped.schema),
        );
        // A Reset-led list keeps nothing of this version but the
        // functions it may install again.
        let mut next = match ops.first() {
            Some(EnclaveOp::Reset) => Config {
                funcs: self.funcs.clone(),
                ..Config::new()
            },
            _ => self.clone(),
        };
        let (limits, mut dropped) = (Limits::default(), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            shape.check(i, op)?;
            match op {
                EnclaveOp::Reset => dropped = std::mem::take(&mut next).funcs,
                EnclaveOp::CreateTable => next.tables.push(RuleList::default()),
                EnclaveOp::ClearTable { table } => next.tables[*table].clear(),
                EnclaveOp::InstallFunction(shipped) => {
                    let same = dropped
                        .get(next.funcs.len())
                        .filter(|f| *f.shipped == **shipped);
                    let f = match same {
                        Some(f) => f.clone(),
                        None => Function {
                            digest: function_digest(&link_shipped(i, shipped, &limits)?.function),
                            shipped: Rc::new((**shipped).clone()),
                        },
                    };
                    next.funcs.push(f);
                }
                EnclaveOp::InstallRule { table, spec, func } => {
                    next.tables[*table].push(spec.clone(), *func)
                }
                EnclaveOp::RemoveRule { table, rule } => next.tables[*table].remove(*rule),
                EnclaveOp::SetGlobal { func, slot, value } => {
                    next.globals.insert((*func, *slot), *value);
                }
                EnclaveOp::SetArray {
                    func,
                    array,
                    values,
                } => {
                    next.arrays.insert((*func, *array), values.clone());
                }
            }
        }
        Ok(next)
    }

    /// The digest an enclave holding this configuration reports
    /// ([`Enclave::config_digest`](crate::Enclave::config_digest)),
    /// computed from the rules and the functions' digests.
    pub fn digest(&self) -> u64 {
        let tables = self.tables.iter().map(|t| {
            let rules = (0..t.len()).fold(0, |h, i| mix(h, rule_hash(t, i)));
            (t.len(), rules)
        });
        fold_digest(tables, self.funcs.iter().map(|f| f.digest))
    }

    /// The installed functions as shipped, in index order.
    pub fn functions(&self) -> impl ExactSizeIterator<Item = &ShippedFunction> + '_ {
        self.funcs.iter().map(|f| &*f.shipped)
    }

    /// The match-action tables' rules, table by table.
    pub fn tables(&self) -> &[RuleList] {
        &self.tables
    }

    /// The last value written per `(func, slot)` by `SetGlobal`.
    pub fn globals(&self) -> &BTreeMap<(usize, usize), i64> {
        &self.globals
    }

    /// The last values written per `(func, array)` by `SetArray`.
    pub fn arrays(&self) -> &BTreeMap<(usize, usize), Vec<i64>> {
        &self.arrays
    }
}

impl Default for Config {
    /// [`Config::new`]: a fresh enclave still has table 0.
    fn default() -> Config {
        Config::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassId, Controller, MatchSpec};
    use eden_lang::{Access, HeaderField};

    fn install(prio: u8) -> EnclaveOp {
        let schema =
            Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        let planned = Controller::new().plan_function(&format!("prio{prio}"), &source, &schema);
        planned.expect("compiles")
    }

    fn table(prio: u8, rules: u32) -> Vec<EnclaveOp> {
        let mut ops = vec![EnclaveOp::Reset, install(prio)];
        ops.extend((0..rules).map(|c| EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(c)),
            func: 0,
        }));
        ops
    }

    /// A version made from the one before shares its functions: a clone
    /// does, and so does a Reset-led epoch that installs the same function
    /// at the same index. A different function is a copy of its own.
    #[test]
    fn versions_share_their_functions() {
        let shared = |a: &Config, b: &Config| Rc::ptr_eq(&a.funcs[0].shipped, &b.funcs[0].shipped);
        let first = Config::from_ops(&table(3, 3)).unwrap();
        assert!(shared(&first, &first.clone()));
        let next = first.apply(&table(3, 4)).unwrap();
        assert!(shared(&first, &next), "reinstalled at index 0");
        assert_eq!(next, Config::from_ops(&table(3, 4)).unwrap());

        let other = first.apply(&table(7, 3)).unwrap();
        assert!(!shared(&first, &other));
        assert_eq!(other, Config::from_ops(&table(7, 3)).unwrap());
        assert_ne!(other.digest(), first.digest());
    }

    /// The first refused op names its index.
    #[test]
    fn a_refused_op_names_its_index() {
        let config = Config::from_ops(&table(3, 2)).unwrap();
        let mut ops = table(5, 9);
        ops.push(EnclaveOp::CreateTable);
        ops.push(EnclaveOp::RemoveRule { table: 1, rule: 0 });
        let refused = config.apply(&ops);
        assert_eq!(refused, Err(ApplyError::NoSuchRule { op: 12, rule: 0 }));
    }

    /// Each cap takes the configuration to it and refuses one more, with
    /// the op's index. The rule cap is checked on a shape already at it:
    /// two million rules are not worth shipping in a test.
    #[test]
    fn a_configuration_past_a_cap_is_refused() {
        let mut ops = table(3, 0);
        ops.extend((1..MAX_TABLES).map(|_| EnclaveOp::CreateTable));
        assert_eq!(Config::from_ops(&ops).unwrap().tables().len(), MAX_TABLES);
        ops.push(EnclaveOp::CreateTable);
        let cap = Cap::Tables;
        let refused = Config::from_ops(&ops);
        assert_eq!(refused, Err(ApplyError::OverCap { op: 65, cap }));
        let why = refused.unwrap_err().to_string();
        assert_eq!(why, "op 65: past the cap of 64 tables");

        let mut ops = vec![EnclaveOp::Reset];
        ops.extend((0..=MAX_FUNCTIONS).map(|_| install(3)));
        let cap = Cap::Functions;
        let refused = Config::from_ops(&ops);
        assert_eq!(refused, Err(ApplyError::OverCap { op: 513, cap }));
        ops.pop();
        assert_eq!(Config::from_ops(&ops).unwrap().functions().len(), 512);

        let mut shape = Shape::new([MAX_RULES_PER_TABLE - 1].into_iter(), std::iter::empty());
        shape.check(0, &install(3)).unwrap();
        let rule = EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Any,
            func: 0,
        };
        shape.check(1, &rule).unwrap();
        let cap = Cap::RulesPerTable;
        assert_eq!(
            shape.check(2, &rule),
            Err(ApplyError::OverCap { op: 2, cap })
        );
        assert_eq!(shape.rules, [MAX_RULES_PER_TABLE]);
    }

    #[test]
    fn an_array_past_the_cap_is_refused() {
        let schema = Schema::new()
            .packet_field("Priority", Access::ReadWrite, None)
            .global_array("Weights", &["W"], Access::ReadOnly);
        let source = "fun (packet, msg, _global) -> packet.Priority <- 1";
        let f = Controller::new()
            .plan_function("w", source, &schema)
            .unwrap();
        let set = |len| EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: vec![7; len],
        };
        let ops = |len| vec![EnclaveOp::Reset, f.clone(), set(len)];
        let at_cap = Config::from_ops(&ops(MAX_ARRAY_LEN)).unwrap();
        assert_eq!(at_cap.arrays()[&(0, 0)].len(), MAX_ARRAY_LEN);
        let len = MAX_ARRAY_LEN + 1;
        let refused = Config::from_ops(&ops(len));
        assert_eq!(refused, Err(ApplyError::ArrayTooLong { op: 2, len }));
    }
}
