//! Match-action tables: what a rule matches on, the class→rule index,
//! and the counters a lookup feeds.

use netsim::Packet;

use crate::action::FuncId;
use crate::class::{ClassId, ClassIndex};

/// Identifies a match-action table within an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableId(pub usize);

/// What a rule matches on: the packet's class list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchSpec {
    /// Matches every packet (default/fallback rules).
    Any,
    /// Packet carries this class.
    Class(ClassId),
    /// Packet carries any of these classes.
    AnyOf(Vec<ClassId>),
}

impl MatchSpec {
    fn matches(&self, classes: &[u32]) -> bool {
        match self {
            MatchSpec::Any => true,
            MatchSpec::Class(c) => classes.contains(&c.0),
            MatchSpec::AnyOf(cs) => cs.iter().any(|c| classes.contains(&c.0)),
        }
    }
}

/// `match on class → action function` (Table 4).
#[derive(Debug, Clone)]
pub struct Rule {
    pub spec: MatchSpec,
    pub func: FuncId,
    /// Configuration epoch this rule was installed under. The two-phase
    /// update protocol guarantees every rule in a served table carries the
    /// enclave's active epoch (checked by [`Enclave::serves_single_epoch`]).
    pub epoch: u64,
}

/// One match-action table, with a class→rule index so the common case —
/// single-class rules — resolves by hash lookup instead of a linear scan.
/// First-match-wins order is preserved: the index stores the *earliest*
/// rule per class, and `general` keeps the (ordered) `Any`/`AnyOf` rules
/// that still need a scan. Read-only on the data path: what a lookup
/// counts goes to a [`TableCounts`] block.
#[derive(Debug, Default)]
pub(super) struct MatchActionTable {
    pub(super) rules: Vec<Rule>,
    /// class → index of the first `MatchSpec::Class` rule for it (flat
    /// open-addressing probe, no SipHash on the per-packet path).
    class_index: ClassIndex,
    /// Ordered indices of `Any` / `AnyOf` rules.
    general: Vec<usize>,
}

impl MatchActionTable {
    pub(super) fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        match &rule.spec {
            MatchSpec::Class(c) => {
                self.class_index.insert_first(c.0, idx as u32);
            }
            MatchSpec::Any | MatchSpec::AnyOf(_) => self.general.push(idx),
        }
        self.rules.push(rule);
    }

    pub(super) fn clear(&mut self) {
        self.rules.clear();
        self.class_index.clear();
        self.general.clear();
    }

    /// Remove the rule at `idx` (later rules shift down) and rebuild the
    /// class index and general list, preserving first-match-wins order.
    pub(super) fn remove_rule(&mut self, idx: usize) {
        self.rules.remove(idx);
        self.class_index.clear();
        self.general.clear();
        for (i, rule) in self.rules.iter().enumerate() {
            match &rule.spec {
                MatchSpec::Class(c) => {
                    self.class_index.insert_first(c.0, i as u32);
                }
                MatchSpec::Any | MatchSpec::AnyOf(_) => self.general.push(i),
            }
        }
    }

    /// First-match-wins rule lookup via the class index.
    pub(super) fn find(&self, classes: &[u32]) -> Option<usize> {
        let mut best = usize::MAX;
        for &c in classes {
            if let Some(i) = self.class_index.get(c) {
                best = best.min(i as usize);
            }
        }
        for &gi in &self.general {
            if gi >= best {
                break; // an earlier single-class rule already won
            }
            if self.rules[gi].spec.matches(classes) {
                best = gi;
                break;
            }
        }
        (best != usize::MAX).then_some(best)
    }
}

/// A five-tuple classifier for the enclave's own packet-granularity
/// classification (`None` = wildcard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiveTupleMatch {
    pub src_ip: Option<u32>,
    pub dst_ip: Option<u32>,
    pub src_port: Option<u16>,
    pub dst_port: Option<u16>,
    pub proto: Option<u8>,
}

impl FiveTupleMatch {
    pub(super) fn matches(&self, p: &Packet) -> bool {
        let Some((si, sp, di, dp, pr)) = p.five_tuple() else {
            return false;
        };
        self.src_ip.is_none_or(|v| v == si)
            && self.dst_ip.is_none_or(|v| v == di)
            && self.src_port.is_none_or(|v| v == sp)
            && self.dst_port.is_none_or(|v| v == dp)
            && self.proto.is_none_or(|v| v == pr)
    }
}

/// Outcome of one table lookup.
#[derive(Debug, Clone, Copy)]
pub(super) enum Lookup {
    /// The table id does not exist (bad `GotoTable`).
    NoTable,
    /// No rule matched.
    Miss,
    /// First matching rule's action function.
    Hit(usize),
}

/// Per-table counters, kept apart from the read-only
/// [`MatchActionTable`] so worker lanes can share the tables while each
/// counts into a block of its own. The enclave's blocks hold the totals;
/// a lane's are merged into them after every fan-out.
#[derive(Debug, Default)]
pub(super) struct TableCounts {
    pub(super) lookups: u64,
    /// Lookups that hit some rule.
    pub(super) matched: u64,
    /// Lookups that hit no rule.
    pub(super) missed: u64,
    /// Packets that matched each rule, parallel to the table's rules.
    pub(super) rule_hits: Vec<u64>,
}

impl TableCounts {
    pub(super) fn for_rules(rules: usize) -> TableCounts {
        TableCounts {
            rule_hits: vec![0; rules],
            ..TableCounts::default()
        }
    }

    pub(super) fn merge(&mut self, d: &TableCounts) {
        self.lookups += d.lookups;
        self.matched += d.matched;
        self.missed += d.missed;
        for (total, &hits) in self.rule_hits.iter_mut().zip(&d.rule_hits) {
            *total += hits;
        }
    }
}

/// Resolve `classes` against `table`, counting into `counts[table]`.
pub(super) fn lookup(
    tables: &[MatchActionTable],
    counts: &mut [TableCounts],
    table: usize,
    classes: &[u32],
) -> Lookup {
    let Some(tbl) = tables.get(table) else {
        return Lookup::NoTable;
    };
    let c = &mut counts[table];
    c.lookups += 1;
    match tbl.find(classes) {
        Some(idx) => {
            c.matched += 1;
            c.rule_hits[idx] += 1;
            Lookup::Hit(tbl.rules[idx].func.0)
        }
        None => {
            c.missed += 1;
            Lookup::Miss
        }
    }
}
