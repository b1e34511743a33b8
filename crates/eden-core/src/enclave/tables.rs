//! Match-action tables: what a rule matches on, the class→rule index,
//! and the counters a lookup feeds.

use eden_telemetry::{RuleHits, TableLookups};
use netsim::Packet;

use crate::action::FuncId;
use crate::class::ClassId;
use crate::index::FlatIndex;

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
    #[inline]
    pub(super) fn matches(&self, classes: &[u32]) -> bool {
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
}

/// One step of the structural digest: fold the word `w` into `h`. A
/// multiply by an odd constant and a xor-shift, so every input bit reaches
/// the high half and then the low half before the next word arrives.
pub(super) fn mix(h: u64, w: u64) -> u64 {
    let x = (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// [`mix`] over a byte string, eight bytes at a time, its length first.
pub(super) fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = mix(h, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

/// What one rule contributes to its table's digest: its spec and the
/// function it selects.
fn rule_hash(rule: &Rule) -> u64 {
    let spec = match &rule.spec {
        MatchSpec::Any => 1,
        MatchSpec::Class(c) => mix(2, u64::from(c.0)),
        MatchSpec::AnyOf(cs) => cs
            .iter()
            .fold(mix(3, cs.len() as u64), |h, c| mix(h, u64::from(c.0))),
    };
    mix(spec, rule.func.0 as u64)
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
    class_index: FlatIndex,
    /// Ordered indices of `Any` / `AnyOf` rules.
    general: Vec<usize>,
    /// Digest of every prefix of `rules`, parallel to it:
    /// `prefix[i] = mix(prefix[i - 1], rule_hash(rules[i]))`. The last
    /// entry is the whole table's digest, so an append costs one `mix` and
    /// a removal re-hashes only the rules behind it.
    prefix: Vec<u64>,
    /// Configuration epoch whose commit last adopted this table (or the
    /// epoch active when it was created). A commit validates the whole
    /// configuration as one unit and stamps every table, so a served table
    /// always carries the enclave's active epoch (checked by
    /// [`Enclave::serves_single_epoch`](super::Enclave::serves_single_epoch))
    /// without a delta epoch having to touch the rules it leaves alone.
    pub(super) epoch: u64,
}

impl MatchActionTable {
    /// An empty table created under `epoch`.
    pub(super) fn new(epoch: u64) -> MatchActionTable {
        MatchActionTable {
            epoch,
            ..MatchActionTable::default()
        }
    }

    pub(super) fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        match &rule.spec {
            MatchSpec::Class(c) => {
                // first insertion wins: an earlier rule for the class keeps it
                let key = u64::from(c.0);
                if let Err(vacant) = self.class_index.probe(key) {
                    self.class_index.insert(key, idx as u32, Some(vacant));
                }
            }
            MatchSpec::Any | MatchSpec::AnyOf(_) => self.general.push(idx),
        }
        self.prefix.push(mix(self.digest(), rule_hash(&rule)));
        self.rules.push(rule);
    }

    pub(super) fn clear(&mut self) {
        self.rules.clear();
        self.class_index.clear();
        self.general.clear();
        self.prefix.clear();
    }

    /// Digest of the rules in order (0 for an empty table; the enclave's
    /// digest folds the rule count in beside it).
    pub(super) fn digest(&self) -> u64 {
        self.prefix.last().copied().unwrap_or(0)
    }

    /// Make room for `additional` more rules.
    pub(super) fn reserve(&mut self, additional: usize) {
        self.rules.reserve(additional);
        self.prefix.reserve(additional);
        self.class_index.reserve(additional);
    }

    /// Remove the rule at `idx`; later rules shift down by one. Costs the
    /// length of the tail behind `idx` — nothing at all past the `Vec`
    /// removals when `idx` is the last rule — and preserves
    /// first-match-wins: a class whose first rule this was falls through
    /// to the next rule that holds it.
    pub(super) fn remove_rule(&mut self, idx: usize) {
        let removed = self.rules.remove(idx);
        match &removed.spec {
            MatchSpec::Class(c) => {
                if self.class_index.get(u64::from(c.0)) == Some(idx as u32) {
                    self.class_index.remove(u64::from(c.0));
                }
            }
            MatchSpec::Any | MatchSpec::AnyOf(_) => {
                let at = self.general.partition_point(|&g| g < idx);
                self.general.remove(at);
            }
        }
        let moved = self.general.partition_point(|&g| g < idx);
        for g in &mut self.general[moved..] {
            *g -= 1;
        }
        self.prefix.truncate(idx);
        let mut h = self.digest();
        for (i, rule) in self.rules.iter().enumerate().skip(idx) {
            // `i` is the rule's new position; it sat at `i + 1`.
            if let MatchSpec::Class(c) = &rule.spec {
                let key = u64::from(c.0);
                match self.class_index.probe(key) {
                    Ok(at) if self.class_index.value(at) as usize == i + 1 => {
                        self.class_index.set(at, i as u32);
                    }
                    Ok(_) => {}
                    // only the removed rule's class can be unmapped here
                    Err(vacant) => self.class_index.insert(key, i as u32, Some(vacant)),
                }
            }
            h = mix(h, rule_hash(rule));
            self.prefix.push(h);
        }
    }

    /// First-match-wins rule lookup via the class index. Inlined (with
    /// [`MatchSpec::matches`]) into its two callers, the counting
    /// [`lookup`] and the burst loop's uncounted peek: left to itself the
    /// compiler keeps one shared copy and every `lookup` pays a call.
    #[inline]
    pub(super) fn find(&self, classes: &[u32]) -> Option<usize> {
        let mut best = usize::MAX;
        for &c in classes {
            if let Some(i) = self.class_index.get(u64::from(c)) {
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
    pub(super) totals: TableLookups,
    /// Packets that matched each rule, parallel to the table's rules.
    pub(super) rule_hits: Vec<RuleHits>,
}

impl TableCounts {
    pub(super) fn for_rules(rules: usize) -> TableCounts {
        TableCounts {
            rule_hits: vec![RuleHits::default(); rules],
            ..TableCounts::default()
        }
    }

    pub(super) fn merge(&mut self, d: &TableCounts) {
        self.totals.merge(&d.totals);
        for (total, hits) in self.rule_hits.iter_mut().zip(&d.rule_hits) {
            total.merge(hits);
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
    c.totals.lookups += 1;
    match tbl.find(classes) {
        Some(idx) => {
            c.totals.matched += 1;
            c.rule_hits[idx].hits += 1;
            Lookup::Hit(tbl.rules[idx].func.0)
        }
        None => {
            c.totals.missed += 1;
            Lookup::Miss
        }
    }
}
