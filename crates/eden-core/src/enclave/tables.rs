//! Match-action tables: what a rule matches on, the class→rule index,
//! and the counters a lookup feeds.

use std::borrow::Cow;

use eden_telemetry::{RuleHits, TableLookups};
use netsim::Packet;

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

/// One rule — `match on class → action function` (Table 4) — packed into
/// 8 bytes: the class it matches and the function it selects. A rule
/// that matches on anything but one class (`Any`, `AnyOf`) keeps its
/// [`MatchSpec`] on a side list of its [`RuleList`], and a flag in the
/// function's top bit says so. How a configuration holds its rules,
/// wherever it is held; converted from and to [`MatchSpec`] only where an
/// op is read or written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RuleWord {
    /// The class; 0 for a general rule.
    class: u32,
    /// The function, with [`GENERAL`](Self::GENERAL) set on a general rule.
    func: u32,
}

impl RuleWord {
    /// Marks a general rule. A function index never reaches it: every
    /// rule's function is installed, and 2^31 functions do not fit in
    /// memory.
    const GENERAL: u32 = 1 << 31;

    /// The word of the rule `spec → func`.
    ///
    /// # Panics
    /// If `func` is 2^31 or more: an index no installed function has.
    pub(crate) fn new(spec: &MatchSpec, func: usize) -> RuleWord {
        let func = u32::try_from(func)
            .ok()
            .filter(|f| f & Self::GENERAL == 0)
            .expect("a function index below 2^31");
        match spec {
            MatchSpec::Class(c) => RuleWord { class: c.0, func },
            MatchSpec::Any | MatchSpec::AnyOf(_) => RuleWord {
                class: 0,
                func: func | Self::GENERAL,
            },
        }
    }

    /// The function this rule selects.
    #[inline]
    pub(crate) fn func(self) -> usize {
        (self.func & !Self::GENERAL) as usize
    }

    /// The one class this rule matches, or `None` for a general rule.
    #[inline]
    pub(crate) fn class(self) -> Option<ClassId> {
        (self.func & Self::GENERAL == 0).then_some(ClassId(self.class))
    }
}

/// An ordered rule list (first match wins) as 8-byte words, with the
/// general rules' specs on a side list in rule order. Equal lists hold
/// equal rules.
#[derive(Debug, Clone, Default)]
pub struct RuleList {
    words: Vec<RuleWord>,
    /// Each `Any` / `AnyOf` rule's position in `words` and its spec, in
    /// rule order.
    general: Vec<(u32, MatchSpec)>,
}

impl RuleList {
    /// Rules held.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the list holds no rule.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The rules as words, in order.
    pub(crate) fn words(&self) -> &[RuleWord] {
        &self.words
    }

    /// The function rule `i` selects.
    #[inline]
    pub fn func(&self, i: usize) -> usize {
        self.words[i].func()
    }

    /// What rule `i` matches on. A class rule's spec is made on the spot
    /// (no allocation); a general rule's is borrowed from the side list.
    pub fn spec(&self, i: usize) -> Cow<'_, MatchSpec> {
        match self.words[i].class() {
            Some(c) => Cow::Owned(MatchSpec::Class(c)),
            None => {
                let at = self.general.partition_point(|&(p, _)| (p as usize) < i);
                Cow::Borrowed(&self.general[at].1)
            }
        }
    }

    /// Every rule as `(spec, function)`, in order.
    pub fn iter(&self) -> impl Iterator<Item = (Cow<'_, MatchSpec>, usize)> + '_ {
        (0..self.len()).map(|i| (self.spec(i), self.func(i)))
    }

    /// The general rules as `(position, spec)`, in rule order.
    pub(crate) fn general(&self) -> &[(u32, MatchSpec)] {
        &self.general
    }

    /// Append the rule `spec → func`.
    ///
    /// # Panics
    /// If `func` is 2^31 or more.
    pub fn push(&mut self, spec: MatchSpec, func: usize) {
        let word = RuleWord::new(&spec, func);
        if word.class().is_none() {
            let at = u32::try_from(self.words.len()).expect("fewer than 2^32 rules");
            self.general.push((at, spec));
        }
        self.words.push(word);
    }

    /// Remove rule `i`; later rules shift down by one.
    pub fn remove(&mut self, i: usize) {
        let removed = self.words.remove(i);
        let at = self.general.partition_point(|&(p, _)| (p as usize) < i);
        if removed.class().is_none() {
            self.general.remove(at);
        }
        for (p, _) in &mut self.general[at..] {
            *p -= 1;
        }
    }

    /// Remove every rule.
    pub fn clear(&mut self) {
        self.words.clear();
        self.general.clear();
    }

    /// Keep the first `len` rules and drop the rest.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.words.truncate(len);
        let kept = self.general.partition_point(|&(p, _)| (p as usize) < len);
        self.general.truncate(kept);
    }

    /// Make room for `additional` more rules.
    pub fn reserve(&mut self, additional: usize) {
        self.words.reserve(additional);
    }

    /// Room for rules without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.words.capacity()
    }
}

impl PartialEq for RuleList {
    fn eq(&self, other: &RuleList) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
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

/// What rule `i` of `rules` contributes to its table's digest: its spec
/// and the function it selects.
pub(super) fn rule_hash(rules: &RuleList, i: usize) -> u64 {
    let spec = match &*rules.spec(i) {
        MatchSpec::Any => 1,
        MatchSpec::Class(c) => mix(2, u64::from(c.0)),
        MatchSpec::AnyOf(cs) => cs
            .iter()
            .fold(mix(3, cs.len() as u64), |h, c| mix(h, u64::from(c.0))),
    };
    mix(spec, rules.func(i) as u64)
}

/// One match-action table, with a class→rule index so the common case —
/// single-class rules — resolves by hash lookup instead of a linear scan.
/// First-match-wins order is preserved: the index stores the *earliest*
/// rule per class, and the rule list's side list keeps the (ordered)
/// `Any`/`AnyOf` rules that still need a scan. Read-only on the data
/// path: what a lookup counts goes to a [`TableCounts`] block.
#[derive(Debug, Default)]
pub(super) struct MatchActionTable {
    pub(super) rules: RuleList,
    /// class → index of the first `MatchSpec::Class` rule for it (flat
    /// open-addressing probe, no SipHash on the per-packet path).
    class_index: FlatIndex<u32>,
    /// Digest of every prefix of `rules`, parallel to it:
    /// `prefix[i] = mix(prefix[i - 1], rule_hash(rules, i))`. The last
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

    pub(super) fn push_rule(&mut self, spec: MatchSpec, func: usize) {
        let idx = self.rules.len();
        if let MatchSpec::Class(c) = &spec {
            // first insertion wins: an earlier rule for the class keeps it
            if let Err(vacant) = self.class_index.probe(c.0) {
                self.class_index.insert(c.0, idx as u32, Some(vacant));
            }
        }
        self.rules.push(spec, func);
        self.prefix
            .push(mix(self.digest(), rule_hash(&self.rules, idx)));
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
        if let Some(c) = self.rules.words[idx].class() {
            if self.class_index.get(c.0) == Some(idx as u32) {
                self.class_index.remove(c.0);
            }
        }
        self.rules.remove(idx);
        self.prefix.truncate(idx);
        let mut h = self.digest();
        for i in idx..self.rules.len() {
            // `i` is the rule's new position; it sat at `i + 1`.
            if let Some(c) = self.rules.words[i].class() {
                match self.class_index.probe(c.0) {
                    Ok(at) if self.class_index.value(at) as usize == i + 1 => {
                        self.class_index.set(at, i as u32);
                    }
                    Ok(_) => {}
                    // only the removed rule's class can be unmapped here
                    Err(vacant) => self.class_index.insert(c.0, i as u32, Some(vacant)),
                }
            }
            h = mix(h, rule_hash(&self.rules, i));
            self.prefix.push(h);
        }
    }

    /// Keep the first `len` rules and drop the rest: their words, their
    /// place on the side list, their prefix digests and the class-index
    /// entries they hold. A class whose first rule is dropped has no rule
    /// before `len`, so its entry goes; every other entry stays as it is.
    /// Costs the shorter of the kept prefix and the dropped tail in index
    /// operations: when the tail is longer, the index is cleared and the
    /// prefix inserted again, as a rebuild would.
    pub(super) fn truncate(&mut self, len: usize) {
        let words = self.rules.words();
        if len >= words.len() {
            return;
        }
        if words.len() - len > len {
            self.class_index.clear();
            for (i, w) in words[..len].iter().enumerate() {
                if let Some(c) = w.class() {
                    if let Err(vacant) = self.class_index.probe(c.0) {
                        self.class_index.insert(c.0, i as u32, Some(vacant));
                    }
                }
            }
        } else {
            for (i, w) in words.iter().enumerate().skip(len) {
                if let Some(c) = w.class() {
                    if self.class_index.get(c.0) == Some(i as u32) {
                        self.class_index.remove(c.0);
                    }
                }
            }
        }
        self.rules.truncate(len);
        self.prefix.truncate(len);
    }

    /// First-match-wins rule lookup via the class index. Inlined (with
    /// [`MatchSpec::matches`]) into its two callers, the counting
    /// [`lookup`] and the burst loop's uncounted peek: left to itself the
    /// compiler keeps one shared copy and every `lookup` pays a call.
    #[inline]
    pub(super) fn find(&self, classes: &[u32]) -> Option<usize> {
        let mut best = usize::MAX;
        for &c in classes {
            if let Some(i) = self.class_index.get(c) {
                best = best.min(i as usize);
            }
        }
        for (at, spec) in self.rules.general() {
            let at = *at as usize;
            if at >= best {
                break; // an earlier single-class rule already won
            }
            if spec.matches(classes) {
                best = at;
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

    /// Read zero again, as a table made now would.
    pub(super) fn zero(&mut self) {
        self.totals = TableLookups::default();
        self.rule_hits.fill(RuleHits::default());
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
            Lookup::Hit(tbl.rules.func(idx))
        }
        None => {
            c.totals.missed += 1;
            Lookup::Miss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of single-class rules for `classes`, in order, each
    /// selecting function 0.
    fn table(classes: &[u32]) -> MatchActionTable {
        let mut t = MatchActionTable::default();
        for &c in classes {
            t.push_rule(MatchSpec::Class(ClassId(c)), 0);
        }
        t
    }

    /// `t` resolves every class as a table built from `classes` does, and
    /// digests equal to it.
    fn assert_rebuilt(t: &MatchActionTable, classes: &[u32]) {
        let fresh = table(classes);
        assert_eq!(t.rules, fresh.rules);
        assert_eq!(t.prefix, fresh.prefix);
        assert_eq!(t.class_index.len(), fresh.class_index.len());
        for c in 0..8 {
            assert_eq!(t.find(&[c]), fresh.find(&[c]), "class {c} in {classes:?}");
        }
    }

    /// Class 1's first rule sits in the dropped tail and the table then
    /// gets a later class-1 rule: the entry of the dropped rule must not
    /// stand in for it. Each tail length takes one of the two paths: the
    /// index loses the tail's entries, or it is cleared and refilled from
    /// the prefix.
    #[test]
    fn a_class_whose_first_rule_is_dropped_resolves_to_its_later_rule() {
        for (held, keep) in [(&[2, 4, 1, 3][..], 2), (&[2, 1, 3, 4, 5][..], 1)] {
            let mut t = table(held);
            t.truncate(keep);
            assert_rebuilt(&t, &held[..keep]);
            t.push_rule(MatchSpec::Class(ClassId(6)), 0);
            t.push_rule(MatchSpec::Class(ClassId(1)), 0);
            let mut shipped = held[..keep].to_vec();
            shipped.extend([6, 1]);
            assert_rebuilt(&t, &shipped);
            assert_eq!(t.find(&[1]), Some(keep + 1));
        }
    }

    /// A class with rules both in the kept prefix and in the dropped tail
    /// keeps its first; a class with every rule in the tail is gone.
    #[test]
    fn a_class_whose_rules_are_all_dropped_is_gone() {
        for (held, keep) in [(&[1, 2, 3, 1, 3][..], 3), (&[1, 3, 1, 3, 2][..], 1)] {
            let mut t = table(held);
            t.truncate(keep);
            assert_rebuilt(&t, &held[..keep]);
            assert_eq!(t.find(&[1]), Some(0));
            assert_eq!(t.find(&[2]).is_some(), held[..keep].contains(&2));
            assert_eq!(t.find(&[3]).is_some(), held[..keep].contains(&3));
        }
    }

    /// General rules leave the side list with their rules.
    #[test]
    fn truncating_drops_the_general_rules_behind_the_cut() {
        let mut t = table(&[1]);
        t.push_rule(MatchSpec::Any, 0);
        t.push_rule(MatchSpec::Class(ClassId(2)), 0);
        t.push_rule(MatchSpec::AnyOf(vec![ClassId(3)]), 0);
        t.truncate(2);
        assert_eq!(t.rules.general().len(), 1);
        assert_eq!(t.find(&[3]), Some(1), "the Any rule");
        t.truncate(1);
        assert!(t.rules.general().is_empty());
        assert_rebuilt(&t, &[1]);
    }
}
