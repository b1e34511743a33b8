//! Controller-side replication hub.
//!
//! The hub is the rendezvous for every host's sync: it keeps each host's
//! merged contributions, assigns the single global order for sequenced
//! writes, fans per-host views back out (each host receives the merged
//! contribution of every *other* host, never its own), and runs the
//! anti-entropy digest check that flags replicas which stopped
//! converging.

use std::collections::{BTreeMap, VecDeque};

use crate::spec::ReplSpec;
use crate::sync::{FuncDelta, FuncView, SeqEntry, SeqSnapshot, SeqTarget};
use crate::{merged_read, state_digest, ReplMode};

/// Sequenced entries retained for ordered catch-up. A host lagging more
/// than this many entries (a long partition) is resynced from an absolute
/// snapshot instead.
pub const SEQ_RETAIN_CAP: usize = 4096;

/// Consecutive anti-entropy rounds a host may report a *stable but wrong*
/// digest before it is declared divergent. Transient mismatches are
/// normal — a delta races the view that would fix it — but a host whose
/// digest stopped moving and still disagrees has a replication bug.
pub const DIVERGENCE_ROUNDS: u32 = 3;

#[derive(Debug, Clone)]
struct HostState {
    merged: Vec<i64>,
    merged_arrays: Vec<Vec<i64>>,
    /// Ops with id ≤ this are already sequenced (retransmit dedup).
    max_op: u64,
    /// Host has applied sequenced entries through this position.
    acked_seq: u64,
    last_digest: u64,
    mismatch_rounds: u32,
    divergent: bool,
    last_seen_ns: u64,
}

impl HostState {
    fn new(spec: &ReplSpec) -> HostState {
        HostState {
            merged: vec![0; spec.global_len()],
            merged_arrays: vec![Vec::new(); spec.array_len()],
            max_op: 0,
            acked_seq: 0,
            last_digest: 0,
            mismatch_rounds: 0,
            divergent: false,
            last_seen_ns: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct FuncHub {
    spec: ReplSpec,
    hosts: Vec<(u32, HostState)>,
    /// Next global sequence number to assign (first entry gets 1).
    next_seq: u64,
    log: VecDeque<SeqEntry>,
    /// Entries with seq ≤ base_seq have been compacted into the
    /// authoritative applied state below.
    base_seq: u64,
    /// Sequenced globals as of `base_seq` (the snapshot a laggard adopts
    /// before replaying the retained tail).
    seq_globals: Vec<i64>,
    /// Which sequenced slots were ever written (keeps snapshots sparse).
    seq_written: Vec<bool>,
    /// Sequenced array cells as of `base_seq`, sparse.
    seq_cells: BTreeMap<(u8, u32), i64>,
    version: u64,
}

impl FuncHub {
    fn new(spec: ReplSpec) -> FuncHub {
        let n = spec.global_len();
        FuncHub {
            spec,
            hosts: Vec::new(),
            next_seq: 1,
            log: VecDeque::new(),
            base_seq: 0,
            seq_globals: vec![0; n],
            seq_written: vec![false; n],
            seq_cells: BTreeMap::new(),
            version: 0,
        }
    }

    fn host_mut(&mut self, host: u32) -> &mut HostState {
        if let Some(pos) = self.hosts.iter().position(|(h, _)| *h == host) {
            return &mut self.hosts[pos].1;
        }
        self.hosts.push((host, HostState::new(&self.spec)));
        &mut self.hosts.last_mut().expect("just pushed").1
    }

    /// Fleet-wide merged total for `slot`, optionally excluding one host.
    fn merged_total(&self, slot: usize, mode: ReplMode, exclude: Option<u32>) -> i64 {
        let mut acc = 0i64;
        for (h, hs) in &self.hosts {
            if Some(*h) == exclude {
                continue;
            }
            let c = hs.merged.get(slot).copied().unwrap_or(0);
            acc = merged_read(mode, acc, c);
        }
        acc
    }

    /// Fleet-wide merged array for `id`, optionally excluding one host.
    /// Length is the longest contribution seen.
    fn merged_array_total(&self, id: usize, mode: ReplMode, exclude: Option<u32>) -> Vec<i64> {
        let mut acc: Vec<i64> = Vec::new();
        for (h, hs) in &self.hosts {
            if Some(*h) == exclude {
                continue;
            }
            let c = hs.merged_arrays.get(id).map_or(&[][..], Vec::as_slice);
            if c.len() > acc.len() {
                acc.resize(c.len(), 0);
            }
            for (i, &v) in c.iter().enumerate() {
                acc[i] = merged_read(mode, acc[i], v);
            }
        }
        acc
    }

    /// Digest of the fleet state as a host holding `applied_seq` should
    /// see it — the anti-entropy expectation.
    fn expected_digest(&self, applied_seq: u64) -> u64 {
        let totals: Vec<i64> = self
            .spec
            .merged_slots()
            .map(|(slot, mode)| self.merged_total(slot, mode, None))
            .collect();
        let arrays: Vec<Vec<i64>> = self
            .spec
            .merged_arrays()
            .map(|(id, mode)| self.merged_array_total(id, mode, None))
            .collect();
        state_digest(totals, arrays.iter().map(Vec::as_slice), applied_seq)
    }

    fn apply_authoritative(&mut self, target: SeqTarget, value: i64) {
        match target {
            SeqTarget::Global { slot } => {
                if let Some(g) = self.seq_globals.get_mut(slot as usize) {
                    *g = value;
                    self.seq_written[slot as usize] = true;
                }
            }
            SeqTarget::Array { id, index } => {
                if self.spec.array_mode(id as usize) == Some(ReplMode::Sequenced) {
                    self.seq_cells.insert((id, index), value);
                }
            }
        }
    }

    fn snapshot(&self) -> SeqSnapshot {
        SeqSnapshot {
            seq: self.base_seq,
            globals: self
                .seq_written
                .iter()
                .enumerate()
                .filter(|(_, &w)| w)
                .map(|(slot, _)| (slot as u8, self.seq_globals[slot]))
                .collect(),
            cells: self
                .seq_cells
                .iter()
                .map(|(&(id, index), &v)| (id, index, v))
                .collect(),
        }
    }
}

/// Summary of per-host replication health, for ClusterStats and the
/// flight recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubReport {
    /// `(host, lag_ns, divergent)` — lag is time since the host's last
    /// delta; divergent hosts failed [`DIVERGENCE_ROUNDS`] anti-entropy
    /// rounds with a stable digest.
    pub hosts: Vec<(u32, u64, bool)>,
    /// Sequenced entries currently retained for catch-up.
    pub retained_entries: usize,
}

/// The controller's replication state across all installed functions.
#[derive(Debug, Clone, Default)]
pub struct ReplHub {
    funcs: Vec<Option<FuncHub>>,
}

impl ReplHub {
    pub fn new() -> ReplHub {
        ReplHub::default()
    }

    /// Register function `func`'s replication layout (controller learns
    /// it when planning the epoch). Re-installing the same spec keeps
    /// accumulated state — epochs re-push configuration idempotently;
    /// installing a *different* spec resets the function's state.
    pub fn install(&mut self, func: usize, spec: ReplSpec) {
        if spec.is_empty() {
            if func < self.funcs.len() {
                self.funcs[func] = None;
            }
            return;
        }
        if self.funcs.len() <= func {
            self.funcs.resize(func + 1, None);
        }
        match &self.funcs[func] {
            Some(hub) if hub.spec == spec => {}
            _ => self.funcs[func] = Some(FuncHub::new(spec)),
        }
    }

    /// Drop everything (controller-side `Reset`).
    pub fn reset(&mut self) {
        self.funcs.clear();
    }

    /// Ingest one host's delta for one function. Idempotent under
    /// retransmission: contributions are absolute, sequenced ops dedup by
    /// op id. Unknown functions are ignored (stale delta racing an epoch
    /// change).
    pub fn ingest(&mut self, host: u32, now_ns: u64, delta: &FuncDelta) {
        let Some(Some(hub)) = self.funcs.get_mut(delta.func as usize) else {
            return;
        };
        let spec = hub.spec.clone();
        let mut changed = false;

        {
            let hs = hub.host_mut(host);
            hs.last_seen_ns = now_ns;
            for &(slot, v) in &delta.merged {
                let slot = slot as usize;
                if spec.global_mode(slot).is_some() {
                    if let Some(c) = hs.merged.get_mut(slot) {
                        if *c != v {
                            *c = v;
                            changed = true;
                        }
                    }
                }
            }
            for (id, vals) in &delta.merged_arrays {
                let id = *id as usize;
                if spec.array_mode(id).is_none() {
                    continue;
                }
                if let Some(c) = hs.merged_arrays.get_mut(id) {
                    if c != vals {
                        *c = vals.clone();
                        changed = true;
                    }
                }
            }
            if delta.applied_seq > hs.acked_seq {
                hs.acked_seq = delta.applied_seq;
            }
        }

        // Sequence the new ops in the host's issue order.
        let prev_max = hub
            .hosts
            .iter()
            .find(|(h, _)| *h == host)
            .map(|(_, hs)| hs.max_op)
            .unwrap_or(0);
        for op in &delta.seq_ops {
            if op.op_id <= prev_max {
                continue; // retransmission of an already-sequenced op
            }
            let seq = hub.next_seq;
            hub.next_seq += 1;
            hub.log.push_back(SeqEntry { seq, host, op: *op });
            // Compact overflow into the base state: the snapshot is the
            // state *at* base_seq, and the retained tail replays on top.
            while hub.log.len() > SEQ_RETAIN_CAP {
                let e = hub.log.pop_front().expect("non-empty");
                hub.base_seq = e.seq;
                hub.apply_authoritative(e.op.target, e.op.value);
            }
            hub.host_mut(host).max_op = op.op_id;
            changed = true;
        }

        if changed {
            hub.version += 1;
        }

        // Anti-entropy: compare the host's reported digest against what a
        // fully synced replica at its applied position would report.
        let expected = hub.expected_digest(delta.applied_seq);
        let hs = hub.host_mut(host);
        if delta.digest == expected {
            hs.mismatch_rounds = 0;
            hs.divergent = false;
        } else if delta.digest == hs.last_digest {
            // stable and wrong — counting toward divergence
            hs.mismatch_rounds += 1;
            if hs.mismatch_rounds >= DIVERGENCE_ROUNDS {
                hs.divergent = true;
            }
        } else {
            hs.mismatch_rounds = 1;
        }
        hs.last_digest = delta.digest;
    }

    /// Build the view to piggyback on the next message to `host`. `None`
    /// when the function has no replicated state.
    pub fn view_for(&mut self, host: u32, func: usize) -> Option<FuncView> {
        let hub = self.funcs.get_mut(func)?.as_mut()?;
        let spec = hub.spec.clone();
        // Make sure the host exists so a brand-new host gets a view
        // before its first delta arrives.
        let (acked_seq, max_op, divergent) = {
            let hs = hub.host_mut(host);
            (hs.acked_seq, hs.max_op, hs.divergent)
        };
        let remote: Vec<(u8, i64)> = spec
            .merged_slots()
            .map(|(slot, mode)| (slot as u8, hub.merged_total(slot, mode, Some(host))))
            .collect();
        let remote_arrays: Vec<(u8, Vec<i64>)> = spec
            .merged_arrays()
            .map(|(id, mode)| (id as u8, hub.merged_array_total(id, mode, Some(host))))
            .collect();
        let (snapshot, from_seq) = if acked_seq < hub.base_seq {
            (Some(hub.snapshot()), hub.base_seq)
        } else {
            (None, acked_seq)
        };
        let entries: Vec<SeqEntry> = hub
            .log
            .iter()
            .filter(|e| e.seq > from_seq)
            .copied()
            .collect();
        Some(FuncView {
            func: func as u32,
            version: hub.version,
            remote,
            remote_arrays,
            snapshot,
            entries,
            acked_op_id: max_op,
            digest: hub.expected_digest(hub.next_seq - 1),
            divergent,
        })
    }

    /// Function indices with replicated state, ascending.
    pub fn active_funcs(&self) -> Vec<usize> {
        self.funcs
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| i))
            .collect()
    }

    /// Fleet-wide merged total of `(func, slot)` — what a fully synced
    /// read would return anywhere.
    pub fn merged_total(&self, func: usize, slot: usize) -> i64 {
        let Some(Some(hub)) = self.funcs.get(func) else {
            return 0;
        };
        match hub.spec.global_mode(slot) {
            Some(mode @ (ReplMode::MergedSum | ReplMode::MergedMax)) => {
                hub.merged_total(slot, mode, None)
            }
            _ => 0,
        }
    }

    /// Highest sequenced position assigned for `func`.
    pub fn seq_head(&self, func: usize) -> u64 {
        self.funcs
            .get(func)
            .and_then(Option::as_ref)
            .map_or(0, |h| h.next_seq - 1)
    }

    /// Per-host health summary across all functions: worst lag and any
    /// divergence flag.
    pub fn report(&self, now_ns: u64) -> HubReport {
        let mut hosts: Vec<(u32, u64, bool)> = Vec::new();
        let mut retained = 0;
        for hub in self.funcs.iter().flatten() {
            retained += hub.log.len();
            for (h, hs) in &hub.hosts {
                let lag = now_ns.saturating_sub(hs.last_seen_ns);
                match hosts.iter_mut().find(|(x, _, _)| x == h) {
                    Some(row) => {
                        row.1 = row.1.max(lag);
                        row.2 |= hs.divergent;
                    }
                    None => hosts.push((*h, lag, hs.divergent)),
                }
            }
        }
        hosts.sort_by_key(|&(h, _, _)| h);
        HubReport {
            hosts,
            retained_entries: retained,
        }
    }

    /// Hosts currently flagged divergent.
    pub fn divergent_hosts(&self) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for hub in self.funcs.iter().flatten() {
            for (h, hs) in &hub.hosts {
                if hs.divergent && !out.contains(h) {
                    out.push(*h);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostRepl;
    use crate::sync::SeqOp;
    use eden_lang::{Access, Schema};

    fn spec() -> ReplSpec {
        ReplSpec::from_schema(
            &Schema::new()
                .global_field("Tokens", Access::ReadWrite)
                .replicated(ReplMode::MergedSum)
                .global_field("Hi", Access::ReadWrite)
                .replicated(ReplMode::MergedMax)
                .global_field("Steer", Access::ReadWrite)
                .replicated(ReplMode::Sequenced),
        )
    }

    fn delta(func: u32, merged: Vec<(u8, i64)>, ops: Vec<SeqOp>, applied: u64) -> FuncDelta {
        FuncDelta {
            func,
            merged,
            merged_arrays: Vec::new(),
            seq_ops: ops,
            applied_seq: applied,
            digest: 0,
        }
    }

    #[test]
    fn merged_contributions_sum_and_max() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        hub.ingest(1, 10, &delta(0, vec![(0, 5), (1, 30)], vec![], 0));
        hub.ingest(2, 11, &delta(0, vec![(0, 7), (1, 90)], vec![], 0));
        assert_eq!(hub.merged_total(0, 0), 12);
        assert_eq!(hub.merged_total(0, 1), 90);
        // view for host 1 excludes host 1's own contribution
        let v = hub.view_for(1, 0).unwrap();
        assert_eq!(v.remote, vec![(0, 7), (1, 90)]);
        let v2 = hub.view_for(2, 0).unwrap();
        assert_eq!(v2.remote, vec![(0, 5), (1, 30)]);
    }

    #[test]
    fn ingest_is_idempotent_and_order_independent() {
        let d1 = delta(0, vec![(0, 5)], vec![], 0);
        let d2 = delta(0, vec![(0, 7)], vec![], 0);
        let mut a = ReplHub::new();
        a.install(0, spec());
        a.ingest(1, 0, &d1);
        a.ingest(2, 0, &d2);
        a.ingest(1, 0, &d1); // duplicate
        let mut b = ReplHub::new();
        b.install(0, spec());
        b.ingest(2, 0, &d2);
        b.ingest(1, 0, &d1);
        assert_eq!(a.merged_total(0, 0), b.merged_total(0, 0));
        assert_eq!(a.merged_total(0, 0), 12);
    }

    #[test]
    fn sequenced_ops_get_one_global_order_with_retransmit_dedup() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        let op = |op_id, value| SeqOp {
            op_id,
            target: SeqTarget::Global { slot: 2 },
            value,
        };
        hub.ingest(1, 0, &delta(0, vec![], vec![op(1, 10)], 0));
        hub.ingest(2, 0, &delta(0, vec![], vec![op(1, 20)], 0));
        // host 1 retransmits op 1 (unacked) plus a new op 2
        hub.ingest(1, 0, &delta(0, vec![], vec![op(1, 10), op(2, 30)], 0));
        assert_eq!(hub.seq_head(0), 3, "three distinct ops sequenced");
        let v = hub.view_for(3, 0).unwrap();
        let order: Vec<(u64, u32, i64)> = v
            .entries
            .iter()
            .map(|e| (e.seq, e.host, e.op.value))
            .collect();
        assert_eq!(order, vec![(1, 1, 10), (2, 2, 20), (3, 1, 30)]);
    }

    #[test]
    fn laggard_host_gets_snapshot_resync() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        // enough ops from host 1 to overflow the retained log
        let n = SEQ_RETAIN_CAP + 10;
        let ops: Vec<SeqOp> = (1..=n as u64)
            .map(|op_id| SeqOp {
                op_id,
                target: SeqTarget::Global { slot: 2 },
                value: op_id as i64,
            })
            .collect();
        hub.ingest(1, 0, &delta(0, vec![], ops, 0));
        // host 2 never applied anything — behind the pruned base
        let v = hub.view_for(2, 0).unwrap();
        let snap = v.snapshot.clone().expect("resync snapshot");
        assert_eq!(snap.seq as usize, n - SEQ_RETAIN_CAP);
        assert_eq!(snap.globals, vec![(2, snap.seq as i64)]);
        assert_eq!(v.entries.len(), SEQ_RETAIN_CAP);
        // a HostRepl that applies it lands exactly at the head
        let mut h = HostRepl::new(spec(), &[]);
        let mut last = 0;
        h.apply_view(&v, 0, |_, v| last = v);
        assert_eq!(h.applied_seq(), n as u64);
        assert_eq!(last, n as i64);
        assert_eq!(h.resyncs(), 1);
    }

    #[test]
    fn divergence_flags_stable_wrong_digest_only() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        let mut good = delta(0, vec![(0, 5)], vec![], 0);
        // an honest host computes the digest a synced replica would
        let h = HostRepl::new(spec(), &[]);
        // ingest once so the hub knows the contribution, then compute
        hub.ingest(1, 0, &good);
        good.digest = h.digest(&[5, 0, 0], &[]);
        hub.ingest(1, 0, &good);
        assert!(hub.divergent_hosts().is_empty());

        // a corrupted host: same wrong digest, round after round
        let bad = FuncDelta {
            digest: 0xBAD,
            ..delta(0, vec![(0, 5)], vec![], 0)
        };
        for _ in 0..DIVERGENCE_ROUNDS {
            hub.ingest(1, 0, &bad);
        }
        assert_eq!(hub.divergent_hosts(), vec![1]);
        // converging again clears the flag
        good.digest = {
            let h = HostRepl::new(spec(), &[]);
            h.digest(&[5, 0, 0], &[])
        };
        hub.ingest(1, 0, &good);
        assert!(hub.divergent_hosts().is_empty());
    }

    #[test]
    fn report_tracks_lag_and_retained_entries() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        hub.ingest(1, 100, &delta(0, vec![(0, 1)], vec![], 0));
        hub.ingest(
            2,
            250,
            &delta(
                0,
                vec![],
                vec![SeqOp {
                    op_id: 1,
                    target: SeqTarget::Global { slot: 2 },
                    value: 9,
                }],
                0,
            ),
        );
        let r = hub.report(300);
        assert_eq!(r.hosts.len(), 2);
        assert_eq!(r.hosts[0], (1, 200, false));
        assert_eq!(r.hosts[1], (2, 50, false));
        assert_eq!(r.retained_entries, 1);
    }

    #[test]
    fn reinstall_same_spec_keeps_state_new_spec_resets() {
        let mut hub = ReplHub::new();
        hub.install(0, spec());
        hub.ingest(1, 0, &delta(0, vec![(0, 5)], vec![], 0));
        hub.install(0, spec()); // same layout: epoch re-push
        assert_eq!(hub.merged_total(0, 0), 5);
        let other = ReplSpec::from_schema(
            &Schema::new()
                .global_field("X", Access::ReadWrite)
                .replicated(ReplMode::MergedSum),
        );
        hub.install(0, other);
        assert_eq!(hub.merged_total(0, 0), 0);
    }
}
