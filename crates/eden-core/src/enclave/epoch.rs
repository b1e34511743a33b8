//! Epoch-based configuration updates (two-phase, eden-ctrl): stage,
//! commit, abort, stage-time validation, and the structural digest.

use eden_lang::{Concurrency, Scope};
use eden_telemetry::FlightKind;

use super::link::{self, Linked};
use super::tables::{mix, mix_bytes, MatchActionTable, TableCounts, TableId};
use super::Enclave;
use crate::action::{ActionImpl, FuncId, InstalledFunction};
use crate::ops::{ApplyError, EnclaveOp};

/// A fully validated epoch awaiting commit: every op checked against the
/// shape the configuration will have at that point in the sequence, and
/// every shipped program already decoded, re-verified and linked — so
/// commit itself is infallible and atomic between packets.
pub(super) struct StagedEpoch {
    pub(super) epoch: u64,
    ops: Vec<EnclaveOp>,
    /// The `InstallFunction` ops' functions, linked, in op order.
    funcs: Vec<Linked>,
    /// Rules each table holds once the epoch has applied: what commit
    /// reserves before the first `InstallRule` lands.
    final_rules: Vec<usize>,
}

/// Shape of an enclave configuration, tracked during stage-time
/// validation: per-table rule counts and per-function (global slots,
/// array count).
struct ConfigShape {
    rules_per_table: Vec<usize>,
    funcs: Vec<(usize, usize)>,
}

impl Enclave {
    /// Configuration epoch the data path currently serves.
    pub fn active_epoch(&self) -> u64 {
        self.active_epoch
    }

    /// Epoch staged by [`stage_epoch`](Self::stage_epoch), if any.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|s| s.epoch)
    }

    /// Phase one of a two-phase update: validate `ops` as a unit and hold
    /// them ready. Nothing the data path observes changes. Every op is
    /// checked against the configuration shape it will meet at its point
    /// in the sequence, and every shipped program is decoded, re-verified
    /// and linked — any error rejects the whole epoch and leaves prior
    /// staged state untouched only if the epoch differs; restaging the
    /// same or a newer epoch replaces the previous staging (controller
    /// retries are idempotent).
    ///
    /// The ops are held until commit: a `Vec` handed over by value (the
    /// agent has just decoded it off the wire) is kept as it is, a slice
    /// is copied once.
    pub fn stage_epoch(
        &mut self,
        epoch: u64,
        ops: impl Into<Vec<EnclaveOp>>,
    ) -> Result<(), ApplyError> {
        self.stage_ops(epoch, ops.into())
    }

    fn stage_ops(&mut self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<(), ApplyError> {
        let (funcs, shape) = match self.validate_ops(&ops) {
            Ok(valid) => valid,
            Err(e) => {
                // why did this epoch not commit? — answerable from the
                // black box too, not only from the nack
                if let ApplyError::Unlinkable { error, .. } = &e {
                    self.flight_record(FlightKind::InstallRefused, epoch, error.code());
                }
                return Err(e);
            }
        };
        self.staged = Some(StagedEpoch {
            epoch,
            ops,
            funcs,
            final_rules: shape.rules_per_table,
        });
        self.flight_record(FlightKind::EpochStage, epoch, 0);
        Ok(())
    }

    /// [`stage_epoch`](Self::stage_epoch) anchored against a config
    /// digest: the delta's ops were planned as a *diff* from the
    /// configuration whose digest is `base_digest`, so they are only
    /// safe to stage if this enclave still holds exactly that
    /// configuration. On mismatch nothing changes and
    /// [`ApplyError::DigestMismatch`] is returned — the controller's cue
    /// to fall back to a full-table ship, mirroring `ReplHub`'s snapshot
    /// resync for laggards.
    pub fn stage_epoch_delta(
        &mut self,
        epoch: u64,
        base_digest: u64,
        ops: impl Into<Vec<EnclaveOp>>,
    ) -> Result<(), ApplyError> {
        let have = self.config_digest();
        if have != base_digest {
            return Err(ApplyError::DigestMismatch {
                have,
                want: base_digest,
            });
        }
        self.stage_ops(epoch, ops.into())
    }

    /// Phase two: atomically apply the staged epoch. Called between
    /// packets (the simulator's event loop never interleaves a commit
    /// with a batch), so the data path observes the old configuration for
    /// every packet before this call and the new one for every packet
    /// after — never a mix. Returns `false` when `epoch` is not the
    /// staged epoch (nothing happens); a duplicate commit of the already
    /// active epoch is reported as success.
    pub fn commit_epoch(&mut self, epoch: u64) -> bool {
        match self.staged.as_ref() {
            Some(s) if s.epoch == epoch => {}
            _ => return self.active_epoch == epoch && self.staged.is_none(),
        }
        let staged = self.staged.take().expect("matched above");
        self.active_epoch = epoch;
        let mut funcs = staged.funcs.into_iter();
        for op in staged.ops {
            self.apply_valid(op, &mut funcs, &staged.final_rules);
        }
        // A delta epoch carries no `Reset`, so tables that survive from the
        // previous configuration still wear the old epoch stamp. The commit
        // adopts them into the new epoch wholesale — the configuration was
        // validated as one unit, so `serves_single_epoch` must keep holding.
        for t in &mut self.tables {
            t.epoch = epoch;
        }
        self.flight_record(FlightKind::EpochCommit, epoch, 0);
        true
    }

    /// Abort a prepared update: discard the staged epoch if it matches.
    /// An effective abort freezes the flight recorder — a controller
    /// backing out of phase two is exactly the moment to keep the black
    /// box.
    pub fn abort_epoch(&mut self, epoch: u64) {
        if self.staged.as_ref().is_some_and(|s| s.epoch == epoch) {
            self.staged = None;
            self.flight_record(FlightKind::EpochAbort, epoch, 0);
            self.freeze_flight("epoch_abort");
        }
    }

    /// Validate and apply one op immediately, outside any epoch (local
    /// administration; the control plane goes through
    /// [`stage_epoch`](Self::stage_epoch) / [`commit_epoch`](Self::commit_epoch)).
    pub fn apply_op(&mut self, op: EnclaveOp) -> Result<(), ApplyError> {
        let (funcs, shape) = self.validate_ops(std::slice::from_ref(&op))?;
        self.apply_valid(op, &mut funcs.into_iter(), &shape.rules_per_table);
        Ok(())
    }

    /// Every table was adopted by the active epoch's commit — the
    /// invariant the two-phase protocol maintains; property-tested under
    /// loss, reordering, and partitions.
    pub fn serves_single_epoch(&self) -> bool {
        self.tables.iter().all(|t| t.epoch == self.active_epoch)
    }

    /// Digest of the *structural* configuration: how many tables, each
    /// table's rules in order (spec + function index), how many functions,
    /// each function's name, concurrency, schema, and bytecode if it is
    /// interpreted. Runtime state, counters, epoch stamps and the op
    /// sequence that built the configuration are excluded, so the digest
    /// is stable across traffic and equal for equal configurations. It is
    /// *maintained*: every table keeps the digest of its rule list current
    /// as rules come and go and every function is hashed once at install,
    /// so this call folds a few words per table and one per function. The
    /// controller compares an enclave's reported digest against a shadow
    /// enclave holding the desired configuration to detect drift.
    pub fn config_digest(&self) -> u64 {
        fold_digest(
            self.tables.iter().map(|t| (t.rules.len(), t.digest())),
            &self.func_digests,
        )
    }

    /// [`config_digest`](Self::config_digest) recomputed from the rules and
    /// functions themselves, trusting nothing that is maintained.
    #[cfg(test)]
    pub(super) fn config_digest_from_scratch(&self) -> u64 {
        let tables = self.tables.iter().map(|t| {
            let mut fresh = MatchActionTable::default();
            for r in &t.rules {
                fresh.push_rule(r.clone());
            }
            (t.rules.len(), fresh.digest())
        });
        let funcs: Vec<u64> = self.functions.iter().map(function_digest).collect();
        fold_digest(tables, &funcs)
    }

    /// Drop every table (recreating empty table 0), every function, and
    /// all function state — the anchor of a full-replacement epoch.
    fn reset_config(&mut self) {
        self.tables.clear();
        self.tables.push(MatchActionTable::new(self.active_epoch));
        self.table_counts.clear();
        self.table_counts.push(TableCounts::default());
        self.functions.clear();
        self.func_digests.clear();
        self.func_counts.clear();
        self.pkt_bindings.clear();
        self.states.clear();
        self.repl.clear();
        self.func_latency.clear();
        self.lane_safe = true;
    }

    /// Current configuration shape, the starting point for validation.
    fn shape(&self) -> ConfigShape {
        ConfigShape {
            rules_per_table: self.tables.iter().map(|t| t.rules.len()).collect(),
            funcs: self
                .functions
                .iter()
                .map(|f| (f.schema.scope_len(Scope::Global), f.schema.arrays().len()))
                .collect(),
        }
    }

    /// Check `ops` against the evolving configuration shape, and decode
    /// and link shipped programs; all-or-nothing. Returns the linked
    /// functions in op order and the shape the configuration ends in.
    fn validate_ops(&self, ops: &[EnclaveOp]) -> Result<(Vec<Linked>, ConfigShape), ApplyError> {
        let mut shape = self.shape();
        let mut decoded = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let no_table = |table: usize| ApplyError::NoSuchTable { op: i, table };
            let no_func = |func: usize| ApplyError::NoSuchFunction { op: i, func };
            match op {
                EnclaveOp::Reset => {
                    shape.rules_per_table = vec![0];
                    shape.funcs.clear();
                }
                EnclaveOp::CreateTable => shape.rules_per_table.push(0),
                EnclaveOp::ClearTable { table } => {
                    *shape
                        .rules_per_table
                        .get_mut(*table)
                        .ok_or(no_table(*table))? = 0;
                }
                EnclaveOp::InstallFunction(shipped) => {
                    let f = InstalledFunction::from_shipped(shipped).map_err(|e| {
                        ApplyError::BadBytecode {
                            op: i,
                            reason: format!("{e:?}"),
                        }
                    })?;
                    let schema = &shipped.schema;
                    let linked = link::link(f, &self.config.limits)
                        .map_err(|error| ApplyError::Unlinkable { op: i, error })?;
                    shape
                        .funcs
                        .push((schema.scope_len(Scope::Global), schema.arrays().len()));
                    decoded.push(linked);
                }
                EnclaveOp::InstallRule { table, func, .. } => {
                    let n = shape
                        .rules_per_table
                        .get_mut(*table)
                        .ok_or(no_table(*table))?;
                    if *func >= shape.funcs.len() {
                        return Err(no_func(*func));
                    }
                    *n += 1;
                }
                EnclaveOp::RemoveRule { table, rule } => {
                    let n = shape
                        .rules_per_table
                        .get_mut(*table)
                        .ok_or(no_table(*table))?;
                    if *rule >= *n {
                        return Err(ApplyError::NoSuchRule { op: i, rule: *rule });
                    }
                    *n -= 1;
                }
                EnclaveOp::SetGlobal { func, slot, .. } => {
                    let &(slots, _) = shape.funcs.get(*func).ok_or(no_func(*func))?;
                    if *slot >= slots {
                        return Err(ApplyError::NoSuchSlot { op: i, slot: *slot });
                    }
                }
                EnclaveOp::SetArray { func, array, .. } => {
                    let &(_, arrays) = shape.funcs.get(*func).ok_or(no_func(*func))?;
                    if *array >= arrays {
                        return Err(ApplyError::NoSuchArray {
                            op: i,
                            array: *array,
                        });
                    }
                }
            }
        }
        Ok((decoded, shape))
    }

    /// Apply one validated op; an `InstallFunction` takes its linked
    /// function from `funcs`. Infallible by construction: validation
    /// checked every index against the shape this op meets.
    fn apply_valid(
        &mut self,
        op: EnclaveOp,
        funcs: &mut impl Iterator<Item = Linked>,
        final_rules: &[usize],
    ) {
        match op {
            EnclaveOp::Reset => self.reset_config(),
            EnclaveOp::CreateTable => {
                self.create_table();
            }
            EnclaveOp::ClearTable { table } => self.clear_table(TableId(table)),
            EnclaveOp::InstallFunction(_) => {
                self.install_linked(funcs.next().expect("linked at validation"));
            }
            EnclaveOp::InstallRule { table, spec, func } => {
                // room for every rule the epoch leaves here, made once: a
                // Reset-led epoch grows each table in one step, not by
                // doubling
                let held = self.tables[table].rules.len();
                let room = final_rules.get(table).map_or(0, |n| n.saturating_sub(held));
                if room > self.tables[table].rules.capacity() - held {
                    self.tables[table].reserve(room);
                    self.table_counts[table].rule_hits.reserve(room);
                }
                self.install_rule(TableId(table), spec, FuncId(func));
            }
            EnclaveOp::RemoveRule { table, rule } => {
                let removed = self.remove_rule(TableId(table), rule);
                debug_assert!(removed, "validated rule index");
            }
            EnclaveOp::SetGlobal { func, slot, value } => {
                self.set_global(FuncId(func), slot, value)
            }
            EnclaveOp::SetArray {
                func,
                array,
                values,
            } => self.set_array(FuncId(func), array, values),
        }
    }
}

/// The configuration digest over what the enclave maintains: per table
/// its rule count and rule-list digest, and one digest per function.
fn fold_digest(tables: impl ExactSizeIterator<Item = (usize, u64)>, funcs: &[u64]) -> u64 {
    let mut h = mix(0, tables.len() as u64);
    for (rules, digest) in tables {
        h = mix(mix(h, rules as u64), digest);
    }
    funcs
        .iter()
        .fold(mix(h, funcs.len() as u64), |h, &f| mix(h, f))
}

/// What one installed function contributes to the configuration digest.
/// Computed once, at install: encoding the program is the costly part.
pub(super) fn function_digest(f: &InstalledFunction) -> u64 {
    let mut h = mix_bytes(0, f.name.as_bytes());
    h = mix(
        h,
        match f.concurrency {
            Concurrency::Parallel => 0,
            Concurrency::PerMessage => 1,
            Concurrency::Serialized => 2,
        },
    );
    h = mix(h, f.schema.fields().len() as u64);
    for fd in f.schema.fields() {
        h = mix(mix_bytes(h, fd.name.as_bytes()), fd.slot as u64);
    }
    h = mix(h, f.schema.arrays().len() as u64);
    for a in f.schema.arrays() {
        h = mix(mix_bytes(h, a.name.as_bytes()), a.stride() as u64);
    }
    match &f.action {
        ActionImpl::Interpreted(p) => mix_bytes(h, &eden_vm::encode_program(p)),
        ActionImpl::Native(_) => mix_bytes(h, b"<native>"),
    }
}
