//! Epoch-based configuration updates (two-phase, eden-ctrl): stage,
//! commit, abort, stage-time validation, and the structural digest.

use eden_lang::{Concurrency, Scope};
use eden_telemetry::FlightKind;

use super::tables::{MatchActionTable, MatchSpec, TableCounts, TableId};
use super::Enclave;
use crate::action::{ActionImpl, FuncId, InstalledFunction};
use crate::ops::{ApplyError, EnclaveOp};

/// Minimal FNV-1a, for the structural configuration digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A fully validated epoch awaiting commit: every op checked against the
/// shape the configuration will have at that point in the sequence, and
/// every shipped program already decoded and re-verified — so commit
/// itself is infallible and atomic between packets.
pub(super) struct StagedEpoch {
    pub(super) epoch: u64,
    ops: Vec<ReadyOp>,
}

/// [`EnclaveOp`] after stage-time validation (programs decoded).
enum ReadyOp {
    Reset,
    CreateTable,
    ClearTable(usize),
    InstallFunction(Box<InstalledFunction>),
    InstallRule {
        table: usize,
        spec: MatchSpec,
        func: usize,
    },
    RemoveRule {
        table: usize,
        rule: usize,
    },
    SetGlobal {
        func: usize,
        slot: usize,
        value: i64,
    },
    SetArray {
        func: usize,
        array: usize,
        values: Vec<i64>,
    },
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
    /// in the sequence, and every shipped program is decoded and
    /// re-verified — any error rejects the whole epoch and leaves prior
    /// staged state untouched only if the epoch differs; restaging the
    /// same or a newer epoch replaces the previous staging (controller
    /// retries are idempotent).
    pub fn stage_epoch(&mut self, epoch: u64, ops: &[EnclaveOp]) -> Result<(), ApplyError> {
        let ready = self.validate_ops(ops)?;
        self.staged = Some(StagedEpoch { epoch, ops: ready });
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
        ops: &[EnclaveOp],
    ) -> Result<(), ApplyError> {
        let have = self.config_digest();
        if have != base_digest {
            return Err(ApplyError::DigestMismatch {
                have,
                want: base_digest,
            });
        }
        self.stage_epoch(epoch, ops)
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
        for op in staged.ops {
            self.apply_ready(op);
        }
        // A delta epoch carries no `Reset`, so rules that survive from the
        // previous configuration still wear the old epoch stamp. The commit
        // adopts them into the new epoch wholesale — the whole table was
        // validated as one unit, so `serves_single_epoch` must keep holding.
        for t in &mut self.tables {
            for r in &mut t.rules {
                r.epoch = epoch;
            }
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
        let mut ready = self.validate_ops(std::slice::from_ref(&op))?;
        self.apply_ready(ready.remove(0));
        Ok(())
    }

    /// Every rule in every table was installed under the active epoch —
    /// the invariant the two-phase protocol maintains; property-tested
    /// under loss, reordering, and partitions.
    pub fn serves_single_epoch(&self) -> bool {
        self.tables
            .iter()
            .flat_map(|t| t.rules.iter())
            .all(|r| r.epoch == self.active_epoch)
    }

    /// FNV-1a digest of the *structural* configuration: tables and rules
    /// (spec + function index), installed functions (name, concurrency,
    /// schema, and bytecode for interpreted functions). Runtime state and
    /// counters are excluded, so the digest is stable across traffic. The
    /// controller compares an enclave's reported digest against a shadow
    /// enclave holding the desired configuration to detect drift.
    pub fn config_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_usize(self.tables.len());
        for t in &self.tables {
            h.write_usize(t.rules.len());
            for r in &t.rules {
                match &r.spec {
                    MatchSpec::Any => h.write_u64(1),
                    MatchSpec::Class(c) => {
                        h.write_u64(2);
                        h.write_u64(u64::from(c.0));
                    }
                    MatchSpec::AnyOf(cs) => {
                        h.write_u64(3);
                        h.write_usize(cs.len());
                        for c in cs {
                            h.write_u64(u64::from(c.0));
                        }
                    }
                }
                h.write_usize(r.func.0);
            }
        }
        h.write_usize(self.functions.len());
        for f in &self.functions {
            h.write_bytes(f.name.as_bytes());
            h.write_u64(match f.concurrency {
                Concurrency::Parallel => 0,
                Concurrency::PerMessage => 1,
                Concurrency::Serialized => 2,
            });
            h.write_usize(f.schema.fields().len());
            for fd in f.schema.fields() {
                h.write_bytes(fd.name.as_bytes());
                h.write_u64(fd.slot as u64);
            }
            h.write_usize(f.schema.arrays().len());
            for a in f.schema.arrays() {
                h.write_bytes(a.name.as_bytes());
                h.write_usize(a.stride());
            }
            match &f.action {
                ActionImpl::Interpreted(p) => h.write_bytes(&eden_vm::encode_program(p)),
                ActionImpl::Native(_) => h.write_bytes(b"<native>"),
            }
        }
        h.finish()
    }

    /// Drop every table (recreating empty table 0), every function, and
    /// all function state — the anchor of a full-replacement epoch.
    fn reset_config(&mut self) {
        self.tables.clear();
        self.tables.push(MatchActionTable::default());
        self.table_counts.clear();
        self.table_counts.push(TableCounts::default());
        self.functions.clear();
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

    /// Check `ops` against the evolving configuration shape and decode
    /// shipped programs; all-or-nothing.
    fn validate_ops(&self, ops: &[EnclaveOp]) -> Result<Vec<ReadyOp>, ApplyError> {
        let mut shape = self.shape();
        let mut ready = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let r =
                match op {
                    EnclaveOp::Reset => {
                        shape.rules_per_table = vec![0];
                        shape.funcs.clear();
                        ReadyOp::Reset
                    }
                    EnclaveOp::CreateTable => {
                        shape.rules_per_table.push(0);
                        ReadyOp::CreateTable
                    }
                    EnclaveOp::ClearTable { table } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        *n = 0;
                        ReadyOp::ClearTable(*table)
                    }
                    EnclaveOp::InstallFunction {
                        name,
                        bytecode,
                        schema,
                        concurrency,
                    } => {
                        let f = InstalledFunction::from_shipped(
                            name,
                            bytecode,
                            schema.clone(),
                            *concurrency,
                        )
                        .map_err(|e| ApplyError::BadBytecode {
                            op: i,
                            reason: format!("{e:?}"),
                        })?;
                        shape
                            .funcs
                            .push((schema.scope_len(Scope::Global), schema.arrays().len()));
                        ReadyOp::InstallFunction(Box::new(f))
                    }
                    EnclaveOp::InstallRule { table, spec, func } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        if *func >= shape.funcs.len() {
                            return Err(ApplyError::NoSuchFunction { op: i, func: *func });
                        }
                        *n += 1;
                        ReadyOp::InstallRule {
                            table: *table,
                            spec: spec.clone(),
                            func: *func,
                        }
                    }
                    EnclaveOp::RemoveRule { table, rule } => {
                        let n = shape.rules_per_table.get_mut(*table).ok_or(
                            ApplyError::NoSuchTable {
                                op: i,
                                table: *table,
                            },
                        )?;
                        if *rule >= *n {
                            return Err(ApplyError::NoSuchRule { op: i, rule: *rule });
                        }
                        *n -= 1;
                        ReadyOp::RemoveRule {
                            table: *table,
                            rule: *rule,
                        }
                    }
                    EnclaveOp::SetGlobal { func, slot, value } => {
                        let &(slots, _) = shape
                            .funcs
                            .get(*func)
                            .ok_or(ApplyError::NoSuchFunction { op: i, func: *func })?;
                        if *slot >= slots {
                            return Err(ApplyError::NoSuchSlot { op: i, slot: *slot });
                        }
                        ReadyOp::SetGlobal {
                            func: *func,
                            slot: *slot,
                            value: *value,
                        }
                    }
                    EnclaveOp::SetArray {
                        func,
                        array,
                        values,
                    } => {
                        let &(_, arrays) = shape
                            .funcs
                            .get(*func)
                            .ok_or(ApplyError::NoSuchFunction { op: i, func: *func })?;
                        if *array >= arrays {
                            return Err(ApplyError::NoSuchArray {
                                op: i,
                                array: *array,
                            });
                        }
                        ReadyOp::SetArray {
                            func: *func,
                            array: *array,
                            values: values.clone(),
                        }
                    }
                };
            ready.push(r);
        }
        Ok(ready)
    }

    /// Apply one validated op. Infallible by construction: validation
    /// checked every index against the shape this op meets.
    fn apply_ready(&mut self, op: ReadyOp) {
        match op {
            ReadyOp::Reset => self.reset_config(),
            ReadyOp::CreateTable => {
                self.create_table();
            }
            ReadyOp::ClearTable(t) => self.clear_table(TableId(t)),
            ReadyOp::InstallFunction(f) => {
                self.install_function(*f);
            }
            ReadyOp::InstallRule { table, spec, func } => {
                self.install_rule(TableId(table), spec, FuncId(func));
            }
            ReadyOp::RemoveRule { table, rule } => {
                let removed = self.remove_rule(TableId(table), rule);
                debug_assert!(removed, "validated rule index");
            }
            ReadyOp::SetGlobal { func, slot, value } => self.set_global(FuncId(func), slot, value),
            ReadyOp::SetArray {
                func,
                array,
                values,
            } => self.set_array(FuncId(func), array, values),
        }
    }
}
