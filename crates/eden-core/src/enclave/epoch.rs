//! Epoch-based configuration updates (two-phase, eden-ctrl): stage,
//! commit, abort, stage-time validation, and the structural digest.

use eden_lang::Concurrency;
use eden_telemetry::FlightKind;

use super::config::{self, Shape};
use super::link::Linked;
use super::tables::{mix, mix_bytes, MatchSpec, RuleWord, TableId};
use super::Enclave;
use crate::action::{ActionImpl, FuncId, InstalledFunction};
use crate::ops::{ApplyError, EnclaveOp};

/// A fully validated epoch awaiting commit: every op checked against the
/// shape the configuration will have at that point in the sequence, and
/// every shipped program already decoded, re-verified and linked — so
/// commit itself is infallible and atomic between packets. It keeps only
/// what commit needs: a class rule is its word and its table, a shipped
/// function is the function it linked to (its bytecode is gone), and every
/// other op waits as it came.
pub(super) struct StagedEpoch {
    pub(super) epoch: u64,
    /// What to apply, in op order.
    steps: Vec<Step>,
    /// The `InstallFunction` ops' functions, linked, in op order. One row
    /// beside the steps rather than a box a function: on `ctrl-churn`,
    /// where 256 hosts stage at once, boxing each read 0.1-0.4 MB more
    /// peak resident memory.
    funcs: Vec<Linked>,
    /// One entry for each table the epoch's ops may name, made here so
    /// that commit allocates nothing for it.
    tables: Vec<TablePlan>,
}

/// What commit knows of one table.
struct TablePlan {
    /// Rules the table holds once the epoch has applied: what commit
    /// reserves before the first rule it appends.
    rules: usize,
    /// While a `Reset` holds the table: how many of its rules, from the
    /// first, the epoch has shipped again so far. [`NOT_HELD`] once
    /// nothing is held.
    kept: usize,
}

/// [`TablePlan::kept`] of a table no `Reset` holds.
const NOT_HELD: usize = usize::MAX;

/// One op of a staged epoch. 16 bytes: most of an epoch is class rules,
/// and the rest (a handful of general rules and other ops) is boxed.
enum Step {
    /// Append the class rule `word` to table `table`.
    Rule { table: u32, word: RuleWord },
    /// Install the next of [`StagedEpoch::funcs`].
    Function,
    /// Apply any other op: a general rule, or one that is neither a rule
    /// nor a function.
    Op(Box<EnclaveOp>),
}

const _: () = assert!(std::mem::size_of::<Step>() == 16);

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
    /// What commit needs of the ops is held until commit, in the staged
    /// form (`StagedEpoch`): a `Vec` handed over by value (the agent has
    /// just decoded it off the wire) is consumed, a slice is copied once.
    pub fn stage_epoch(
        &mut self,
        epoch: u64,
        ops: impl Into<Vec<EnclaveOp>>,
    ) -> Result<(), ApplyError> {
        self.stage_ops(epoch, ops.into())
    }

    fn stage_ops(&mut self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<(), ApplyError> {
        match self.validate_ops(epoch, ops) {
            Ok(staged) => {
                self.staged = Some(staged);
                self.flight_record(FlightKind::EpochStage, epoch, 0);
                Ok(())
            }
            Err(e) => {
                // why did this epoch not commit? — answerable from the
                // black box too, not only from the nack
                if let ApplyError::Unlinkable { error, .. } = &e {
                    self.flight_record(FlightKind::InstallRefused, epoch, error.code());
                }
                Err(e)
            }
        }
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
        ApplyError::check_anchor(self.config_digest(), base_digest)?;
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
        self.apply_staged(staged);
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
        let staged = self.validate_ops(self.active_epoch, vec![op])?;
        self.apply_staged(staged);
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
    /// controller compares an enclave's reported digest against the
    /// [`Config::digest`](crate::Config::digest) of the desired
    /// configuration to detect drift.
    pub fn config_digest(&self) -> u64 {
        fold_digest(
            self.tables.iter().map(|t| (t.rules.len(), t.digest())),
            self.func_digests.iter().copied(),
        )
    }

    /// Drop every function and all function state, and zero every
    /// table's counters — the anchor of a full-replacement epoch. The
    /// tables themselves stay, held for the configuration the epoch
    /// builds (`apply_staged`).
    fn reset_config(&mut self) {
        for c in &mut self.table_counts {
            c.zero();
        }
        self.functions.clear();
        self.func_digests.clear();
        self.func_counts.clear();
        self.pkt_bindings.clear();
        self.states.clear();
        self.repl.clear();
        self.func_latency.clear();
        self.lane_safe = true;
    }

    /// Check `ops` against the evolving configuration shape, decode and
    /// link shipped programs, and keep what commit needs of each op as
    /// `epoch`'s staged form; all-or-nothing.
    fn validate_ops(&self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<StagedEpoch, ApplyError> {
        let mut shape = Shape::new(
            self.tables.iter().map(|t| t.rules.len()),
            self.functions.iter().map(|f| &f.schema),
        );
        let mut staged = StagedEpoch {
            epoch,
            steps: Vec::with_capacity(ops.len()),
            funcs: Vec::new(),
            tables: Vec::new(),
        };
        // tables any op may name: the most there are at any point
        let mut tables = shape.rules.len();
        for (i, op) in ops.into_iter().enumerate() {
            shape.check(i, &op)?;
            tables = tables.max(shape.rules.len());
            let step = match op {
                EnclaveOp::InstallFunction(shipped) => {
                    // the shipped bytecode goes with the op
                    let linked = config::link_shipped(i, &shipped, &self.config.limits)?;
                    staged.funcs.push(linked);
                    Step::Function
                }
                EnclaveOp::InstallRule {
                    table,
                    spec: spec @ MatchSpec::Class(_),
                    func,
                } => Step::Rule {
                    table: u32::try_from(table).expect("a validated table index"),
                    word: RuleWord::new(&spec, func),
                },
                op => Step::Op(Box::new(op)),
            };
            staged.steps.push(step);
        }
        let rules = |t| shape.rules.get(t).copied().unwrap_or(0);
        staged.tables = (0..tables)
            .map(|t| TablePlan {
                rules: rules(t),
                kept: NOT_HELD,
            })
            .collect();
        // held until commit: a row grown by doubling holds up to twice
        // what it needs (four functions' worth for one)
        staged.funcs.shrink_to_fit();
        Ok(staged)
    }

    /// Apply a validated epoch's steps in order. Infallible by
    /// construction: validation checked every index against the shape
    /// each step meets. The one apply path, of a commit and of
    /// [`apply_op`](Self::apply_op) alike.
    ///
    /// A `Reset` keeps the tables and holds them. Table 0, and then each
    /// table a `CreateTable` makes, adopts the next held table, with a
    /// cursor at its first rule. A class rule equal to the held rule at
    /// the cursor only moves the cursor on; the first rule that differs,
    /// and any other op that names the table, truncates the table at the
    /// cursor first. At the end every table is truncated at its cursor and
    /// the held tables no `CreateTable` adopted are dropped. The result is
    /// the configuration a rebuild makes, at the cost of the rules it
    /// keeps compared and the tail that changed rebuilt.
    fn apply_staged(&mut self, staged: StagedEpoch) {
        let StagedEpoch {
            steps,
            funcs,
            mut tables,
            ..
        } = staged;
        let mut funcs = funcs.into_iter();
        // the configuration's tables; any behind them are held
        let mut adopted = self.tables.len();
        for step in steps {
            match step {
                Step::Rule { table, word } => {
                    let (table, plan) = (table as usize, &mut tables[table as usize]);
                    let held = self.tables[table].rules.words().get(plan.kept);
                    if held == Some(&word) {
                        plan.kept += 1;
                    } else {
                        let spec = MatchSpec::Class(word.class().expect("a class rule"));
                        self.install_staged_rule(table, plan, spec, word.func());
                    }
                }
                Step::Function => {
                    // room for every function still to come, made once
                    self.reserve_functions(funcs.len());
                    self.install_linked(funcs.next().expect("linked at validation"));
                }
                Step::Op(op) => match *op {
                    EnclaveOp::Reset => {
                        self.release_held(adopted, &mut tables);
                        self.reset_config();
                        adopted = 0;
                        self.adopt_table(&mut adopted, &mut tables);
                    }
                    EnclaveOp::CreateTable => self.adopt_table(&mut adopted, &mut tables),
                    op => self.apply_valid(op, &mut tables),
                },
            }
        }
        self.release_held(adopted, &mut tables);
    }

    /// Give the configuration its next table: the first held table, or a
    /// new one when none is held.
    fn adopt_table(&mut self, adopted: &mut usize, tables: &mut [TablePlan]) {
        match self.tables.get_mut(*adopted) {
            Some(t) => {
                t.epoch = self.active_epoch;
                tables[*adopted].kept = 0;
            }
            None => {
                self.create_table();
            }
        }
        *adopted += 1;
    }

    /// Stop holding `table`: drop the rules behind the ones the epoch
    /// kept, with their hit counters.
    fn cut(&mut self, table: usize, plan: &mut TablePlan) {
        if plan.kept != NOT_HELD {
            self.tables[table].truncate(plan.kept);
            self.table_counts[table].rule_hits.truncate(plan.kept);
            plan.kept = NOT_HELD;
        }
    }

    /// Cut each of the configuration's `adopted` tables, and drop the
    /// held tables behind them.
    fn release_held(&mut self, adopted: usize, tables: &mut [TablePlan]) {
        for (t, plan) in tables[..adopted].iter_mut().enumerate() {
            self.cut(t, plan);
        }
        self.tables.truncate(adopted);
        self.table_counts.truncate(adopted);
    }

    /// Append a validated rule to `table`, first cutting it and making
    /// room for every rule the epoch leaves there, once: a table grows
    /// in one step, not by doubling.
    fn install_staged_rule(
        &mut self,
        table: usize,
        plan: &mut TablePlan,
        spec: MatchSpec,
        func: usize,
    ) {
        self.cut(table, plan);
        let held = self.tables[table].rules.len();
        let room = plan.rules.saturating_sub(held);
        if room > self.tables[table].rules.capacity() - held {
            self.tables[table].reserve(room);
            self.table_counts[table].rule_hits.reserve(room);
        }
        self.install_rule(TableId(table), spec, FuncId(func));
    }

    /// Apply one validated op that was staged as it came and names no new
    /// table: a general rule, a rule removal, a table clear or a state
    /// write. An op on a table cuts it first.
    fn apply_valid(&mut self, op: EnclaveOp, tables: &mut [TablePlan]) {
        match op {
            EnclaveOp::ClearTable { table } => {
                self.cut(table, &mut tables[table]);
                self.clear_table(TableId(table));
            }
            EnclaveOp::RemoveRule { table, rule } => {
                self.cut(table, &mut tables[table]);
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
            EnclaveOp::InstallRule { table, spec, func } => {
                self.install_staged_rule(table, &mut tables[table], spec, func)
            }
            EnclaveOp::Reset | EnclaveOp::CreateTable | EnclaveOp::InstallFunction(_) => {
                unreachable!("applied by `apply_staged`")
            }
        }
    }
}

/// The configuration digest over what the enclave maintains: per table
/// its rule count and rule-list digest, and one digest per function.
pub(super) fn fold_digest(
    tables: impl ExactSizeIterator<Item = (usize, u64)>,
    funcs: impl ExactSizeIterator<Item = u64>,
) -> u64 {
    let mut h = mix(0, tables.len() as u64);
    for (rules, digest) in tables {
        h = mix(mix(h, rules as u64), digest);
    }
    let h = mix(h, funcs.len() as u64);
    funcs.fold(h, mix)
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
