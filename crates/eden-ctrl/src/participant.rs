//! The participant role of the two-phase protocol: the one answer to each
//! phase, over anything that can stage a configuration
//! ([`Participant`]).
//!
//! An [`EnclaveAgent`](crate::EnclaveAgent) plays it on its host's
//! enclave; an [`AggregatorApp`](crate::AggregatorApp) plays it towards
//! its parent on the configurations it holds for its shard (its committed
//! version and at most one staged one), so a coordinator cannot tell a
//! rack from a host by how its epochs are answered.
//!
//! Every answer is idempotent, because the fabric may duplicate messages
//! (coordinator retries reuse message ids, and a retried multi-fragment
//! message can complete reassembly twice):
//!
//! * `Prepare{e}` / `DeltaPrepare{e}` — re-staging the same epoch replaces
//!   the staging and re-acks; an epoch already *active* acks without
//!   touching anything; a *stale* epoch (below active) nacks.
//! * `Commit{e}` — committing the active epoch again acks ("already
//!   done"); an unknown epoch nacks so the coordinator knows to
//!   re-prepare.
//! * `Abort{e}` — drops a matching staged epoch, acks either way.

use eden_core::{ApplyError, Enclave, EnclaveOp};
use eden_telemetry::Span;

use crate::proto::{AckPhase, CtrlMsg, CtrlReply};

/// Most spans a single pong piggybacks. Keeps heartbeat replies inside
/// one fragment; a backlog beyond this drains via `PullTrace`.
pub const PONG_SPAN_BUDGET: usize = 16;

/// What the two phases are played on: the configuration served, and at
/// most one staged.
pub(crate) trait Participant {
    /// The `(epoch, config digest)` served.
    fn served(&self) -> (u64, u64);
    /// Validate `ops` as `epoch` and hold them ready.
    fn stage(&mut self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<(), ApplyError>;
    /// Serve the staged `epoch`: `Ok(false)` if it is not staged (and not
    /// already served with nothing staged), `Err` with why it is refused.
    fn commit(&mut self, epoch: u64) -> Result<bool, String>;
    /// Drop the staged `epoch`, if it is the one staged.
    fn abort(&mut self, epoch: u64);
}

impl Participant for Enclave {
    fn served(&self) -> (u64, u64) {
        (self.active_epoch(), self.config_digest())
    }

    fn stage(&mut self, epoch: u64, ops: Vec<EnclaveOp>) -> Result<(), ApplyError> {
        self.stage_epoch(epoch, ops)
    }

    fn commit(&mut self, epoch: u64) -> Result<bool, String> {
        Ok(self.commit_epoch(epoch))
    }

    fn abort(&mut self, epoch: u64) {
        self.abort_epoch(epoch);
    }
}

/// Answer the request `msg`, whose message id is `re`, over a host's
/// `enclave`.
pub(crate) fn answer_host(enclave: &mut Enclave, re: u32, msg: CtrlMsg) -> CtrlReply {
    match msg {
        CtrlMsg::Heartbeat { nonce } => {
            let spans = enclave.drain_spans(PONG_SPAN_BUDGET);
            pong(enclave, re, nonce, spans)
        }
        CtrlMsg::PullStats => {
            let snap = enclave.stats_snapshot();
            CtrlReply::Stats {
                re,
                epoch: enclave.active_epoch(),
                digest: enclave.config_digest(),
                captured_at_ns: snap.captured_at_ns,
                counters: snap.enclave,
                latencies: snap.latencies,
            }
        }
        CtrlMsg::PullTrace { max } => CtrlReply::Spans {
            re,
            spans: enclave.drain_spans(max as usize),
        },
        msg => answer(enclave, re, msg),
    }
}

/// Answer the request `msg`, whose message id is `re`, over `p`: the two
/// phases, and a heartbeat with a pong that carries no spans. A tier
/// answers its own requests before asking here.
pub(crate) fn answer<P: Participant>(p: &mut P, re: u32, msg: CtrlMsg) -> CtrlReply {
    let ack = |epoch, phase| CtrlReply::Ack { re, epoch, phase };
    match msg {
        CtrlMsg::Prepare { epoch, ops } => stage(p, re, epoch, None, ops),
        CtrlMsg::DeltaPrepare {
            epoch,
            base_digest,
            ops,
        } => stage(p, re, epoch, Some(base_digest), ops),
        CtrlMsg::Commit { epoch } => match p.commit(epoch) {
            Ok(true) => ack(epoch, AckPhase::Commit),
            Ok(false) => {
                let reason = format!("epoch {epoch} not prepared");
                CtrlReply::Nack { re, epoch, reason }
            }
            Err(reason) => CtrlReply::Nack { re, epoch, reason },
        },
        CtrlMsg::Abort { epoch } => {
            p.abort(epoch);
            ack(epoch, AckPhase::Abort)
        }
        CtrlMsg::Heartbeat { nonce } => pong(p, re, nonce, Vec::new()),
        // A tier's own requests: a host's agent and an aggregator answer
        // the pulls before asking here, and only an aggregator answers
        // AggSync; a plain host nacking it tells a misconfigured parent
        // immediately instead of timing out.
        CtrlMsg::AggSync { .. } | CtrlMsg::PullStats | CtrlMsg::PullTrace { .. } => {
            let (epoch, _) = p.served();
            let reason = "not an aggregator".into();
            CtrlReply::Nack { re, epoch, reason }
        }
    }
}

/// A pong of what `p` serves, carrying `spans`.
fn pong<P: Participant>(p: &P, re: u32, nonce: u64, spans: Vec<Span>) -> CtrlReply {
    let (epoch, digest) = p.served();
    CtrlReply::Pong {
        re,
        nonce,
        epoch,
        digest,
        spans,
    }
}

/// Phase one, full or — anchored at `base_digest` — as a diff: staged only
/// on a participant that still serves the configuration whose digest is
/// `base_digest`. A digest mismatch nacks like any validation error; the
/// coordinator falls back to a full `Prepare`.
fn stage<P: Participant>(
    p: &mut P,
    re: u32,
    epoch: u64,
    base_digest: Option<u64>,
    ops: Vec<EnclaveOp>,
) -> CtrlReply {
    let (active, have) = p.served();
    if epoch < active {
        let reason = format!("stale epoch {epoch} < active {active}");
        return CtrlReply::Nack { re, epoch, reason };
    }
    let staged = match base_digest {
        // Duplicate of an already-committed update.
        _ if epoch == active => Ok(()),
        Some(want) => ApplyError::check_anchor(have, want).and_then(|()| p.stage(epoch, ops)),
        None => p.stage(epoch, ops),
    };
    match staged {
        Ok(()) => CtrlReply::Ack {
            re,
            epoch,
            phase: AckPhase::Prepare,
        },
        Err(e) => CtrlReply::Nack {
            re,
            epoch,
            reason: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::{array_ops, table_ops, tables_ops};
    use crate::{AggConfig, AggregatorApp, EnclaveAgent};
    use eden_core::{EnclaveConfig, MAX_ARRAY_LEN, MAX_TABLES};

    /// The role is written once: a host's agent and an aggregator's
    /// parent face give the same reply to every step of one sequence.
    #[test]
    fn an_agent_and_an_aggregators_parent_face_answer_alike() {
        let table = table_ops(5, 0..3);
        let one_more = vec![table_ops(5, 3..4).pop().expect("the rule")];
        let anchor = {
            let mut scratch = Enclave::new(EnclaveConfig::default());
            scratch.stage_epoch(2, &table[..]).unwrap();
            assert!(scratch.commit_epoch(2));
            scratch.config_digest()
        };
        let delta = |base_digest| CtrlMsg::DeltaPrepare {
            epoch: 3,
            base_digest,
            ops: one_more.clone(),
        };
        let prepare = |epoch, ops: &[EnclaveOp]| CtrlMsg::Prepare {
            epoch,
            ops: ops.to_vec(),
        };
        // (request, "ack" or what the nack's reason must say)
        let sequence = [
            (prepare(2, &table), "ack"),
            (CtrlMsg::Commit { epoch: 2 }, "ack"),
            (prepare(1, &table), "stale epoch 1 < active 2"),
            // a duplicate prepare of the active epoch stages nothing
            (prepare(2, &one_more), "ack"),
            (CtrlMsg::Commit { epoch: 7 }, "epoch 7 not prepared"),
            (CtrlMsg::Abort { epoch: 9 }, "ack"), // of nothing
            (delta(anchor ^ 1), "digest mismatch"),
            (CtrlMsg::Commit { epoch: 3 }, "epoch 3 not prepared"),
            (delta(anchor), "ack"),
            (CtrlMsg::Commit { epoch: 3 }, "ack"),
            (CtrlMsg::Commit { epoch: 3 }, "ack"), // again
            (CtrlMsg::Heartbeat { nonce: 5 }, "pong"),
        ];

        let mut agent = EnclaveAgent::new(Enclave::new(EnclaveConfig::default()));
        let mut agg = AggregatorApp::new(AggConfig::default(), &[11]);
        for (step, (msg, want)) in sequence.into_iter().enumerate() {
            let re = step as u32 + 1;
            let from_agent = agent.handle(re, msg.clone().into(), 0).body;
            let from_agg = agg.handle_parent_msg(re, msg);
            assert_eq!(from_agent, from_agg, "step {step}");
            match (&from_agent, want) {
                (CtrlReply::Ack { .. }, "ack") => {}
                (CtrlReply::Pong { epoch: 3, .. }, "pong") => {}
                (CtrlReply::Nack { reason, .. }, _) if reason.contains(want) => {}
                other => panic!("step {step}: {other:?}"),
            }
        }
        assert_eq!(agent.enclave().staged_epoch(), None);
        assert_eq!(agg.committed_epoch(), 3);
    }

    /// An array past its cap, and a configuration past the table cap, are
    /// refused by the op check both stage with: a host and an aggregator
    /// nack them alike, and stage nothing. At the cap, both take it.
    #[test]
    fn an_op_past_a_cap_is_nacked_by_a_host_and_an_aggregator() {
        type Ops = fn(usize) -> Vec<EnclaveOp>;
        let cases: [(Ops, usize, &str); 2] = [
            (
                array_ops,
                MAX_ARRAY_LEN,
                "op 2: an array of 4097 values is too long",
            ),
            (tables_ops, MAX_TABLES, "op 65: past the cap of 64 tables"),
        ];
        for (ops, cap, why) in cases {
            let prepare = |len| CtrlMsg::Prepare {
                epoch: 1,
                ops: ops(len),
            };
            let mut agent = EnclaveAgent::new(Enclave::new(EnclaveConfig::default()));
            let mut agg = AggregatorApp::new(AggConfig::default(), &[11]);
            let from_agent = agent.handle(1, prepare(cap + 1).into(), 0).body;
            let from_agg = agg.handle_parent_msg(1, prepare(cap + 1));
            assert_eq!(from_agent, from_agg);
            let CtrlReply::Nack { reason, .. } = from_agent else {
                panic!("{from_agent:?}");
            };
            assert_eq!(reason, why);
            assert_eq!(agent.enclave().staged_epoch(), None);
            let commit = CtrlMsg::Commit { epoch: 1 };
            let not_prepared = agg.handle_parent_msg(2, commit.clone());
            assert!(matches!(not_prepared, CtrlReply::Nack { .. }));
            let from_agent = agent.handle(3, prepare(cap).into(), 0).body;
            assert_eq!(from_agent, agg.handle_parent_msg(3, prepare(cap)));
            assert!(matches!(from_agent, CtrlReply::Ack { .. }));
            assert!(matches!(
                agg.handle_parent_msg(4, commit),
                CtrlReply::Ack { .. }
            ));
            assert_eq!(agg.committed_epoch(), 1);
        }
    }
}
