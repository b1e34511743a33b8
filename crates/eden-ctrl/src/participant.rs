//! The participant role of the two-phase protocol: the one answer to each
//! request, over an [`Enclave`].
//!
//! An [`EnclaveAgent`](crate::EnclaveAgent) plays it on its host's
//! enclave; an [`AggregatorApp`](crate::AggregatorApp) plays it towards
//! its parent on a shadow enclave, so a coordinator cannot tell a rack
//! from a host by how its epochs are answered.
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

use eden_core::{Enclave, EnclaveOp};

use crate::proto::{AckPhase, CtrlMsg, CtrlReply};

/// Most spans a single pong piggybacks. Keeps heartbeat replies inside
/// one fragment; a backlog beyond this drains via `PullTrace`.
pub const PONG_SPAN_BUDGET: usize = 16;

/// Answer the request `msg`, whose message id is `re`, over `enclave`.
pub(crate) fn answer(enclave: &mut Enclave, re: u32, msg: CtrlMsg) -> CtrlReply {
    match msg {
        CtrlMsg::Prepare { epoch, ops } => stage(enclave, re, epoch, None, ops),
        CtrlMsg::DeltaPrepare {
            epoch,
            base_digest,
            ops,
        } => stage(enclave, re, epoch, Some(base_digest), ops),
        CtrlMsg::Commit { epoch } => {
            if enclave.commit_epoch(epoch) {
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Commit,
                }
            } else {
                CtrlReply::Nack {
                    re,
                    epoch,
                    reason: format!("epoch {epoch} not prepared"),
                }
            }
        }
        CtrlMsg::Abort { epoch } => {
            enclave.abort_epoch(epoch);
            CtrlReply::Ack {
                re,
                epoch,
                phase: AckPhase::Abort,
            }
        }
        CtrlMsg::Heartbeat { nonce } => CtrlReply::Pong {
            re,
            nonce,
            epoch: enclave.active_epoch(),
            digest: enclave.config_digest(),
            spans: enclave.drain_spans(PONG_SPAN_BUDGET),
        },
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
        // Only aggregators answer AggSync; a plain host nacking it
        // tells a misconfigured parent immediately instead of
        // timing out.
        CtrlMsg::AggSync { .. } => CtrlReply::Nack {
            re,
            epoch: enclave.active_epoch(),
            reason: "not an aggregator".into(),
        },
    }
}

/// Phase one, full or — anchored at `base_digest` — as a diff. A digest
/// mismatch nacks like any validation error; the coordinator falls back
/// to a full `Prepare`.
fn stage(
    enclave: &mut Enclave,
    re: u32,
    epoch: u64,
    base_digest: Option<u64>,
    ops: Vec<EnclaveOp>,
) -> CtrlReply {
    let active = enclave.active_epoch();
    if epoch < active {
        return CtrlReply::Nack {
            re,
            epoch,
            reason: format!("stale epoch {epoch} < active {active}"),
        };
    }
    let staged = if epoch == active {
        // Duplicate of an already-committed update.
        Ok(())
    } else {
        match base_digest {
            Some(digest) => enclave.stage_epoch_delta(epoch, digest, ops),
            None => enclave.stage_epoch(epoch, ops),
        }
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
    use crate::testnet::table_ops;
    use crate::{AggConfig, AggregatorApp, EnclaveAgent};
    use eden_core::EnclaveConfig;

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
}
