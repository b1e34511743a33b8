//! The host-side enclave agent: an [`Enclave`] wrapped with a control
//! endpoint.
//!
//! [`EnclaveAgent`] is a [`PacketHook`] that delegates the whole data path
//! to the enclave it wraps and additionally answers the control protocol
//! on `on_ctrl`. Install it with `Stack::set_hook` + `Stack::set_ctrl_port`
//! and the host speaks both planes over the same NIC.
//!
//! Every handler is idempotent, because the fabric may duplicate messages
//! (controller retries reuse message ids, and a retried multi-fragment
//! message can complete reassembly twice):
//!
//! * `Prepare{e}` — re-staging the same epoch replaces the staging and
//!   re-acks; an epoch already *active* acks without touching anything; a
//!   *stale* epoch (below active) nacks.
//! * `Commit{e}` — committing the active epoch again acks ("already
//!   done"); an unknown epoch nacks so the controller knows to re-prepare.
//! * `Abort{e}` — drops a matching staged epoch, acks either way.

use eden_core::Enclave;
use eden_repl::{FuncDelta, FuncView};
use eden_telemetry::{FlightKind, TraceContext};
use transport::{HookEnv, HookVerdict, PacketHook};

use crate::proto::{self, AckPhase, CtrlMsg, CtrlReply, Reassembler};

/// Most spans a single pong piggybacks. Keeps heartbeat replies inside
/// one fragment; a backlog beyond this drains via `PullTrace`.
pub const PONG_SPAN_BUDGET: usize = 16;

/// An enclave plus the control-plane endpoint that manages it.
pub struct EnclaveAgent {
    enclave: Enclave,
    reasm: Reassembler,
    /// Message-id counter for (fragmented) replies. Replies are never
    /// retried — the *request* is — so a plain counter is enough.
    reply_seq: u32,
}

impl EnclaveAgent {
    /// Wrap `enclave` with a control endpoint.
    pub fn new(enclave: Enclave) -> EnclaveAgent {
        EnclaveAgent {
            enclave,
            reasm: Reassembler::default(),
            reply_seq: 0,
        }
    }

    /// Wrap `enclave` for the host at `addr`, stamping its spans with
    /// the address so the controller can merge them collision-free.
    pub fn new_with_addr(addr: u32, mut enclave: Enclave) -> EnclaveAgent {
        enclave.set_trace_host(addr);
        EnclaveAgent::new(enclave)
    }

    /// The wrapped enclave.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Mutable access to the wrapped enclave (tests, local inspection).
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// Handle one fully reassembled control message. Public for direct
    /// unit testing; the wire path goes through [`PacketHook::on_ctrl`].
    pub fn handle(&mut self, re: u32, msg: CtrlMsg) -> CtrlReply {
        self.handle_traced(re, msg, None, 0)
    }

    /// [`handle`](Self::handle), plus the trace context the controller
    /// appended (if any) and the virtual receive time. A sampled context
    /// on an epoch-phase message records a span under the controller's
    /// round root, which is how one epoch update becomes one cross-host
    /// trace tree.
    pub fn handle_traced(
        &mut self,
        re: u32,
        msg: CtrlMsg,
        ctx: Option<TraceContext>,
        now_ns: u64,
    ) -> CtrlReply {
        let (tag, epoch) = match &msg {
            CtrlMsg::Prepare { epoch, .. } => (1, *epoch),
            CtrlMsg::Commit { epoch } => (2, *epoch),
            CtrlMsg::Abort { epoch } => (3, *epoch),
            CtrlMsg::Heartbeat { .. } => (4, 0),
            CtrlMsg::PullStats => (5, 0),
            CtrlMsg::PullTrace { .. } => (6, 0),
            CtrlMsg::DeltaPrepare { epoch, .. } => (7, *epoch),
            CtrlMsg::AggSync { .. } => (8, 0),
        };
        self.enclave.flight_record(FlightKind::CtrlMsg, tag, epoch);
        let span_name = match &msg {
            CtrlMsg::Prepare { .. } | CtrlMsg::DeltaPrepare { .. } => Some("prepare"),
            CtrlMsg::Commit { .. } => Some("commit"),
            CtrlMsg::Abort { .. } => Some("abort"),
            _ => None,
        };
        let reply = self.dispatch(re, msg);
        if let (Some(ctx), Some(name)) = (ctx.filter(|c| c.sampled), span_name) {
            // Handling is instantaneous in virtual time; the span marks
            // *when this host* processed the phase, parented under the
            // controller's round span.
            self.enclave.record_span(ctx, name, now_ns, now_ns);
        }
        reply
    }

    /// [`handle_traced`](Self::handle_traced), plus the replication sync:
    /// the views the controller piggybacked on the message are applied
    /// *before* dispatch (between packet batches by construction — the
    /// control path never runs mid-batch), and a Heartbeat's Pong carries
    /// the host's current delta for every replicated function back out.
    /// Other replies carry no deltas; the heartbeat cadence is the sync
    /// cadence.
    pub fn handle_synced(
        &mut self,
        re: u32,
        msg: CtrlMsg,
        views: &[FuncView],
        ctx: Option<TraceContext>,
        now_ns: u64,
    ) -> (CtrlReply, Vec<FuncDelta>) {
        for view in views {
            self.enclave.apply_repl_view(view, now_ns);
        }
        let reply = self.handle_traced(re, msg, ctx, now_ns);
        let deltas = if matches!(reply, CtrlReply::Pong { .. }) {
            self.enclave
                .repl_funcs()
                .into_iter()
                .filter_map(|f| self.enclave.repl_delta(f))
                .collect()
        } else {
            Vec::new()
        };
        (reply, deltas)
    }

    fn dispatch(&mut self, re: u32, msg: CtrlMsg) -> CtrlReply {
        match msg {
            CtrlMsg::Prepare { epoch, ops } => {
                let active = self.enclave.active_epoch();
                if epoch < active {
                    return CtrlReply::Nack {
                        re,
                        epoch,
                        reason: format!("stale epoch {epoch} < active {active}"),
                    };
                }
                if epoch == active {
                    // Duplicate of an already-committed update.
                    return CtrlReply::Ack {
                        re,
                        epoch,
                        phase: AckPhase::Prepare,
                    };
                }
                match self.enclave.stage_epoch_owned(epoch, ops) {
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
            CtrlMsg::Commit { epoch } => {
                if self.enclave.commit_epoch(epoch) {
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
                self.enclave.abort_epoch(epoch);
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Abort,
                }
            }
            CtrlMsg::Heartbeat { nonce } => CtrlReply::Pong {
                re,
                nonce,
                epoch: self.enclave.active_epoch(),
                digest: self.enclave.config_digest(),
                spans: self.enclave.drain_spans(PONG_SPAN_BUDGET),
            },
            CtrlMsg::PullStats => {
                let snap = self.enclave.stats_snapshot();
                CtrlReply::Stats {
                    re,
                    epoch: self.enclave.active_epoch(),
                    digest: self.enclave.config_digest(),
                    captured_at_ns: snap.captured_at_ns,
                    counters: snap.enclave,
                    latencies: snap.latencies,
                }
            }
            CtrlMsg::PullTrace { max } => CtrlReply::Spans {
                re,
                spans: self.enclave.drain_spans(max as usize),
            },
            CtrlMsg::DeltaPrepare {
                epoch,
                base_digest,
                ops,
            } => {
                let active = self.enclave.active_epoch();
                if epoch < active {
                    return CtrlReply::Nack {
                        re,
                        epoch,
                        reason: format!("stale epoch {epoch} < active {active}"),
                    };
                }
                if epoch == active {
                    // Duplicate of an already-committed update.
                    return CtrlReply::Ack {
                        re,
                        epoch,
                        phase: AckPhase::Prepare,
                    };
                }
                // A digest mismatch nacks like any validation error; the
                // controller reads the reason and falls back to a full
                // Prepare.
                match self
                    .enclave
                    .stage_epoch_delta_owned(epoch, base_digest, ops)
                {
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
            // Only aggregators answer AggSync; a plain host nacking it
            // tells a misconfigured parent immediately instead of
            // timing out.
            CtrlMsg::AggSync { .. } => CtrlReply::Nack {
                re,
                epoch: self.enclave.active_epoch(),
                reason: "not an aggregator".into(),
            },
        }
    }
}

impl PacketHook for EnclaveAgent {
    fn on_egress(&mut self, packet: &mut netsim::Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        self.enclave.on_egress(packet, env)
    }

    fn on_egress_batch(
        &mut self,
        packets: &mut [netsim::Packet],
        env: &mut HookEnv<'_>,
        verdicts: &mut Vec<HookVerdict>,
    ) {
        self.enclave.on_egress_batch(packets, env, verdicts);
    }

    fn on_ingress(&mut self, packet: &mut netsim::Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        self.enclave.on_ingress(packet, env)
    }

    fn on_ctrl(&mut self, from: u32, frame: &[u8], env: &mut HookEnv<'_>) -> Vec<Vec<u8>> {
        // A frame that fails reassembly or decoding is simply dropped:
        // the controller's retry (same message id) recovers the exchange.
        let payload = match self.reasm.accept(from, frame) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return Vec::new(),
        };
        // The request's message id doubles as the correlation id `re`.
        let re = u32::from_le_bytes(frame[2..6].try_into().unwrap());
        let (msg, views, ctx) = match proto::decode_msg_synced(&payload) {
            Ok(decoded) => decoded,
            Err(_) => return Vec::new(),
        };
        let (reply, deltas) = self.handle_synced(re, msg, &views, ctx, env.now.as_nanos());
        self.reply_seq = self.reply_seq.wrapping_add(1);
        proto::fragment(self.reply_seq, &proto::encode_reply_synced(&reply, &deltas))
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::{EnclaveConfig, EnclaveOp, MatchSpec};
    use eden_lang::{Access, HeaderField, Schema};

    fn schema() -> Schema {
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
    }

    fn epoch_ops(prio: u8) -> Vec<EnclaveOp> {
        let controller = eden_core::Controller::new();
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        let func = controller
            .plan_function("set_prio", &source, &schema())
            .expect("compiles");
        vec![
            EnclaveOp::Reset,
            func,
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            },
        ]
    }

    fn agent() -> EnclaveAgent {
        EnclaveAgent::new(Enclave::new(EnclaveConfig::default()))
    }

    #[test]
    fn two_phase_update_through_handle() {
        let mut a = agent();
        let r = a.handle(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        assert_eq!(
            r,
            CtrlReply::Ack {
                re: 1,
                epoch: 1,
                phase: AckPhase::Prepare
            }
        );
        assert_eq!(a.enclave().active_epoch(), 0, "prepare must not activate");
        let r = a.handle(2, CtrlMsg::Commit { epoch: 1 });
        assert_eq!(
            r,
            CtrlReply::Ack {
                re: 2,
                epoch: 1,
                phase: AckPhase::Commit
            }
        );
        assert_eq!(a.enclave().active_epoch(), 1);
        assert!(a.enclave().serves_single_epoch());
    }

    #[test]
    fn duplicate_and_stale_messages_are_idempotent() {
        let mut a = agent();
        a.handle(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle(2, CtrlMsg::Commit { epoch: 1 });
        // duplicate commit: ack, nothing changes
        assert_eq!(
            a.handle(3, CtrlMsg::Commit { epoch: 1 }),
            CtrlReply::Ack {
                re: 3,
                epoch: 1,
                phase: AckPhase::Commit
            }
        );
        // duplicate prepare of the committed epoch: ack without staging
        assert_eq!(
            a.handle(
                4,
                CtrlMsg::Prepare {
                    epoch: 1,
                    ops: epoch_ops(5)
                }
            ),
            CtrlReply::Ack {
                re: 4,
                epoch: 1,
                phase: AckPhase::Prepare
            }
        );
        assert_eq!(a.enclave().staged_epoch(), None);
        // stale prepare: nack
        assert!(matches!(
            a.handle(
                5,
                CtrlMsg::Prepare {
                    epoch: 0,
                    ops: epoch_ops(2)
                }
            ),
            CtrlReply::Nack { re: 5, .. }
        ));
        // commit of an unknown epoch: nack
        assert!(matches!(
            a.handle(6, CtrlMsg::Commit { epoch: 9 }),
            CtrlReply::Nack { re: 6, .. }
        ));
    }

    #[test]
    fn abort_discards_and_heartbeat_reports() {
        let mut a = agent();
        a.handle(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        assert_eq!(
            a.handle(2, CtrlMsg::Abort { epoch: 1 }),
            CtrlReply::Ack {
                re: 2,
                epoch: 1,
                phase: AckPhase::Abort
            }
        );
        assert_eq!(a.enclave().staged_epoch(), None);
        match a.handle(3, CtrlMsg::Heartbeat { nonce: 77 }) {
            CtrlReply::Pong {
                re,
                nonce,
                epoch,
                digest,
                spans,
            } => {
                assert_eq!((re, nonce, epoch), (3, 77, 0));
                assert_eq!(digest, a.enclave().config_digest());
                assert!(spans.is_empty(), "nothing traced yet");
            }
            other => panic!("expected pong, got {other:?}"),
        }
    }

    #[test]
    fn traced_epoch_phases_record_spans_under_the_round_root() {
        let mut a = EnclaveAgent::new_with_addr(9, Enclave::new(EnclaveConfig::default()));
        let ctx = TraceContext::sampled(0x42, 0x1000);
        a.handle_traced(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
            Some(ctx),
            100,
        );
        a.handle_traced(2, CtrlMsg::Commit { epoch: 1 }, Some(ctx), 200);

        let reply = a.handle(4, CtrlMsg::PullTrace { max: 16 });
        let CtrlReply::Spans { re: 4, spans } = reply else {
            panic!("expected spans, got {reply:?}");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "prepare");
        assert_eq!(spans[1].name, "commit");
        for s in &spans {
            assert_eq!(s.trace_id, 0x42);
            assert_eq!(s.parent_span, 0x1000, "parented under the round span");
            assert_eq!(s.host, 9, "stamped with the agent's address");
            assert_eq!(s.span_id >> 40, 9, "span ids are host-namespaced");
        }
        // drained means drained
        assert!(matches!(
            a.handle(5, CtrlMsg::PullTrace { max: 16 }),
            CtrlReply::Spans { spans, .. } if spans.is_empty()
        ));

        // a later traced phase rides the next pong instead
        a.handle_traced(6, CtrlMsg::Abort { epoch: 9 }, Some(ctx), 400);
        match a.handle(7, CtrlMsg::Heartbeat { nonce: 1 }) {
            CtrlReply::Pong { spans, .. } => {
                assert_eq!(spans.len(), 1);
                assert_eq!(spans[0].name, "abort");
            }
            other => panic!("expected pong, got {other:?}"),
        }
    }

    #[test]
    fn unsampled_context_records_nothing() {
        let mut a = EnclaveAgent::new_with_addr(9, Enclave::new(EnclaveConfig::default()));
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 1,
            sampled: false,
        };
        a.handle_traced(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
            Some(ctx),
            100,
        );
        assert!(matches!(
            a.handle(2, CtrlMsg::PullTrace { max: 16 }),
            CtrlReply::Spans { spans, .. } if spans.is_empty()
        ));
    }

    #[test]
    fn invalid_ops_nack_with_reason() {
        let mut a = agent();
        let bad = vec![EnclaveOp::InstallRule {
            table: 7,
            spec: MatchSpec::Any,
            func: 0,
        }];
        match a.handle(1, CtrlMsg::Prepare { epoch: 1, ops: bad }) {
            CtrlReply::Nack {
                re: 1,
                epoch: 1,
                reason,
            } => {
                assert!(reason.contains("table"), "reason: {reason}");
            }
            other => panic!("expected nack, got {other:?}"),
        }
        assert_eq!(a.enclave().staged_epoch(), None);
    }

    #[test]
    fn wire_path_reassembles_and_replies() {
        let mut a = agent();
        let msg = CtrlMsg::Prepare {
            epoch: 1,
            ops: epoch_ops(6),
        };
        let frames = proto::fragment(42, &proto::encode_msg(&msg));
        let mut rng = netsim::SimRng::new(1);
        let mut env = HookEnv {
            now: netsim::Time::ZERO,
            rng: &mut rng,
        };
        let mut replies = Vec::new();
        for f in &frames {
            replies.extend(a.on_ctrl(9, f, &mut env));
        }
        assert_eq!(replies.len(), 1, "one reply frame after the last fragment");
        let mut r = Reassembler::default();
        let payload = r.accept(1, &replies[0]).unwrap().unwrap();
        assert_eq!(
            proto::decode_reply(&payload).unwrap(),
            CtrlReply::Ack {
                re: 42,
                epoch: 1,
                phase: AckPhase::Prepare
            }
        );
        // garbage frame: silently dropped
        assert!(a.on_ctrl(9, &[0xFF; 20], &mut env).is_empty());
    }
}
