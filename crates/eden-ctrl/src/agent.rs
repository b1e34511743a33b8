//! The host-side enclave agent: an [`Enclave`] wrapped with a control
//! endpoint.
//!
//! [`EnclaveAgent`] is a [`PacketHook`] that delegates the whole data path
//! to the enclave it wraps and additionally plays the
//! `participant` role on `on_ctrl`. Install it with `Stack::set_hook` +
//! `Stack::set_ctrl_port` and the host speaks both planes over the same
//! NIC.

use eden_core::Enclave;
use eden_telemetry::FlightKind;
use transport::{HookEnv, HookVerdict, PacketHook};

use crate::participant;
pub use crate::participant::PONG_SPAN_BUDGET;
use crate::proto::{self, CtrlMsg, CtrlReply, Reassembler, Request, Response};

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

    /// Handle one fully reassembled request, whose message id is `re`,
    /// received at virtual time `now_ns`. Public for direct unit testing;
    /// the wire path goes through [`PacketHook::on_ctrl`].
    ///
    /// The replication views the frame carries are applied *before* the
    /// message is answered (between packet batches by construction — the
    /// control path never runs mid-batch), and a Heartbeat's Pong carries
    /// the host's current delta for every replicated function back out:
    /// the heartbeat cadence is the sync cadence. A sampled trace context
    /// on an epoch-phase message records a span under the controller's
    /// round root, which is how one epoch update becomes one cross-host
    /// trace tree.
    pub fn handle(&mut self, re: u32, frame: Request, now_ns: u64) -> Response {
        for view in &frame.repl {
            self.enclave.apply_repl_view(view, now_ns);
        }
        let msg = frame.body;
        let (epoch, span_name) = match &msg {
            CtrlMsg::Prepare { epoch, .. } | CtrlMsg::DeltaPrepare { epoch, .. } => {
                (*epoch, Some("prepare"))
            }
            CtrlMsg::Commit { epoch } => (*epoch, Some("commit")),
            CtrlMsg::Abort { epoch } => (*epoch, Some("abort")),
            _ => (0, None),
        };
        self.enclave
            .flight_record(FlightKind::CtrlMsg, u64::from(msg.tag()), epoch);
        let reply = participant::answer(&mut self.enclave, re, msg);
        if let (Some(ctx), Some(name)) = (frame.trace.filter(|c| c.sampled), span_name) {
            // Handling is instantaneous in virtual time; the span marks
            // *when this host* processed the phase, parented under the
            // controller's round span.
            self.enclave.record_span(ctx, name, now_ns, now_ns);
        }
        let deltas = if matches!(reply, CtrlReply::Pong { .. }) {
            self.enclave
                .repl_funcs()
                .into_iter()
                .filter_map(|f| self.enclave.repl_delta(f))
                .collect()
        } else {
            Vec::new()
        };
        Response {
            repl: deltas,
            ..reply.into()
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
        // The request's message id doubles as the correlation id `re`.
        let (re, payload) = match self.reasm.accept(from, frame) {
            Ok(Some(message)) => message,
            Ok(None) | Err(_) => return Vec::new(),
        };
        let Ok(request) = Request::decode(&payload) else {
            return Vec::new();
        };
        // So is a reply too large for the wire.
        let Ok(reply) = self.handle(re, request, env.now.as_nanos()).encode() else {
            return Vec::new();
        };
        self.reply_seq = self.reply_seq.wrapping_add(1);
        proto::fragment(self.reply_seq, &reply)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::prio_epoch;
    use crate::proto::AckPhase;
    use eden_core::{EnclaveConfig, EnclaveOp, MatchSpec};
    use eden_telemetry::TraceContext;

    fn agent() -> EnclaveAgent {
        EnclaveAgent::new(Enclave::new(EnclaveConfig::default()))
    }

    /// The reply to the bare message `msg`, handled at time zero.
    fn ask(a: &mut EnclaveAgent, re: u32, msg: CtrlMsg) -> CtrlReply {
        a.handle(re, msg.into(), 0).body
    }

    /// `msg` under the trace context `ctx`, handled at `now_ns`.
    fn ask_traced(a: &mut EnclaveAgent, re: u32, msg: CtrlMsg, ctx: TraceContext, now_ns: u64) {
        let frame = Request {
            trace: Some(ctx),
            ..msg.into()
        };
        a.handle(re, frame, now_ns);
    }

    #[test]
    fn two_phase_update_through_handle() {
        let mut a = agent();
        let r = ask(
            &mut a,
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
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
        let r = ask(&mut a, 2, CtrlMsg::Commit { epoch: 1 });
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
        ask(
            &mut a,
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
        );
        ask(&mut a, 2, CtrlMsg::Commit { epoch: 1 });
        // duplicate commit: ack, nothing changes
        assert_eq!(
            ask(&mut a, 3, CtrlMsg::Commit { epoch: 1 }),
            CtrlReply::Ack {
                re: 3,
                epoch: 1,
                phase: AckPhase::Commit
            }
        );
        // duplicate prepare of the committed epoch: ack without staging
        assert_eq!(
            ask(
                &mut a,
                4,
                CtrlMsg::Prepare {
                    epoch: 1,
                    ops: prio_epoch(5)
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
            ask(
                &mut a,
                5,
                CtrlMsg::Prepare {
                    epoch: 0,
                    ops: prio_epoch(2)
                }
            ),
            CtrlReply::Nack { re: 5, .. }
        ));
        // commit of an unknown epoch: nack
        assert!(matches!(
            ask(&mut a, 6, CtrlMsg::Commit { epoch: 9 }),
            CtrlReply::Nack { re: 6, .. }
        ));
    }

    #[test]
    fn abort_discards_and_heartbeat_reports() {
        let mut a = agent();
        ask(
            &mut a,
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
        );
        assert_eq!(
            ask(&mut a, 2, CtrlMsg::Abort { epoch: 1 }),
            CtrlReply::Ack {
                re: 2,
                epoch: 1,
                phase: AckPhase::Abort
            }
        );
        assert_eq!(a.enclave().staged_epoch(), None);
        match ask(&mut a, 3, CtrlMsg::Heartbeat { nonce: 77 }) {
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
        ask_traced(
            &mut a,
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
            ctx,
            100,
        );
        ask_traced(&mut a, 2, CtrlMsg::Commit { epoch: 1 }, ctx, 200);

        let reply = ask(&mut a, 4, CtrlMsg::PullTrace { max: 16 });
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
            ask(&mut a, 5, CtrlMsg::PullTrace { max: 16 }),
            CtrlReply::Spans { spans, .. } if spans.is_empty()
        ));

        // a later traced phase rides the next pong instead
        ask_traced(&mut a, 6, CtrlMsg::Abort { epoch: 9 }, ctx, 400);
        match ask(&mut a, 7, CtrlMsg::Heartbeat { nonce: 1 }) {
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
        ask_traced(
            &mut a,
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: prio_epoch(5),
            },
            ctx,
            100,
        );
        assert!(matches!(
            ask(&mut a, 2, CtrlMsg::PullTrace { max: 16 }),
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
        match ask(&mut a, 1, CtrlMsg::Prepare { epoch: 1, ops: bad }) {
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
            ops: prio_epoch(6),
        };
        let frames = proto::fragment(42, &Request::from(msg).encode().unwrap());
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
        let (_, payload) = r.accept(1, &replies[0]).unwrap().unwrap();
        assert_eq!(
            Response::decode(&payload).unwrap().body,
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
