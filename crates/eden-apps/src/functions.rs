//! The network-function library: the paper's Table 1 as a scenario matrix,
//! every function in two semantically identical forms:
//!
//! * **DSL source** — compiled by the controller and interpreted in the
//!   enclave (the paper's "Eden" arm); stateful NFs are declared as
//!   [`eden_lang::xfsm`] machines and lowered to source;
//! * **native closure** — the same logic hard-coded in Rust (the paper's
//!   "native" arm, §5.1).
//!
//! Each [`FunctionBundle`] carries both plus the schema (Figure 8-style
//! annotations) they share. The unit tests at the bottom drive every bundle
//! with randomized packet streams and assert the two arms agree bit for
//! bit — the precondition for the evaluation's overhead comparisons.
//!
//! ## Table 1 coverage
//!
//! | Table 1 scenario                    | Bundle(s)                          | Status |
//! |-------------------------------------|------------------------------------|--------|
//! | Load balancing (Ananta L4 LB)       | `l4lb`, `conn-steer`               | supported |
//! | Load balancing (WCMP/ECMP)          | `wcmp`, `message-wcmp`             | supported |
//! | Path selection (CONGA/Duet DRE)     | `conga`                            | supported |
//! | Replica selection (mcrouter/SINBAD) | `replica-select`                   | supported |
//! | Flow scheduling (PIAS)              | `pias`, `pias-fig7`                | supported |
//! | Flow scheduling (SFF)               | `sff`                              | supported |
//! | Flow scheduling (QJump)             | `qjump`                            | supported |
//! | Network QoS (fixed classes)         | `fixed-priority`                   | supported |
//! | Rate control (Pulsar)               | `pulsar`, `dist-rate-limit`        | supported |
//! | Rate control (explicit windows)     | `rate-limit`                       | supported |
//! | Stateful firewall / conn tracking   | `conntrack`, `stateful-firewall`   | supported |
//! | IDS (signature scoring)             | `ids`                              | supported |
//! | Port knocking (OpenState)           | `port-knock`                       | supported |
//! | Telemetry / flow counters           | `flow-counter`                     | supported |
//! | Deep packet inspection (payload)    | —                                  | missing: the VM sees header fields and metadata only, no payload bytes |
//! | TCP offload / transport rewrite     | —                                  | missing: needs segment-level rewrite below the enclave hook |

use eden_core::{InstalledFunction, NativeEnv, NativeFn};
use eden_lang::xfsm::{arr, arr_field, arr_len, glob, lit, local, msg, now, pkt};
use eden_lang::{compile, Access, Concurrency, HeaderField, ReplMode, Schema};
use eden_lang::{Helper, XAction, XBin, XState, Xfsm};
use eden_vm::{Outcome, VmError};

/// One catalogue entry: a network function in both execution forms.
pub struct FunctionBundle {
    /// Short identifier, e.g. `"pias"`.
    pub name: &'static str,
    /// Paper reference, e.g. `"PIAS [8] / Figure 4"`.
    pub paper_ref: &'static str,
    /// DSL source (hand-written, or rendered from an [`Xfsm`] machine).
    pub source: String,
    schema: fn() -> Schema,
    native: fn() -> NativeFn,
    /// Concurrency the compiler should derive (checked in tests).
    pub concurrency: Concurrency,
}

impl FunctionBundle {
    /// The state schema both forms bind against.
    pub fn schema(&self) -> Schema {
        (self.schema)()
    }

    /// Compile the DSL form.
    pub fn interpreted(&self) -> InstalledFunction {
        let compiled = compile(self.name, &self.source, &self.schema()).unwrap_or_else(|e| {
            panic!("{} does not compile: {}", self.name, e.render(&self.source))
        });
        assert_eq!(
            compiled.concurrency, self.concurrency,
            "{}: derived concurrency drifted from the documented one",
            self.name
        );
        InstalledFunction::interpreted(self.name, compiled)
    }

    /// Build the native form.
    pub fn native(&self) -> InstalledFunction {
        InstalledFunction::native(self.name, (self.native)(), self.schema(), self.concurrency)
    }
}

// ======================================================================
// PIAS — flow scheduling without application support (Figure 4 / §2.1.3)
// ======================================================================

/// Shared schema for the priority-demotion functions.
fn pias_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .msg_field("Size", Access::ReadWrite)
        .msg_field("Priority", Access::ReadOnly)
        .global_array(
            "Priorities",
            &["MessageSizeLimit", "Priority"],
            Access::ReadOnly,
        )
}

/// The shared PIAS skeleton: accumulate the message's bytes, then look the
/// running total up in the demotion table. `tag` is the single-state
/// tagging action.
fn pias_machine(name: &str, tag: XAction) -> Xfsm {
    Xfsm::new(name)
        .array("priorities", "Priorities")
        .entry(XAction::bind("msg_size", msg("Size").add(pkt("Size"))))
        .entry(XAction::set_msg("Size", local("msg_size")))
        .helper(Helper::select(
            "search",
            "priorities",
            XBin::Le,
            local("msg_size"),
            Some("MessageSizeLimit"),
            Some("Priority"),
            lit(0),
        ))
        .state(XState::new(0, "tag").otherwise(vec![tag], None))
}

fn pias_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let msg_size = env.msg(0)? + env.pkt(0)?;
        env.set_msg(0, msg_size)?;
        let n = env.arr_len(0)? / 2;
        let mut prio = 0;
        for i in 0..n {
            if msg_size <= env.arr(0, i * 2)? {
                prio = env.arr(0, i * 2 + 1)?;
                break;
            }
        }
        env.set_pkt(1, prio)?;
        Ok(Outcome::Done)
    })
}

/// PIAS: demote a message's priority as its byte count grows.
pub fn pias() -> FunctionBundle {
    FunctionBundle {
        name: "pias",
        paper_ref: "PIAS [8] / paper Figure 4",
        source: pias_machine(
            "pias",
            XAction::set_pkt("Priority", Helper::select_call("search")),
        )
        .render(),
        schema: pias_schema,
        native: pias_native,
        concurrency: Concurrency::PerMessage,
    }
}

/// The verbatim Figure 7 port: like [`pias`] but honouring a message's
/// self-declared background priority (`msg.Priority < 1`).
pub fn pias_fig7() -> FunctionBundle {
    fn native() -> NativeFn {
        Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
            let msg_size = env.msg(0)? + env.pkt(0)?;
            env.set_msg(0, msg_size)?;
            let desired = env.msg(1)?;
            let prio = if desired < 1 {
                desired
            } else {
                let n = env.arr_len(0)? / 2;
                let mut p = 0;
                for i in 0..n {
                    if msg_size <= env.arr(0, i * 2)? {
                        p = env.arr(0, i * 2 + 1)?;
                        break;
                    }
                }
                p
            };
            env.set_pkt(1, prio)?;
            Ok(Outcome::Done)
        })
    }
    FunctionBundle {
        name: "pias-fig7",
        paper_ref: "paper Figure 7 (verbatim port)",
        source: pias_machine(
            "pias-fig7",
            XAction::set_pkt(
                "Priority",
                msg("Priority")
                    .lt(lit(1))
                    .pick(msg("Priority"), Helper::select_call("search")),
            ),
        )
        .render(),
        schema: pias_schema,
        native,
        concurrency: Concurrency::PerMessage,
    }
}

// ======================================================================
// SFF — shortest flow first with application-provided sizes (§5.1)
// ======================================================================

fn sff_schema() -> Schema {
    Schema::new()
        .packet_field("MsgSize", Access::ReadOnly, Some(HeaderField::MetaMsgSize))
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_array(
            "Priorities",
            &["MessageSizeLimit", "Priority"],
            Access::ReadOnly,
        )
}

const SFF_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let priorities = _global.Priorities
    let size = packet.MsgSize
    let rec search index =
        if index >= priorities.Length then 0
        elif size <= priorities.[index].MessageSizeLimit then
            priorities.[index].Priority
        else search (index + 1)
    packet.Priority <- search (0)
"#;

fn sff_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let size = env.pkt(0)?;
        let n = env.arr_len(0)? / 2;
        let mut prio = 0;
        for i in 0..n {
            if size <= env.arr(0, i * 2)? {
                prio = env.arr(0, i * 2 + 1)?;
                break;
            }
        }
        env.set_pkt(1, prio)?;
        Ok(Outcome::Done)
    })
}

/// SFF: priority from the stage-declared message size — "in
/// closed-environments like datacenters, it is possible to modify
/// applications … to directly provide information about the size of a
/// flow" (§2.1.3). The mapping of flows to classes happens when the flow
/// starts and never changes (§5.1).
pub fn sff() -> FunctionBundle {
    FunctionBundle {
        name: "sff",
        paper_ref: "shortest flow first, §5.1",
        source: SFF_SRC.to_string(),
        schema: sff_schema,
        native: sff_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// Fixed priority — tag a class with a constant priority (background)
// ======================================================================

fn fixed_priority_schema() -> Schema {
    Schema::new()
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_field("Level", Access::ReadOnly)
}

const FIXED_PRIORITY_SRC: &str = "fun (packet, msg, _global) -> packet.Priority <- _global.Level";

fn fixed_priority_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let level = env.global(0)?;
        env.set_pkt(0, level)?;
        Ok(Outcome::Done)
    })
}

/// Constant priority for a class (network QoS building block; used for the
/// background class in case study 1).
pub fn fixed_priority() -> FunctionBundle {
    FunctionBundle {
        name: "fixed-priority",
        paper_ref: "network QoS [9,51,38,33]",
        source: FIXED_PRIORITY_SRC.to_string(),
        schema: fixed_priority_schema,
        native: fixed_priority_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// WCMP — weighted load balancing (Figure 2 / §2.1.1)
// ======================================================================

fn wcmp_schema() -> Schema {
    Schema::new()
        .packet_field("PathLabel", Access::ReadWrite, Some(HeaderField::Dot1qVid))
        .global_field("TotalWeight", Access::ReadOnly)
        .global_array("Paths", &["Label", "Weight"], Access::ReadOnly)
}

const WCMP_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let paths = _global.Paths
    let pick = randRange (_global.TotalWeight)
    let rec walk index acc =
        let acc2 = acc + paths.[index].Weight
        if pick < acc2 then paths.[index].Label
        else walk (index + 1, acc2)
    packet.PathLabel <- walk (0, 0)
"#;

fn wcmp_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let total = env.global(0)?;
        let pick = env.rand_range(total)?;
        let n = env.arr_len(0)? / 2;
        let mut acc = 0;
        let mut label = 0;
        for i in 0..n {
            acc += env.arr(0, i * 2 + 1)?;
            if pick < acc {
                label = env.arr(0, i * 2)?;
                break;
            }
        }
        env.set_pkt(0, label)?;
        Ok(Outcome::Done)
    })
}

/// Per-packet WCMP: choose a source-route label in a weighted random
/// fashion (the paper's Figure 2, first listing). ECMP is the same function
/// with equal weights.
pub fn wcmp() -> FunctionBundle {
    FunctionBundle {
        name: "wcmp",
        paper_ref: "WCMP [65] / paper Figure 2",
        source: WCMP_SRC.to_string(),
        schema: wcmp_schema,
        native: wcmp_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// message-WCMP — all packets of one message take one path (Figure 2)
// ======================================================================

fn message_wcmp_schema() -> Schema {
    Schema::new()
        .packet_field("PathLabel", Access::ReadWrite, Some(HeaderField::Dot1qVid))
        .msg_field("CachedLabel", Access::ReadWrite)
        .global_field("TotalWeight", Access::ReadOnly)
        .global_array("Paths", &["Label", "Weight"], Access::ReadOnly)
}

const MESSAGE_WCMP_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    if msg.CachedLabel = 0 then (
        let paths = _global.Paths
        let pick = randRange (_global.TotalWeight)
        let rec walk index acc =
            let acc2 = acc + paths.[index].Weight
            if pick < acc2 then paths.[index].Label
            else walk (index + 1, acc2)
        msg.CachedLabel <- walk (0, 0)
    )
    packet.PathLabel <- msg.CachedLabel
"#;

fn message_wcmp_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        if env.msg(0)? == 0 {
            let total = env.global(0)?;
            let pick = env.rand_range(total)?;
            let n = env.arr_len(0)? / 2;
            let mut acc = 0;
            let mut label = 0;
            for i in 0..n {
                acc += env.arr(0, i * 2 + 1)?;
                if pick < acc {
                    label = env.arr(0, i * 2)?;
                    break;
                }
            }
            env.set_msg(0, label)?;
        }
        let cached = env.msg(0)?;
        env.set_pkt(0, cached)?;
        Ok(Outcome::Done)
    })
}

/// Message-level WCMP ("messageWCMP", Figure 2, second listing): the first
/// packet of a message picks the weighted path; all later packets of the
/// same message reuse it, trading a little load imbalance for no
/// reordering. Labels must be non-zero (0 marks "not yet chosen").
pub fn message_wcmp() -> FunctionBundle {
    FunctionBundle {
        name: "message-wcmp",
        paper_ref: "message-based WCMP / paper Figure 2",
        source: MESSAGE_WCMP_SRC.to_string(),
        schema: message_wcmp_schema,
        native: message_wcmp_native,
        concurrency: Concurrency::PerMessage,
    }
}

// ======================================================================
// Pulsar — datacenter QoS with size-aware charging (Figure 3 / §2.1.2)
// ======================================================================

/// Message type conventions for the storage stage.
pub const MSG_TYPE_READ: i64 = 1;
/// WRITE IO.
pub const MSG_TYPE_WRITE: i64 = 2;

fn pulsar_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("MsgType", Access::ReadOnly, Some(HeaderField::MetaMsgType))
        .packet_field("MsgSize", Access::ReadOnly, Some(HeaderField::MetaMsgSize))
        .packet_field("Tenant", Access::ReadOnly, Some(HeaderField::MetaTenant))
        .global_array("QueueMap", &[""], Access::ReadOnly)
}

fn pulsar_machine() -> Xfsm {
    Xfsm::new("pulsar")
        .array("queueMap", "QueueMap")
        .state(XState::new(0, "charge").otherwise(
            vec![XAction::SetQueue(
                arr("queueMap", pkt("Tenant")),
                pkt("MsgType").eq(lit(1)).pick(pkt("MsgSize"), pkt("Size")),
            )],
            None,
        ))
}

fn pulsar_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let size = if env.pkt(1)? == MSG_TYPE_READ {
            env.pkt(2)?
        } else {
            env.pkt(0)?
        };
        let tenant = env.pkt(3)?;
        let queue = env.arr(0, tenant)?;
        env.set_queue(queue, size)?;
        Ok(Outcome::Done)
    })
}

/// Pulsar rate control (the paper's Figure 3): queue a packet at its
/// tenant's rate limiter, charging READ requests by *operation* size and
/// everything else by packet size.
pub fn pulsar() -> FunctionBundle {
    FunctionBundle {
        name: "pulsar",
        paper_ref: "Pulsar [6] / paper Figure 3",
        source: pulsar_machine().render(),
        schema: pulsar_schema,
        native: pulsar_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// Replica selection — mcrouter/SINBAD-style key routing (§2.1.1)
// ======================================================================

fn replica_select_schema() -> Schema {
    Schema::new()
        .packet_field("KeyHash", Access::ReadOnly, Some(HeaderField::MetaKeyHash))
        .packet_field("Dst", Access::ReadWrite, Some(HeaderField::Ipv4Dst))
        .global_array("Replicas", &[""], Access::ReadOnly)
}

// The modulo must be taken euclidean-style: application key hashes are
// arbitrary i64s, and a negative remainder would index out of bounds.
const REPLICA_SELECT_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let replicas = _global.Replicas
    let rem = packet.KeyHash % replicas.Length
    let index = if rem < 0 then rem + replicas.Length else rem
    packet.Dst <- replicas.[index]
"#;

fn replica_select_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let n = env.arr_len(0)?;
        let mut idx = env.pkt(0)? % n;
        if idx < 0 {
            idx += n;
        }
        let dst = env.arr(0, idx)?;
        env.set_pkt(1, dst)?;
        Ok(Outcome::Done)
    })
}

/// Key-based replica selection: rewrite the destination address by hashing
/// the application key over the replica set — the data-plane half of an
/// mcrouter-style request router. Same key ⇒ same replica, so caches stay
/// warm.
pub fn replica_select() -> FunctionBundle {
    FunctionBundle {
        name: "replica-select",
        paper_ref: "mcrouter [40], SINBAD [17]",
        source: REPLICA_SELECT_SRC.to_string(),
        schema: replica_select_schema,
        native: replica_select_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// Port knocking — stateful firewall (Table 1 / OpenState [13])
// ======================================================================

fn port_knock_schema() -> Schema {
    Schema::new()
        .packet_field("DstPort", Access::ReadOnly, Some(HeaderField::DstPort))
        .global_field("Stage", Access::ReadWrite)
        .global_field("Knock1", Access::ReadOnly)
        .global_field("Knock2", Access::ReadOnly)
        .global_field("Knock3", Access::ReadOnly)
        .global_field("Protected", Access::ReadOnly)
}

/// Port knocking as the textbook XFSM: one state per knock observed, the
/// protected port droppable from every closed state, any other port a
/// reset. The explicit reset to 0 in the `otherwise` rows is a same-value
/// state write, kept so the bytecode pinned by
/// `tests/golden/port-knock.disasm` stays as it is.
fn port_knock_machine() -> Xfsm {
    let knock_state = |code: i64, name: &str, knock: &str, next: i64| {
        XState::new(code, name)
            .on(local("port").eq(glob(knock)), vec![], Some(next))
            .on(
                local("port").eq(glob("Protected")),
                vec![XAction::Drop],
                None,
            )
            .otherwise(vec![], Some(0))
    };
    Xfsm::new("port-knock")
        .state_in_global("Stage")
        .entry(XAction::bind("port", pkt("DstPort")))
        .state(knock_state(0, "shut", "Knock1", 1))
        .state(knock_state(1, "one-knock", "Knock2", 2))
        .state(knock_state(2, "two-knocks", "Knock3", 3))
        .state(XState::new(3, "open"))
}

fn port_knock_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let port = env.pkt(0)?;
        let stage = env.global(0)?;
        if port == env.global(1)? && stage == 0 {
            env.set_global(0, 1)?;
        } else if port == env.global(2)? && stage == 1 {
            env.set_global(0, 2)?;
        } else if port == env.global(3)? && stage == 2 {
            env.set_global(0, 3)?;
        } else if port == env.global(4)? {
            if stage < 3 {
                env.drop_packet()?;
                return Ok(Outcome::Dropped);
            }
        } else if stage < 3 {
            env.set_global(0, 0)?;
        }
        Ok(Outcome::Done)
    })
}

/// Port knocking: packets to the protected port are dropped until the
/// secret knock sequence has been observed; a wrong port resets progress.
/// The canonical stateful-firewall example (Table 1's last row).
pub fn port_knock() -> FunctionBundle {
    FunctionBundle {
        name: "port-knock",
        paper_ref: "port knocking [13]",
        source: port_knock_machine().render(),
        schema: port_knock_schema,
        native: port_knock_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// Flow counter — telemetry building block (used by ablations)
// ======================================================================

fn flow_counter_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .msg_field("Bytes", Access::ReadWrite)
        .msg_field("Packets", Access::ReadWrite)
        .global_field("TotalBytes", Access::ReadWrite)
        .global_field("TotalPackets", Access::ReadWrite)
}

const FLOW_COUNTER_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    msg.Bytes <- msg.Bytes + packet.Size
    msg.Packets <- msg.Packets + 1
    _global.TotalBytes <- _global.TotalBytes + packet.Size
    _global.TotalPackets <- _global.TotalPackets + 1
"#;

fn flow_counter_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let size = env.pkt(0)?;
        let b = env.msg(0)? + size;
        env.set_msg(0, b)?;
        let p = env.msg(1)? + 1;
        env.set_msg(1, p)?;
        let tb = env.global(0)? + size;
        env.set_global(0, tb)?;
        let tp = env.global(1)? + 1;
        env.set_global(1, tp)?;
        Ok(Outcome::Done)
    })
}

/// Per-message and global byte/packet counters — the minimal stateful
/// function, used for telemetry and as the ablation workload.
pub fn flow_counter() -> FunctionBundle {
    FunctionBundle {
        name: "flow-counter",
        paper_ref: "telemetry building block",
        source: FLOW_COUNTER_SRC.to_string(),
        schema: flow_counter_schema,
        native: flow_counter_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// QJump-style class enforcement (Table 1: flow scheduling / QJump [28])
// ======================================================================

fn qjump_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Level", Access::ReadOnly, Some(HeaderField::MetaMsgType))
        .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
        .global_array("Levels", &["Priority", "Queue"], Access::ReadOnly)
}

fn qjump_machine() -> Xfsm {
    Xfsm::new("qjump")
        .array("levels", "Levels")
        .entry(XAction::bind(
            "level",
            pkt("Level")
                .lt(arr_len("levels"))
                .pick(pkt("Level"), lit(0)),
        ))
        .entry(XAction::set_pkt(
            "Priority",
            arr_field("levels", local("level"), "Priority"),
        ))
        .entry(XAction::bind(
            "queue",
            arr_field("levels", local("level"), "Queue"),
        ))
        .state(XState::new(0, "enqueue").on(
            local("queue").ge(lit(0)),
            vec![XAction::SetQueue(local("queue"), pkt("Size"))],
            None,
        ))
}

fn qjump_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let n = env.arr_len(0)? / 2;
        let mut level = env.pkt(1)?;
        if level >= n {
            level = 0;
        }
        let prio = env.arr(0, level * 2)?;
        env.set_pkt(2, prio)?;
        let queue = env.arr(0, level * 2 + 1)?;
        if queue >= 0 {
            let size = env.pkt(0)?;
            env.set_queue(queue, size)?;
        }
        Ok(Outcome::Done)
    })
}

/// QJump-style latency classes: an application-declared level maps to a
/// network priority *and* a rate-limited queue, trading throughput for
/// bounded latency at the higher levels. Levels with queue −1 are
/// unthrottled.
pub fn qjump() -> FunctionBundle {
    FunctionBundle {
        name: "qjump",
        paper_ref: "QJump [28]",
        source: qjump_machine().render(),
        schema: qjump_schema,
        native: qjump_native,
        concurrency: Concurrency::Parallel,
    }
}

// ======================================================================
// Connection tracking — stateful firewall over flow state (Table 1)
// ======================================================================

fn conntrack_schema() -> Schema {
    Schema::new()
        .packet_field("Direction", Access::ReadOnly, Some(HeaderField::Direction))
        .msg_field("Established", Access::ReadWrite)
        .global_field("Blocked", Access::ReadWrite)
}

/// Connection tracking as a two-state per-flow machine. The established
/// state's same-value re-write on outbound packets is kept so the
/// bytecode pinned by `tests/golden/conntrack.disasm` stays as it is.
fn conntrack_machine() -> Xfsm {
    Xfsm::new("conntrack")
        .state_in_msg("Established")
        .state(
            XState::new(0, "new")
                .on(pkt("Direction").eq(lit(0)), vec![], Some(1))
                .otherwise(
                    vec![
                        XAction::set_glob("Blocked", glob("Blocked").add(lit(1))),
                        XAction::Drop,
                    ],
                    None,
                ),
        )
        .state(XState::new(1, "established").on(pkt("Direction").eq(lit(0)), vec![], Some(1)))
}

fn conntrack_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        if env.pkt(0)? == 0 {
            env.set_msg(0, 1)?;
        } else if env.msg(0)? == 0 {
            let blocked = env.global(0)? + 1;
            env.set_global(0, blocked)?;
            env.drop_packet()?;
            return Ok(Outcome::Dropped);
        }
        Ok(Outcome::Done)
    })
}

/// Connection tracking: outbound packets mark their flow established;
/// inbound packets of unestablished flows are dropped. Relies on the
/// enclave's direction-canonical flow-as-message ids, so both directions
/// of a connection share one state block — the stateful-firewall row of
/// Table 1 with per-flow (rather than the port-knock demo's global) state.
pub fn conntrack() -> FunctionBundle {
    FunctionBundle {
        name: "conntrack",
        paper_ref: "stateful firewall / IDS [19]",
        source: conntrack_machine().render(),
        schema: conntrack_schema,
        native: conntrack_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// Distributed rate limiting — Pulsar over a fleet-wide budget (eden-repl)
// ======================================================================

fn dist_rate_limit_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("MsgType", Access::ReadOnly, Some(HeaderField::MetaMsgType))
        .packet_field("MsgSize", Access::ReadOnly, Some(HeaderField::MetaMsgSize))
        .packet_field("Tenant", Access::ReadOnly, Some(HeaderField::MetaTenant))
        .global_field("Limit", Access::ReadOnly)
        .global_field("Used", Access::ReadWrite)
        .replicated(ReplMode::MergedSum)
        .global_array("QueueMap", &[""], Access::ReadOnly)
}

const DIST_RATE_LIMIT_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    let size =
        if packet.MsgType = 1 then packet.MsgSize
        else packet.Size
    if _global.Used + size > _global.Limit then drop ()
    else (
        _global.Used <- _global.Used + size
        let queueMap = _global.QueueMap
        setQueue (queueMap.[packet.Tenant], size)
    )
"#;

fn dist_rate_limit_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let size = if env.pkt(1)? == MSG_TYPE_READ {
            env.pkt(2)?
        } else {
            env.pkt(0)?
        };
        let used = env.global(1)?;
        if used + size > env.global(0)? {
            env.drop_packet()?;
            return Ok(Outcome::Dropped);
        }
        env.set_global(1, used + size)?;
        let tenant = env.pkt(3)?;
        let queue = env.arr(0, tenant)?;
        env.set_queue(queue, size)?;
        Ok(Outcome::Done)
    })
}

/// Pulsar charging against a *fleet-wide* byte budget: `Used` is declared
/// `replicated(merged)`, so every read of it returns this host's spend
/// plus the controller-merged spend of every other host, and every write
/// lands in the local contribution that the next pong carries up. The
/// function body is oblivious — it reads and writes `_global.Used` exactly
/// as if the budget were host-local, which is the subsystem's point:
/// local decisions on replicated state.
pub fn dist_rate_limit() -> FunctionBundle {
    FunctionBundle {
        name: "dist-rate-limit",
        paper_ref: "Pulsar [6] over replicated state (§3.3)",
        source: DIST_RATE_LIMIT_SRC.to_string(),
        schema: dist_rate_limit_schema,
        native: dist_rate_limit_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// Connection steering — least-connections LB on sequenced state
// ======================================================================

fn conn_steer_schema() -> Schema {
    Schema::new()
        .packet_field("Dst", Access::ReadWrite, Some(HeaderField::Ipv4Dst))
        .msg_field("Picked", Access::ReadWrite)
        .global_array("Conns", &[""], Access::ReadWrite)
        .replicated(ReplMode::Sequenced)
        .global_array("Backends", &[""], Access::ReadOnly)
}

const CONN_STEER_SRC: &str = r#"
fun (packet: Packet, msg: Message, _global: Global) ->
    if msg.Picked = 0 then (
        let conns = _global.Conns
        let backends = _global.Backends
        let rec least index best =
            if index >= conns.Length then best
            elif conns.[index] < conns.[best] then least (index + 1, index)
            else least (index + 1, best)
        let pick = least (1, 0)
        conns.[pick] <- conns.[pick] + 1
        msg.Picked <- backends.[pick]
    )
    packet.Dst <- msg.Picked
"#;

fn conn_steer_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        if env.msg(0)? == 0 {
            let n = env.arr_len(0)?;
            let mut best: i64 = 0;
            for i in 1..n {
                if env.arr(0, i)? < env.arr(0, best)? {
                    best = i;
                }
            }
            let bumped = env.arr(0, best)? + 1;
            env.set_arr(0, best, bumped)?;
            let backend = env.arr(1, best)?;
            env.set_msg(0, backend)?;
        }
        let picked = env.msg(0)?;
        env.set_pkt(0, picked)?;
        Ok(Outcome::Done)
    })
}

/// Least-connections steering over `replicated(sequenced)` counts: the
/// first packet of each flow picks the backend with the fewest fleet-wide
/// connections and increments that count. The increment is *deferred* —
/// it rides the next pong to the controller, gets a global sequence
/// number, and applies on every host in the same order, so all hosts
/// converge on identical counts regardless of arrival order. Until its
/// own write comes back a host steers on slightly stale counts — the
/// trade the paper makes for a synchronization-free data path. Backend
/// addresses must be non-zero (0 marks "not yet picked").
pub fn conn_steer() -> FunctionBundle {
    FunctionBundle {
        name: "conn-steer",
        paper_ref: "Ananta-style LB [42] over sequenced state (§3.3)",
        source: CONN_STEER_SRC.to_string(),
        schema: conn_steer_schema,
        native: conn_steer_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// L4 load balancing — Ananta-style VIP→DIP with per-flow NAT state
// ======================================================================

fn l4lb_schema() -> Schema {
    Schema::new()
        .packet_field("KeyHash", Access::ReadOnly, Some(HeaderField::MetaKeyHash))
        .packet_field("Dst", Access::ReadWrite, Some(HeaderField::Ipv4Dst))
        .msg_field("State", Access::ReadWrite)
        .msg_field("Dip", Access::ReadWrite)
        .global_array("Dips", &[""], Access::ReadOnly)
        .global_array("Active", &[""], Access::ReadWrite)
        .replicated(ReplMode::MergedSum)
}

/// Ananta's data path as a two-state machine: the first packet of a flow
/// runs rendezvous hashing over the DIP pool and records the pick in
/// per-flow NAT state; every later packet replays the cached translation.
fn l4lb_machine() -> Xfsm {
    Xfsm::new("l4lb")
        .state_in_msg("State")
        .array("dips", "Dips")
        .array("active", "Active")
        .helper(Helper::arg_max_hash("best", "dips", pkt("KeyHash")))
        .state(XState::new(0, "select").otherwise(
            vec![
                XAction::bind("pick", Helper::arg_max_hash_call("best")),
                XAction::set_arr(
                    "active",
                    local("pick"),
                    arr("active", local("pick")).add(lit(1)),
                ),
                XAction::set_msg("Dip", arr("dips", local("pick"))),
            ],
            Some(1),
        ))
        .state(XState::new(1, "nat"))
        .epilogue(XAction::set_pkt("Dst", msg("Dip")))
}

fn l4lb_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        if env.msg(0)? == 0 {
            let key = env.pkt(0)?;
            let n = env.arr_len(0)?;
            let mut champ = 0i64;
            let mut score = -1i64;
            for i in 0..n {
                let dip = env.arr(0, i)?;
                let s = env.hash(key, dip);
                if s > score {
                    champ = i;
                    score = s;
                }
            }
            let bumped = env.arr(1, champ)? + 1;
            env.set_arr(1, champ, bumped)?;
            let dip = env.arr(0, champ)?;
            env.set_msg(1, dip)?;
            env.set_msg(0, 1)?;
        }
        let dip = env.msg(1)?;
        env.set_pkt(1, dip)?;
        Ok(Outcome::Done)
    })
}

/// Ananta-style L4 load balancing: each flow's first packet picks a DIP by
/// rendezvous hashing (same key + same pool ⇒ same winner on every host,
/// no coordination) and bumps that DIP's fleet-wide active-flow gauge —
/// `Active` is `replicated(merged)`, so reads see the whole fleet's count
/// while writes stay local. Later packets replay the per-flow NAT state.
pub fn l4lb() -> FunctionBundle {
    FunctionBundle {
        name: "l4lb",
        paper_ref: "Ananta-style L4 LB [42]",
        source: l4lb_machine().render(),
        schema: l4lb_schema,
        native: l4lb_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// CONGA/Duet-style path selection — per-path DRE fed by ack events
// ======================================================================

fn conga_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .packet_field("Direction", Access::ReadOnly, Some(HeaderField::Direction))
        .packet_field("PathLabel", Access::ReadWrite, Some(HeaderField::Dot1qVid))
        .msg_field("Path", Access::ReadWrite)
        .global_array("PathDre", &[""], Access::ReadWrite)
}

/// Congestion-aware path selection: outbound packets go to the path with
/// the smallest discounting-rate-estimator value and charge it; ack-side
/// (ingress) events drain the flow's recorded path. One state, two events.
fn conga_machine() -> Xfsm {
    Xfsm::new("conga")
        .array("dre", "PathDre")
        .helper(Helper::arg_min("least", "dre"))
        .state(
            XState::new(0, "route")
                .on(
                    pkt("Direction").eq(lit(0)),
                    vec![
                        XAction::bind("pick", Helper::arg_min_call("least")),
                        XAction::set_arr(
                            "dre",
                            local("pick"),
                            arr("dre", local("pick")).add(pkt("Size")),
                        ),
                        XAction::set_msg("Path", local("pick")),
                        XAction::set_pkt("PathLabel", local("pick")),
                    ],
                    None,
                )
                .on(
                    pkt("Direction")
                        .eq(lit(1))
                        .and(msg("Path").lt(arr_len("dre"))),
                    vec![
                        XAction::bind("drained", arr("dre", msg("Path")).sub(pkt("Size"))),
                        XAction::set_arr(
                            "dre",
                            msg("Path"),
                            local("drained").lt(lit(0)).pick(lit(0), local("drained")),
                        ),
                    ],
                    None,
                ),
        )
}

fn conga_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let direction = env.pkt(1)?;
        if direction == 0 {
            let n = env.arr_len(0)?;
            let mut pick = 0i64;
            for i in 1..n {
                if env.arr(0, i)? < env.arr(0, pick)? {
                    pick = i;
                }
            }
            let charged = env.arr(0, pick)? + env.pkt(0)?;
            env.set_arr(0, pick, charged)?;
            env.set_msg(0, pick)?;
            env.set_pkt(2, pick)?;
        } else if direction == 1 && env.msg(0)? < env.arr_len(0)? {
            let path = env.msg(0)?;
            let drained = env.arr(0, path)? - env.pkt(0)?;
            env.set_arr(0, path, drained.max(0))?;
        }
        Ok(Outcome::Done)
    })
}

/// CONGA/Duet-style congestion-aware path selection: per-path DRE
/// (discounting rate estimator) gauges charged by outbound bytes and
/// drained by ack events on the flow's recorded path, with each new
/// decision steering to the least-congested path.
pub fn conga() -> FunctionBundle {
    FunctionBundle {
        name: "conga",
        paper_ref: "CONGA [4] / Duet [24] path selection",
        source: conga_machine().render(),
        schema: conga_schema,
        native: conga_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// IDS — per-flow signature scoring with a block state
// ======================================================================

fn ids_schema() -> Schema {
    Schema::new()
        .packet_field("DstPort", Access::ReadOnly, Some(HeaderField::DstPort))
        .msg_field("State", Access::ReadWrite)
        .msg_field("Score", Access::ReadWrite)
        .global_field("Threshold", Access::ReadOnly)
        .global_field("Alerts", Access::ReadWrite)
        .global_array("Sigs", &["Port", "Weight"], Access::ReadOnly)
}

/// Signature-scoring IDS: each packet's destination port is looked up in
/// the signature table and its weight added to the flow's score. The guard
/// checks the score *before* this packet's contribution, so the signature
/// walk runs exactly once per packet: a flow already over the threshold
/// drops and moves to the terminal block state, otherwise the walk's
/// weight is accumulated and crossing the threshold raises a global alert
/// (the crossing packet itself still passes; the next one blocks).
fn ids_machine() -> Xfsm {
    Xfsm::new("ids")
        .state_in_msg("State")
        .array("sigs", "Sigs")
        .helper(Helper::select(
            "lookup",
            "sigs",
            XBin::Eq,
            pkt("DstPort"),
            Some("Port"),
            Some("Weight"),
            lit(0),
        ))
        .state(
            XState::new(0, "monitor")
                .on(
                    msg("Score").ge(glob("Threshold")),
                    vec![XAction::Drop],
                    Some(1),
                )
                .otherwise(
                    vec![
                        XAction::bind("hit", msg("Score").add(Helper::select_call("lookup"))),
                        XAction::set_msg("Score", local("hit")),
                        XAction::When(
                            local("hit").ge(glob("Threshold")),
                            vec![XAction::set_glob("Alerts", glob("Alerts").add(lit(1)))],
                        ),
                    ],
                    None,
                ),
        )
        .state(XState::new(1, "block").otherwise(vec![XAction::Drop], None))
}

fn ids_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        match env.msg(0)? {
            0 => {
                if env.msg(1)? >= env.global(0)? {
                    env.set_msg(0, 1)?;
                    env.drop_packet()?;
                    return Ok(Outcome::Dropped);
                }
                let port = env.pkt(0)?;
                let n = env.arr_len(0)? / 2;
                let mut weight = 0;
                for i in 0..n {
                    if port == env.arr(0, i * 2)? {
                        weight = env.arr(0, i * 2 + 1)?;
                        break;
                    }
                }
                let hit = env.msg(1)? + weight;
                env.set_msg(1, hit)?;
                if hit >= env.global(0)? {
                    let alerts = env.global(1)? + 1;
                    env.set_global(1, alerts)?;
                }
            }
            1 => {
                env.drop_packet()?;
                return Ok(Outcome::Dropped);
            }
            _ => {}
        }
        Ok(Outcome::Done)
    })
}

/// Intrusion detection as Table 1 frames it: per-flow suspicion scoring
/// over a controller-pushed signature table, alert + block on crossing the
/// threshold.
pub fn ids() -> FunctionBundle {
    FunctionBundle {
        name: "ids",
        paper_ref: "IDS [19] signature scoring",
        source: ids_machine().render(),
        schema: ids_schema,
        native: ids_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// Stateful firewall — conntrack with an idle timeout
// ======================================================================

fn stateful_firewall_schema() -> Schema {
    Schema::new()
        .packet_field("Direction", Access::ReadOnly, Some(HeaderField::Direction))
        .msg_field("State", Access::ReadWrite)
        .msg_field("Seen", Access::ReadWrite)
        .global_field("IdleNs", Access::ReadOnly)
        .global_field("Blocked", Access::ReadWrite)
}

/// [`conntrack`] plus the piece every real firewall needs: an idle
/// timeout, declared with the XFSM timeout row. A flow idle for longer
/// than `IdleNs` is conservatively closed — the packet that observes the
/// expiry is dropped (and counted), and the flow must re-establish with an
/// outbound packet.
fn stateful_firewall_machine() -> Xfsm {
    Xfsm::new("stateful-firewall")
        .state_in_msg("State")
        .state(
            XState::new(0, "new")
                .on(
                    pkt("Direction").eq(lit(0)),
                    vec![XAction::set_msg("Seen", now())],
                    Some(1),
                )
                .otherwise(
                    vec![
                        XAction::set_glob("Blocked", glob("Blocked").add(lit(1))),
                        XAction::Drop,
                    ],
                    None,
                ),
        )
        .state(
            XState::new(1, "established")
                .timeout(
                    msg("Seen"),
                    glob("IdleNs"),
                    vec![
                        XAction::set_glob("Blocked", glob("Blocked").add(lit(1))),
                        XAction::Drop,
                    ],
                    Some(0),
                )
                .otherwise(vec![XAction::set_msg("Seen", now())], None),
        )
}

fn stateful_firewall_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        match env.msg(0)? {
            0 => {
                if env.pkt(0)? == 0 {
                    let t = env.now_ns();
                    env.set_msg(1, t)?;
                    env.set_msg(0, 1)?;
                } else {
                    let blocked = env.global(1)? + 1;
                    env.set_global(1, blocked)?;
                    env.drop_packet()?;
                    return Ok(Outcome::Dropped);
                }
            }
            1 => {
                // mirror the machine's draw order: the timeout guard reads
                // the clock once, the refresh row reads it again
                let t = env.now_ns();
                if t - env.msg(1)? >= env.global(0)? {
                    let blocked = env.global(1)? + 1;
                    env.set_global(1, blocked)?;
                    env.set_msg(0, 0)?;
                    env.drop_packet()?;
                    return Ok(Outcome::Dropped);
                }
                let t = env.now_ns();
                env.set_msg(1, t)?;
            }
            _ => {}
        }
        Ok(Outcome::Done)
    })
}

/// Stateful firewall (Table 1's conn-tracking row with lifecycle): inbound
/// packets only pass on flows an outbound packet established, and flows
/// idle past `IdleNs` are closed by the declared timeout transition.
pub fn stateful_firewall() -> FunctionBundle {
    FunctionBundle {
        name: "stateful-firewall",
        paper_ref: "stateful firewall [19] with idle timeout",
        source: stateful_firewall_machine().render(),
        schema: stateful_firewall_schema,
        native: stateful_firewall_native,
        concurrency: Concurrency::Serialized,
    }
}

// ======================================================================
// Explicit rate control — windowed byte budget
// ======================================================================

fn rate_limit_schema() -> Schema {
    Schema::new()
        .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
        .global_field("WindowNs", Access::ReadOnly)
        .global_field("LimitBytes", Access::ReadOnly)
        .global_field("WindowStart", Access::ReadWrite)
        .global_field("Used", Access::ReadWrite)
}

/// Tumbling-window rate limiting: the entry action rolls the window when
/// it has aged out, then a packet either fits in the remaining budget or
/// is dropped.
fn rate_limit_machine() -> Xfsm {
    Xfsm::new("rate-limit")
        .entry(XAction::When(
            now().sub(glob("WindowStart")).ge(glob("WindowNs")),
            vec![
                XAction::set_glob("WindowStart", now()),
                XAction::set_glob("Used", lit(0)),
            ],
        ))
        .state(
            XState::new(0, "account")
                .on(
                    glob("Used").add(pkt("Size")).gt(glob("LimitBytes")),
                    vec![XAction::Drop],
                    None,
                )
                .otherwise(
                    vec![XAction::set_glob("Used", glob("Used").add(pkt("Size")))],
                    None,
                ),
        )
}

fn rate_limit_native() -> NativeFn {
    Box::new(|env: &mut NativeEnv<'_>| -> Result<Outcome, VmError> {
        let t = env.now_ns();
        if t - env.global(2)? >= env.global(0)? {
            let start = env.now_ns();
            env.set_global(2, start)?;
            env.set_global(3, 0)?;
        }
        let size = env.pkt(0)?;
        let used = env.global(3)?;
        if used + size > env.global(1)? {
            env.drop_packet()?;
            return Ok(Outcome::Dropped);
        }
        env.set_global(3, used + size)?;
        Ok(Outcome::Done)
    })
}

/// Explicit rate control (Table 1): a per-enclave tumbling byte window —
/// packets beyond `LimitBytes` within `WindowNs` are dropped. The
/// host-local complement of [`dist_rate_limit`]'s fleet-wide budget.
pub fn rate_limit() -> FunctionBundle {
    FunctionBundle {
        name: "rate-limit",
        paper_ref: "explicit rate control (Table 1)",
        source: rate_limit_machine().render(),
        schema: rate_limit_schema,
        native: rate_limit_native,
        concurrency: Concurrency::Serialized,
    }
}

/// The whole catalogue, for Table 1 sweeps.
pub fn catalogue() -> Vec<FunctionBundle> {
    vec![
        pias(),
        pias_fig7(),
        sff(),
        fixed_priority(),
        wcmp(),
        message_wcmp(),
        pulsar(),
        replica_select(),
        port_knock(),
        flow_counter(),
        conntrack(),
        qjump(),
        dist_rate_limit(),
        conn_steer(),
        l4lb(),
        conga(),
        ids(),
        stateful_firewall(),
        rate_limit(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
    use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
    use transport::HookVerdict;

    /// Install `bundle` (given form) into a fresh enclave matching class 1,
    /// with case-study-ish state.
    fn build(bundle: &FunctionBundle, native: bool) -> Enclave {
        let mut e = Enclave::new(EnclaveConfig::default());
        let form = if native {
            bundle.native()
        } else {
            bundle.interpreted()
        };
        let f = e.install_function(form);
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
        match bundle.name {
            "pias" | "pias-fig7" | "sff" => {
                e.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
            }
            "fixed-priority" => e.set_global(f, 0, 3),
            "wcmp" | "message-wcmp" => {
                e.set_array(f, 0, vec![101, 10, 102, 1]);
                e.set_global(f, 0, 11);
            }
            "pulsar" => e.set_array(f, 0, vec![0, 1, 2]),
            "dist-rate-limit" => {
                // budget sized so the 3000-packet agreement stream crosses
                // it mid-run and exercises the drop path in both forms
                e.set_global(f, 0, 500_000_000);
                e.set_array(f, 0, vec![0, 1, 2]);
            }
            "conn-steer" => {
                e.set_array(f, 0, vec![5, 2, 9]);
                e.set_array(f, 1, vec![71, 72, 73]);
            }
            "qjump" => e.set_array(f, 0, vec![7, 0, 4, 1, 0, -1]),
            "replica-select" => e.set_array(f, 0, vec![50, 51, 52]),
            "port-knock" => {
                e.set_global(f, 1, 1001);
                e.set_global(f, 2, 1002);
                e.set_global(f, 3, 1003);
                e.set_global(f, 4, 22);
            }
            "l4lb" => {
                e.set_array(f, 0, vec![71, 72, 73]);
                e.set_array(f, 1, vec![0, 0, 0]);
            }
            "conga" => e.set_array(f, 0, vec![5, 2, 9]),
            "ids" => {
                // ports 22 and 1001 carry weights; threshold low enough
                // that the 3000-packet stream trips flows into block
                e.set_global(f, 0, 40);
                e.set_array(f, 0, vec![22, 7, 1001, 5]);
            }
            "stateful-firewall" => {
                // the agreement stream revisits each of the 7 flows every
                // 7 ns, so a 6 ns idle expires a flow on every revisit —
                // establish and timeout both run thousands of times
                e.set_global(f, 0, 6);
            }
            "rate-limit" => {
                e.set_global(f, 0, 200); // window ns
                e.set_global(f, 1, 100_000); // bytes per window
            }
            _ => {}
        }
        e
    }

    fn packet(rng: &mut SimRng, i: u64) -> Packet {
        let mut p = Packet::tcp(
            1,
            2,
            TcpHeader {
                src_port: 40000 + (i % 5) as u16,
                dst_port: [80, 22, 1001, 1002, 1003][(rng.below(5)) as usize],
                ..Default::default()
            },
            rng.below(1400) as usize,
        );
        p.meta = Some(EdenMeta {
            classes: vec![1],
            msg_id: 1 + i % 7,
            msg_type: 1 + (rng.below(2) as i64),
            msg_size: rng.below(2_000_000) as i64,
            tenant: rng.below(3) as i64,
            key_hash: rng.next_i64(),
            msg_start: false,
        });
        p
    }

    #[test]
    fn all_bundles_compile_and_state_their_concurrency() {
        for bundle in catalogue() {
            let _ = bundle.interpreted(); // asserts concurrency internally
        }
    }

    #[test]
    fn native_and_interpreted_agree_on_random_streams() {
        for bundle in catalogue() {
            let mut interp = build(&bundle, false);
            let mut native = build(&bundle, true);
            // identical RNG seeds so stochastic functions (WCMP) agree
            let mut r1 = SimRng::new(99);
            let mut r2 = SimRng::new(99);
            let mut gen = SimRng::new(7);
            for i in 0..3000 {
                let p = packet(&mut gen, i);
                let mut a = p.clone();
                let mut b = p;
                let va = interp.process(&mut a, &mut r1, Time::from_nanos(i));
                let vb = native.process(&mut b, &mut r2, Time::from_nanos(i));
                assert_eq!(va, vb, "{}: verdict diverged at packet {i}", bundle.name);
                assert_eq!(a, b, "{}: packet state diverged at packet {i}", bundle.name);
            }
            assert_eq!(
                interp.stats.faults, 0,
                "{}: interpreted form trapped",
                bundle.name
            );
            assert_eq!(
                native.stats.faults, 0,
                "{}: native form trapped",
                bundle.name
            );
        }
    }

    #[test]
    fn wcmp_distributes_10_to_1() {
        let mut e = build(&wcmp(), false);
        let mut rng = SimRng::new(5);
        let mut gen = SimRng::new(6);
        let mut counts = [0u32; 2];
        for i in 0..11_000 {
            let mut p = packet(&mut gen, i);
            e.process(&mut p, &mut rng, Time::ZERO);
            match p.route_label() {
                101 => counts[0] += 1,
                102 => counts[1] += 1,
                other => panic!("unexpected label {other}"),
            }
        }
        assert!(counts[0] > 9_300 && counts[0] < 10_700, "{counts:?}");
    }

    #[test]
    fn message_wcmp_pins_messages_to_paths() {
        let mut e = build(&message_wcmp(), false);
        let mut rng = SimRng::new(5);
        // many packets of the same message: all take the same label
        let mut labels = std::collections::HashSet::new();
        for _ in 0..200 {
            let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: 42,
                ..Default::default()
            });
            e.process(&mut p, &mut rng, Time::ZERO);
            labels.insert(p.route_label());
        }
        assert_eq!(labels.len(), 1, "one message, one path");

        // across many messages both paths get used
        let mut seen = std::collections::HashSet::new();
        for m in 0..200 {
            let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: 1000 + m,
                ..Default::default()
            });
            e.process(&mut p, &mut rng, Time::ZERO);
            seen.insert(p.route_label());
        }
        assert_eq!(seen.len(), 2, "different messages spread across paths");
    }

    #[test]
    fn pulsar_charges_reads_by_operation_size() {
        let mut e = build(&pulsar(), false);
        let mut rng = SimRng::new(5);
        let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
        p.meta = Some(EdenMeta {
            classes: vec![1],
            msg_id: 1,
            msg_type: MSG_TYPE_READ,
            msg_size: 65536,
            tenant: 2,
            ..Default::default()
        });
        let v = e.process(&mut p, &mut rng, Time::ZERO);
        assert_eq!(
            v,
            HookVerdict::Queue {
                queue: 2,
                charge: 65536
            }
        );

        let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
        p.meta = Some(EdenMeta {
            classes: vec![1],
            msg_id: 2,
            msg_type: MSG_TYPE_WRITE,
            msg_size: 65536,
            tenant: 0,
            ..Default::default()
        });
        let v = e.process(&mut p, &mut rng, Time::ZERO);
        assert_eq!(
            v,
            HookVerdict::Queue {
                queue: 0,
                charge: 140 // IP total length of a 100B-payload TCP packet
            }
        );
    }

    #[test]
    fn replica_select_is_stable_per_key() {
        let mut e = build(&replica_select(), false);
        let mut rng = SimRng::new(5);
        let mk = |key_hash: i64| {
            let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: 1,
                key_hash,
                ..Default::default()
            });
            p
        };
        let mut a = mk(12345);
        let mut b = mk(12345);
        e.process(&mut a, &mut rng, Time::ZERO);
        e.process(&mut b, &mut rng, Time::ZERO);
        assert_eq!(a.ip.dst, b.ip.dst, "same key, same replica");
        assert!([50, 51, 52].contains(&a.ip.dst));

        // all replicas reachable over many keys
        let mut gen = SimRng::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut p = mk(gen.next_i64());
            e.process(&mut p, &mut rng, Time::ZERO);
            seen.insert(p.ip.dst);
        }
        assert_eq!(seen.len(), 3);
    }

    // Pinned by the fuzz harness (exec-diff oracle): application key
    // hashes are arbitrary i64s, and a negative one used to make
    // `KeyHash % Length` negative — an out-of-bounds array index that
    // trapped both forms. The remainder is now folded into [0, Length).
    #[test]
    fn replica_select_handles_negative_key_hashes() {
        for native in [false, true] {
            let mut e = build(&replica_select(), native);
            let mut rng = SimRng::new(5);
            for (i, key_hash) in [-1, i64::MIN, -8_399_315_476_207_701_023, -3]
                .into_iter()
                .enumerate()
            {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1 + i as u64,
                    key_hash,
                    ..Default::default()
                });
                let v = e.process(&mut p, &mut rng, Time::ZERO);
                assert_eq!(v, HookVerdict::Pass, "native={native} hash={key_hash}");
                assert!(
                    [50, 51, 52].contains(&p.ip.dst),
                    "native={native} hash={key_hash} routed to {}",
                    p.ip.dst
                );
            }
            assert_eq!(e.stats.faults, 0, "native={native}: negative hash trapped");
        }
    }

    #[test]
    fn port_knock_state_machine() {
        let mut e = build(&port_knock(), false);
        let mut rng = SimRng::new(5);
        let knock = |e: &mut Enclave, rng: &mut SimRng, port: u16| {
            let mut p = Packet::tcp(
                1,
                2,
                TcpHeader {
                    dst_port: port,
                    ..Default::default()
                },
                0,
            );
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: u64::from(port),
                ..Default::default()
            });
            e.process(&mut p, rng, Time::ZERO)
        };

        // protected port before the knock: dropped
        assert_eq!(knock(&mut e, &mut rng, 22), HookVerdict::Drop);
        // correct sequence
        assert_eq!(knock(&mut e, &mut rng, 1001), HookVerdict::Pass);
        assert_eq!(knock(&mut e, &mut rng, 1002), HookVerdict::Pass);
        assert_eq!(knock(&mut e, &mut rng, 1003), HookVerdict::Pass);
        // now open
        assert_eq!(knock(&mut e, &mut rng, 22), HookVerdict::Pass);

        // wrong port mid-sequence resets
        let mut e = build(&port_knock(), false);
        assert_eq!(knock(&mut e, &mut rng, 1001), HookVerdict::Pass);
        assert_eq!(knock(&mut e, &mut rng, 9999), HookVerdict::Pass); // resets
        assert_eq!(knock(&mut e, &mut rng, 1002), HookVerdict::Pass); // ignored
        assert_eq!(knock(&mut e, &mut rng, 1003), HookVerdict::Pass); // ignored
        assert_eq!(
            knock(&mut e, &mut rng, 22),
            HookVerdict::Drop,
            "still locked"
        );
    }

    #[test]
    fn dist_rate_limit_enforces_fleet_budget_via_replica_view() {
        for native in [false, true] {
            let mut e = build(&dist_rate_limit(), native);
            let f = eden_core::FuncId(0);
            e.set_global(f, 0, 10_000); // shrink the fleet-wide budget
            let mut rng = SimRng::new(5);
            let mk = |i: u64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1 + i,
                    msg_type: MSG_TYPE_WRITE,
                    tenant: 1,
                    ..Default::default()
                });
                p
            };

            // within budget: queued at the tenant's limiter, charged 1040
            let mut p = mk(0);
            let v = e.process(&mut p, &mut rng, Time::ZERO);
            assert_eq!(
                v,
                HookVerdict::Queue {
                    queue: 1,
                    charge: 1040
                },
                "native={native}"
            );

            // a controller view reports the rest of the fleet spent 9000
            e.apply_repl_view(
                &eden_repl::FuncView {
                    func: 0,
                    version: 1,
                    remote: vec![(1, 9_000)],
                    ..Default::default()
                },
                0,
            );
            assert_eq!(e.global_effective(f, 1), 10_040);
            assert_eq!(e.global(f, 1), 1_040, "local contribution unchanged");

            // the same packet now exceeds the *fleet-wide* budget: dropped
            // on purely local state, no coordination on the drop path
            let mut p = mk(1);
            let v = e.process(&mut p, &mut rng, Time::ZERO);
            assert_eq!(v, HookVerdict::Drop, "native={native}");
            assert_eq!(e.stats.faults, 0);
        }
    }

    #[test]
    fn conn_steer_picks_least_loaded_and_defers_the_increment() {
        for native in [false, true] {
            let mut e = build(&conn_steer(), native);
            let f = eden_core::FuncId(0);
            let mut rng = SimRng::new(5);
            let mk = |m: u64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: m,
                    ..Default::default()
                });
                p
            };

            // Conns = [5, 2, 9] → backend 1 (addr 72) has the fewest
            let mut p = mk(1);
            e.process(&mut p, &mut rng, Time::ZERO);
            assert_eq!(p.ip.dst, 72, "native={native}");

            // the increment queued for controller ordering; the local
            // count is unchanged until the sequenced entry comes back
            assert_eq!(e.array_effective(f, 0, 1), 2, "native={native}");
            assert_eq!(e.repl_host(0).unwrap().pending_len(), 1);

            // a second flow decides on the same (stale) counts — the
            // documented trade for a synchronization-free data path
            let mut p = mk(2);
            e.process(&mut p, &mut rng, Time::ZERO);
            assert_eq!(p.ip.dst, 72, "native={native}");
            assert_eq!(e.repl_host(0).unwrap().pending_len(), 2);

            // later packets of flow 1 stick to the cached pick
            let mut p = mk(1);
            e.process(&mut p, &mut rng, Time::ZERO);
            assert_eq!(p.ip.dst, 72, "native={native}");
            assert_eq!(e.repl_host(0).unwrap().pending_len(), 2, "no new op");
            assert_eq!(e.stats.faults, 0);
        }
    }

    #[test]
    fn flow_counter_counts() {
        let mut e = build(&flow_counter(), false);
        let mut rng = SimRng::new(5);
        for i in 0..10 {
            let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: 1 + (i % 2),
                ..Default::default()
            });
            e.process(&mut p, &mut rng, Time::ZERO);
        }
        // globals: slot 0 TotalBytes, slot 1 TotalPackets
        let f = eden_core::FuncId(0);
        assert_eq!(e.global(f, 1), 10);
        assert_eq!(e.global(f, 0), 10 * 1040);
    }

    #[test]
    fn catalogue_is_pinned_and_names_are_unique() {
        let c = catalogue();
        assert!(c.len() >= 18, "Table 1 catalogue shrank to {}", c.len());
        assert_eq!(
            c.len(),
            19,
            "catalogue grew — update this pin and the docs matrix"
        );
        let names: std::collections::HashSet<&str> = c.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), c.len(), "duplicate bundle names");
    }

    #[test]
    fn l4lb_pins_flows_to_dips_and_gauges_active_flows() {
        for native in [false, true] {
            let mut e = build(&l4lb(), native);
            let f = eden_core::FuncId(0);
            let mut rng = SimRng::new(5);
            let mk = |m: u64, key_hash: i64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: m,
                    key_hash,
                    ..Default::default()
                });
                p
            };

            // first packet of a flow picks a DIP by rendezvous hash
            let mut a = mk(1, 12345);
            e.process(&mut a, &mut rng, Time::ZERO);
            assert!([71, 72, 73].contains(&a.ip.dst), "native={native}");

            // later packets replay the NAT state even if the key changes
            let mut b = mk(1, 999);
            e.process(&mut b, &mut rng, Time::ZERO);
            assert_eq!(a.ip.dst, b.ip.dst, "native={native}");

            // a second flow with the same key agrees (rendezvous is
            // deterministic per key), and the gauge counts both flows
            let mut c = mk(2, 12345);
            e.process(&mut c, &mut rng, Time::ZERO);
            assert_eq!(c.ip.dst, a.ip.dst, "native={native}");
            let total: i64 = (0..3).map(|i| e.array_effective(f, 1, i)).sum();
            assert_eq!(total, 2, "native={native}: one bump per flow");
            assert_eq!(e.stats.faults, 0, "native={native}");
        }
    }

    #[test]
    fn conga_steers_to_least_loaded_path() {
        for native in [false, true] {
            let mut e = build(&conga(), native);
            let mut rng = SimRng::new(5);
            let mut send = |e: &mut Enclave, m: u64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: m,
                    ..Default::default()
                });
                e.process(&mut p, &mut rng, Time::ZERO);
                p.route_label()
            };
            // DRE starts [5, 2, 9]: path 1 is least loaded, then the
            // 1040-byte charge makes it [5, 1042, 9] so path 0 wins, then
            // [1045, 1042, 9] leaves path 2
            assert_eq!(send(&mut e, 1), 1, "native={native}");
            assert_eq!(send(&mut e, 2), 0, "native={native}");
            assert_eq!(send(&mut e, 3), 2, "native={native}");
            assert_eq!(e.stats.faults, 0, "native={native}");
        }
    }

    #[test]
    fn ids_blocks_a_flow_whose_score_crosses_the_threshold() {
        for native in [false, true] {
            let mut e = build(&ids(), native);
            let f = eden_core::FuncId(0);
            let mut rng = SimRng::new(5);
            let mut send = |e: &mut Enclave, m: u64, port: u16| {
                let mut p = Packet::tcp(
                    1,
                    2,
                    TcpHeader {
                        dst_port: port,
                        ..Default::default()
                    },
                    100,
                );
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: m,
                    ..Default::default()
                });
                e.process(&mut p, &mut rng, Time::ZERO)
            };
            // port 22 carries weight 7; packet 6 crosses the threshold
            // (score reaches 42 ≥ 40) — it still passes but raises the
            // alert; every later packet of the flow drops, even on
            // unscored ports
            for i in 0..6 {
                assert_eq!(
                    send(&mut e, 1, 22),
                    HookVerdict::Pass,
                    "native={native} i={i}"
                );
            }
            assert_eq!(e.global(f, 1), 1, "native={native}: one alert");
            assert_eq!(send(&mut e, 1, 22), HookVerdict::Drop, "native={native}");
            assert_eq!(send(&mut e, 1, 80), HookVerdict::Drop, "native={native}");
            assert_eq!(e.global(f, 1), 1, "native={native}: still one alert");

            // an unrelated flow is unaffected
            assert_eq!(send(&mut e, 2, 80), HookVerdict::Pass, "native={native}");
            assert_eq!(e.stats.faults, 0, "native={native}");
        }
    }

    #[test]
    fn stateful_firewall_times_idle_flows_out() {
        for native in [false, true] {
            let mut e = build(&stateful_firewall(), native);
            let f = eden_core::FuncId(0);
            let mut rng = SimRng::new(5);
            let mut send = |e: &mut Enclave, t: u64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1,
                    ..Default::default()
                });
                e.process(&mut p, &mut rng, Time::from_nanos(t))
            };
            // establish at t=0, refresh at t=5 (within the 6 ns idle)
            assert_eq!(send(&mut e, 0), HookVerdict::Pass, "native={native}");
            assert_eq!(send(&mut e, 5), HookVerdict::Pass, "native={native}");
            // t=20 observes a 15 ns gap: the timeout row fires — drop,
            // count, back to NEW
            assert_eq!(send(&mut e, 20), HookVerdict::Drop, "native={native}");
            assert_eq!(e.global(f, 1), 1, "native={native}: blocked count");
            // the next outbound packet re-establishes
            assert_eq!(send(&mut e, 21), HookVerdict::Pass, "native={native}");
            assert_eq!(e.stats.faults, 0, "native={native}");
        }
    }

    #[test]
    fn rate_limit_enforces_the_window_budget() {
        for native in [false, true] {
            let mut e = build(&rate_limit(), native);
            let mut rng = SimRng::new(5);
            let mut send = |e: &mut Enclave, i: u64, t: u64| {
                let mut p = Packet::tcp(1, 2, TcpHeader::default(), 1000);
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1 + i,
                    ..Default::default()
                });
                e.process(&mut p, &mut rng, Time::from_nanos(t))
            };
            // 96 × 1040-byte packets fit the 100 kB window; the 97th trips
            for i in 0..96 {
                assert_eq!(
                    send(&mut e, i, 1),
                    HookVerdict::Pass,
                    "native={native} i={i}"
                );
            }
            assert_eq!(send(&mut e, 96, 1), HookVerdict::Drop, "native={native}");
            // a fresh window admits traffic again
            assert_eq!(send(&mut e, 97, 300), HookVerdict::Pass, "native={native}");
            assert_eq!(e.stats.faults, 0, "native={native}");
        }
    }

    /// The XFSM-lowered programs are observationally equivalent to their
    /// native forms — verdicts, header writes, message/global state,
    /// punts, and RNG draw counts — on random packet streams, serial and
    /// batched. The programs' bytecode is pinned by the disassembly
    /// goldens in `tests/disasm_golden.rs`.
    mod xfsm_equivalence {
        use super::*;
        use eden_core::FuncId;
        use proptest::prelude::*;

        fn refactored() -> Vec<FunctionBundle> {
            vec![
                pias(),
                pias_fig7(),
                pulsar(),
                qjump(),
                port_knock(),
                conntrack(),
            ]
        }

        #[derive(Debug, Clone)]
        struct Spec {
            port_idx: usize,
            payload: usize,
            msg: u64,
            msg_type: i64,
            msg_size: i64,
            tenant: i64,
            key_hash: i64,
        }

        fn spec() -> impl Strategy<Value = Spec> {
            (
                0usize..5,
                0usize..1400,
                1u64..8,
                1i64..3,
                0i64..2_000_000,
                0i64..3,
                any::<i64>(),
            )
                .prop_map(
                    |(port_idx, payload, msg, msg_type, msg_size, tenant, key_hash)| Spec {
                        port_idx,
                        payload,
                        msg,
                        msg_type,
                        msg_size,
                        tenant,
                        key_hash,
                    },
                )
        }

        fn mk_packet(s: &Spec) -> Packet {
            let mut p = Packet::tcp(
                1,
                2,
                TcpHeader {
                    src_port: 40000,
                    dst_port: [80, 22, 1001, 1002, 1003][s.port_idx],
                    ..Default::default()
                },
                s.payload,
            );
            p.meta = Some(EdenMeta {
                classes: vec![1],
                msg_id: s.msg,
                msg_type: s.msg_type,
                msg_size: s.msg_size,
                tenant: s.tenant,
                key_hash: s.key_hash,
                msg_start: false,
            });
            p
        }

        /// Everything observable about a run: per-packet verdicts, final
        /// header bytes, punts, and the function's whole state.
        #[derive(Debug, PartialEq)]
        struct Observed {
            verdicts: Vec<HookVerdict>,
            packets: Vec<Packet>,
            punted: Vec<Packet>,
            msg_state: Vec<(u64, Vec<i64>)>,
            global: Vec<i64>,
            arrays: Vec<Vec<i64>>,
            faults: u64,
            rng_probe: i64,
        }

        /// Run `specs` through an enclave holding `bundle`'s native or
        /// interpreted form, serially (chunked timestamps matching the
        /// batch leg) or via `process_batch`.
        fn run(
            bundle: &FunctionBundle,
            native: bool,
            specs: &[Spec],
            chunk: usize,
            batched: bool,
            seed: u64,
        ) -> Observed {
            let mut e = build(bundle, native);
            let f = FuncId(0);
            let mut rng = SimRng::new(seed);
            let mut verdicts = Vec::new();
            let mut packets = Vec::new();
            for (ci, chunk_specs) in specs.chunks(chunk).enumerate() {
                let now = Time::from_nanos(1 + ci as u64);
                let mut batch: Vec<Packet> = chunk_specs.iter().map(mk_packet).collect();
                if batched {
                    verdicts.extend(e.process_batch(&mut batch, &mut rng, now));
                } else {
                    for p in batch.iter_mut() {
                        verdicts.push(e.process(p, &mut rng, now));
                    }
                }
                packets.extend(batch);
            }
            let punted = e.take_punted();
            let state = e.function_state(f);
            Observed {
                verdicts,
                packets,
                punted,
                msg_state: state.msg_dump(),
                global: state.global.clone(),
                arrays: state.arrays.clone(),
                faults: e.stats.faults,
                rng_probe: rng.next_i64(), // equal only if draw counts matched
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// XFSM, interpreted serial and batched, and the native batch
            /// path all ≡ the native serial run.
            #[test]
            fn xfsm_matches_native_on_random_streams(
                specs in proptest::collection::vec(spec(), 1..120),
                chunk in 1usize..16,
                seed in 0u64..1000,
            ) {
                for bundle in refactored() {
                    let baseline = run(&bundle, true, &specs, chunk, false, seed);
                    let xfsm_serial = run(&bundle, false, &specs, chunk, false, seed);
                    prop_assert_eq!(&baseline, &xfsm_serial, "{}: serial", bundle.name);
                    let xfsm_batch = run(&bundle, false, &specs, chunk, true, seed);
                    prop_assert_eq!(&baseline, &xfsm_batch, "{}: batch", bundle.name);
                    let native_batch = run(&bundle, true, &specs, chunk, true, seed);
                    prop_assert_eq!(&baseline, &native_batch, "{}: native batch", bundle.name);
                }
            }
        }
    }
}
