//! Wire-byte pins for every tag both codecs write: one instance of each
//! bytecode opcode kind, every `Cmp` selector, and a control-plane
//! `Prepare` whose schema uses every header field, scope, access mode,
//! replication mode and concurrency level, plus an `Ack` per phase.
//!
//! The hex strings were captured from the encoders and are never
//! regenerated: a codec rewrite must reproduce them byte for byte, and a
//! failure here means a peer built before the change can no longer read
//! what a peer built after it writes (or the reverse).

use eden::core::{ClassId, EnclaveOp, MatchSpec, ShippedFunction};
use eden::ctrl::{AckPhase, CtrlMsg, CtrlReply, Request, Response};
use eden::lang::{Access, Concurrency, HeaderField, ReplMode, Schema};
use eden::vm::{decode_program, encode_program, Cmp, FuncInfo, Op, Program};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A verified program holding every opcode kind at least once, every
/// comparison selector, and operands that differ from their neighbours'
/// bytes so a field written at the wrong width or offset shows.
fn every_opcode() -> Program {
    use Op::*;
    let ops = vec![
        Push(-2),
        Dup,
        Pop,
        Push(0x0102_0304_0506_0708),
        Swap,
        LoadLocal(1),
        StoreLocal(0),
        LoadPkt(2),
        StorePkt(3),
        LoadMsg(4),
        StoreMsg(5),
        LoadGlob(6),
        StoreGlob(7),
        ArrLoad(1),
        ArrLen(2),
        ArrStore(3),
        // depth 1 from here on; each binary op reads a duplicate
        Dup,
        Add,
        Dup,
        Sub,
        Dup,
        Mul,
        Dup,
        Div,
        Dup,
        Rem,
        Neg,
        Dup,
        And,
        Dup,
        Or,
        Dup,
        Xor,
        Not,
        Dup,
        Shl,
        Dup,
        Shr,
        Dup,
        Eq,
        Dup,
        Ne,
        Dup,
        Lt,
        Dup,
        Le,
        Dup,
        Gt,
        Dup,
        Ge,
        Jmp(51),
        Dup, // 51
        JmpIf(54),
        Drop,
        Dup, // 54
        JmpIfNot(57),
        ToController,
        Call(0), // 57
        Rand,
        RandRange,
        Now,
        Hash,
        SetQueue,
        // depth 0
        LoadPktAddImm(8, 10),
        AddImm(-9),
        MulImm(0x7FFF_FFFF_FFFF),
        LoadPktMulImm(9, -11),
        IncrLocal(1, 12),
        IncrMsg(10, -13),
        IncrGlob(11, 14),
        CmpBr(Cmp::Eq, 71),
        LoadLocal(0), // 71
        LoadLocal(1),
        CmpBr(Cmp::Ne, 74),
        LoadLocal(0), // 74
        Dup,
        CmpBr(Cmp::Lt, 77),
        LoadLocal(1), // 77
        PushCmpBr(Cmp::Le, 15, 79),
        LoadLocal(0), // 79
        PushCmpBr(Cmp::Gt, -16, 81),
        LoadLocal(0), // 81
        PushCmpBr(Cmp::Ge, 17, 83),
        LoadLocal(1), // 83
        Dup,
        JmpIfNot(87),
        GotoTable,
        Halt, // 87
        // function 0: one argument, returned
        LoadLocal(0), // 88
        Ret,
    ];
    let funcs = vec![FuncInfo {
        entry: 88,
        arity: 1,
        n_locals: 1,
    }];
    Program::new("every-op", ops, funcs, 2).expect("verifies")
}

#[test]
fn every_opcode_kind_encodes_to_its_pinned_bytes() {
    let p = every_opcode();
    let mut seen = [false; Op::KIND_COUNT];
    for op in p.ops() {
        seen[op.kind_index()] = true;
    }
    assert!(seen.iter().all(|&s| s), "every opcode kind appears");

    let bytes = encode_program(&p);
    assert_eq!(hex(&bytes), PINNED_PROGRAM);
    assert_eq!(decode_program(&bytes), Ok(p));
}

const PINNED_PROGRAM: &str = "4544454e02000201005a000000080065766572792d6f7058000000010101feff\
     ffffffffffff020301080706050403020104050106000702080309040a050b06\
     0c070d010f020e03021002110212021302141502160217021819021a021b0220\
     0221022202230224022530330000000231360000005002323900000052330000\
     404142435162080a0000000000000060f7ffffffffffffff61ffffffffff7f00\
     006309f5ffffffffffffff64010c00000000000000650af3ffffffffffffff66\
     0b0e000000000000007000470000000500050170014a00000005000270024d00\
     0000050171030f000000000000004f00000005007104f0ffffffffffffff5100\
     00000500710511000000000000005300000005010232570000005335050034";

/// A function whose schema maps a packet field onto every header field and
/// declares each scope, access mode and replication mode.
fn every_schema_tag() -> Schema {
    let headers = [
        HeaderField::Ipv4TotalLength,
        HeaderField::Ipv4Src,
        HeaderField::Ipv4Dst,
        HeaderField::Ipv4Protocol,
        HeaderField::Ipv4Dscp,
        HeaderField::SrcPort,
        HeaderField::DstPort,
        HeaderField::TcpSeq,
        HeaderField::Dot1qPcp,
        HeaderField::Dot1qVid,
        HeaderField::MetaMsgId,
        HeaderField::MetaMsgType,
        HeaderField::MetaMsgSize,
        HeaderField::MetaTenant,
        HeaderField::MetaKeyHash,
        HeaderField::MetaMsgStart,
        HeaderField::Direction,
    ];
    let mut s = Schema::new();
    for (i, h) in headers.into_iter().enumerate() {
        let access = if i % 2 == 0 {
            Access::ReadOnly
        } else {
            Access::ReadWrite
        };
        s = s.packet_field(&format!("H{i}"), access, Some(h));
    }
    s.packet_field("Plain", Access::ReadWrite, None)
        .msg_field("Seen", Access::ReadWrite)
        .global_field("Cap", Access::ReadOnly)
        .global_field("Tokens", Access::ReadWrite)
        .replicated(ReplMode::MergedSum)
        .global_field("High", Access::ReadWrite)
        .replicated(ReplMode::MergedMax)
        .global_array("Map", &["A", "B"], Access::ReadOnly)
        .global_array("Log", &[""], Access::ReadWrite)
        .replicated(ReplMode::Sequenced)
}

fn install(name: &str, schema: Schema, concurrency: Concurrency) -> EnclaveOp {
    EnclaveOp::InstallFunction(Box::new(ShippedFunction {
        name: name.into(),
        bytecode: vec![0xB0, 0xB1],
        schema,
        concurrency,
    }))
}

#[test]
fn a_prepare_using_every_schema_tag_encodes_to_its_pinned_bytes() {
    let msg = CtrlMsg::Prepare {
        epoch: 0x0102_0304,
        ops: vec![
            EnclaveOp::Reset,
            EnclaveOp::CreateTable,
            install("par", every_schema_tag(), Concurrency::Parallel),
            install("msg", Schema::new(), Concurrency::PerMessage),
            install("ser", Schema::new(), Concurrency::Serialized),
            EnclaveOp::InstallRule {
                table: 1,
                spec: MatchSpec::Any,
                func: 2,
            },
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Class(ClassId(0xC1A5)),
                func: 1,
            },
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::AnyOf(vec![ClassId(3), ClassId(0x1_0000)]),
                func: 0,
            },
            EnclaveOp::RemoveRule { table: 0, rule: 5 },
            EnclaveOp::ClearTable { table: 1 },
            EnclaveOp::SetGlobal {
                func: 2,
                slot: 1,
                value: -77,
            },
            EnclaveOp::SetArray {
                func: 1,
                array: 0,
                values: vec![1, -2],
            },
        ],
    };
    let frame = Request::from(msg);
    let bytes = frame.encode().expect("fits the wire");
    assert_eq!(hex(&bytes), PINNED_PREPARE);
    assert_eq!(Request::decode(&bytes), Ok(frame));
}

const PINNED_PREPARE: &str = "0104030201000000000c000001030300000070617202000000b0b11600020000\
     0048300000010002000000483100010101020000004832000001020200000048\
     3300010103020000004834000001040200000048350001010502000000483600\
     0001060200000048370001010702000000483800000108020000004839000101\
     09030000004831300000010a030000004831310001010b030000004831320000\
     010c030000004831330001010d030000004831340000010e0300000048313500\
     01010f030000004831360000011005000000506c61696e000100040000005365\
     656e0101000300000043617002000006000000546f6b656e7302010200040000\
     0048696768020102010200030000004d61700200010000004101000000420003\
     0000004c6f6701000000000003020003030000006d736702000000b0b1000000\
     0001030300000073657202000000b0b100000000020401000000000200000004\
     0000000001a5c100000100000004000000000202000300000000000100000000\
     000500000000050000000201000000060200000001000000b3ffffffffffffff\
     070100000000000000020000000100000000000000feffffffffffffff";

#[test]
fn an_ack_per_phase_encodes_to_its_pinned_bytes() {
    let phases = [AckPhase::Prepare, AckPhase::Commit, AckPhase::Abort];
    let acks: Vec<String> = phases
        .into_iter()
        .enumerate()
        .map(|(i, phase)| {
            let frame = Response::from(CtrlReply::Ack {
                re: 0x0A0B_0C00 + i as u32,
                epoch: 0x30 + i as u64,
                phase,
            });
            let bytes = frame.encode().expect("fits the wire");
            assert_eq!(Response::decode(&bytes), Ok(frame));
            hex(&bytes)
        })
        .collect();
    assert_eq!(acks, PINNED_ACKS);
}

const PINNED_ACKS: [&str; 3] = [
    "01000c0b0a300000000000000000",
    "01010c0b0a310000000000000001",
    "01020c0b0a320000000000000002",
];
