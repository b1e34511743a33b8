//! Bytecode wire format: how the controller ships compiled action
//! functions to enclaves.
//!
//! The paper's controller compiles on its side and injects *bytecode* into
//! enclaves ("avoids the complexities of dynamically loading code in the OS
//! or the NIC", §3.4.3). This module is that wire format: a compact,
//! versioned, self-describing encoding. Decoding **re-runs the verifier**
//! (via [`Program::new`]), so an enclave never executes a program a
//! corrupted or malicious update could smuggle past the checks — the
//! trust stays in the interpreter and verifier, exactly as §3.4.3 argues.
//!
//! Layout (all integers little-endian, written with
//! [`eden_telemetry::le`]):
//!
//! ```text
//! magic   u32   0x4E454445 ("EDEN")
//! version u16   2 (1 still decodes; see below)
//! nlocals u8    entry locals
//! nfuncs  u16   function-table entries
//! nops    u32   instruction count
//! name    u16-prefixed UTF-8
//! funcs   nfuncs × { entry u32, arity u8, n_locals u8 }
//! ops     nops × { opcode u8, operands }
//! ```
//!
//! Each op is its opcode byte, then its operands in declaration order at
//! their own widths, a comparison selector as its tag in `Cmp::ALL`. The
//! bytes, operands and mnemonics of every opcode are one table in `op.rs`.
//! [`Program::new`] refuses a name or function table longer than its
//! prefix can count, so a verified program always encodes.
//!
//! Version history: v1 is the original opcode set; v2 adds the fused
//! superinstructions (opcode bytes `0x60..` / `0x70..`). Decoding accepts
//! both, but a blob that declares v1 while using a v2 opcode is rejected —
//! old enclaves would have refused it, so new ones must too.

#![deny(clippy::cast_possible_truncation)]

use eden_telemetry::le::{self, Reader, Writer};

use crate::op::Op;
use crate::program::{FuncInfo, Program};
use crate::verify::VerifyError;

/// Wire-format magic: "EDEN".
pub const MAGIC: u32 = 0x4E45_4445;
/// Current format version (encoding always emits this).
pub const VERSION: u16 = 2;
/// Oldest version `decode` still accepts.
pub const MIN_VERSION: u16 = 1;

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Ran out of bytes mid-structure.
    Truncated,
    /// Unknown opcode byte, or an opcode newer than the declared version.
    BadOpcode(u8),
    /// Comparison selector byte outside the defined `Cmp` range.
    BadCmp(u8),
    /// Program name is not UTF-8.
    BadName,
    /// Decoded program failed verification.
    Verify(VerifyError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an Eden bytecode blob"),
            CodecError::BadVersion(v) => write!(f, "unsupported bytecode version {v}"),
            CodecError::Truncated => write!(f, "truncated bytecode"),
            CodecError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            CodecError::BadCmp(b) => write!(f, "unknown comparison selector {b:#04x}"),
            CodecError::BadName => write!(f, "program name is not valid UTF-8"),
            CodecError::Verify(e) => write!(f, "shipped program failed verification: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A read past the end is a truncated blob; the one tag table the codec
/// reads is `Cmp::ALL`, so a tag past its end is a bad selector.
impl From<le::Error> for CodecError {
    fn from(e: le::Error) -> CodecError {
        match e {
            le::Error::Truncated => CodecError::Truncated,
            le::Error::BadTag(b) => CodecError::BadCmp(b),
        }
    }
}

/// Serialize `program` into the wire format.
pub fn encode(program: &Program) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u8(program.entry_locals());
    w.count(2, program.funcs().len());
    w.count(4, program.ops().len());
    let name = program.name().as_bytes();
    w.count(2, name.len());
    w.raw(name);
    for f in program.funcs() {
        w.u32(f.entry);
        w.u8(f.arity);
        w.u8(f.n_locals);
    }
    for op in program.ops() {
        op.encode(&mut w);
    }
    w.finish()
        .expect("a verified program's counts fit their prefixes")
}

/// Deserialize and **verify** a program shipped by a controller.
pub fn decode(data: &[u8]) -> Result<Program, CodecError> {
    let mut r = Reader::new(data);
    if r.u32()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CodecError::BadVersion(version));
    }
    let entry_locals = r.u8()?;
    let nfuncs = r.count(2)?;
    let nops = r.count(4)?;
    let name_len = r.count(2)?;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CodecError::BadName)?
        .to_string();
    let mut funcs = r.vec_for(nfuncs);
    for _ in 0..nfuncs {
        funcs.push(FuncInfo {
            entry: r.u32()?,
            arity: r.u8()?,
            n_locals: r.u8()?,
        });
    }
    let mut ops = r.vec_for(nops);
    for _ in 0..nops {
        ops.push(Op::decode(&mut r, version)?);
    }
    Program::new(name, ops, funcs, entry_locals).map_err(CodecError::Verify)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::{Interpreter, Limits, VecHost};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new().named("ship-me").with_entry_locals(2);
        let head = b.new_label();
        let done = b.new_label();
        b.push(5).store_local(0);
        b.push(0).store_local(1);
        b.bind(head);
        b.load_local(0).jmp_if_not(done);
        b.load_local(1).load_local(0).add().store_local(1);
        b.load_local(0).push(1).sub().store_local(0);
        b.jmp(head);
        b.bind(done);
        b.load_local(1).store_pkt(0).halt();
        b.build().expect("valid")
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let p = sample();
        let bytes = encode(&p);
        let q = decode(&bytes).expect("decodes");
        assert_eq!(q, p);

        let mut h = VecHost::with_slots(1, 0, 0);
        Interpreter::new(Limits::default()).run(&q, &mut h).unwrap();
        assert_eq!(h.packet[0], 15); // 5+4+3+2+1
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] ^= 0xFF;
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(99)));
        let mut bytes = encode(&sample());
        bytes[4] = 0;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(0)));
    }

    fn fused_sample() -> Program {
        use crate::op::Cmp;
        let mut b = ProgramBuilder::new().named("fused").with_entry_locals(2);
        let head = b.new_label();
        let done = b.new_label();
        b.push(0).store_local(0);
        b.bind(head);
        b.load_local(0).push_cmp_br(Cmp::Ge, 4, done);
        b.incr_local(0, 1);
        b.load_pkt_add_imm(0, 10)
            .load_pkt_mul_imm(0, 2)
            .cmp_br(Cmp::Lt, head);
        b.incr_msg(0, 3).incr_glob(0, 5);
        b.jmp(head);
        b.bind(done);
        b.load_local(0).add_imm(100).mul_imm(2).store_pkt(1).halt();
        b.build().expect("valid fused program")
    }

    #[test]
    fn v2_ops_round_trip() {
        let p = fused_sample();
        let bytes = encode(&p);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        let q = decode(&bytes).expect("decodes");
        assert_eq!(q, p);
    }

    #[test]
    fn v1_blob_may_not_smuggle_v2_opcodes() {
        // rewrite the declared version down to 1: the v2 opcode bytes in
        // the stream must now be rejected, exactly as an old enclave would
        let mut bytes = encode(&fused_sample());
        bytes[4] = 1;
        bytes[5] = 0;
        match decode(&bytes) {
            Err(CodecError::BadOpcode(b)) => assert_eq!(crate::op::first_version(b), 2),
            other => panic!("expected BadOpcode, got {other:?}"),
        }
    }

    #[test]
    fn bad_cmp_byte_rejected() {
        use crate::op::Cmp;
        let p = fused_sample();
        let bytes = encode(&p);
        // corrupt the selector byte after the first compare-branch opcode
        let mut corrupted = bytes.clone();
        let fused = [Op::CmpBr(Cmp::Eq, 0), Op::PushCmpBr(Cmp::Eq, 0, 0)].map(|op| op.byte());
        let at = corrupted
            .iter()
            .position(|b| fused.contains(b))
            .expect("fused sample contains a compare-branch");
        corrupted[at + 1] = 0xEE;
        assert_eq!(decode(&corrupted), Err(CodecError::BadCmp(0xEE)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupted_jump_targets_fail_verification_not_execution() {
        let p = sample();
        let bytes = encode(&p);
        // find the Jmp(head) and corrupt its target to something huge
        let mut corrupted = bytes.clone();
        let mut found = false;
        for i in 0..corrupted.len() - 4 {
            if corrupted[i] == Op::Jmp(0).byte() {
                corrupted[i + 1..i + 5].copy_from_slice(&9999u32.to_le_bytes());
                found = true;
                break;
            }
        }
        assert!(found);
        match decode(&corrupted) {
            Err(CodecError::Verify(_)) => {}
            other => panic!("expected verification failure, got {other:?}"),
        }
    }

    // A name or function table longer than its u16 prefix used to be
    // narrowed with `as u16`: a verified program with a 70,000-byte name
    // encoded to a blob its own decoder rejected.
    #[test]
    fn names_and_function_tables_longer_than_their_prefix_are_refused() {
        let max = usize::from(u16::MAX);
        let named = |n: usize| Program::new("n".repeat(n), vec![Op::Halt], vec![], 0);
        let p = named(max).expect("the longest name a u16 can count");
        assert_eq!(decode(&encode(&p)), Ok(p));
        assert_eq!(named(max + 1), Err(VerifyError::NameTooLong(max + 1)));

        let ret_zero = FuncInfo {
            entry: 1,
            arity: 0,
            n_locals: 0,
        };
        let with_funcs = |n: usize| {
            let ops = vec![Op::Halt, Op::Push(0), Op::Ret];
            Program::new("f", ops, vec![ret_zero; n], 0)
        };
        let p = with_funcs(max).expect("the longest table a u16 can count");
        assert_eq!(decode(&encode(&p)), Ok(p));
        assert_eq!(
            with_funcs(max + 1),
            Err(VerifyError::TooManyFunctions(max + 1))
        );
    }

    #[test]
    fn garbage_never_panics() {
        let mut rng_state = 0x12345u64;
        for len in 0..256 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (rng_state >> 33).to_le_bytes()[0]
                })
                .collect();
            let _ = decode(&bytes); // may error, must not panic
        }
    }
}
