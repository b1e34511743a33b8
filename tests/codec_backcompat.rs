//! Wire-format back-compatibility: a bytecode blob produced by the v1
//! codec (before the superinstruction opcodes existed) must still decode
//! and run **identically** under the v2 codec.
//!
//! `tests/data/program_v1.edenbc` was written by the pre-refactor encoder
//! and is never regenerated; every pinned value below was captured on the
//! commit that introduced the blob. If any assertion here fails, the codec
//! bump broke old programs in the field.

use eden::vm::{decode_program, Effect, Interpreter, Limits, VecHost, MIN_VERSION, VERSION};

const BLOB: &[u8] = include_bytes!("data/program_v1.edenbc");

fn run_blob(pkt0: i64) -> (VecHost, Interpreter) {
    let program = decode_program(BLOB).expect("v1 blob must decode under the v2 codec");
    let mut host = VecHost::with_slots(8, 8, 8);
    host.arrays.push(vec![3, 1, 4, 1, 5, 9, 2, 6]);
    host.packet[0] = pkt0;
    let mut interp = Interpreter::new(Limits::default());
    let out = interp.run(&program, &mut host).expect("v1 program runs");
    assert_eq!(out, eden::vm::Outcome::Done);
    (host, interp)
}

#[test]
fn v1_blob_declares_version_one_and_still_decodes() {
    assert_eq!(u16::from_le_bytes([BLOB[4], BLOB[5]]), 1);
    assert_eq!(MIN_VERSION, 1, "v1 support must not be dropped");

    let program = decode_program(BLOB).unwrap();
    assert_eq!(program.name(), "v1-compat");
    assert_eq!(program.ops().len(), 62);
    assert_eq!(program.funcs().len(), 1);
    assert_eq!(program.entry_locals(), 4);
    // A v1 blob by definition predates the fused opcodes.
    assert!(
        program.ops().iter().all(|op| op.min_version() == 1),
        "v1 blob must contain no v2 superinstructions"
    );
}

#[test]
fn v1_blob_runs_identically_after_the_version_bump() {
    // Large packet: takes the `pkt[0] > 100` branch and emits SetQueue.
    let (host, interp) = run_blob(12345);
    assert_eq!(host.packet[1], 0);
    assert_eq!(host.msg[0], 16_200_611);
    assert_eq!(host.global[1], 135);
    assert_eq!(host.arrays[0][1], -40_501_533);
    assert_eq!(
        host.effects,
        vec![Effect::SetQueue {
            queue: 2,
            charge: 4096
        }]
    );
    assert_eq!(interp.usage().steps, 206);

    // Small packet: the SetQueue branch is skipped.
    let (host, interp) = run_blob(77);
    assert_eq!(host.packet[1], 0);
    assert_eq!(host.msg[0], 102_509);
    assert_eq!(host.global[1], 645);
    assert_eq!(host.arrays[0][1], -256_279);
    assert_eq!(host.effects, vec![]);
    assert_eq!(interp.usage().steps, 203);
}

#[test]
fn reencoding_the_v1_program_upgrades_the_header_without_changing_semantics() {
    let program = decode_program(BLOB).unwrap();
    let reencoded = eden::vm::encode_program(&program);
    assert_eq!(
        u16::from_le_bytes([reencoded[4], reencoded[5]]),
        VERSION,
        "encode always writes the current version"
    );
    let round = decode_program(&reencoded).unwrap();
    assert_eq!(round.ops(), program.ops());
    assert_eq!(round.name(), program.name());
    assert_eq!(round.entry_locals(), program.entry_locals());
}
