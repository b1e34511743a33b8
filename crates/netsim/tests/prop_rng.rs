//! Property tests for the demand-driven per-packet draw (`netsim::rng`)
//! and the generator under it (`vendor/rand_chacha`, tested here so the
//! shim's own manifest needs no dev-dependency).
//!
//! [`SimRng::fork_packet`] reserves a packet's draw and computes it only if
//! the packet's stream is read. The twin here forks the way it was always
//! defined — `PacketRng::new(rng.next_u64())`, the draw read on the spot —
//! and every value either side hands out, from the generator or from a
//! packet's stream, must agree, whatever the packets do with their forks.

use netsim::{PacketRng, SimRng};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, Reserved};

/// One step of a `SimRng` workout.
#[derive(Debug, Clone)]
enum Op {
    U64,
    Below(u64),
    Unit,
    /// A packet whose functions draw this many times (0: never).
    Packet(usize),
    /// A packet dealt to a lane: seeded now, read `draws` times only after
    /// the generator has handed out this many further `u64`s.
    Dealt {
        draws: usize,
        later: usize,
    },
    /// Carry on with a clone, taken wherever the cursor happens to be.
    Clone,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Op::U64),
            (1u64..1000).prop_map(Op::Below),
            Just(Op::Unit),
            Just(Op::Packet(0)),
            (0usize..4).prop_map(Op::Packet),
            (0usize..3, 0usize..20).prop_map(|(draws, later)| Op::Dealt { draws, later }),
            Just(Op::Clone),
        ],
        0..160,
    )
}

proptest! {
    #[test]
    fn reserved_forks_see_what_eager_forks_saw(seed in any::<u64>(), ops in ops()) {
        let mut rng = SimRng::new(seed);
        let mut twin = SimRng::new(seed);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::U64 => prop_assert_eq!(rng.next_u64(), twin.next_u64(), "step {}", step),
                Op::Below(n) => prop_assert_eq!(rng.below(n), twin.below(n), "step {}", step),
                Op::Unit => prop_assert_eq!(rng.unit().to_bits(), twin.unit().to_bits()),
                Op::Packet(draws) => {
                    let mut p = rng.fork_packet();
                    let mut q = PacketRng::new(twin.next_u64());
                    for _ in 0..draws {
                        prop_assert_eq!(p.next_i64(), q.next_i64(), "step {}", step);
                    }
                }
                Op::Dealt { draws, later } => {
                    let mut p = rng.fork_packet().resolve();
                    let mut q = PacketRng::new(twin.next_u64());
                    for _ in 0..later {
                        prop_assert_eq!(rng.next_u64(), twin.next_u64(), "step {}", step);
                    }
                    for _ in 0..draws {
                        prop_assert_eq!(p.next_u64(), q.next_u64(), "step {}", step);
                    }
                }
                Op::Clone => rng = rng.clone(),
            }
        }
        // the final cursor: both sides continue with the same stream, and
        // laziness never computes a block the eager side did not
        prop_assert!(rng.blocks_generated() <= twin.blocks_generated());
        for _ in 0..9 {
            prop_assert_eq!(rng.next_u64(), twin.next_u64());
        }
    }
}

/// One step of a `ChaCha12Rng` workout.
#[derive(Debug, Clone)]
enum WordOp {
    U32,
    U64,
    /// Reserve a draw and resolve it this many steps later (0: at once;
    /// the larger values outlast the block it sits in).
    Reserve(usize),
    ReserveAndForget,
    /// Carry on with a clone, taken wherever the cursor happens to be.
    Clone,
}

fn word_ops() -> impl Strategy<Value = Vec<WordOp>> {
    proptest::collection::vec(
        prop_oneof![
            Just(WordOp::U32),
            Just(WordOp::U64),
            (0usize..3).prop_map(WordOp::Reserve),
            (3usize..40).prop_map(WordOp::Reserve),
            Just(WordOp::ReserveAndForget),
            Just(WordOp::Clone),
        ],
        0..120,
    )
}

proptest! {
    /// Any interleaving of reads, reservations (resolved at once, late or
    /// never) and clones sees the values, and ends on the cursor, of a twin
    /// that reads every draw where it stands. (That the twin's stream is
    /// the parent's is the pinned keystream in the shim's unit tests.)
    #[test]
    fn any_interleaving_matches_the_eager_twin(seed in any::<u64>(), ops in word_ops()) {
        let mut r = ChaCha12Rng::seed_from_u64(seed);
        let mut twin = ChaCha12Rng::seed_from_u64(seed);
        let mut owed: Vec<(usize, Reserved, u64)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                WordOp::U32 => prop_assert_eq!(r.next_u32(), twin.next_u32(), "step {}", step),
                WordOp::U64 => prop_assert_eq!(r.next_u64(), twin.next_u64(), "step {}", step),
                WordOp::Reserve(later) => {
                    owed.push((step + later, r.reserve_u64(), twin.next_u64()));
                }
                WordOp::ReserveAndForget => {
                    r.reserve_u64();
                    twin.next_u64();
                }
                WordOp::Clone => r = r.clone(),
            }
            let mut i = 0;
            while i < owed.len() {
                if owed[i].0 <= step {
                    let (_, at, want) = owed.swap_remove(i);
                    prop_assert_eq!(r.resolve_u64(at), want, "step {}", step);
                } else {
                    i += 1;
                }
            }
        }
        for (_, at, want) in owed {
            prop_assert_eq!(r.resolve_u64(at), want);
        }
        // the final cursor, to the word: a `u32` first, so a cursor one
        // word off would pair the following `u64`s differently
        prop_assert_eq!(r.next_u32(), twin.next_u32());
        for _ in 0..9 {
            prop_assert_eq!(r.next_u64(), twin.next_u64());
        }
    }
}
