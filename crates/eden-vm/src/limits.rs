//! Resource budgets and usage accounting.
//!
//! §5.4 of the paper: "the (operand) stack and heap space of the interpreter
//! are in the order of 64 and 256 bytes respectively" for the case-study
//! programs. §6: the enclave "can, in principle, limit the amount of
//! resources (memory and computational cycles) used by an action function",
//! but the authors "chose not to restrict the complexity of the computation"
//! — the administrator decides. We expose all three budgets; the instruction
//! budget (`fuel`) defaults to unlimited to match the paper's stance, while
//! stack and heap default to generous multiples of the paper's footprint.
//!
//! The memory budgets are enforced *statically*: the verifier derives each
//! program's worst-case [`Envelope`], and a program whose envelope exceeds
//! the budgets is refused before its first instruction
//! ([`Envelope::fits`]). Nothing is compared per push or per call; only
//! the instruction budget, when one is set, is counted down at run time.

use crate::error::VmError;
use crate::host::StateUse;

/// Slots in each of the interpreter's two fixed frames (operand stack,
/// locals). A memory budget above it is clamped to it.
pub const FRAME_SLOTS: usize = 256;

/// Resource limits for one action-function execution.
///
/// The three memory budgets bound a program's static [`Envelope`], checked
/// once at admission; `max_stack` and `max_heap_slots` are clamped to
/// [`FRAME_SLOTS`]. A recursive program has no finite envelope and fits
/// no budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum operand-stack depth, in 8-byte slots.
    pub max_stack: usize,
    /// Maximum total locals across all live frames, in 8-byte slots. This is
    /// the interpreter's "heap" in the paper's terminology: all
    /// function-local state lives here.
    pub max_heap_slots: usize,
    /// Maximum call-frame depth (the paper's programs are small; tail
    /// recursion is compiled to loops, any other recursion is refused).
    pub max_call_depth: usize,
    /// Optional instruction budget. `None` (the default) reproduces the
    /// paper's choice of not capping data-plane computation.
    pub fuel: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            // 64 slots = 512 B; the paper's programs used ~8 slots (64 B).
            max_stack: 64,
            // 256 slots = 2 KiB; the paper's programs used ~32 slots (256 B).
            max_heap_slots: 256,
            max_call_depth: 16,
            fuel: None,
        }
    }
}

impl Limits {
    /// The paper's reported footprint: 64-byte operand stack, 256-byte heap
    /// (8 and 32 slots). Useful for demonstrating that the case-study
    /// programs really fit (§5.4) and in tests.
    pub fn paper_footprint() -> Self {
        Limits {
            max_stack: 8,
            max_heap_slots: 32,
            max_call_depth: 8,
            fuel: None,
        }
    }

    /// A hardened profile for untrusted tenant programs: small memory plus a
    /// bounded instruction budget.
    pub fn strict() -> Self {
        Limits {
            max_stack: 32,
            max_heap_slots: 128,
            max_call_depth: 8,
            fuel: Some(100_000),
        }
    }
}

/// A program's static worst-case memory demand along its deepest call
/// chain, in 8-byte slots. Exact for straight-line code; an upper bound
/// wherever control flow decides (both arms of a branch count, whether or
/// not both can be taken).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bound {
    /// Operand-stack depth: each frame's own peak on top of what its
    /// callers left below it.
    pub stack: usize,
    /// Locals ("heap") live at once: the top level's plus every frame's
    /// down the chain.
    pub heap: usize,
    /// Call frames down the chain (`0`: the program never calls).
    pub call_depth: usize,
}

impl Bound {
    /// Did a run that reached `seen` stay inside this bound?
    pub fn covers(&self, seen: &Bound) -> bool {
        seen.stack <= self.stack && seen.heap <= self.heap && seen.call_depth <= self.call_depth
    }
}

/// What the verifier learns about a program beyond "it is well formed":
/// the memory it can need and the state it can touch. Everything an
/// interpreter or an enclave has to check about a program before running
/// it, so that nothing about it is checked while it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Envelope {
    /// `None` when a function reachable from the top level can reach
    /// itself: each turn of the cycle adds a frame, so no finite bound
    /// exists.
    pub bound: Option<Bound>,
    /// State slots read and written by the reachable code.
    pub state: StateUse,
}

impl Envelope {
    /// Does the program fit `limits`? The refusal is the trap the program
    /// could otherwise have run into, raised before it starts.
    #[inline]
    pub fn fits(&self, limits: &Limits) -> Result<Bound, VmError> {
        let bound = self.bound.ok_or(VmError::CallDepthExceeded)?;
        if bound.stack > limits.max_stack.min(FRAME_SLOTS) {
            Err(VmError::StackOverflow)
        } else if bound.heap > limits.max_heap_slots.min(FRAME_SLOTS) {
            Err(VmError::HeapOverflow)
        } else if bound.call_depth > limits.max_call_depth {
            Err(VmError::CallDepthExceeded)
        } else {
            Ok(bound)
        }
    }
}

/// Resource accounting for the most recent run.
///
/// The three memory figures are the program's static [`Bound`] — an upper
/// bound on what a run can reach, not a high-water mark it did reach.
/// The `fig12` harness reads them to reproduce the paper's §5.4 footprint
/// numbers for our ports of the case-study programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Operand-stack bound, in slots.
    pub peak_stack: usize,
    /// Bound on locals live at once across all frames, in slots.
    pub peak_heap_slots: usize,
    /// Bound on call nesting.
    pub peak_call_depth: usize,
    /// Instructions executed.
    pub steps: u64,
}

impl Usage {
    /// Stack bound in bytes (8-byte slots).
    pub fn peak_stack_bytes(&self) -> usize {
        self.peak_stack * 8
    }

    /// Heap bound in bytes (8-byte slots).
    pub fn peak_heap_bytes(&self) -> usize {
        self.peak_heap_slots * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let l = Limits::default();
        assert!(l.max_stack >= 8);
        assert!(l.max_heap_slots >= 32);
        assert!(l.fuel.is_none());
    }

    #[test]
    fn default_budgets_are_pinned() {
        // The fused interpreter must stay inside the same budgets as the
        // plain one — superinstructions shrink stack traffic, they may not
        // buy headroom by quietly growing these. Changing either number is
        // a deliberate, reviewed decision, not a side effect.
        let l = Limits::default();
        assert_eq!(l.max_stack, 64, "operand-stack budget changed");
        assert_eq!(l.max_heap_slots, 256, "heap budget changed");
        assert_eq!(l.max_call_depth, 16, "call-depth budget changed");
        assert_eq!(l.fuel, None, "default fuel changed");
        let strict = Limits::strict();
        assert_eq!(
            (
                strict.max_stack,
                strict.max_heap_slots,
                strict.max_call_depth
            ),
            (32, 128, 8)
        );
        assert_eq!(strict.fuel, Some(100_000));
    }

    #[test]
    fn paper_footprint_matches_section_5_4() {
        let l = Limits::paper_footprint();
        assert_eq!(l.max_stack * 8, 64);
        assert_eq!(l.max_heap_slots * 8, 256);
    }

    #[test]
    fn envelope_is_checked_against_clamped_budgets() {
        let fits = |stack, heap, call_depth, limits: &Limits| {
            Envelope {
                bound: Some(Bound {
                    stack,
                    heap,
                    call_depth,
                }),
                state: StateUse::default(),
            }
            .fits(limits)
            .map(|_| ())
        };
        let l = Limits::default();
        assert_eq!(fits(64, 256, 16, &l), Ok(()));
        assert_eq!(fits(65, 0, 0, &l), Err(VmError::StackOverflow));
        assert_eq!(fits(0, 257, 0, &l), Err(VmError::HeapOverflow));
        assert_eq!(fits(0, 0, 17, &l), Err(VmError::CallDepthExceeded));
        // a budget beyond the fixed frame buys nothing
        let wide = Limits {
            max_stack: 10_000,
            max_heap_slots: 10_000,
            ..l
        };
        assert_eq!(fits(FRAME_SLOTS, FRAME_SLOTS, 0, &wide), Ok(()));
        assert_eq!(
            fits(FRAME_SLOTS + 1, 0, 0, &wide),
            Err(VmError::StackOverflow)
        );
        assert_eq!(
            fits(0, FRAME_SLOTS + 1, 0, &wide),
            Err(VmError::HeapOverflow)
        );
        // recursion has no bound to compare
        assert_eq!(
            Envelope::default().fits(&wide),
            Err(VmError::CallDepthExceeded)
        );
    }

    #[test]
    fn usage_bytes() {
        let u = Usage {
            peak_stack: 5,
            peak_heap_slots: 10,
            peak_call_depth: 2,
            steps: 100,
        };
        assert_eq!(u.peak_stack_bytes(), 40);
        assert_eq!(u.peak_heap_bytes(), 80);
    }
}
