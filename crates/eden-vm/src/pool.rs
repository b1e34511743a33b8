//! A pool of interpreters, one per enclave worker lane.
//!
//! The enclave's batched data path (§3.4.4) executes independent message
//! lanes in parallel; each lane needs its own [`Interpreter`] because the
//! execution context (operand stack, locals arena, counters) is reusable
//! mutable state. The pool owns one interpreter per lane — lane 0 doubles
//! as the caller thread's interpreter — and rolls the per-lane counters and
//! opcode histograms up into one telemetry view, so a stats pull cannot
//! tell (and does not care) which lane ran an invocation.

use eden_telemetry::VmCounters;

use crate::interp::Interpreter;
use crate::limits::Limits;
use crate::op::Op;

/// One [`Interpreter`] per worker lane, with merged telemetry.
#[derive(Debug)]
pub struct InterpreterPool {
    lanes: Vec<Interpreter>,
}

impl InterpreterPool {
    /// A pool of `lanes` interpreters (at least one), all with `limits`.
    pub fn new(limits: Limits, lanes: usize) -> InterpreterPool {
        let lanes = lanes.max(1);
        InterpreterPool {
            lanes: (0..lanes).map(|_| Interpreter::new(limits)).collect(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Borrow one lane's interpreter.
    pub fn lane(&self, lane: usize) -> &Interpreter {
        &self.lanes[lane]
    }

    /// Borrow one lane's interpreter mutably.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Interpreter {
        &mut self.lanes[lane]
    }

    /// Borrow all lanes at once (split across scoped worker threads).
    pub fn lanes_mut(&mut self) -> &mut [Interpreter] {
        &mut self.lanes
    }

    /// Counters summed over every lane.
    pub fn counters(&self) -> VmCounters {
        let mut total = VmCounters::default();
        for lane in &self.lanes {
            total.merge(&lane.counters());
        }
        total
    }

    /// The most recent trap site across all lanes (None if no lane has
    /// trapped). With multiple trapped lanes, lane order breaks the tie —
    /// good enough for a flight-recorder attribution.
    pub fn last_trap(&self) -> Option<crate::interp::TrapSite> {
        self.lanes.iter().find_map(|l| l.last_trap())
    }

    /// Clear every lane's counters (and histogram, if profiling).
    pub fn reset_counters(&mut self) {
        for lane in &mut self.lanes {
            lane.reset_counters();
        }
    }

    /// Enable or disable opcode profiling on every lane.
    pub fn set_opcode_profiling(&mut self, enabled: bool) {
        for lane in &mut self.lanes {
            lane.set_opcode_profiling(enabled);
        }
    }

    /// The opcode histogram summed over every lane, if profiling is on.
    pub fn opcode_histogram(&self) -> Option<Box<[u64; Op::KIND_COUNT]>> {
        let mut total: Option<Box<[u64; Op::KIND_COUNT]>> = None;
        for lane in &self.lanes {
            if let Some(hist) = lane.opcode_histogram() {
                let acc = total.get_or_insert_with(|| Box::new([0; Op::KIND_COUNT]));
                for (a, &h) in acc.iter_mut().zip(hist.iter()) {
                    *a += h;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::host::VecHost;

    fn tiny_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        b.push(1).push(2).add().store_pkt(0).halt();
        b.build().unwrap()
    }

    #[test]
    fn counters_merge_across_lanes() {
        let prog = tiny_program();
        let mut pool = InterpreterPool::new(Limits::default(), 3);
        for lane in 0..3 {
            let mut host = VecHost::default();
            host.packet = vec![0];
            pool.lane_mut(lane).run(&prog, &mut host).unwrap();
        }
        let merged = pool.counters();
        assert_eq!(merged.invocations, 3);
        assert_eq!(merged.traps, 0);
        assert_eq!(merged.steps, 3 * pool.lane_mut(0).counters().steps);
    }

    #[test]
    fn histograms_merge_across_lanes() {
        let prog = tiny_program();
        let mut pool = InterpreterPool::new(Limits::default(), 2);
        assert!(pool.opcode_histogram().is_none());
        pool.set_opcode_profiling(true);
        for lane in 0..2 {
            let mut host = VecHost::default();
            host.packet = vec![0];
            pool.lane_mut(lane).run(&prog, &mut host).unwrap();
        }
        let hist = pool.opcode_histogram().expect("profiling on");
        // both lanes ran the same 5-op program once each
        assert_eq!(hist.iter().sum::<u64>(), 10);
        pool.set_opcode_profiling(false);
        assert!(pool.opcode_histogram().is_none());
    }

    #[test]
    fn at_least_one_lane() {
        let pool = InterpreterPool::new(Limits::default(), 0);
        assert_eq!(pool.lanes(), 1);
    }
}
