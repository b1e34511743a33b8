//! A pool of interpreters, one per enclave worker lane.
//!
//! The enclave's batched data path (§3.4.4) executes independent message
//! lanes in parallel; each lane needs its own [`Interpreter`] because the
//! execution context (operand stack, locals arena, counters) is reusable
//! mutable state. The pool holds lane 0's interpreter — the caller
//! thread's — from the start and creates lanes 1.. when a batch first fans
//! out ([`InterpreterPool::lanes_mut`]), so an enclave that never fans out
//! carries one interpreter, not one per lane. It rolls the counters and
//! opcode histograms of the interpreters that exist up into one telemetry
//! view, so a stats pull cannot tell (and does not care) which lane ran an
//! invocation.

use eden_telemetry::VmCounters;

use crate::interp::Interpreter;
use crate::limits::Limits;
use crate::op::Op;

/// One [`Interpreter`] per worker lane, made on demand, with merged
/// telemetry.
#[derive(Debug)]
pub struct InterpreterPool {
    /// Lane 0, then lanes 1.. once the first fan-out asked for them.
    made: Vec<Interpreter>,
    /// Lanes configured, made or not.
    lanes: usize,
    limits: Limits,
    /// Whether opcode profiling is on: a lane made later starts with it.
    profiling: bool,
}

impl InterpreterPool {
    /// A pool of `lanes` lanes (at least one), all with `limits`. Only
    /// lane 0's interpreter is made here.
    pub fn new(limits: Limits, lanes: usize) -> InterpreterPool {
        InterpreterPool {
            made: vec![Interpreter::new(limits)],
            lanes: lanes.max(1),
            limits,
            profiling: false,
        }
    }

    /// Number of lanes configured, whether their interpreters exist yet
    /// or not.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Borrow lane 0's interpreter, the caller thread's, which always
    /// exists.
    pub fn caller(&self) -> &Interpreter {
        &self.made[0]
    }

    /// Borrow lane 0's interpreter mutably.
    pub fn caller_mut(&mut self) -> &mut Interpreter {
        &mut self.made[0]
    }

    /// Borrow all lanes at once (split across scoped worker threads),
    /// making the interpreters of lanes not made yet. This is the only
    /// way to reach lanes 1...
    pub fn lanes_mut(&mut self) -> &mut [Interpreter] {
        if self.made.len() < self.lanes {
            self.made.reserve_exact(self.lanes - self.made.len());
            while self.made.len() < self.lanes {
                let mut interp = Interpreter::new(self.limits);
                interp.set_opcode_profiling(self.profiling);
                self.made.push(interp);
            }
        }
        &mut self.made
    }

    /// Counters summed over every lane made so far.
    pub fn counters(&self) -> VmCounters {
        let mut total = VmCounters::default();
        for lane in &self.made {
            total.merge(&lane.counters());
        }
        total
    }

    /// The most recent trap site across all lanes (None if no lane has
    /// trapped). With multiple trapped lanes, lane order breaks the tie —
    /// good enough for a flight-recorder attribution.
    pub fn last_trap(&self) -> Option<crate::interp::TrapSite> {
        self.made.iter().find_map(|l| l.last_trap())
    }

    /// Clear every lane's counters (and histogram, if profiling).
    pub fn reset_counters(&mut self) {
        for lane in &mut self.made {
            lane.reset_counters();
        }
    }

    /// Enable or disable opcode profiling on every lane, including lanes
    /// made later.
    pub fn set_opcode_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
        for lane in &mut self.made {
            lane.set_opcode_profiling(enabled);
        }
    }

    /// The opcode histogram summed over every lane, if profiling is on.
    pub fn opcode_histogram(&self) -> Option<Box<[u64; Op::KIND_COUNT]>> {
        let mut total: Option<Box<[u64; Op::KIND_COUNT]>> = None;
        for lane in &self.made {
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

    fn run_each_lane(pool: &mut InterpreterPool, prog: &crate::program::Program) {
        for interp in pool.lanes_mut() {
            let mut host = VecHost::default();
            host.packet = vec![0];
            interp.run(prog, &mut host).unwrap();
        }
    }

    #[test]
    fn counters_merge_across_lanes() {
        let prog = tiny_program();
        let mut pool = InterpreterPool::new(Limits::default(), 3);
        run_each_lane(&mut pool, &prog);
        let merged = pool.counters();
        assert_eq!(merged.invocations, 3);
        assert_eq!(merged.traps, 0);
        assert_eq!(merged.steps, 3 * pool.caller_mut().counters().steps);
    }

    #[test]
    fn histograms_merge_across_lanes() {
        let prog = tiny_program();
        let mut pool = InterpreterPool::new(Limits::default(), 2);
        assert!(pool.opcode_histogram().is_none());
        pool.set_opcode_profiling(true);
        run_each_lane(&mut pool, &prog);
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

    /// Lanes 1.. cost nothing until the first fan-out asks for them; then
    /// they inherit the pool's profiling setting, and the counters of lane
    /// 0's earlier runs are still counted.
    #[test]
    fn lanes_past_the_first_are_made_at_the_first_fan_out() {
        let prog = tiny_program();
        let mut pool = InterpreterPool::new(Limits::default(), 4);
        assert_eq!((pool.lanes(), pool.made.len()), (4, 1));
        pool.set_opcode_profiling(true);
        let mut host = VecHost::default();
        host.packet = vec![0];
        pool.caller_mut().run(&prog, &mut host).unwrap();
        assert_eq!(pool.lanes_mut().len(), 4);
        assert_eq!(pool.lanes(), 4);
        run_each_lane(&mut pool, &prog);
        assert_eq!(pool.counters().invocations, 5);
        let hist = pool.opcode_histogram().expect("profiling on");
        assert_eq!(hist.iter().sum::<u64>(), 25, "every lane profiled");
    }
}
