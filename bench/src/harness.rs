//! The measurement loop shared by the workloads and the ablation arms.

use std::time::{Duration, Instant};

use crate::proc;
use crate::spec::Metrics;
use crate::stats::Sorted;
use crate::trace::{self, Agg, Report, Tag};

/// Something that can be timed one sample at a time.
pub trait Sampler {
    /// Untimed: put the inputs of the next sample in place.
    fn prepare(&mut self) {}
    /// Timed: run one sample and return the ops it completed.
    fn sample(&mut self) -> u64;
}

impl<F: FnMut() -> u64> Sampler for F {
    fn sample(&mut self) -> u64 {
        self()
    }
}

/// What the correctness checks of a workload found.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants that are not a count of failed ops.
    pub violations: Vec<String>,
}

impl Check {
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// One of the five workloads, built and warmed up.
pub trait Workload: Sampler {
    /// Samples in the count window at the start of the traced round.
    /// Counters are read after exactly this much work, so they repeat bit
    /// for bit at a fixed seed however long the run goes on.
    fn count_samples(&self) -> usize;
    /// Whether the traced run of this workload carries the ablation arms.
    fn has_arms(&self) -> bool {
        false
    }
    /// Per-layer metrics read from counters, over the work done since the
    /// workload was built. `spans` are the span totals of the same work.
    fn counts(&mut self, ops: u64, spans: &[Agg; Tag::COUNT], m: &mut Metrics);
    /// Per-layer metrics read from the spans of the whole traced round.
    fn layers(&mut self, round: &Round, report: &Report, m: &mut Metrics);
    /// Correctness checks, run after the last timed sample.
    fn check(&mut self) -> Check;
}

/// The samples of one stretch of measurement.
#[derive(Default)]
pub struct Round {
    /// Wall nanoseconds per op, one value per sample.
    pub per_op_ns: Vec<f64>,
    pub ops: u64,
    /// Summed wall time of the timed regions.
    pub timed_ns: u64,
    /// Wall and process CPU time over the whole stretch, `prepare` included.
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.timed_ns as f64
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops as f64
    }

    pub fn cpu_busy_ratio(&self) -> f64 {
        self.cpu_ns as f64 / self.wall_ns as f64
    }

    pub fn merge(&mut self, other: Round) {
        self.per_op_ns.extend(other.per_op_ns);
        self.ops += other.ops;
        self.timed_ns += other.timed_ns;
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
    }

    /// Median nanoseconds per op over the samples.
    pub fn op_ns_p50(&self) -> f64 {
        Sorted::new(self.per_op_ns.clone()).median()
    }
}

/// Take samples until `budget` of wall-clock has passed and at least
/// `min_samples` are in. A sample that completes no op is not a sample.
pub fn collect(s: &mut dyn Sampler, budget: Duration, min_samples: usize) -> Round {
    let mut r = Round::default();
    let cpu0 = proc::cpu_ns();
    let wall0 = Instant::now();
    while r.per_op_ns.len() < min_samples || wall0.elapsed() < budget {
        s.prepare();
        let t = Instant::now();
        let ops = {
            let _s = trace::span(Tag::Sample);
            s.sample()
        };
        let dt = t.elapsed().as_nanos() as u64;
        trace::next_run();
        r.timed_ns += dt;
        r.ops += ops;
        if ops > 0 {
            r.per_op_ns.push(dt as f64 / ops as f64);
        }
    }
    r.wall_ns = wall0.elapsed().as_nanos() as u64;
    r.cpu_ns = proc::cpu_ns() - cpu0;
    r
}

/// Median nanoseconds per op of `s` over `budget` (an ablation arm).
pub fn arm_ns(s: &mut dyn Sampler, budget: Duration) -> f64 {
    collect(s, budget, 3).op_ns_p50()
}

/// A fixed integer-hash chain, timed in this process: dividing a layer's
/// nanoseconds by it gives a number that travels between machines.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 1 << 20;
    let mut chain = || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..STEPS {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        std::hint::black_box(x);
        STEPS
    };
    arm_ns(&mut chain, Duration::from_millis(50))
}
