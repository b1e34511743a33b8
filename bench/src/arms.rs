//! Ablation arms of the traced `catalogue-mix` run: the same packet pool
//! through enclaves that differ in one layer, so that a difference between
//! two rows is the cost of that layer. Each arm reports the median
//! nanoseconds per packet over its share of the budget.

use std::hint::black_box;
use std::time::Duration;

use eden_apps::functions::{catalogue, FunctionBundle};
use eden_apps::stages::storage_stage;
use eden_core::{Controller, Enclave, EnclaveConfig, FieldValue};
use eden_lang::{compile, Concurrency};
use eden_vm::{Interpreter, Limits};
use netsim::{Packet, SimRng, Time};
use transport::HookVerdict;

use crate::harness::{arm_ns, Sampler};
use crate::pool::{catalogue_enclave, vec_host, Form, Pool, CHUNK};
use crate::spec::Metrics;

/// A pool chunk per sample through `run`, restored before each.
struct PoolArm<'a, F: FnMut(&mut [Packet]) -> u64> {
    pool: &'a mut Pool,
    run: F,
}

impl<F: FnMut(&mut [Packet]) -> u64> Sampler for PoolArm<'_, F> {
    fn prepare(&mut self) {
        self.pool.advance();
    }

    fn sample(&mut self) -> u64 {
        (self.run)(self.pool.chunk())
    }
}

struct Clock(u64);

impl Clock {
    fn tick(&mut self) -> Time {
        self.0 += 16_000;
        Time::from_nanos(self.0)
    }
}

fn per_packet<'a>(enclave: &'a mut Enclave, seed: u64) -> impl FnMut(&mut [Packet]) -> u64 + 'a {
    let (mut rng, mut clock) = (SimRng::new(seed), Clock(0));
    move |chunk| {
        let now = clock.tick();
        for p in chunk.iter_mut() {
            black_box(enclave.process(p, &mut rng, now));
        }
        chunk.len() as u64
    }
}

fn bursts<'a>(
    enclave: &'a mut Enclave,
    burst: usize,
    seed: u64,
) -> impl FnMut(&mut [Packet]) -> u64 + 'a {
    let (mut rng, mut clock) = (SimRng::new(seed), Clock(0));
    let mut verdicts: Vec<HookVerdict> = Vec::with_capacity(burst);
    move |chunk| {
        for b in chunk.chunks_mut(burst) {
            verdicts.clear();
            enclave.process_batch_into(b, &mut rng, clock.tick(), &mut verdicts);
            black_box(&verdicts);
        }
        chunk.len() as u64
    }
}

/// Run every arm, each for a 29th of `budget`, and set its row in `m`.
pub fn run(seed: u64, budget: Duration, m: &mut Metrics) {
    let each = budget / 29;
    let all = catalogue();
    let config = EnclaveConfig::default();
    let mut rng = SimRng::new(seed);
    let mut pool = Pool::generate(&mut rng, 4 * CHUNK, 1024, 1460, |r| 1 + r.below(19) as u32);
    let arm = |pool: &mut Pool, run: &mut dyn FnMut(&mut [Packet]) -> u64, budget| {
        arm_ns(&mut PoolArm { pool, run }, budget)
    };

    // fixed cost → dispatch to native code → interpretation
    let mut bare = Enclave::new(config);
    m.set(
        "core.miss_ns",
        arm(&mut pool, &mut per_packet(&mut bare, seed), each),
    );
    let (mut native, _) = catalogue_enclave(&all, Form::Native, config);
    m.set(
        "core.native_ns",
        arm(&mut pool, &mut per_packet(&mut native, seed), each),
    );
    let (mut interp, _) = catalogue_enclave(&all, Form::Interpreted, config);
    m.set(
        "core.interp_ns",
        arm(&mut pool, &mut per_packet(&mut interp, seed), each),
    );

    // what the serial batch path amortises
    for (name, burst) in [
        ("core.batch1_ns", 1),
        ("core.batch64_ns", 64),
        ("core.batch256_ns", 256),
    ] {
        m.set(
            name,
            arm(&mut pool, &mut bursts(&mut interp, burst, seed), each),
        );
    }

    // trace sampling on the benchmark's own workload, arms interleaved
    let (mut off, mut on) = (0.0, 0.0);
    for _ in 0..4 {
        interp.set_trace_sample(0);
        off += arm(&mut pool, &mut bursts(&mut interp, 64, seed), each / 4);
        interp.set_trace_sample(64);
        on += arm(&mut pool, &mut bursts(&mut interp, 64, seed), each / 4);
    }
    m.set("telemetry.sampled_overhead_pct", (on / off - 1.0) * 100.0);
    drop(interp);

    // the lane path: only bundles that may run on a worker lane
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let lane_safe: Vec<FunctionBundle> = catalogue()
        .into_iter()
        .filter(|b| b.concurrency != Concurrency::Serialized)
        .collect();
    let classes = lane_safe.len() as u64;
    let mut lane_pool = Pool::generate(&mut rng, 4 * CHUNK, 1024, 1460, |r| {
        1 + r.below(classes) as u32
    });
    let lane_config = EnclaveConfig { lanes, ..config };
    let (mut laned, _) = catalogue_enclave(&lane_safe, Form::Interpreted, lane_config);
    m.set(
        "core.lane_ns",
        arm(&mut lane_pool, &mut bursts(&mut laned, 256, seed), each),
    );
    let (serial, parallel) = laned.batch_path_counts();
    assert!(
        lanes == 1 || (serial == 0 && parallel > 0),
        "lane arm ran {serial} serial and {parallel} parallel batches"
    );
    drop(laned);

    // the interpreter alone, without the enclave's host boundary
    for bundle in &all {
        let program = compile(bundle.name, &bundle.source, &bundle.schema())
            .expect("catalogue compiles")
            .program;
        let mut host = vec_host(bundle);
        let mut interp = Interpreter::new(Limits::default());
        let mut i = 0i64;
        let mut pass = || {
            for _ in 0..CHUNK {
                i += 1;
                host.packet[0] = 1460 * (i % 64 + 1);
                host.effects.clear();
                black_box(
                    interp
                        .run(&program, &mut host)
                        .expect("no trap on case state"),
                );
            }
            CHUNK as u64
        };
        m.set(
            &format!("vm.run_ns.{}", bundle.name),
            arm_ns(&mut pass, each),
        );
    }

    // the stage API: one classification of a storage IO
    let (mut stage, _) = storage_stage(&mut Controller::new());
    let mut tenant = 0;
    let mut pass = || {
        for _ in 0..CHUNK {
            tenant = (tenant + 1) % 3;
            black_box(stage.classify(&[
                ("msg_type", FieldValue::Int(1 + tenant % 2)),
                ("tenant", FieldValue::Int(tenant)),
                ("msg_size", FieldValue::Int(65_536)),
            ]));
        }
        CHUNK as u64
    };
    m.set("apps.stage_classify_ns", arm_ns(&mut pass, each));
}
