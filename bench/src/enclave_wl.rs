//! The three workloads that drive an `Enclave` directly: `bare-forward`,
//! `catalogue-mix` and `flow-churn`.

use std::hint::black_box;

use eden_apps::functions::{catalogue, fixed_priority, FunctionBundle};
use eden_core::{ClassId, Enclave, EnclaveConfig, EnclaveOp, FuncId, MatchSpec};
use eden_repl::ReplHub;
use eden_telemetry::{render_snapshot, ToJson};
use netsim::{Packet, SimRng, Time};
use transport::HookVerdict;

use crate::harness::{Check, Round, Sampler, Workload};
use crate::pool::{catalogue_enclave, retag, Form, Pool, CHUNK};
use crate::spec::Metrics;
use crate::trace::{span, Agg, Report, Tag};

/// Packets handed to `process_batch_into` at once.
pub const BURST: usize = 64;
/// Virtual time between bursts: about what a burst costs in wall-clock.
const BURST_NS: u64 = 16_000;
/// flow-churn commits an epoch every this many bursts (512 packets).
const EPOCH_EVERY: usize = 8;
/// Chunks run before the first timed sample.
const WARM_CHUNKS: usize = 32;
/// Chunks of the interpreted-vs-native replay: 102,400 packets.
const REPLAY_CHUNKS: usize = 25;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One native rule; per-packet `process`.
    Bare,
    /// 19 interpreted bundles, recurring messages; bursts.
    Mix,
    /// The same enclave, never-recurring messages, control writes.
    Churn,
}

/// Deals out never-recurring message ids, `1..=max_len` packets each, one
/// class per message.
struct Tagger {
    rng: SimRng,
    msg_id: u64,
    left: u64,
    class: u32,
    max_len: u64,
}

impl Tagger {
    fn tag(&mut self, chunk: &mut [Packet]) {
        for p in chunk {
            if self.left == 0 {
                self.msg_id += 1;
                self.left = 1 + self.rng.below(self.max_len);
                self.class = 1 + self.rng.below(19) as u32;
            }
            self.left -= 1;
            retag(p, self.msg_id, self.class);
        }
    }
}

/// The packet stream of a workload: everything the enclave gets to see.
struct Stream {
    pool: Pool,
    tagger: Option<Tagger>,
}

impl Stream {
    fn new(kind: Kind, seed: u64) -> Stream {
        let mut rng = SimRng::new(seed);
        let mix_class = |r: &mut SimRng| 1 + r.below(19) as u32;
        let pool = match kind {
            Kind::Bare => Pool::generate(&mut rng, CHUNK, 64, 0, |_| 1),
            Kind::Mix | Kind::Churn => Pool::generate(&mut rng, 4 * CHUNK, 1024, 1460, mix_class),
        };
        let tagger = (kind == Kind::Churn).then(|| Tagger {
            rng: SimRng::new(seed ^ 0x7A66),
            msg_id: 1 << 32,
            left: 0,
            class: 0,
            max_len: 4,
        });
        Stream { pool, tagger }
    }

    fn advance(&mut self) {
        self.pool.advance();
        if let Some(t) = &mut self.tagger {
            t.tag(self.pool.chunk());
        }
    }
}

fn bundles(kind: Kind) -> Vec<FunctionBundle> {
    let _s = span(Tag::LangCompile); // the XFSM bundles render their source here
    match kind {
        Kind::Bare => vec![fixed_priority()],
        Kind::Mix | Kind::Churn => catalogue(),
    }
}

/// Control-plane writes flow-churn makes beside its packets.
struct Churn {
    hub: ReplHub,
    repl_funcs: Vec<usize>,
    extra_rule: bool,
    mixed_epochs: u64,
}

pub struct EnclaveWorkload {
    kind: Kind,
    seed: u64,
    enclave: Enclave,
    funcs: usize,
    code_ops: u64,
    stream: Stream,
    rng: SimRng,
    now: u64,
    verdicts: Vec<HookVerdict>,
    churn: Option<Churn>,
    /// VM steps, VM invocations and evictions when set-up ended.
    base: [u64; 3],
}

impl EnclaveWorkload {
    pub fn build(kind: Kind, seed: u64) -> EnclaveWorkload {
        let bundles = bundles(kind);
        let form = match kind {
            Kind::Bare => Form::Native,
            Kind::Mix | Kind::Churn => Form::Interpreted,
        };
        let (enclave, code_ops) = catalogue_enclave(&bundles, form, EnclaveConfig::default());
        let churn = (kind == Kind::Churn).then(|| {
            let mut hub = ReplHub::new();
            let repl_funcs = enclave.repl_funcs();
            for &f in &repl_funcs {
                let spec = enclave.repl_host(f).expect("listed").spec().clone();
                hub.install(f, spec);
            }
            Churn {
                hub,
                repl_funcs,
                extra_rule: false,
                mixed_epochs: 0,
            }
        });
        let mut w = EnclaveWorkload {
            kind,
            seed,
            enclave,
            funcs: bundles.len(),
            code_ops,
            stream: Stream::new(kind, seed),
            rng: SimRng::new(seed ^ 0xE5C1),
            now: 0,
            verdicts: Vec::with_capacity(BURST),
            churn,
            base: [0; 3],
        };
        if kind == Kind::Churn {
            w.fill_tables();
        }
        for _ in 0..WARM_CHUNKS {
            w.prepare();
            w.sample();
        }
        w.base = w.counters();
        w
    }

    /// Bring every message table to its cap with one-packet messages, so
    /// that from the first timed packet on every new message evicts one.
    fn fill_tables(&mut self) {
        let cap = EnclaveConfig::default().max_messages_per_function;
        self.stream.tagger.as_mut().expect("churn").max_len = 1;
        while (0..self.funcs).any(|f| self.enclave.function_state(FuncId(f)).live_messages() < cap)
        {
            self.stream.advance();
            self.run_bursts();
        }
        self.stream.tagger.as_mut().expect("churn").max_len = 4;
    }

    fn run_bursts(&mut self) {
        for (i, burst) in self.stream.pool.chunk().chunks_mut(BURST).enumerate() {
            self.now += BURST_NS;
            self.verdicts.clear();
            {
                let _s = span(Tag::CoreBatch);
                let now = Time::from_nanos(self.now);
                self.enclave
                    .process_batch_into(burst, &mut self.rng, now, &mut self.verdicts);
            }
            black_box(&self.verdicts);
            if let Some(c) = &mut self.churn {
                if (i + 1) % EPOCH_EVERY == 0 {
                    flip_epoch(&mut self.enclave, c, self.funcs);
                }
            }
        }
    }

    /// `[vm steps, vm invocations, evictions]` so far.
    fn counters(&self) -> [u64; 3] {
        let vm = self.enclave.stats_snapshot().vm;
        let evictions = (0..self.funcs)
            .map(|f| self.enclave.function_state(FuncId(f)).evictions)
            .sum();
        [vm.steps, vm.invocations, evictions]
    }

    fn live_blocks(&self) -> usize {
        (0..self.funcs)
            .map(|f| self.enclave.function_state(FuncId(f)).live_messages())
            .sum()
    }
}

/// One delta epoch: digest, stage against it, commit. A rule for an unused
/// class is added after the `rules` the table holds, and removed, in turn.
fn flip_epoch(enclave: &mut Enclave, c: &mut Churn, rules: usize) {
    let digest = {
        let _s = span(Tag::CoreDigest);
        enclave.config_digest()
    };
    let op = if c.extra_rule {
        EnclaveOp::RemoveRule {
            table: 0,
            rule: rules,
        }
    } else {
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1000)),
            func: 0,
        }
    };
    c.extra_rule = !c.extra_rule;
    let epoch = enclave.active_epoch() + 1;
    {
        let _s = span(Tag::CoreStage);
        enclave
            .stage_epoch_delta(epoch, digest, &[op])
            .expect("delta stages against its own digest");
    }
    {
        let _s = span(Tag::CoreCommit);
        assert!(enclave.commit_epoch(epoch), "staged epoch commits");
    }
    c.mixed_epochs += u64::from(!enclave.serves_single_epoch());
}

/// One telemetry pull and one replication round trip, as an agent does
/// between batches.
fn pull_and_sync(enclave: &mut Enclave, c: &mut Churn, now_ns: u64) {
    let snap = {
        let _s = span(Tag::CoreSnapshot);
        enclave.stats_snapshot()
    };
    {
        let _s = span(Tag::TelemetryJson);
        black_box(snap.to_json().render());
    }
    {
        let _s = span(Tag::TelemetryProm);
        black_box(render_snapshot(&snap));
    }
    let _s = span(Tag::ReplSync);
    for &f in &c.repl_funcs {
        let delta = enclave.repl_delta(f).expect("replicated function");
        c.hub.ingest(1, now_ns, &delta);
        let view = c.hub.view_for(1, f).expect("installed in the hub");
        enclave.apply_repl_view(&view, now_ns);
    }
}

impl Sampler for EnclaveWorkload {
    fn prepare(&mut self) {
        self.stream.advance();
    }

    fn sample(&mut self) -> u64 {
        if self.kind == Kind::Bare {
            self.now += BURST_NS;
            let now = Time::from_nanos(self.now);
            let _s = span(Tag::CoreProcess);
            for p in self.stream.pool.chunk() {
                black_box(self.enclave.process(p, &mut self.rng, now));
            }
        } else {
            self.run_bursts();
            if let Some(c) = &mut self.churn {
                pull_and_sync(&mut self.enclave, c, self.now);
            }
        }
        CHUNK as u64
    }
}

impl Workload for EnclaveWorkload {
    fn count_samples(&self) -> usize {
        64
    }

    fn has_arms(&self) -> bool {
        self.kind == Kind::Mix
    }

    fn counts(&mut self, ops: u64, _spans: &[Agg; Tag::COUNT], m: &mut Metrics) {
        let now = self.counters();
        let per_op = |i: usize| (now[i] - self.base[i]) as f64 / ops as f64;
        m.set("vm.steps_per_op", per_op(0));
        m.set("vm.invocations_per_op", per_op(1));
        m.set("core.evictions_per_kop", per_op(2) * 1e3);
        m.set("core.msg_blocks_live", self.live_blocks() as f64);
        m.set("core.faults", self.enclave.stats.faults as f64);
        m.set("lang.code_ops", self.code_ops as f64);
    }

    fn layers(&mut self, round: &Round, report: &Report, m: &mut Metrics) {
        let calls = report.total_ns(&[Tag::CoreProcess, Tag::CoreBatch]);
        m.set("core.hook_ns_per_op", calls as f64 / round.ops as f64);
    }

    fn check(&mut self) -> Check {
        let stats = self.enclave.stats;
        let mut c = Check {
            attempted: stats.packets,
            failed: stats.faults,
            ..Check::default()
        };
        c.require(stats.conserved(), || format!("not conserved: {stats:?}"));
        let (serial, parallel) = self.enclave.batch_path_counts();
        c.require(parallel == 0, || {
            format!("{parallel} batches left the serial path ({serial} stayed)")
        });
        let [_, invocations, evictions] = self.counters();
        match self.kind {
            Kind::Bare => c.require(invocations == 0, || {
                format!("the interpreter ran {invocations} times under a native rule")
            }),
            Kind::Mix => {}
            Kind::Churn => {
                c.failed += self.churn.as_ref().expect("churn").mixed_epochs;
                c.require(evictions > self.base[2], || "no eviction".into());
                let cap = EnclaveConfig::default().max_messages_per_function;
                c.require(self.live_blocks() == self.funcs * cap, || {
                    format!(
                        "{} live blocks, not every table at its cap",
                        self.live_blocks()
                    )
                });
            }
        }
        let (replayed, mismatches) = replay(self.kind, self.seed);
        c.attempted += replayed;
        c.failed += mismatches;
        c
    }
}

/// Run the head of the workload's stream through a fresh interpreted and a
/// fresh native enclave, packet by packet; returns `(packets, packets on
/// which verdict or header bytes differ)`.
fn replay(kind: Kind, seed: u64) -> (u64, u64) {
    let bundles = bundles(kind);
    let config = EnclaveConfig::default();
    let (mut interp, _) = catalogue_enclave(&bundles, Form::Interpreted, config);
    let (mut native, _) = catalogue_enclave(&bundles, Form::Native, config);
    let (mut r1, mut r2) = (SimRng::new(seed), SimRng::new(seed));
    let mut stream = Stream::new(kind, seed);
    let mut copy: Vec<Packet> = Vec::with_capacity(CHUNK);
    let mut mismatches = 0;
    for chunk in 0..REPLAY_CHUNKS {
        stream.advance();
        copy.clear();
        copy.extend_from_slice(stream.pool.chunk());
        for (i, (a, b)) in stream.pool.chunk().iter_mut().zip(&mut copy).enumerate() {
            let now = Time::from_nanos(((chunk * CHUNK + i) / BURST) as u64 * BURST_NS);
            let va = interp.process(a, &mut r1, now);
            let vb = native.process(b, &mut r2, now);
            mismatches += u64::from(va != vb || a != b);
        }
    }
    mismatches += interp.stats.faults + native.stats.faults;
    ((REPLAY_CHUNKS * CHUNK) as u64, mismatches)
}
