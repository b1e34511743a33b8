//! Figure 12 — CPU overheads of the Eden components, plus the §5.4
//! interpreter footprint.
//!
//! The paper runs 12 long TCP flows at 10 Gbps under the SFF policy and
//! reports the extra CPU each Eden component costs over the vanilla stack:
//! the metadata **API**, the **enclave** (classification + match-action +
//! state management), and the **interpreter** on top of a native function.
//!
//! Virtual time cannot measure CPU, so this module times the *real* code on
//! the real machine: per-packet wall-clock cost of
//!
//! 1. `baseline`   — vanilla per-packet stack work (segment build + wire
//!    encode, the dominant per-packet cost we model);
//! 2. `+ API`      — baseline plus stage classification & metadata attach;
//! 3. `+ enclave`  — plus the match-action walk running the *native* SFF
//!    function (state management without interpretation);
//! 4. `+ interp`   — same but the SFF function interpreted from bytecode.
//!
//! Components are reported the way the paper plots them: each layer's
//! *increment* as a percentage of vanilla per-packet stack cost, for the
//! average and the 95th percentile across batches. One substitution is
//! unavoidable: the paper's denominator is the CPU of a full Windows
//! kernel TCP stack at 10 Gbps, which a simulator cannot run. We therefore
//! measure every Eden layer's *absolute* per-packet cost on this machine
//! and report it against a documented reference stack cost of 2.5 µs per
//! packet (a conservative per-packet CPU figure for a 2015-era kernel TCP
//! stack; override with `EDEN_STACK_NS`). The raw nanoseconds are printed
//! alongside so the ratio can be re-derived for any denominator.

use std::time::Instant;

use eden_apps::functions;
use eden_core::{ClassId, Controller, Enclave, EnclaveConfig, MatchSpec, Stage, TableId};
use eden_telemetry::{Json, ToJson};
use netsim::{wire, EdenMeta, Packet, SimRng, Summary, TcpHeader, Time};

/// Reference per-packet CPU cost of a vanilla kernel TCP stack, ns.
/// Overridable via the `EDEN_STACK_NS` environment variable.
pub fn reference_stack_ns() -> f64 {
    std::env::var("EDEN_STACK_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_500.0)
}

/// Per-component overhead percentages (of the reference stack cost).
#[derive(Debug, Clone, Copy)]
pub struct Overheads {
    pub api_pct: f64,
    pub enclave_pct: f64,
    pub interpreter_pct: f64,
}

/// Figure 12's two bars.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    pub average: Overheads,
    pub p95: Overheads,
    /// Raw per-packet costs (ns) for the four stacked configurations.
    pub baseline_ns: f64,
    pub api_ns: f64,
    pub enclave_ns: f64,
    pub interpreter_ns: f64,
}

impl ToJson for Overheads {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("api_pct", self.api_pct.into()),
            ("enclave_pct", self.enclave_pct.into()),
            ("interpreter_pct", self.interpreter_pct.into()),
        ])
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("reference_stack_ns", reference_stack_ns().into()),
            ("average", self.average.to_json()),
            ("p95", self.p95.to_json()),
            ("baseline_ns", self.baseline_ns.into()),
            ("api_ns", self.api_ns.into()),
            ("enclave_ns", self.enclave_ns.into()),
            ("interpreter_ns", self.interpreter_ns.into()),
        ])
    }
}

/// Per-catalogue-function interpreter cost: the same DSL source compiled
/// without any optimization and with the full IR + superinstruction
/// pipeline, interpreted over identical host state.
#[derive(Debug, Clone)]
pub struct InterpCost {
    pub function: String,
    /// Mean per-packet cost with `CompileOptions { optimize: false,
    /// fuse: false }` — the naive stack-code translation.
    pub unopt_ns_per_packet: f64,
    /// Mean per-packet cost with the default pipeline (IR passes plus
    /// codec-v2 superinstructions).
    pub fused_ns_per_packet: f64,
}

impl InterpCost {
    /// Machine-independent speedup ratio (>1 means the pipeline wins).
    /// This is the number the CI gate checks; the raw wall-clock points
    /// carry `_ns` in their names so the gate can skip them.
    pub fn fused_speedup_rate(&self) -> f64 {
        self.unopt_ns_per_packet / self.fused_ns_per_packet
    }
}

impl ToJson for InterpCost {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("function", self.function.as_str().into()),
            ("unopt_ns_per_packet", self.unopt_ns_per_packet.into()),
            ("fused_ns_per_packet", self.fused_ns_per_packet.into()),
            ("fused_speedup_rate", self.fused_speedup_rate().into()),
        ])
    }
}

/// §5.4 footprint of one case-study program.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub name: &'static str,
    pub stack_bytes: usize,
    pub heap_bytes: usize,
}

impl ToJson for Footprint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.into()),
            ("stack_bytes", self.stack_bytes.into()),
            ("heap_bytes", self.heap_bytes.into()),
        ])
    }
}

fn make_packet(i: u64, with_meta: bool) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 40000 + (i % 12) as u16, // the paper's 12 flows
            dst_port: 7000,
            seq: (i * 1460) as u32,
            ack: 0,
            flags: netsim::TcpFlags {
                ack: true,
                ..Default::default()
            },
            window: 8192,
        },
        1460,
    );
    if with_meta {
        p.meta = Some(EdenMeta {
            classes: vec![1],
            msg_id: 1 + i % 12,
            msg_size: 5_000_000,
            ..Default::default()
        });
    }
    p
}

/// Vanilla per-packet stack work: build the frame bytes (checksum
/// included) exactly as the NIC path would.
#[inline]
fn baseline_work(p: &Packet) -> u64 {
    let bytes = wire::encode(p);
    u64::from(bytes[20]) // consume so the encode cannot be optimized out
}

fn build_enclave(interpreted: bool) -> Enclave {
    let bundle = functions::sff();
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(if interpreted {
        bundle.interpreted()
    } else {
        bundle.native()
    });
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
    e.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
    e
}

/// Measure per-packet cost of one configuration over `batches`×`per_batch`
/// packets; returns per-batch per-packet nanoseconds.
fn measure<F: FnMut(u64) -> u64>(batches: usize, per_batch: usize, mut work: F) -> Vec<f64> {
    let mut sink = 0u64;
    // warmup
    for i in 0..per_batch as u64 {
        sink = sink.wrapping_add(work(i));
    }
    let mut samples = Vec::with_capacity(batches);
    let mut n = 0u64;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            sink = sink.wrapping_add(work(n));
            n += 1;
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        samples.push(elapsed / per_batch as f64);
    }
    std::hint::black_box(sink);
    samples
}

/// Run the component-cost measurement.
pub fn run(batches: usize, per_batch: usize) -> RunResult {
    // 1. baseline: segment + encode
    let base = measure(batches, per_batch, |i| {
        let p = make_packet(i, false);
        baseline_work(&p)
    });

    // 2. + API: stage classification once per message (12 live messages,
    //    like the 12 flows) + per-packet metadata attach
    let mut controller = Controller::new();
    let mut stage = Stage::new("app", &["msg_type"], &["msg_id", "msg_size"]);
    controller.create_stage_rule(&mut stage, "flows", vec![], "ALL");
    let metas: Vec<EdenMeta> = (0..12)
        .map(|_| stage.classify(&[("msg_type", eden_core::FieldValue::Str("RESP".into()))]))
        .collect();
    let api = measure(batches, per_batch, |i| {
        let mut p = make_packet(i, false);
        let mut meta = metas[(i % 12) as usize].clone();
        meta.msg_size = 5_000_000;
        p.meta = Some(meta);
        baseline_work(&p)
    });

    // 3. + enclave with the native SFF function
    let mut native_enclave = build_enclave(false);
    let mut rng = SimRng::new(7);
    let native = measure(batches, per_batch, |i| {
        let mut p = make_packet(i, true);
        let _ = native_enclave.process(&mut p, &mut rng, Time::from_nanos(i));
        baseline_work(&p)
    });

    // 4. + the interpreter instead of native
    let mut interp_enclave = build_enclave(true);
    let mut rng2 = SimRng::new(7);
    let interp = measure(batches, per_batch, |i| {
        let mut p = make_packet(i, true);
        let _ = interp_enclave.process(&mut p, &mut rng2, Time::from_nanos(i));
        baseline_work(&p)
    });

    let s_base = Summary::new(base);
    let s_api = Summary::new(api);
    let s_native = Summary::new(native);
    let s_interp = Summary::new(interp);

    let reference = reference_stack_ns();
    // each layer's increment over the previous, as % of the vanilla stack
    let inc = |hi: f64, lo: f64| ((hi - lo) / reference * 100.0).max(0.0);
    RunResult {
        average: Overheads {
            api_pct: inc(s_api.mean(), s_base.mean()),
            enclave_pct: inc(s_native.mean(), s_api.mean()),
            interpreter_pct: inc(s_interp.mean(), s_native.mean()),
        },
        p95: Overheads {
            api_pct: inc(s_api.percentile(95.0), s_base.percentile(95.0)),
            enclave_pct: inc(s_native.percentile(95.0), s_api.percentile(95.0)),
            interpreter_pct: inc(s_interp.percentile(95.0), s_native.percentile(95.0)),
        },
        baseline_ns: s_base.mean(),
        api_ns: s_api.mean(),
        enclave_ns: s_native.mean(),
        interpreter_ns: s_interp.mean(),
    }
}

/// A bare `VecHost` with the generic catalogue state the micro benches
/// also use: every schema array populated with one small threshold row,
/// every global set to 1 (so divisors are never zero).
pub fn catalogue_host(bundle: &functions::FunctionBundle) -> eden_vm::VecHost {
    let mut host = eden_vm::VecHost::with_slots(8, 8, 8);
    for _ in bundle.schema().arrays() {
        host.arrays.push(vec![1_000_000, 1, i64::MAX, 0]);
    }
    for g in host.global.iter_mut() {
        *g = 1;
    }
    host
}

/// Interpreter ablation behind the Figure 12 bar: per-packet cost of
/// every catalogue function with the compiler pipeline off vs on. The
/// wall-clock points are machine-dependent; [`InterpCost::fused_speedup_rate`]
/// is the portable number.
pub fn interp_costs(batches: usize, per_batch: usize) -> Vec<InterpCost> {
    use eden_lang::{compile_with_options, CompileOptions};
    use eden_vm::{Interpreter, Limits};

    let modes = [
        CompileOptions {
            optimize: false,
            fuse: false,
        },
        CompileOptions {
            optimize: true,
            fuse: true,
        },
    ];
    let mut out = Vec::new();
    for bundle in functions::catalogue() {
        let schema = bundle.schema();
        let cost_of = |opts: CompileOptions| -> f64 {
            let program = compile_with_options(bundle.name, &bundle.source, &schema, opts)
                .expect("catalogue compiles")
                .program;
            let mut host = catalogue_host(&bundle);
            let mut interp = Interpreter::new(Limits::default());
            let samples = measure(batches, per_batch, |i| {
                host.packet[0] = 1460 * ((i % 64) as i64 + 1);
                match interp.run(&program, &mut host) {
                    Ok(_) => host.packet[1] as u64,
                    Err(e) => panic!("{} trapped on catalogue state: {e:?}", bundle.name),
                }
            });
            Summary::new(samples).mean()
        };
        out.push(InterpCost {
            function: bundle.name.to_string(),
            unopt_ns_per_packet: cost_of(modes[0]),
            fused_ns_per_packet: cost_of(modes[1]),
        });
    }
    out
}

/// One new-bundle cost sanity row: the XFSM-era Table 1 additions must
/// stay in the same cost class as the established bundle doing the most
/// similar work, or the machine lowering has regressed.
#[derive(Debug, Clone)]
pub struct NewBundleCheck {
    pub function: &'static str,
    /// The established bundle it is compared against.
    pub peer: &'static str,
    pub fused_ns_per_packet: f64,
    pub peer_fused_ns_per_packet: f64,
    /// Quality flag the bench gate holds: fused cost ≤ 2× the peer's.
    pub within_2x: bool,
}

impl ToJson for NewBundleCheck {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("function", self.function.into()),
            ("peer", self.peer.into()),
            ("fused_ns_per_packet", self.fused_ns_per_packet.into()),
            (
                "peer_fused_ns_per_packet",
                self.peer_fused_ns_per_packet.into(),
            ),
            ("within_2x", self.within_2x.into()),
        ])
    }
}

/// Pair each Table 1 bundle added with the XFSM layer against the
/// established bundle whose data path is closest in shape, and flag
/// whether its fused interpreter cost stays within 2×.
pub fn new_bundle_checks(costs: &[InterpCost]) -> Vec<NewBundleCheck> {
    // (new bundle, comparable veteran): l4lb's rendezvous walk vs wcmp's
    // weight walk; conga's DRE arg-min walk and ids's full signature-table
    // scan vs pias's threshold-ladder walk (all are per-packet multi-row
    // table walks that cannot early-exit in the generic bench state —
    // unlike sff, whose search terminates at row 0 there); the two
    // flow-state machines vs conntrack and flow-counter respectively
    const PAIRS: [(&str, &str); 5] = [
        ("l4lb", "wcmp"),
        ("conga", "pias"),
        ("ids", "pias"),
        ("stateful-firewall", "conntrack"),
        ("rate-limit", "flow-counter"),
    ];
    let fused = |name: &str| -> f64 {
        costs
            .iter()
            .find(|c| c.function == name)
            .map(|c| c.fused_ns_per_packet)
            .unwrap_or(f64::NAN)
    };
    PAIRS
        .iter()
        .map(|(new, peer)| {
            let (a, b) = (fused(new), fused(peer));
            NewBundleCheck {
                function: new,
                peer,
                fused_ns_per_packet: a,
                peer_fused_ns_per_packet: b,
                within_2x: a.is_finite() && b.is_finite() && a <= 2.0 * b,
            }
        })
        .collect()
}

/// §5.4: interpreter operand-stack/heap footprint of the case-study
/// programs ("in the order of 64 and 256 bytes respectively") — the static
/// worst case the verifier derives, which is what the enclave admits a
/// program on.
pub fn footprints() -> Vec<Footprint> {
    [
        functions::pias_fig7(),
        functions::sff(),
        functions::wcmp(),
        functions::pulsar(),
    ]
    .into_iter()
    .map(|bundle| {
        let compiled = eden_lang::compile(bundle.name, &bundle.source, &bundle.schema())
            .expect("catalogue compiles");
        let bound = compiled
            .program
            .envelope()
            .bound
            .expect("case-study programs do not recurse");
        Footprint {
            name: bundle.name,
            stack_bytes: bound.stack * 8,
            heap_bytes: bound.heap * 8,
        }
    })
    .collect()
}
