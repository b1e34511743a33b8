//! Execution differential over the catalogue: interpreted vs native, and
//! batched vs serial.
//!
//! Every catalogue function ships in two forms (DSL → bytecode, and a
//! native Rust closure) that the paper's evaluation treats as
//! semantically identical. This oracle holds them to it with random
//! packet streams: verdicts, header bytes, counters, punt mailboxes, and
//! per-function state must all match. The second leg re-checks the PR 2
//! batch≡serial equivalence from fuzz-generated streams and chunkings
//! rather than proptest's: `process_batch` must be indistinguishable
//! from per-packet `process`.

use crate::minimize::ddmin;
use crate::report::{Failure, OracleReport};
use crate::rng::FuzzRng;
use eden_apps::functions::{catalogue, catalogue_enclave, Form, FunctionBundle};
use eden_core::{Enclave, EnclaveConfig, EnclaveStats, FuncId};
use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};

const MINIMIZE_BUDGET: usize = 200;

/// Everything needed to rebuild one packet deterministically.
#[derive(Debug, Clone)]
struct PktSpec {
    class: u32,
    msg: u64,
    payload: usize,
    src_port: u16,
    dst_port: u16,
    msg_type: i64,
    msg_size: i64,
    tenant: i64,
    key_hash: i64,
}

fn gen_spec(rng: &mut FuzzRng) -> PktSpec {
    PktSpec {
        // mostly class 1 (matches the installed rule), some misses
        class: if rng.chance(3, 4) {
            1
        } else {
            rng.below(3) as u32
        },
        msg: 1 + rng.below(7),
        payload: 1 + rng.below(1400) as usize,
        src_port: 40000 + rng.below(5) as u16,
        dst_port: *rng.pick(&[80, 22, 1001, 1002, 1003]),
        msg_type: 1 + rng.below(2) as i64,
        msg_size: rng.below(2_000_000) as i64,
        tenant: rng.below(3) as i64,
        key_hash: rng.next_i64(),
    }
}

fn build_packet(s: &PktSpec) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: s.src_port,
            dst_port: s.dst_port,
            ..TcpHeader::default()
        },
        s.payload,
    );
    if s.class > 0 {
        p.meta = Some(EdenMeta {
            classes: vec![s.class],
            msg_id: s.msg,
            msg_type: s.msg_type,
            msg_size: s.msg_size,
            tenant: s.tenant,
            key_hash: s.key_hash,
            ..EdenMeta::default()
        });
    }
    p
}

/// `bundle` in `form` with the case-study state its logic expects, as
/// function 0 matching class 1.
fn build_enclave(bundle: &FunctionBundle, form: Form, config: EnclaveConfig) -> Enclave {
    catalogue_enclave(std::slice::from_ref(bundle), form, config)
}

fn batchy_config() -> EnclaveConfig {
    EnclaveConfig {
        lanes: 4,
        ..EnclaveConfig::default()
    }
}

/// Compare the two enclaves' post-run internals; `None` means agreement.
fn diff_state(a: &mut Enclave, b: &mut Enclave, f: FuncId, what: &str) -> Option<String> {
    // how batches ran is the one thing a per-packet run never counts
    let packet_counts = |e: &Enclave| EnclaveStats {
        batches_serial: 0,
        batches_parallel: 0,
        ..e.stats
    };
    if packet_counts(a) != packet_counts(b) {
        return Some(format!(
            "{what}: stats diverged: {:?} vs {:?}",
            a.stats, b.stats
        ));
    }
    if !a.stats.conserved() {
        return Some(format!("{what}: stats stopped conserving: {:?}", a.stats));
    }
    let (pa, pb) = (a.take_punted(), b.take_punted());
    if pa != pb {
        return Some(format!(
            "{what}: punt mailboxes diverged ({} vs {})",
            pa.len(),
            pb.len()
        ));
    }
    let (sa, sb) = (a.function_state(f), b.function_state(f));
    if sa.msg_dump() != sb.msg_dump() {
        return Some(format!(
            "{what}: message state diverged: {:?} vs {:?}",
            sa.msg_dump(),
            sb.msg_dump()
        ));
    }
    if sa.global != sb.global {
        return Some(format!(
            "{what}: globals diverged: {:?} vs {:?}",
            sa.global, sb.global
        ));
    }
    if sa.arrays != sb.arrays {
        return Some(format!(
            "{what}: arrays diverged: {:?} vs {:?}",
            sa.arrays, sb.arrays
        ));
    }
    if sa.evictions != sb.evictions {
        return Some(format!(
            "{what}: evictions diverged: {} vs {}",
            sa.evictions, sb.evictions
        ));
    }
    None
}

/// Leg 1: interpreted and native forms over the same stream; `None`
/// means agreement.
fn diff_interp_native(bundle: &FunctionBundle, specs: &[PktSpec], seed: u64) -> Option<String> {
    let (f, config) = (FuncId(0), EnclaveConfig::default());
    let mut interp = build_enclave(bundle, Form::Interpreted, config);
    let mut native = build_enclave(bundle, Form::Native, config);
    // the function was admitted on its static envelope; hold every run to it
    let bound = interp
        .link_info(f)
        .envelope
        .and_then(|e| e.bound)
        .expect("installed, so interpreted and bounded");
    interp.set_opcode_profiling(true);
    let mut r1 = SimRng::new(seed);
    let mut r2 = SimRng::new(seed);
    for (i, s) in specs.iter().enumerate() {
        let now = Time::from_nanos(i as u64);
        let mut a = build_packet(s);
        let mut b = build_packet(s);
        let va = interp.process(&mut a, &mut r1, now);
        let vb = native.process(&mut b, &mut r2, now);
        let seen = interp.observed_peaks().expect("profiling is on");
        if !bound.covers(&seen) {
            return Some(format!(
                "packet {i}: run left its envelope: reached {seen:?}, bound {bound:?}"
            ));
        }
        if va != vb {
            return Some(format!(
                "packet {i}: verdict diverged: interpreted={va:?} native={vb:?}"
            ));
        }
        if a != b {
            return Some(format!("packet {i}: header bytes diverged"));
        }
    }
    if interp.stats.faults != 0 {
        return Some(format!(
            "interpreted form trapped {} times on catalogue state",
            interp.stats.faults
        ));
    }
    if let Some(d) = diff_state(&mut interp, &mut native, f, "interp/native") {
        return Some(d);
    }
    if r1.next_u64() != r2.next_u64() {
        return Some("interp/native RNG streams out of lockstep".into());
    }
    None
}

/// Leg 2: the batched data path against the per-packet reference, same
/// comparison set as the PR 2 equivalence rig; `None` means agreement.
fn diff_batch_serial(
    bundle: &FunctionBundle,
    specs: &[PktSpec],
    seed: u64,
    chunk: usize,
) -> Option<String> {
    let f = FuncId(0);
    let mut serial = build_enclave(bundle, Form::Interpreted, batchy_config());
    let mut batched = build_enclave(bundle, Form::Interpreted, batchy_config());
    let mut serial_rng = SimRng::new(seed);
    let mut batched_rng = SimRng::new(seed);

    for (ci, chunk_specs) in specs.chunks(chunk.max(1)).enumerate() {
        let now = Time::from_nanos(1 + ci as u64);
        let mut serial_verdicts = Vec::new();
        let mut serial_pkts = Vec::new();
        for s in chunk_specs {
            let mut p = build_packet(s);
            serial_verdicts.push(serial.process(&mut p, &mut serial_rng, now));
            serial_pkts.push(p);
        }
        let mut batch: Vec<Packet> = chunk_specs.iter().map(build_packet).collect();
        let batched_verdicts = batched.process_batch(&mut batch, &mut batched_rng, now);
        if serial_verdicts != batched_verdicts {
            return Some(format!(
                "chunk {ci}: verdicts diverged: serial={serial_verdicts:?} batched={batched_verdicts:?}"
            ));
        }
        if serial_pkts != batch {
            return Some(format!("chunk {ci}: header bytes diverged"));
        }
    }
    if let Some(d) = diff_state(&mut serial, &mut batched, f, "batch/serial") {
        return Some(d);
    }
    if serial_rng.next_u64() != batched_rng.next_u64() {
        return Some("batch/serial RNG streams out of lockstep".into());
    }
    None
}

fn render_specs(bundle: &FunctionBundle, specs: &[PktSpec], seed: u64, chunk: usize) -> String {
    let mut s = format!("bundle: {}\nseed: {seed}\nchunk: {chunk}\n", bundle.name);
    for spec in specs {
        s.push_str(&format!("{spec:?}\n"));
    }
    s
}

/// Replay the minimized stream on a fresh interpreted enclave and, if the
/// run froze the flight recorder (a VM trap), render the dump so the
/// repro file carries the crash forensics alongside the packet specs.
/// Simulated time makes the dump as deterministic as the rest of the
/// report.
fn capture_flight(bundle: &FunctionBundle, specs: &[PktSpec], seed: u64) -> Option<String> {
    use eden_telemetry::ToJson;
    let mut e = build_enclave(bundle, Form::Interpreted, EnclaveConfig::default());
    let mut rng = SimRng::new(seed);
    for (i, s) in specs.iter().enumerate() {
        let mut p = build_packet(s);
        e.process(&mut p, &mut rng, Time::from_nanos(i as u64));
    }
    let dump = e.take_flight_dump()?;
    Some(format!("# flight dump\n{}", dump.to_json().render()))
}

fn attach_flight(repro: &mut String, flight: Option<String>) {
    if let Some(f) = flight {
        repro.push_str(&f);
        repro.push('\n');
    }
}

pub fn run(seed: u64, start: u64, cases: u64) -> OracleReport {
    let mut rep = OracleReport::new("exec-diff");
    let bundles = catalogue();
    for index in start..start + cases {
        rep.cases += 1;
        let mut rng = FuzzRng::for_case(seed, "exec-diff", index);
        let bundle = &bundles[(index % bundles.len() as u64) as usize];
        let n = rng.range(4, 48);
        let specs: Vec<PktSpec> = (0..n).map(|_| gen_spec(&mut rng)).collect();
        let stream_seed = rng.next_u64();
        let chunk = rng.range(1, 16);

        if let Some(detail) = diff_interp_native(bundle, &specs, stream_seed) {
            let kept = ddmin(&specs, MINIMIZE_BUDGET, |cand| {
                diff_interp_native(bundle, cand, stream_seed).is_some()
            });
            let mut repro = render_specs(bundle, &kept, stream_seed, 0);
            attach_flight(&mut repro, capture_flight(bundle, &kept, stream_seed));
            rep.failures.push(Failure {
                oracle: "exec-diff",
                index,
                detail: format!("[interp/native] {detail}"),
                repro,
            });
            continue;
        }
        rep.note(&format!("interp_native_ok.{}", bundle.name), 1);

        if let Some(detail) = diff_batch_serial(bundle, &specs, stream_seed, chunk) {
            let kept = ddmin(&specs, MINIMIZE_BUDGET, |cand| {
                diff_batch_serial(bundle, cand, stream_seed, chunk).is_some()
            });
            let mut repro = render_specs(bundle, &kept, stream_seed, chunk);
            attach_flight(&mut repro, capture_flight(bundle, &kept, stream_seed));
            rep.failures.push(Failure {
                oracle: "exec-diff",
                index,
                detail: format!("[batch/serial] {detail}"),
                repro,
            });
            continue;
        }
        rep.note("batch_serial_ok", 1);
    }
    // Coverage backstop: a run long enough to cycle the whole catalogue
    // must actually have exercised every bundle — a stale modulus or a
    // shrunken catalogue otherwise silently narrows the differential.
    if cases >= bundles.len() as u64 {
        for bundle in &bundles {
            let key = format!("interp_native_ok.{}", bundle.name);
            if !rep.notes.iter().any(|(k, _)| *k == key) {
                rep.failures.push(Failure {
                    oracle: "exec-diff",
                    index: start + cases,
                    detail: format!("bundle {} was never exercised cleanly", bundle.name),
                    repro: format!("bundle: {}\n(coverage assertion, no stream)\n", bundle.name),
                });
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_replay_attaches_no_flight_dump() {
        let bundles = catalogue();
        let mut rng = FuzzRng::for_case(5, "exec-diff", 0);
        let specs: Vec<PktSpec> = (0..8).map(|_| gen_spec(&mut rng)).collect();
        assert!(
            capture_flight(&bundles[0], &specs, 1).is_none(),
            "catalogue functions do not trap, so no dump to attach"
        );
        let mut repro = String::from("specs\n");
        attach_flight(&mut repro, Some("# flight dump\n{}".into()));
        assert!(repro.ends_with("# flight dump\n{}\n"));
    }

    #[test]
    fn smoke_run_is_deterministic_and_clean() {
        // 24 cases cycle the whole catalogue through both legs
        let a = run(31, 0, 24);
        let b = run(31, 0, 24);
        assert_eq!(a.failures.len(), 0, "exec divergences: {:?}", a.failures);
        assert_eq!(a.notes, b.notes);
        let ok: u64 = a
            .notes
            .iter()
            .filter(|(k, _)| k.starts_with("interp_native_ok."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(ok, 24);
        // every catalogue bundle must appear in the differential
        for bundle in catalogue() {
            let key = format!("interp_native_ok.{}", bundle.name);
            assert!(
                a.notes.iter().any(|(k, _)| *k == key),
                "bundle {} never exercised",
                bundle.name
            );
        }
    }
}
