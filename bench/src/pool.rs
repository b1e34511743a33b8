//! Inputs of the three enclave workloads: seeded packet pools and enclaves
//! holding the function catalogue.

use eden_apps::functions::FunctionBundle;
use eden_core::{ClassId, Enclave, EnclaveConfig, FuncId, InstalledFunction, MatchSpec, TableId};
use eden_lang::compile;
use eden_vm::{verify, VecHost};
use netsim::{EdenMeta, Packet, SimRng, TcpHeader};

use crate::trace::{span, Tag};

/// Packets in one timed sample of the enclave workloads.
pub const CHUNK: usize = 4096;

/// Pre-built packets, handed out one chunk at a time. Each chunk is put
/// back to its pristine bytes before it is handed out again, outside the
/// timed region: an enclave may rewrite headers or move a punted packet out.
pub struct Pool {
    pristine: Vec<Packet>,
    live: Vec<Packet>,
    /// Start of the current chunk.
    at: usize,
}

impl Pool {
    /// `len` packets (a multiple of [`CHUNK`]) spread over `messages` live
    /// messages; each packet's class is `pick_class(rng)`.
    pub fn generate(
        rng: &mut SimRng,
        len: usize,
        messages: u64,
        payload: usize,
        mut pick_class: impl FnMut(&mut SimRng) -> u32,
    ) -> Pool {
        assert_eq!(len % CHUNK, 0);
        let pristine: Vec<Packet> = (0..len)
            .map(|_| {
                let (class, msg_id) = (pick_class(rng), 1 + rng.below(messages));
                packet(rng, class, msg_id, payload)
            })
            .collect();
        Pool {
            live: pristine.clone(),
            at: len - CHUNK,
            pristine,
        }
    }

    /// Make the next chunk current, restored.
    pub fn advance(&mut self) {
        self.at = (self.at + CHUNK) % self.live.len();
        let range = self.at..self.at + CHUNK;
        for (p, q) in self.live[range.clone()]
            .iter_mut()
            .zip(&self.pristine[range])
        {
            restore(p, q);
        }
    }

    /// The current chunk.
    pub fn chunk(&mut self) -> &mut [Packet] {
        &mut self.live[self.at..self.at + CHUNK]
    }
}

/// One classified packet with the field ranges `eden-fuzz`'s exec oracle
/// draws from, so every catalogue branch is reachable.
fn packet(rng: &mut SimRng, class: u32, msg_id: u64, payload: usize) -> Packet {
    let tcp = TcpHeader {
        src_port: 40_000 + rng.below(5) as u16,
        dst_port: [80, 22, 1001, 1002, 1003][rng.below(5) as usize],
        ..TcpHeader::default()
    };
    let mut p = Packet::tcp(1, 2, tcp, payload);
    p.meta = Some(EdenMeta {
        classes: vec![class],
        msg_id,
        msg_type: 1 + rng.below(2) as i64,
        msg_size: rng.below(2_000_000) as i64,
        tenant: rng.below(3) as i64,
        key_hash: rng.next_i64(),
        msg_start: false,
    });
    p
}

/// Undo what an enclave may have done to `dst`, without allocating: header
/// and metadata writes are copied back field by field, and a packet that
/// was punted (its buffer moved out, metadata gone) is cloned afresh.
fn restore(dst: &mut Packet, src: &Packet) {
    match (&mut dst.meta, &src.meta) {
        (Some(d), Some(s)) => {
            d.classes.clone_from(&s.classes);
            (d.msg_id, d.msg_type, d.msg_size) = (s.msg_id, s.msg_type, s.msg_size);
            (d.tenant, d.key_hash, d.msg_start) = (s.tenant, s.key_hash, s.msg_start);
            (dst.eth, dst.ip, dst.l4) = (src.eth, src.ip, src.l4);
        }
        _ => dst.clone_from(src),
    }
}

/// Retag `p` as a packet of message `msg_id` in `class` (the flow-churn
/// stream rewrites its pool this way so that no message id recurs).
pub fn retag(p: &mut Packet, msg_id: u64, class: u32) {
    let meta = p.meta.as_mut().expect("pool packets carry metadata");
    meta.msg_id = msg_id;
    meta.classes[0] = class;
}

/// `(global slot, value)` pairs.
type Globals = &'static [(usize, i64)];
/// `(array id, values)` pairs.
type Arrays = &'static [(usize, &'static [i64])];

/// The controller-side state a bundle's logic expects: the values
/// `eden-fuzz`'s exec oracle and the `eden-apps` conformance tests install.
fn case_state(name: &str) -> (Globals, Arrays) {
    const THRESHOLDS: &[i64] = &[10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1];
    match name {
        "pias" | "pias-fig7" | "sff" => (&[], &[(0, THRESHOLDS)]),
        "fixed-priority" => (&[(0, 3)], &[]),
        "wcmp" | "message-wcmp" => (&[(0, 11)], &[(0, &[101, 10, 102, 1])]),
        "pulsar" => (&[], &[(0, &[0, 1, 2])]),
        "dist-rate-limit" => (&[(0, 500_000_000)], &[(0, &[0, 1, 2])]),
        "conn-steer" => (&[], &[(0, &[5, 2, 9]), (1, &[71, 72, 73])]),
        "qjump" => (&[], &[(0, &[7, 0, 4, 1, 0, -1])]),
        "replica-select" => (&[], &[(0, &[50, 51, 52])]),
        "port-knock" => (&[(1, 1001), (2, 1002), (3, 1003), (4, 22)], &[]),
        "l4lb" => (&[], &[(0, &[71, 72, 73]), (1, &[0, 0, 0])]),
        "conga" => (&[], &[(0, &[5, 2, 9])]),
        "ids" => (&[(0, 40)], &[(0, &[22, 7, 1001, 5])]),
        "stateful-firewall" => (&[(0, 6)], &[]),
        "rate-limit" => (&[(0, 200), (1, 100_000)], &[]),
        // flow-counter and conntrack take no controller state
        _ => (&[], &[]),
    }
}

/// A bare interpreter host holding `bundle`'s case-study state.
pub fn vec_host(bundle: &FunctionBundle) -> VecHost {
    let mut host = VecHost::with_slots(8, 8, 8);
    host.arrays = vec![Vec::new(); bundle.schema().arrays().len()];
    let (globals, arrays) = case_state(bundle.name);
    for &(slot, value) in globals {
        host.global[slot] = value;
    }
    for &(id, values) in arrays {
        host.arrays[id] = values.to_vec();
    }
    host
}

/// Which of a bundle's two forms to install.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Form {
    Interpreted,
    Native,
}

/// An enclave with `bundles` installed, class `i + 1` → bundle `i`, each
/// holding its case-study state, and the bytecode ops over every program
/// compiled for it. Compile, verify and install are bracketed separately:
/// they are the three layers set-up time is spent in.
pub fn catalogue_enclave(
    bundles: &[FunctionBundle],
    form: Form,
    config: EnclaveConfig,
) -> (Enclave, u64) {
    let mut enclave = Enclave::new(config);
    let mut code_ops = 0;
    for (i, bundle) in bundles.iter().enumerate() {
        let function = match form {
            Form::Native => bundle.native(),
            Form::Interpreted => {
                let compiled = {
                    let _s = span(Tag::LangCompile);
                    compile(bundle.name, &bundle.source, &bundle.schema())
                        .unwrap_or_else(|e| panic!("{} does not compile: {e:?}", bundle.name))
                };
                {
                    let _s = span(Tag::VmVerify);
                    verify(&compiled.program).expect("compiled programs verify");
                }
                code_ops += compiled.program.ops().len() as u64;
                InstalledFunction::interpreted(bundle.name, compiled)
            }
        };
        let _s = span(Tag::CoreInstall);
        let f = enclave.install_function(function);
        enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(i as u32 + 1)), f);
        apply_state(&mut enclave, f, bundle.name);
    }
    (enclave, code_ops)
}

fn apply_state(enclave: &mut Enclave, f: FuncId, name: &str) {
    let (globals, arrays) = case_state(name);
    for &(slot, value) in globals {
        enclave.set_global(f, slot, value);
    }
    for &(id, values) in arrays {
        enclave.set_array(f, id, values.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_apps::functions::catalogue;
    use netsim::Time;

    #[test]
    fn pool_chunks_cycle_and_restore() {
        let mut rng = SimRng::new(7);
        let mut pool = Pool::generate(&mut rng, 2 * CHUNK, 16, 0, |r| 1 + r.below(3) as u32);
        pool.advance();
        let first = pool.chunk()[0].clone();
        pool.chunk()[0].set_priority(5);
        pool.chunk()[1] = Packet::consumed();
        pool.advance();
        assert_ne!(pool.chunk()[0], first, "second chunk is other packets");
        pool.advance();
        assert_eq!(pool.chunk()[0], first, "header write undone");
        assert!(pool.chunk()[1].meta.is_some(), "punted packet rebuilt");
    }

    #[test]
    fn every_bundle_runs_fault_free_in_both_forms_on_pool_packets() {
        let bundles = catalogue();
        let mut rng = SimRng::new(3);
        let mut pool = Pool::generate(&mut rng, CHUNK, 64, 1460, |r| 1 + r.below(19) as u32);
        for form in [Form::Interpreted, Form::Native] {
            let (mut e, code_ops) = catalogue_enclave(&bundles, form, EnclaveConfig::default());
            pool.advance();
            for (i, p) in pool.chunk().iter_mut().enumerate() {
                e.process(p, &mut rng, Time::from_nanos(i as u64));
            }
            assert_eq!(e.stats.faults, 0);
            assert_eq!(e.stats.missed, 0);
            assert!(e.stats.conserved());
            assert_eq!(code_ops > 0, form == Form::Interpreted);
        }
    }
}
