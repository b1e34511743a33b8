//! Application-aware replica selection (mcrouter-style, paper §2.1.1),
//! end to end over the simulated fabric.
//!
//! A key-value client addresses every GET to a *virtual* service IP. Its
//! memcached stage attaches the key hash; the client enclave's
//! `replica-select` action function rewrites the destination to one of
//! three replicas by key hash — same key, same replica, so caches stay
//! warm — and the switch routes on the rewritten address. memcached
//! really speaks UDP, so the demo does too.
//!
//! Run with `cargo run --example replica_selection`.

use std::collections::HashMap;

use eden::apps::apps::kv::{KvClient, KvReplica};
use eden::apps::functions;
use eden::core::{Controller, Enclave, EnclaveConfig, EnclaveOp, Matcher, Stage};
use eden::netsim::{LinkSpec, Network, Switch, SwitchConfig, Time};
use eden::transport::{app_timer_token, Host, Stack, StackConfig};

const SERVICE_IP: u32 = 99;
const REPLICAS: [u32; 3] = [11, 12, 13];

fn main() {
    let mut controller = Controller::new();
    let mut net = Network::new(4);

    // --- stage: classify GETs, attach key hashes --------------------------
    let mut stage = Stage::new("memcached", &["msg_type", "key"], &["msg_id", "key"]);
    controller.create_stage_rule(
        &mut stage,
        "r1",
        vec![("msg_type".into(), Matcher::Exact("GET".into()))],
        "GET",
    );
    let get_class = controller.class("memcached.r1.GET");

    // --- hosts -------------------------------------------------------------
    let keys: Vec<String> = (0..12).map(|i| format!("user:{i}")).collect();
    let client = net.add_node(Host::new(
        Stack::new(1, StackConfig::default()),
        KvClient::new(SERVICE_IP, keys, 120, Time::from_micros(50), stage),
    ));
    let replicas: Vec<_> = REPLICAS
        .iter()
        .map(|&ip| {
            net.add_node(Host::new(
                Stack::new(ip, StackConfig::default()),
                KvReplica::default(),
            ))
        })
        .collect();

    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let (_, cp) = net.connect(client, sw, LinkSpec::ten_gbps());
    net.node_mut::<Switch>(sw).install_route(1, cp);
    for (i, &r) in replicas.iter().enumerate() {
        let (_, p) = net.connect(r, sw, LinkSpec::ten_gbps());
        net.node_mut::<Switch>(sw).install_route(REPLICAS[i], p);
    }

    // --- client enclave: rewrite dst by key hash ---------------------------
    let mut enclave = Enclave::new(EnclaveConfig::default());
    enclave
        .apply([
            functions::replica_select().shipped(),
            EnclaveOp::class_rule(get_class, 0),
            EnclaveOp::SetArray {
                func: 0,
                array: 0,
                values: REPLICAS.iter().map(|&ip| i64::from(ip)).collect(),
            },
        ])
        .expect("the client's ops apply");
    net.node_mut::<Host<KvClient>>(client)
        .stack
        .set_hook(enclave);

    // --- run ------------------------------------------------------------------
    net.schedule_timer(client, Time::ZERO, app_timer_token(0));
    net.run_until(Time::from_millis(50));

    // --- report ----------------------------------------------------------------
    let mut totals: HashMap<u32, usize> = HashMap::new();
    for (i, &r) in replicas.iter().enumerate() {
        let n = net.node::<Host<KvReplica>>(r).app.requests.len();
        totals.insert(REPLICAS[i], n);
        println!("replica {:>2}: served {n} requests", REPLICAS[i]);
    }
    let responses = &net.node::<Host<KvClient>>(client).app.responses;
    println!("client received {} responses", responses.len());

    // same key → same replica: each of the 12 keys hits exactly one replica
    let mut key_to_replica: HashMap<i64, u32> = HashMap::new();
    let mut stable = true;
    for (i, &r) in replicas.iter().enumerate() {
        for &kh in &net.node::<Host<KvReplica>>(r).app.requests {
            if *key_to_replica.entry(kh).or_insert(REPLICAS[i]) != REPLICAS[i] {
                stable = false;
            }
        }
    }
    println!(
        "key→replica stability: {} ({} distinct keys observed)",
        if stable { "stable" } else { "BROKEN" },
        key_to_replica.len()
    );
    assert!(stable, "replica selection must be consistent per key");
    assert!(
        totals.values().all(|&n| n > 0),
        "all replicas should serve some keys"
    );
}
