//! Every counter is one row of one table (`eden-telemetry`'s `counters!`),
//! and every exported form is a loop over rows — so a row must show up in
//! all of them. This walks each group's row list against the JSON render,
//! the Prometheus render and, for the enclave group, the control
//! protocol's `Stats` section, and checks the two per-function rows that
//! are filled at snapshot time against the state they are read from.

use eden::apps::functions::pias;
use eden::core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden::ctrl::{CtrlReply, Response, WireCounters};
use eden::netsim::{EdenMeta, Packet, SimRng, Time, UdpHeader};
use eden::telemetry::{
    metric_table_markdown, render_cluster, render_snapshot, Block, ClusterStats, ConnStats,
    EnclaveCounters, FlowCounters, FuncCounts, FunctionCounters, HostCounters, Kind, RuleCounters,
    RuleHits, StatsSnapshot, TableCounters, TableLookups, ToJson, VmCounters,
};

/// A block of group `$group` whose row `i` holds `$base + i`, so that a
/// value found in a render says which row put it there.
macro_rules! filled {
    ($group:ty, $base:expr) => {
        <$group>::from_values(std::array::from_fn(|i| $base + i as u64))
    };
}

/// Every row of `block`'s table is in `json` under its exported name and
/// in `prom` under its metric name, typed as its kind says. Returns the
/// number of rows walked.
fn rendered<B: Block>(block: &B, json: &str, prom: &str) -> usize {
    let values = block.values();
    for (row, v) in B::ROWS.iter().zip(values.as_ref()) {
        let key = format!("\"{}\":{v}", row.name);
        assert!(json.contains(&key), "{key} missing from {json}");

        assert_eq!(
            row.prom.ends_with("_total"),
            row.kind == Kind::Counter,
            "{}",
            row.prom
        );
        let typ = format!("# TYPE {} {}\n", row.prom, row.kind.as_str());
        assert!(prom.contains(&typ), "{typ} missing from {prom}");
        let sampled = prom.lines().any(|l| {
            let rest = l.strip_prefix(row.prom).unwrap_or("");
            (rest.starts_with(' ') || rest.starts_with('{')) && rest.ends_with(&format!(" {v}"))
        });
        assert!(sampled, "no {} sample reads {v} in {prom}", row.prom);
    }
    B::ROWS.len()
}

#[test]
fn every_row_reaches_every_sink() {
    let snap = StatsSnapshot {
        captured_at_ns: 1,
        enclave: filled!(EnclaveCounters, 100),
        tables: vec![TableCounters {
            table: 0,
            counts: filled!(TableLookups, 200),
        }],
        rules: vec![RuleCounters {
            table: 0,
            rule: 1,
            func: 2,
            counts: filled!(RuleHits, 300),
        }],
        functions: vec![FunctionCounters {
            func: 2,
            name: "pias".into(),
            counts: filled!(FuncCounts, 400),
        }],
        vm: filled!(VmCounters, 500),
        flows: vec![FlowCounters {
            conn: 0,
            state: "Established".into(),
            counts: filled!(ConnStats, 600),
        }],
        host: Some(filled!(HostCounters, 700)),
        ..StatsSnapshot::default()
    };
    let (json, prom) = (snap.to_json().render(), render_snapshot(&snap));
    let mut rows = rendered(&snap.enclave, &json, &prom)
        + rendered(&snap.tables[0], &json, &prom)
        + rendered(&snap.rules[0], &json, &prom)
        + rendered(&snap.functions[0], &json, &prom)
        + rendered(&snap.vm, &json, &prom)
        + rendered(&snap.flows[0], &json, &prom)
        + rendered(snap.host.as_ref().expect("set above"), &json, &prom);

    let mut cluster = ClusterStats::new();
    cluster.wire = filled!(WireCounters, 800);
    let (json, prom) = (cluster.to_json().render(), render_cluster(&cluster));
    rows += rendered(&cluster.wire, &json, &prom);

    // the documented table has a line per row walked, so no group was
    // left out of this test
    let documented = metric_table_markdown().lines().skip(2).count();
    assert_eq!(rows, documented);

    // the wire: a fixed 29-byte header, the enclave group's rows as
    // little-endian `u64`s in table order, then the latency section (here
    // its two-byte count alone)
    let reply = Response::from(CtrlReply::Stats {
        re: 1,
        epoch: 2,
        digest: 3,
        captured_at_ns: 4,
        counters: snap.enclave,
        latencies: Vec::new(),
    });
    let bytes = reply.encode().expect("fits the wire");
    assert_eq!(bytes.len(), 29 + 8 * EnclaveCounters::ROWS.len() + 2);
    for (i, v) in snap.enclave.values().into_iter().enumerate() {
        let at = 29 + 8 * i;
        let row = EnclaveCounters::ROWS[i].field;
        assert_eq!(bytes[at..at + 8], v.to_le_bytes(), "row {i} ({row})");
    }
    assert_eq!(Response::decode(&bytes), Ok(reply));
}

/// A `flow-churn`-shaped run: message ids that never recur against a small
/// table cap, so almost every packet creates a block and evicts one.
#[test]
fn snapshot_evictions_and_live_blocks_are_the_function_states() {
    let cap = 16;
    let mut e = Enclave::new(EnclaveConfig {
        max_messages_per_function: cap,
        ..EnclaveConfig::default()
    });
    let funcs = [pias(), pias()].map(|b| e.install_function(b.interpreted()));
    for (class, &f) in funcs.iter().enumerate() {
        e.install_rule(TableId(0), MatchSpec::Class(ClassId(class as u32)), f);
    }
    let mut rng = SimRng::new(3);
    for msg in 0..200u64 {
        let mut p = Packet::udp(1, 2, UdpHeader::default(), 100);
        p.meta = Some(EdenMeta {
            // two of every three messages go to the first function
            classes: vec![u32::from(msg % 3 == 0)],
            msg_id: 1 + msg,
            ..EdenMeta::default()
        });
        e.process(&mut p, &mut rng, Time::from_nanos(msg));
    }

    let snap = e.stats_snapshot();
    let (mut evictions, mut live) = (0, 0);
    for &f in &funcs {
        let (counts, state) = (&snap.functions[f.0].counts, e.function_state(f));
        assert_eq!(counts.evictions, state.evictions, "function {}", f.0);
        assert_eq!(counts.live_messages, state.live_messages() as u64);
        evictions += counts.evictions;
        live += counts.live_messages;
    }
    assert_eq!(live, 2 * cap as u64, "both tables at their cap");
    assert_eq!(evictions, 200 - live, "every other new message evicted one");
}

/// The table README prints is the one the row lists generate.
#[test]
fn readme_metric_table_is_the_generated_one() {
    let readme = include_str!("../README.md");
    let (begin, end) = ("<!-- metric-table:begin -->\n", "<!-- metric-table:end -->");
    let start = readme.find(begin).expect("begin marker") + begin.len();
    let len = readme[start..].find(end).expect("end marker");
    let want = metric_table_markdown();
    assert!(
        readme[start..start + len] == want,
        "README.md's metric table is stale; between the markers it should read:\n{want}"
    );
}
