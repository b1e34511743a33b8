//! End-to-end replicated state (`eden-repl`) over the distributed control
//! plane: a controller and three enclave hosts on a lossy fabric, with the
//! sync riding the ordinary heartbeat/pong cadence — no dedicated channel.
//!
//! Two scenarios pin the subsystem's contract:
//!
//! 1. **Merged counter.** Every host increments a `replicated(merged)`
//!    global locally. One host is partitioned while traffic keeps
//!    flowing; after it heals, every host's *effective* read equals the
//!    exact global sum — contributions are absolute and idempotent, so
//!    5% random frame loss delays convergence but never corrupts it.
//! 2. **Sequenced register.** Writes to a `replicated(sequenced)` global
//!    are deferred, ordered by the controller, and applied on every host
//!    in the same global order — identical applied logs and identical
//!    final value everywhere, again under loss.

use eden::core::{Controller, EnclaveConfig, EnclaveOp, FuncId};
use eden::ctrl::fleet::Fleet;
use eden::ctrl::CtrlConfig;
use eden::lang::{Access, HeaderField, ReplMode, Schema};
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};

/// Run `k` packets through host `i`'s enclave directly (the data path —
/// control traffic stays on the simulated fabric).
fn drive(cluster: &mut Fleet, i: usize, k: usize, msg_size: i64) {
    let now = cluster.net.now();
    let e = cluster.enclave(i);
    let mut rng = SimRng::new(1000 + i as u64);
    for j in 0..k {
        let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
        p.meta = Some(EdenMeta {
            classes: vec![1],
            msg_id: 1 + j as u64,
            msg_size,
            ..Default::default()
        });
        e.process(&mut p, &mut rng, now);
    }
}

/// Fleet-wide packet counter on merged state.
fn counter_ops() -> Vec<EnclaveOp> {
    let schema = Schema::new()
        .global_field("Count", Access::ReadWrite)
        .replicated(ReplMode::MergedSum);
    Controller::new()
        .plan_epoch(
            "fleet_count",
            "fun (packet, msg, _global) -> _global.Count <- _global.Count + 1",
            &schema,
        )
        .expect("compiles")
}

/// Last-writer register on sequenced state, written from packet metadata.
fn register_ops() -> Vec<EnclaveOp> {
    let schema = Schema::new()
        .packet_field("Val", Access::ReadOnly, Some(HeaderField::MetaMsgSize))
        .global_field("Reg", Access::ReadWrite)
        .replicated(ReplMode::Sequenced);
    Controller::new()
        .plan_epoch(
            "seq_register",
            "fun (packet, msg, _global) -> _global.Reg <- packet.Val",
            &schema,
        )
        .expect("compiles")
}

fn effective_count(cluster: &mut Fleet, i: usize) -> i64 {
    cluster.enclave(i).global_effective(FuncId(0), 0)
}

#[test]
fn merged_counter_reaches_the_exact_global_sum_after_heal() {
    let mut c = Fleet::flat(11, 3, CtrlConfig::default(), EnclaveConfig::default());
    // 5% random loss on every host link, both directions
    for i in 0..3 {
        c.net.set_link_loss_permille(c.leaf_link(i), 50);
    }

    c.net.run_until(Time::from_millis(2));
    c.root().set_desired(counter_ops()).expect("valid");
    c.net.run_until(Time::from_millis(10));
    for i in 0..3 {
        assert_eq!(
            c.enclave(i).active_epoch(),
            1,
            "host {i} committed despite loss"
        );
    }

    // Partition host 3 (index 2), then traffic lands everywhere.
    let cut = c.leaf_link(2);
    c.net.set_link_down(cut, true);
    drive(&mut c, 0, 40, 0);
    drive(&mut c, 1, 25, 0);
    drive(&mut c, 2, 35, 0);
    c.net.run_until(Time::from_millis(25));

    // Connected hosts see each other's spend; the partitioned host only
    // its own. Reads stay local either way — staleness, not stalls.
    assert_eq!(effective_count(&mut c, 0), 65, "40 local + 25 from host 2");
    assert_eq!(effective_count(&mut c, 1), 65);
    assert_eq!(effective_count(&mut c, 2), 35, "partitioned: local only");

    // Heal. Contributions are absolute, so anti-entropy needs only one
    // clean round-trip per host; 5% loss just delays it.
    c.net.set_link_down(cut, false);
    c.net.run_until(Time::from_millis(50));
    for i in 0..3 {
        assert_eq!(
            effective_count(&mut c, i),
            100,
            "host {i}: exact global sum, no lost or double-counted increments"
        );
    }
    assert_eq!(c.root().repl().merged_total(0, 0), 100);
    assert!(
        c.root().repl().divergent_hosts().is_empty(),
        "convergence must not trip the divergence detector"
    );
}

#[test]
fn sequenced_writes_apply_in_controller_order_on_every_host() {
    let mut c = Fleet::flat(12, 3, CtrlConfig::default(), EnclaveConfig::default());
    for i in 0..3 {
        c.net.set_link_loss_permille(c.leaf_link(i), 50);
    }

    c.net.run_until(Time::from_millis(2));
    c.root().set_desired(register_ops()).expect("valid");
    c.net.run_until(Time::from_millis(10));

    // Interleaved writers: hosts stamp their values in wall-clock order,
    // with the last two racing each other.
    drive(&mut c, 0, 1, 101);
    c.net.run_until(Time::from_millis(14));
    drive(&mut c, 1, 1, 202);
    c.net.run_until(Time::from_millis(18));
    drive(&mut c, 2, 1, 303);
    drive(&mut c, 0, 1, 104);
    c.net.run_until(Time::from_millis(50));

    // The controller assigned every op a global sequence number.
    assert_eq!(c.root().repl().seq_head(0), 4);

    // Every host applied the identical log — same ops, same order.
    let logs: Vec<Vec<(u64, u32, i64)>> = (0..3)
        .map(|i| {
            c.enclave(i)
                .repl_host(0)
                .expect("replicated function installed")
                .applied_log()
                .map(|e| (e.seq, e.host, e.op.value))
                .collect()
        })
        .collect();
    assert_eq!(logs[0].len(), 4, "all four writes sequenced: {logs:?}");
    assert_eq!(logs[0], logs[1], "hosts 1 and 2 agree on order");
    assert_eq!(logs[0], logs[2], "hosts 1 and 3 agree on order");
    let seqs: Vec<u64> = logs[0].iter().map(|&(s, _, _)| s).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4], "dense controller order");

    // Well-separated writes sequence in wall-clock order; the raced pair
    // lands in *some* order, identically everywhere (checked above).
    assert_eq!(logs[0][0].2, 101, "first write sequenced first");
    assert_eq!(logs[0][1].2, 202, "second write sequenced second");

    // Last-writer-wins: the register holds the final sequenced value on
    // every host, including the hosts that wrote earlier values.
    let last = logs[0].last().unwrap().2;
    for i in 0..3 {
        assert_eq!(
            c.enclave(i).global_effective(FuncId(0), 0),
            last,
            "host {i} register"
        );
    }
    assert!(c.root().repl().divergent_hosts().is_empty());
}
