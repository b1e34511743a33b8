//! Stateful firewall example (Table 1's last row): port knocking enforced
//! by an Eden action function at the *server's* ingress enclave.
//!
//! Packets to the protected port are dropped until the enclave has seen
//! the secret knock sequence 1001 → 1002 → 1003; a wrong port resets
//! progress. The whole state machine is four integers of enclave global
//! state plus a dozen lines of DSL — no kernel module, no middlebox.
//!
//! Run with `cargo run --example port_knocking`.

use eden::apps::functions;
use eden::core::{ClassId, Enclave, EnclaveConfig, EnclaveOp, FiveTupleMatch};
use eden::netsim::{Packet, SimRng, TcpHeader, Time};
use eden::transport::HookVerdict;

fn knock_packet(port: u16) -> Packet {
    Packet::tcp(
        0x0A000001,
        0x0A000002,
        TcpHeader {
            src_port: 55555,
            dst_port: port,
            flags: eden::netsim::TcpFlags {
                syn: true,
                ..Default::default()
            },
            ..Default::default()
        },
        0,
    )
}

fn main() {
    let bundle = functions::port_knock();
    println!("the action function (Eden DSL):");
    println!("{}", bundle.source);

    // Enclave on the protected server: classify ALL tcp traffic via a
    // five-tuple rule (no application changes needed — Table 2's last row),
    // then run the knock state machine.
    let mut enclave = Enclave::new(EnclaveConfig::default());
    let class = ClassId(1);
    enclave.add_flow_rule(
        FiveTupleMatch {
            proto: Some(6),
            ..Default::default()
        },
        class,
    );
    // the knock sequence 1001, 1002, 1003 opens protected port 22: the
    // bundle's case-study state, installed by the controller
    let mut ops = vec![bundle.shipped(), EnclaveOp::class_rule(class, 0)];
    ops.extend(bundle.state_ops(0));
    enclave.apply(ops).expect("the server's ops apply");

    let mut rng = SimRng::new(1);
    let mut t = 0u64;
    let mut send = |enclave: &mut Enclave, port: u16| -> &'static str {
        t += 1;
        let mut p = knock_packet(port);
        match enclave.process(&mut p, &mut rng, Time::from_nanos(t)) {
            HookVerdict::Drop => "DROPPED",
            _ => "passed",
        }
    };

    println!(
        "\nSYN to :22 before knocking ......... {}",
        send(&mut enclave, 22)
    );
    println!(
        "knock :1001 ........................ {}",
        send(&mut enclave, 1001)
    );
    println!(
        "knock :1002 ........................ {}",
        send(&mut enclave, 1002)
    );
    println!(
        "stray packet to :8080 (resets) ..... {}",
        send(&mut enclave, 8080)
    );
    println!(
        "SYN to :22 after broken knock ...... {}",
        send(&mut enclave, 22)
    );
    println!(
        "knock :1001 ........................ {}",
        send(&mut enclave, 1001)
    );
    println!(
        "knock :1002 ........................ {}",
        send(&mut enclave, 1002)
    );
    println!(
        "knock :1003 ........................ {}",
        send(&mut enclave, 1003)
    );
    println!(
        "SYN to :22 after full knock ........ {}",
        send(&mut enclave, 22)
    );
    println!(
        "\nenclave stats: {} packets, {} dropped, {} faults",
        enclave.stats.packets, enclave.stats.dropped, enclave.stats.faults
    );
}
