//! Distributed control plane quickstart: one controller, three hosts.
//!
//! Bootstraps a star topology where every host runs an Eden enclave
//! behind an [`EnclaveAgent`](eden::ctrl::EnclaveAgent) control endpoint,
//! and a fourth host runs the [`ControllerApp`](eden::ctrl::ControllerApp).
//! The controller pushes a configuration epoch to the whole fleet with a
//! two-phase update, the fleet converges, then one host is partitioned,
//! misses the next update, and is reconciled automatically after the
//! partition heals — all over in-band control messages that share the
//! links with data traffic.
//!
//! Run with `cargo run --example ctrl_cluster`.

use eden::core::EnclaveConfig;
use eden::ctrl::fleet::{prio_epoch, Fleet};
use eden::ctrl::CtrlConfig;
use eden::netsim::Time;

fn main() {
    // Three managed hosts (an enclave behind an agent, control endpoint
    // open) and the controller, an ordinary application on a fourth.
    let mut fleet = Fleet::flat(42, 3, CtrlConfig::default(), EnclaveConfig::default());

    let status = |fleet: &mut Fleet, label: &str| {
        let app = fleet.root();
        println!(
            "[{label}] desired epoch {}, in sync {}/3, converged: {}",
            app.desired_epoch(),
            app.in_sync_count(),
            app.all_in_sync()
        );
    };

    // Bootstrap: heartbeats establish liveness and initial sync.
    fleet.net.run_until(Time::from_millis(2));
    status(&mut fleet, "bootstrap  2ms");

    // Push epoch 1 (priority 5) to the whole fleet: prepare everywhere,
    // then commit — no host ever serves a half-applied table.
    fleet.root().set_desired(prio_epoch(5)).expect("valid ops");
    fleet.net.run_until(Time::from_millis(6));
    status(&mut fleet, "epoch 1    6ms");

    // Partition host 3, then push epoch 2 (priority 7). The controller
    // detects the silent host, finishes the update on the reachable
    // majority, and keeps heartbeating into the void.
    fleet.net.set_link_down(fleet.leaf_link(2), true);
    fleet.root().set_desired(prio_epoch(7)).expect("valid ops");
    fleet.net.run_until(Time::from_millis(16));
    status(&mut fleet, "partition 16ms");

    // Heal. The next pong exposes the stale epoch and the reconciler
    // replays desired state onto the lagging host.
    fleet.net.set_link_down(fleet.leaf_link(2), false);
    fleet.net.run_until(Time::from_millis(30));
    status(&mut fleet, "healed    30ms");

    for i in 0..3 {
        let enclave = fleet.enclave(i);
        println!(
            "host {}: epoch {}, digest {:#018x}, single-epoch table: {}",
            i + 1,
            enclave.active_epoch(),
            enclave.config_digest(),
            enclave.serves_single_epoch()
        );
    }

    assert!(
        fleet.root().all_in_sync(),
        "fleet must reconverge after the heal"
    );
    println!("\nthe partitioned host missed epoch 2, was detected down,");
    println!("and was reconciled back to the desired state after the heal.");
}
