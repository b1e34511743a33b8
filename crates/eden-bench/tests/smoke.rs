//! Scaled-down smoke runs of every figure harness, asserting the paper's
//! qualitative shape, and the headline claims the checked-in baselines
//! record. The full-length runs live in the bench targets.

use eden_bench::{ctrl_scale, fig09, fig10, fig11, fig12};
use netsim::{Summary, Time};

#[test]
fn ctrl_scale_hierarchy_root_load_grows_sublinearly() {
    // the bench's own 256 -> 1024 points and rule count, one seed
    let points: Vec<_> = [256, 1024]
        .into_iter()
        .flat_map(|hosts| {
            [
                ctrl_scale::run_flat(hosts, 8, &[1]),
                ctrl_scale::run_hier(hosts, 8, &[1]),
            ]
        })
        .collect();
    let h = ctrl_scale::headline(&points, 256, 1024);
    assert!(
        h.sublinear,
        "hier_sublinear: flat grows {:.2}x, hier {:.2}x, {:.1}x fewer at 1024",
        h.flat_growth, h.hier_growth, h.reduction
    );
}

#[test]
fn ctrl_scale_deltas_ship_10x_fewer_config_bytes() {
    let d = ctrl_scale::run_delta(32, 64, &[1]);
    assert!(
        d.reduction_10x(),
        "delta_reduction_10x: full {:.2} KiB vs delta {:.2} KiB",
        d.full_kb_mean,
        d.delta_kb_mean
    );
}

#[test]
fn fig12_new_bundles_stay_within_2x_of_their_peers() {
    for c in fig12::new_bundle_checks(&fig12::interp_costs(1, 64)) {
        assert!(
            c.within_2x,
            "{}: {:.2} fused steps/pkt vs {} at {:.2}",
            c.function, c.fused_steps_per_packet, c.peer, c.peer_fused_steps_per_packet
        );
    }
}

#[test]
fn fig10_wcmp_beats_ecmp_by_about_3x() {
    let cfg = fig10::Config {
        seed: 3,
        warmup: Time::from_millis(30),
        until: Time::from_millis(130),
        ..Default::default()
    };
    let ecmp = fig10::run(fig10::Balancer::Ecmp, fig10::Engine::Native, &cfg);
    let wcmp = fig10::run(fig10::Balancer::Wcmp, fig10::Engine::Native, &cfg);
    println!("ecmp {:.2}G wcmp {:.2}G", ecmp / 1e9, wcmp / 1e9);
    assert!(
        ecmp < 3.0e9,
        "ECMP must be dominated by the slow path, got {:.2}G",
        ecmp / 1e9
    );
    assert!(
        wcmp > 2.0 * ecmp,
        "WCMP should be ~3x ECMP: {:.2}G vs {:.2}G",
        wcmp / 1e9,
        ecmp / 1e9
    );
    assert!(
        wcmp < 11.0e9,
        "cannot exceed the min-cut: {:.2}G",
        wcmp / 1e9
    );

    // Eden ≈ native
    let wcmp_eden = fig10::run(fig10::Balancer::Wcmp, fig10::Engine::Eden, &cfg);
    let diff = (wcmp_eden - wcmp).abs() / wcmp;
    println!(
        "wcmp native {:.2}G eden {:.2}G",
        wcmp / 1e9,
        wcmp_eden / 1e9
    );
    assert!(diff < 0.10, "Eden within 10% of native, diff {diff:.3}");
}

#[test]
fn fig11_reads_starve_writes_until_rate_controlled() {
    let cfg = fig11::Config {
        seed: 2,
        warmup: Time::from_millis(50),
        until: Time::from_millis(250),
        ..Default::default()
    };
    let ri = fig11::run(fig11::Mode::ReadIsolated, &cfg);
    let wi = fig11::run(fig11::Mode::WriteIsolated, &cfg);
    let sim = fig11::run(fig11::Mode::Simultaneous, &cfg);
    let rc = fig11::run(fig11::Mode::RateControlled, &cfg);
    println!(
        "isolated  read {:.0} write {:.0} MB/s",
        ri.read_mbps, wi.write_mbps
    );
    println!(
        "simult    read {:.0} write {:.0} MB/s",
        sim.read_mbps, sim.write_mbps
    );
    println!(
        "ratectl   read {:.0} write {:.0} MB/s",
        rc.read_mbps, rc.write_mbps
    );

    assert!(ri.read_mbps > 90.0, "isolated reads near line rate: {ri:?}");
    assert!(
        wi.write_mbps > 90.0,
        "isolated writes near line rate: {wi:?}"
    );
    let drop = 1.0 - sim.write_mbps / wi.write_mbps;
    assert!(
        drop > 0.5,
        "simultaneous writes must collapse (paper: 72%), got {:.0}%",
        drop * 100.0
    );
    let ratio = rc.read_mbps / rc.write_mbps.max(1.0);
    assert!(
        (0.6..1.7).contains(&ratio),
        "rate control should equalize tenants: read {:.0} write {:.0}",
        rc.read_mbps,
        rc.write_mbps
    );
}

#[test]
fn fig09_priorities_cut_small_flow_fct() {
    let cfg = fig09::Config {
        seed: 5,
        duration: Time::from_millis(60),
        ..Default::default()
    };
    let base = fig09::run(fig09::Scheme::Baseline, fig09::Engine::Native, &cfg);
    let pias = fig09::run(fig09::Scheme::Pias, fig09::Engine::Eden, &cfg);
    let sff = fig09::run(fig09::Scheme::Sff, fig09::Engine::Eden, &cfg);

    let b = Summary::new(base.small_us.clone());
    let p = Summary::new(pias.small_us.clone());
    let s = Summary::new(sff.small_us.clone());
    println!(
        "small FCT us: baseline {:.0} (n={}) pias {:.0} (n={}) sff {:.0} (n={})",
        b.mean(),
        b.len(),
        p.mean(),
        p.len(),
        s.mean(),
        s.len()
    );
    println!(
        "background sunk: base {}MB pias {}MB",
        base.background_bytes / 1_000_000,
        pias.background_bytes / 1_000_000
    );
    assert!(b.len() >= 25, "enough small-flow samples: {}", b.len());
    assert!(
        base.background_bytes > 50_000_000,
        "background must load the link"
    );
    assert!(
        p.mean() < b.mean(),
        "PIAS must beat baseline: {:.0} vs {:.0}",
        p.mean(),
        b.mean()
    );
    assert!(
        s.mean() < b.mean(),
        "SFF must beat baseline: {:.0} vs {:.0}",
        s.mean(),
        b.mean()
    );
}

#[test]
fn fig12_interpreter_overhead_is_modest() {
    // Decided on interleaved batch pairs: a box that slows down mid-run
    // slows both arms of a pair, and the median of the pairs' differences
    // ignores the few pairs it split.
    let diffs = fig12::interpreter_overhead_pairs(40, 1_000);
    let added = Summary::new(diffs.clone()).percentile(50.0);
    let wins = diffs.iter().filter(|&&d| d > 0.0).count();
    println!(
        "Eden adds {added:.0} ns/packet at the median of {} pairs; the interpreter arm was slower in {wins}",
        diffs.len()
    );
    assert!(
        added > 0.0,
        "layers add cost: median difference {added:.0}ns"
    );
    // The paper's figure shows <10% total overhead against a full kernel
    // stack; machines (and debug builds) vary, so bound the *absolute*
    // added cost instead: the whole Eden pipeline must stay within a few
    // microseconds per packet even unoptimized.
    assert!(
        added < 20_000.0,
        "Eden pipeline must stay cheap: adds {added:.0}ns/packet"
    );
}

#[test]
fn fig12_fused_programs_run_no_more_steps_than_unoptimised() {
    // step counts are the interpreter's own: the same on every machine
    for c in fig12::interp_costs(1, 64) {
        assert!(
            c.fused_steps_per_packet <= c.unopt_steps_per_packet,
            "{}: fused {} steps/pkt over unoptimised {}",
            c.function,
            c.fused_steps_per_packet,
            c.unopt_steps_per_packet
        );
    }
}

#[test]
fn fig12_footprints_match_section_5_4() {
    for fp in fig12::footprints() {
        println!(
            "{}: stack {}B heap {}B",
            fp.name, fp.stack_bytes, fp.heap_bytes
        );
        assert!(
            fp.stack_bytes <= 64,
            "{}: operand stack {}B exceeds the paper's 64B",
            fp.name,
            fp.stack_bytes
        );
        assert!(
            fp.heap_bytes <= 256,
            "{}: heap {}B exceeds the paper's 256B",
            fp.name,
            fp.heap_bytes
        );
    }
}
