//! Regenerates **Figure 12**: CPU overhead of the Eden components (metadata
//! API, enclave, interpreter) relative to the vanilla stack, measured on
//! the real interpreter/enclave code, plus the §5.4 interpreter footprint
//! and the ablations behind the bars (compiler pipeline, table size,
//! live messages, native vs interpreted per function).
//!
//! Paper reference points: total overhead under ~8% average / ~10% p95
//! while saturating 10 Gbps with 12 flows under SFF; case-study programs
//! use operand stack/heap "in the order of 64 and 256 bytes".
//!
//! Every wall-clock number is printed only. `BENCH_fig12.json` holds what
//! repeats bit for bit: steps per packet, the new bundles' within-2× check
//! on steps, and footprint bytes.
//!
//! Run with `cargo bench -p eden-bench --bench fig12_overheads`.

use eden_bench::fig12;
use eden_bench::report::{emit_json, Table};
use eden_telemetry::{Json, ToJson};

/// Batches × packets per batch of the Figure 12 layers.
const BATCHES: usize = 200;
const PER_BATCH: usize = 5_120;
/// Batches × packets per batch of every ablation.
const AB_BATCHES: usize = 100;
const AB_PER_BATCH: usize = 2_048;

fn main() {
    println!("== Figure 12: CPU overheads of Eden components ==");
    println!("per-packet wall-clock cost, SFF policy, 12 flows\n");

    let r = fig12::run(BATCHES, PER_BATCH);
    let mut table = Table::new(&["component", "avg overhead %", "p95 overhead %"]);
    table.row(&[
        "API (metadata)".into(),
        format!("{:.1}", r.average.api_pct),
        format!("{:.1}", r.p95.api_pct),
    ]);
    table.row(&[
        "enclave (match-action + state)".into(),
        format!("{:.1}", r.average.enclave_pct),
        format!("{:.1}", r.p95.enclave_pct),
    ]);
    table.row(&[
        "interpreter (vs native fn)".into(),
        format!("{:.1}", r.average.interpreter_pct),
        format!("{:.1}", r.p95.interpreter_pct),
    ]);
    println!("{}", table.render());
    println!(
        "raw per-packet cost: baseline {:.0}ns | +API {:.0}ns | +enclave(native) {:.0}ns | +interpreter {:.0}ns ({:.2} steps)",
        r.baseline_ns, r.api_ns, r.enclave_ns, r.interpreter_ns, r.interpreter_steps_per_packet
    );
    println!(
        "percentages of a {:.0} ns reference stack; paper (testbed): total < ~8% avg / ~10% p95 over vanilla TCP\n",
        fig12::REFERENCE_STACK_NS
    );

    println!("== Section 5.4: interpreter footprint of the case-study programs ==");
    let footprints = fig12::footprints();
    let mut fp_table = Table::new(&["program", "operand stack", "heap (locals)"]);
    for fp in &footprints {
        fp_table.row(&[
            fp.name.into(),
            format!("{} B", fp.stack_bytes),
            format!("{} B", fp.heap_bytes),
        ]);
    }
    println!("{}", fp_table.render());
    println!("paper: \"in the order of 64 and 256 bytes respectively\"");

    println!("\n== Interpreter ablation: compiler pipeline off vs on ==");
    let costs = fig12::interp_costs(AB_BATCHES, AB_PER_BATCH);
    let mut cost_table = Table::new(&[
        "function",
        "unopt ns/pkt",
        "fused ns/pkt",
        "unopt steps",
        "fused steps",
        "step ratio",
    ]);
    for c in &costs {
        cost_table.row(&[
            c.function.clone(),
            format!("{:.0}", c.unopt_ns_per_packet),
            format!("{:.0}", c.fused_ns_per_packet),
            format!("{:.2}", c.unopt_steps_per_packet),
            format!("{:.2}", c.fused_steps_per_packet),
            format!("{:.2}x", c.step_reduction_rate()),
        ]);
    }
    println!("{}", cost_table.render());
    println!("paper §3.4.4: the compiler \"performs a number of optimizations\"");
    if let Some(sff) = costs.iter().find(|c| c.function == "sff") {
        println!(
            "sff two ways: the +interpreter layer adds {:.0}ns over native at {:.2} steps/pkt \
             (layer state, 5 MB messages); the ablation interprets it in {:.0}ns at {:.2} steps/pkt \
             (catalogue state)",
            r.interpreter_ns - r.enclave_ns,
            r.interpreter_steps_per_packet,
            sff.fused_ns_per_packet,
            sff.fused_steps_per_packet
        );
    }

    println!("\n== New Table 1 bundles: steps vs established peers ==");
    let checks = fig12::new_bundle_checks(&costs);
    let mut check_table = Table::new(&["function", "fused steps", "peer", "peer steps", "≤2x"]);
    for c in &checks {
        check_table.row(&[
            c.function.into(),
            format!("{:.2}", c.fused_steps_per_packet),
            c.peer.into(),
            format!("{:.2}", c.peer_fused_steps_per_packet),
            if c.within_2x { "yes" } else { "NO" }.into(),
        ]);
    }
    println!("{}", check_table.render());

    println!("\n== Ablation: match-action table size (packet matches the last rule) ==");
    let mut rules_table = Table::new(&["rules", "ns/pkt"]);
    for (rules, ns) in fig12::table_scaling(AB_BATCHES, AB_PER_BATCH) {
        rules_table.row(&[rules.to_string(), format!("{ns:.0}")]);
    }
    println!("{}", rules_table.render());

    println!("\n== Ablation: live message-state blocks (interpreted PIAS) ==");
    let mut live_table = Table::new(&["live messages", "ns/pkt", "steps"]);
    for (live, ns, steps) in fig12::msg_state_scaling(AB_BATCHES, AB_PER_BATCH) {
        live_table.row(&[live.to_string(), format!("{ns:.0}"), format!("{steps:.2}")]);
    }
    println!("{}", live_table.render());

    println!("\n== Ablation: native vs interpreted through the enclave ==");
    let mut ratio_table = Table::new(&[
        "function",
        "native ns/pkt",
        "interp ns/pkt",
        "interp/native",
        "steps",
    ]);
    for e in fig12::engine_ratios(AB_BATCHES, AB_PER_BATCH) {
        ratio_table.row(&[
            e.function.into(),
            format!("{:.0}", e.native_ns_per_packet),
            format!("{:.0}", e.interp_ns_per_packet),
            format!("{:.2}x", e.interp_ns_per_packet / e.native_ns_per_packet),
            format!("{:.2}", e.interp_steps_per_packet),
        ]);
    }
    println!("{}", ratio_table.render());

    let artifact = Json::obj(vec![
        (
            "footprints",
            Json::Arr(footprints.iter().map(|f| f.to_json()).collect()),
        ),
        (
            "interp",
            Json::Arr(costs.iter().map(|c| c.to_json()).collect()),
        ),
        (
            "new_bundles",
            Json::Arr(checks.iter().map(|c| c.to_json()).collect()),
        ),
    ]);
    match emit_json("fig12", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_fig12.json: {e}"),
    }
}
