//! End-to-end quickstart: generate a synthetic workload, simulate it on the
//! baseline and on iCFP, and print the reports.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use icfp::sim::{CoreModel, SimConfig, Simulator};
use icfp::workloads;

fn main() {
    // 1. Generate a deterministic cache-thrashing workload: independent L2
    //    misses with exploitable memory-level parallelism — the scenario
    //    iCFP is built for (it overlaps the misses the in-order baseline
    //    serializes).
    let trace = workloads::dcache_thrash(30_000, 8 * 1024 * 1024, 42);
    println!(
        "workload: {} ({} insts, {:.0}% mem, {:.0}% branches)\n",
        trace.name(),
        trace.len(),
        trace.stats().mem_fraction() * 100.0,
        trace.stats().branch_fraction() * 100.0,
    );

    // 2. Run it on the in-order baseline and on iCFP.
    let base = Simulator::new(SimConfig::new(CoreModel::InOrder)).run(&trace);
    let icfp = Simulator::new(SimConfig::new(CoreModel::Icfp)).run(&trace);

    for r in [&base, &icfp] {
        println!("{}", r.summary());
        println!(
            "    branch mispredicts {:>8}   store forwards {:>6}   slice peak {:>4}   episodes {:>5}   rallies {:>5}",
            r.branch_mispredicts, r.store_forwards, r.slice_peak, r.advance_episodes, r.rally_passes
        );
    }
    println!(
        "\niCFP speedup over in-order: {:.2}x (cycles {} -> {})",
        base.cycles as f64 / icfp.cycles as f64,
        base.cycles,
        icfp.cycles
    );
    assert_eq!(
        base.state_digest, icfp.state_digest,
        "timing models must agree on final architectural state"
    );

    // 3. The same run paused every 10,000 instructions (a driver can report
    //    progress, checkpoint or switch to another configuration between
    //    pauses), then finished: the pauses change nothing.
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    sim.load(trace);
    let mut at = 0;
    while sim.advance_to_inst(at + 10_000).expect("trace was just loaded") {
        at += 10_000;
        let ckpt = sim.checkpoint().expect("a paused run checkpoints");
        println!("  ... paused at instruction {at}, checkpoint {} bytes", ckpt.to_bytes().len());
    }
    let stepped = sim.finish_loaded().expect("trace was just loaded");
    println!(
        "paused run: {} cycles after {} pauses (digest {:#x})",
        stepped.cycles,
        at / 10_000,
        stepped.state_digest
    );
    assert_eq!(stepped.cycles, icfp.cycles);
    assert_eq!(stepped.state_digest, icfp.state_digest);
}
