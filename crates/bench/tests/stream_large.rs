//! The streaming acceptance criterion: a workload of ≥ 10M instructions
//! streams through [`icfp_sim::Simulator::run_source`] with peak trace memory
//! bounded by a constant number of blocks — asserted via the source's block
//! residency counter — while producing a real, non-degenerate simulation.
//!
//! 10M instructions as a materialized arena would be ~10M × 96 B ≈ 1 GiB of
//! decoded `DynInst`s; the streamed source keeps at most a handful of
//! 16Ki-instruction blocks (plus the per-block resume snapshots) resident.

use icfp_isa::TraceSource;
use icfp_sim::{CoreModel, SimConfig, Simulator};

const TEN_MILLION: usize = 10_000_000;
const BLOCK: usize = 16 * 1024;

#[test]
fn ten_million_instructions_stream_with_bounded_block_residency() {
    // dcache-thrash is the cheapest generator per instruction and, on the
    // in-order model, the cheapest to simulate — this is a memory-bound
    // acceptance test, not a timing study.
    let source = icfp_workloads::STANDARD[1].source(TEN_MILLION, 0xB16, BLOCK);
    assert!(source.len() >= TEN_MILLION, "budget not met: {}", source.len());
    let blocks = source.block_count();
    assert!(blocks >= TEN_MILLION / BLOCK, "{blocks} blocks");

    let run = Simulator::new(SimConfig::new(CoreModel::InOrder)).run_source(&source);
    assert_eq!(run.instructions, source.len() as u64);
    assert!(run.cycles > run.instructions / 2, "degenerate run");

    let residency = source.residency().expect("streamed source is counted");
    assert!(
        residency.peak() <= 4,
        "peak resident blocks {} of {blocks} — streaming is not bounded",
        residency.peak()
    );
    // After the run only the source's own bounded MRU cache still pins
    // blocks (they drop with the source); nothing leaked beyond it.
    assert!(
        residency.live() <= residency.peak().min(3),
        "{} blocks still alive",
        residency.live()
    );
}
