//! A run's heap does not grow with the length of an advance episode: iCFP
//! and SLTP keep only the slice values a rally can still read, so on
//! pointer-chase — one episode from start to end — a run peaks at most
//! 1 MiB above its start (before the window was pruned, iCFP peaked 29.8 MB
//! above it at 1M instructions and grew with every one), and a checkpoint
//! taken 130k instructions in holds at most 0.5 MB (2.43 MB before).
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, LIVE_BYTES, PEAK_BYTES};
use icfp_sim::{CoreModel, SimConfig, Simulator};
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 0xC0DE;
const PEAK_BUDGET: u64 = 1 << 20;
const CKPT_AT: usize = 130_000;
const CKPT_BUDGET: usize = 500_000;

#[test]
fn a_long_episode_keeps_a_bounded_heap_and_checkpoint() {
    // The full horizon in release builds, a fifth of it otherwise.
    let insts = if cfg!(debug_assertions) { 200_000 } else { 1_000_000 };
    let trace = icfp_workloads::by_name("pointer-chase", insts, SEED).expect("standard workload");
    for model in [CoreModel::Icfp, CoreModel::Sltp] {
        let start = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(start, Ordering::Relaxed);
        let report = Simulator::new(SimConfig::new(model)).run(&trace);
        let above = PEAK_BYTES.load(Ordering::Relaxed) - start;
        assert_eq!(report.instructions, trace.len() as u64);
        assert!(
            above <= PEAK_BUDGET,
            "{model}: heap peaked {above} bytes above its start over {insts} instructions, budget {PEAK_BUDGET}"
        );

        let mut sim = Simulator::new(SimConfig::new(model));
        sim.load(trace.clone());
        assert!(sim.advance_to_inst(CKPT_AT).expect("loaded"), "{model}: paused");
        let bytes = sim.checkpoint().expect("loaded").to_bytes().len();
        assert!(bytes <= CKPT_BUDGET, "{model}: {bytes}-byte checkpoint at {CKPT_AT}, budget {CKPT_BUDGET}");
    }
}
