//! The simulation loop's allocation budget: after the first 10 % of a trace
//! (caches of scratch capacity warmed, hash tables grown) a run may make
//! fewer than 0.5 heap-allocation calls per 1000 simulated instructions —
//! well under two, the bound the test is named for.
//!
//! Every model pauses at an instruction position, so "after the first 10 %"
//! is a run paused there: the allocation calls from the pause until the
//! trace is fully stepped (the result is assembled after that).
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, ALLOC_CALLS};
use icfp_sim::{CoreModel, SimConfig, Simulator};
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const INSTS: usize = 40_000;
const SEED: u64 = 0xA110C;
const BUDGET_PER_KINST: f64 = 0.5;

#[test]
fn steady_state_simulation_stays_under_two_allocations_per_kinst() {
    for wl in ["pointer-chase", "dcache-thrash", "streaming"] {
        let trace = icfp_workloads::by_name(wl, INSTS, SEED).expect("standard workload");
        let warm_len = trace.len() / 10;
        for model in CoreModel::ALL {
            let mut sim = Simulator::new(SimConfig::new(model));
            sim.load(trace.clone());
            assert!(sim.advance_to_inst(warm_len).expect("loaded"), "{model}: paused");
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            assert!(!sim.advance_to_inst(usize::MAX).expect("loaded"), "{model}: fully stepped");
            let steady = ALLOC_CALLS.load(Ordering::Relaxed) - before;
            assert_eq!(sim.finish_loaded().expect("loaded").instructions, trace.len() as u64);
            let per_kinst = steady as f64 * 1000.0 / (trace.len() - warm_len) as f64;
            assert!(
                per_kinst < BUDGET_PER_KINST,
                "{model} on {wl}: {per_kinst:.2} allocation calls per 1000 instructions \
                 after the first 10 % ({steady} calls), budget {BUDGET_PER_KINST}"
            );
        }
    }
}
