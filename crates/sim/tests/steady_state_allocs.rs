//! The simulation loop's allocation budget: after the first 10 % of a trace
//! (caches of scratch capacity warmed, hash tables grown) a run may make
//! fewer than 2 heap-allocation calls per 1000 simulated instructions.
//!
//! In-order is a whole-trace model and cannot be paused, so "after the first
//! 10 %" is measured by difference: the allocation calls of a run over the
//! whole trace minus those of a run over its first tenth are the calls the
//! last nine tenths made (runs are deterministic, so the prefix run repeats
//! exactly what the full run did up to that point, plus one result assembly).
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, ALLOC_CALLS};
use icfp_isa::Trace;
use icfp_sim::{CoreModel, SimConfig, Simulator};
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const INSTS: usize = 40_000;
const SEED: u64 = 0xA110C;
const BUDGET_PER_KINST: f64 = 2.0;

fn alloc_calls_of_run(model: CoreModel, trace: &Trace) -> u64 {
    let mut sim = Simulator::new(SimConfig::new(model));
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let report = sim.run(trace);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(report.instructions, trace.len() as u64);
    calls
}

#[test]
fn steady_state_simulation_stays_under_two_allocations_per_kinst() {
    for wl in ["pointer-chase", "dcache-thrash"] {
        let full = icfp_workloads::by_name(wl, INSTS, SEED).expect("standard workload");
        let warm_len = full.len() / 10;
        let prefix = Trace::new(full.name(), full.as_slice()[..warm_len].to_vec());
        for model in CoreModel::ALL {
            let steady =
                alloc_calls_of_run(model, &full).saturating_sub(alloc_calls_of_run(model, &prefix));
            let per_kinst = steady as f64 * 1000.0 / (full.len() - warm_len) as f64;
            assert!(
                per_kinst < BUDGET_PER_KINST,
                "{model} on {wl}: {per_kinst:.2} allocation calls per 1000 instructions \
                 after the first 10 % ({steady} calls), budget {BUDGET_PER_KINST}"
            );
        }
    }
}
