//! The cost of building a model: every table of the simulated machine — the
//! caches, stream buffers, BTB and PPM — is one flat array per field, so an
//! engine is a few dozen heap allocations, not one per cache set (the nested
//! layout made about 1,700: 128 L1 sets + 1,024 L2 sets + 512 BTB sets).
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, ALLOC_CALLS};
use icfp_isa::{DynInst, Op, Reg, TraceBuilder, TraceCursor};
use icfp_sim::CoreModel;
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BUDGET: u64 = 64;

#[test]
fn building_and_running_any_engine_takes_at_most_64_allocations() {
    let mut b = TraceBuilder::new("one");
    b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(1), 1));
    let trace = b.build();
    let cursor = TraceCursor::from_trace(&trace);
    for model in CoreModel::ALL {
        let cfg = model.default_config();
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let result = model.engine(&cfg).finish(&cursor);
        let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(result.stats.instructions, 1);
        assert!(calls <= BUDGET, "{model}: {calls} allocation calls, budget {BUDGET}");
    }
}
