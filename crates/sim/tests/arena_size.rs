//! A materialized trace arena is built at its exact size: generating a
//! registry workload peaks at no more heap than its records, 56 bytes each,
//! plus 64 KiB — no doubling slack and no second copy.
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, LIVE_BYTES, PEAK_BYTES};
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const INSTS: usize = 1_000_000;
const RECORD_BYTES: u64 = 56;
const SLACK_BYTES: u64 = 64 << 10;

#[test]
fn a_materialized_arena_peaks_at_its_records() {
    for spec in &icfp_workloads::STANDARD {
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(before, Ordering::Relaxed);
        let trace = spec.trace(INSTS, 0xA7E4A);
        let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
        let records = trace.len() as u64 * RECORD_BYTES;
        assert!(
            peak <= records + SLACK_BYTES,
            "{}: materializing {} instructions peaked at {peak} bytes, \
             {records} of records plus {SLACK_BYTES} allowed",
            spec.name,
            trace.len()
        );
    }
}
