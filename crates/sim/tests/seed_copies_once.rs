//! Seeding an engine copies the warmed memory image exactly once, in every
//! model: the bytes allocated between `seed` and the fetch of the first timed
//! instruction, less what the same engine allocates before its first fetch
//! of a cold run, stay within 1.1 × the image.
//!
//! One `#[test]` only: see `common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;
#[path = "common/tap.rs"]
mod tap;

use alloc::{CountingAlloc, ALLOC_BYTES};
use icfp_isa::{ArchState, ArenaSource, DynInst, Op, Reg, TraceBuilder, TraceCursor};
use icfp_sim::CoreModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tap::Tap;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Distinct store words in the warmed image, and the timed tail behind them.
const WORDS: u64 = 40_000;
const TAIL: u64 = 64;

#[test]
fn seeding_copies_the_memory_image_once_in_every_model() {
    let mut b = TraceBuilder::new("seed-copies");
    for k in 0..WORDS + TAIL {
        b.push(DynInst::alu_imm(Op::Add, Reg::int(2), Reg::int(2), 1));
        b.push(DynInst::store(Reg::int(2), Reg::int(3), 0x80_0000 + 8 * k));
    }
    let trace = Arc::new(b.build());
    let ff = 2 * WORDS as usize;
    let mut warm = ArchState::new();
    warm.exec_all(&trace.as_slice()[..ff]);
    let warm = Arc::new(warm);

    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let copy = warm.mem.clone();
    let image = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(copy.written_words() == WORDS as usize && image > 16 * WORDS);
    drop(copy);

    // Bytes allocated from just before `seed` (or, cold, the first advance)
    // to the first block fetch of an engine built beforehand.
    let to_first_fetch = |model: CoreModel, seed: Option<&Arc<ArchState>>| -> u64 {
        // A streamed view of the arena that notes the allocation counter
        // when its first block is asked for: the first timed instruction.
        let at = AtomicU64::new(u64::MAX);
        let note = |_| {
            let now = ALLOC_BYTES.load(Ordering::Relaxed);
            let _ = at.compare_exchange(u64::MAX, now, Ordering::Relaxed, Ordering::Relaxed);
        };
        let source = Tap { inner: ArenaSource::with_block_size(Arc::clone(&trace), 256), on_block: note };
        let cursor = TraceCursor::new(&source);
        let mut engine = model.engine(&model.default_config());
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        let start = seed.map_or(0, |warm| {
            engine.seed(warm).expect("a fresh engine accepts a seed");
            warm.instructions as usize
        });
        engine.advance(&cursor, start + 1);
        let at = at.load(Ordering::Relaxed);
        assert_ne!(at, u64::MAX, "{model}: the run fetched no block");
        at - before
    };
    for model in CoreModel::ALL {
        let (cold, seeded) = (to_first_fetch(model, None), to_first_fetch(model, Some(&warm)));
        let copied = seeded.saturating_sub(cold);
        assert!(
            copied >= image && copied as f64 <= 1.1 * image as f64,
            "{model}: {copied} bytes between seed and the first timed instruction, image {image}"
        );
    }
}
