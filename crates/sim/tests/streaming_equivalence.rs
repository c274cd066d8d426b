//! Acceptance tests for the streaming trace subsystem: simulating a workload
//! through a block-streamed [`icfp_isa::TraceSource`] must be bit-identical
//! — cycle counts, statistics, state digests — to simulating the fully
//! materialized arena, for every core model and every standard workload,
//! including checkpoints taken *mid-block* and resumed against the streamed
//! source.

use icfp_isa::{ArenaSource, TraceCursor, TraceSource};
use icfp_sim::{CoreModel, SimCheckpoint, SimConfig, Simulator};
use std::sync::Arc;

const INSTS: usize = 1500;
const SEED: u64 = 0x57AE;
/// Deliberately tiny blocks so the run crosses many boundaries.
const BLOCK: usize = 96;

#[test]
fn streamed_and_arena_runs_are_bit_identical_for_all_models_and_workloads() {
    for spec in &icfp_workloads::STANDARD {
        let arena = spec.trace(INSTS, SEED);
        let streamed = spec.source(INSTS, SEED, BLOCK);
        assert_eq!(streamed.digest(), arena.digest(), "{}", spec.name);
        for model in CoreModel::ALL {
            let config = SimConfig::new(model);
            let a = Simulator::new(config.clone()).run(&arena);
            let s = Simulator::new(config).run_source(&streamed);
            assert_eq!(a.cycles, s.cycles, "{model} {}: cycles diverged", spec.name);
            assert_eq!(
                a.state_digest, s.state_digest,
                "{model} {}: state digest diverged",
                spec.name
            );
            assert_eq!(a.instructions, s.instructions, "{model} {}", spec.name);
            assert_eq!(a.result.stats, s.result.stats, "{model} {}", spec.name);
            assert_eq!(a.result.final_regs, s.result.final_regs);
            assert_eq!(a.result.final_mem, s.result.final_mem);
        }
        // Streaming held only a bounded number of blocks resident even
        // though five models replayed the whole trace: the source's MRU
        // cache plus the one block the engine's first pass pins as the active
        // slice (rally faults can evict it from the cache while pinned).
        let peak = streamed.residency().expect("streamed source counts").peak();
        assert!(peak <= 5, "{}: peak resident blocks {peak}", spec.name);
    }
}

#[test]
fn mid_block_checkpoint_from_streamed_source_resumes_digest_identical() {
    for spec in &icfp_workloads::STANDARD {
        let arena = spec.trace(INSTS, SEED);
        for model in [CoreModel::Icfp, CoreModel::InOrder] {
            let config = SimConfig::new(model);
            let reference = Simulator::new(config.clone()).run(&arena);

            // Fork at an instruction that is NOT a block boundary.
            let fork_at = BLOCK + BLOCK / 3;
            assert!(!fork_at.is_multiple_of(BLOCK));
            let streamed: Arc<dyn TraceSource> = spec.source(INSTS, SEED, BLOCK).into();
            let mut sim = Simulator::new(config.clone());
            sim.load(Arc::clone(&streamed));
            sim.advance_to_inst(fork_at).expect("loaded");
            let ckpt = sim.checkpoint().expect("mid-block checkpoint");
            assert_eq!(ckpt.block_size, BLOCK as u64);

            // Round-trip the container bytes, then resume against a *fresh*
            // streamed source (nothing shared with the one checkpointed).
            let ckpt = SimCheckpoint::from_bytes(&ckpt.to_bytes()).expect("container");
            let fresh: Arc<dyn TraceSource> = spec.source(INSTS, SEED, BLOCK).into();
            let mut resumed = Simulator::resume(&ckpt, fresh).expect("resume streamed");
            let report = resumed.finish_loaded().expect("resumed run is loaded");
            assert_eq!(report.cycles, reference.cycles, "{model} {}", spec.name);
            assert_eq!(
                report.state_digest, reference.state_digest,
                "{model} {}",
                spec.name
            );

            // The same checkpoint also resumes against the arena (identity
            // is content, not backing) when block geometry matches.
            let arena_src = ArenaSource::with_block_size(arena.clone(), BLOCK);
            let mut resumed = Simulator::resume(&ckpt, arena_src).expect("resume arena");
            let report = resumed.finish_loaded().expect("resumed run is loaded");
            assert_eq!(report.state_digest, reference.state_digest);
        }
    }
}

#[test]
fn resume_block_digest_mismatch_is_rejected() {
    let spec = &icfp_workloads::STANDARD[0];
    let streamed: Arc<dyn TraceSource> = spec.source(INSTS, SEED, BLOCK).into();
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    sim.load(Arc::clone(&streamed));
    sim.advance_to_inst(BLOCK * 2 + 7).expect("loaded");
    let mut ckpt = sim.checkpoint().expect("checkpoint");
    ckpt.resume_block_digest ^= 1;
    let fresh: Arc<dyn TraceSource> = spec.source(INSTS, SEED, BLOCK).into();
    match Simulator::resume(&ckpt, fresh) {
        Err(icfp_sim::CkptError::BlockMismatch { block, .. }) => {
            assert_eq!(block, ckpt.resume_block);
        }
        other => panic!("expected block mismatch, got {other:?}"),
    }
}

#[test]
fn batched_stepping_streams_through_block_boundaries() {
    let spec = &icfp_workloads::STANDARD[1]; // dcache-thrash: misses + stores
    let arena = spec.trace(INSTS, SEED);
    let reference = Simulator::new(SimConfig::new(CoreModel::Icfp)).run(&arena);

    let streamed: Arc<dyn TraceSource> = spec.source(INSTS, SEED, BLOCK).into();
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    sim.load(streamed);
    let mut at = 250;
    while sim.advance_to_inst(at).expect("loaded") {
        at += 250;
    }
    let report = sim.finish_loaded().expect("loaded");
    assert_eq!(report.cycles, reference.cycles);
    assert_eq!(report.state_digest, reference.state_digest);
}

#[test]
fn golden_model_agrees_across_backings() {
    // The functional golden model, evaluated through a streamed cursor,
    // matches the arena evaluation (exercises cursor random access too).
    let spec = &icfp_workloads::STANDARD[0];
    let arena = spec.trace(800, 9);
    let streamed = spec.source(800, 9, 64);
    let (regs_a, mem_a) = icfp_core::common::golden_final_state(&arena);
    let (regs_s, mem_s) =
        icfp_core::common::golden_final_state_cursor(&TraceCursor::new(&streamed));
    assert_eq!(regs_a, regs_s);
    assert_eq!(mem_a, mem_s);
}
