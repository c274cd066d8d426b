//! Acceptance tests for the checkpoint/restore subsystem: for every core
//! model and every standard synthetic workload, save → restore → run must be
//! bit-identical (cycle counts, statistics, state digests) to an
//! uninterrupted run — including checkpoints taken through the on-disk
//! `icfp-ckpt/v5` encoding, checkpoints taken mid-episode while the iCFP
//! machine has live speculative state, and checkpoints taken in the middle of
//! the timed region of a functionally fast-forwarded run.

use icfp_core::IcfpMachine;
use icfp_sim::{CoreModel, SimCheckpoint, SimConfig, SimReport, Simulator};

const INSTS: usize = 1200;
const SEED: u64 = 0x1CF9;

fn reference_run(config: &SimConfig, trace: &icfp_isa::Trace) -> SimReport {
    Simulator::new(config.clone()).run(trace)
}

/// Fast-forwards `ff` instructions functionally, runs to `fork_at`
/// instructions, checkpoints through the full byte-level container, resumes
/// on a fresh simulator and finishes.
fn interrupted_run(
    config: &SimConfig,
    trace: &icfp_isa::Trace,
    ff: usize,
    fork_at: usize,
) -> (SimCheckpoint, SimReport) {
    let mut sim = Simulator::new(config.clone());
    sim.load(trace.clone());
    if ff > 0 {
        sim.fast_forward(ff).expect("fresh loaded engine seeds");
    }
    sim.advance_to_inst(fork_at).expect("loaded");
    let ck = sim.checkpoint().expect("checkpoint mid-run");
    // Round-trip the container encoding so the test covers the on-disk
    // format, not just the in-memory snapshot.
    let ck = SimCheckpoint::from_bytes(&ck.to_bytes()).expect("container round-trip");
    let mut resumed = Simulator::resume(&ck, trace.clone()).expect("resume");
    (ck, resumed.finish_loaded().expect("resumed run is loaded"))
}

#[test]
fn save_restore_run_is_bit_identical_for_every_model_and_workload() {
    for model in CoreModel::ALL {
        let config = SimConfig::new(model);
        for wl in icfp_workloads::STANDARD_NAMES {
            let trace = icfp_workloads::by_name(wl, INSTS, SEED).expect("standard workload");
            // Cold, and with the first quarter skipped functionally: the
            // resume then carries both the seeded architectural state and
            // live timing state from inside the timed region.
            for ff in [0, trace.len() / 4] {
                let reference = Simulator::new(config.clone()).run_ff(&trace, ff);
                let timed = trace.len() - ff;
                for fork_at in [ff, ff + timed / 3, trace.len() - 1] {
                    let (ck, resumed) = interrupted_run(&config, &trace, ff, fork_at);
                    assert_eq!(ck.workload, *wl);
                    assert_eq!(
                        resumed.cycles, reference.cycles,
                        "{model} {wl} ff={ff} fork@{fork_at}: cycles diverged"
                    );
                    assert_eq!(
                        resumed.state_digest, reference.state_digest,
                        "{model} {wl} ff={ff} fork@{fork_at}: state digest diverged"
                    );
                    assert_eq!(
                        resumed.instructions, reference.instructions,
                        "{model} {wl} ff={ff} fork@{fork_at}"
                    );
                    assert_eq!(resumed.result.stats, reference.result.stats);
                    assert_eq!(resumed.result.final_regs, reference.result.final_regs);
                    assert_eq!(resumed.result.final_mem, reference.result.final_mem);
                }
            }
        }
    }
}

#[test]
fn mid_episode_checkpoint_resumes_exactly() {
    // pointer-chase keeps the iCFP machine inside advance episodes (dependent
    // L2 misses) almost continuously; checkpoint at many points and require
    // that at least one lands mid-episode, and that every single one resumes
    // bit-identically.
    let config = SimConfig::new(CoreModel::Icfp);
    let trace = icfp_workloads::by_name("pointer-chase", INSTS, SEED).unwrap();
    let reference = reference_run(&config, &trace);

    let mut mid_episode_seen = 0usize;
    for fork_at in (50..trace.len()).step_by(151) {
        let mut sim = Simulator::new(config.clone());
        sim.load(trace.clone());
        sim.advance_to_inst(fork_at).expect("loaded");
        let ck = sim.checkpoint().expect("checkpoint");
        // The snapshot bytes are the machine itself: decode them and ask.
        let machine: IcfpMachine =
            serde::from_bytes(&ck.snapshot.bytes).expect("an icfp snapshot decodes");
        mid_episode_seen += usize::from(machine.in_episode());
        let mut resumed = Simulator::resume(&ck, trace.clone()).expect("resume");
        let report = resumed.finish_loaded().expect("resumed run is loaded");
        assert_eq!(report.cycles, reference.cycles, "fork@{fork_at}");
        assert_eq!(report.state_digest, reference.state_digest, "fork@{fork_at}");
    }
    assert!(
        mid_episode_seen > 0,
        "at least one checkpoint must land while episodes are in flight"
    );
}

#[test]
fn checkpoints_from_different_configs_do_not_cross_resume() {
    // Resume validates the trace; the engine validates the model. A snapshot
    // from one model must not restore into another.
    let trace = icfp_workloads::by_name("branchy", 500, SEED).unwrap();
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    sim.load(trace.clone());
    sim.advance_to_inst(100).expect("loaded");
    let mut ck = sim.checkpoint().unwrap();
    // Tamper: claim the checkpoint is for another model while keeping the
    // icfp snapshot bytes. The engine-level model check must reject it.
    ck.config.core = CoreModel::InOrder;
    match Simulator::resume(&ck, trace) {
        Err(icfp_sim::CkptError::Engine(e)) => assert!(e.contains("icfp"), "{e}"),
        other => panic!("expected engine model mismatch, got {other:?}"),
    }
}
