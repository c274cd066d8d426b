//! Functional fast-forward equivalence: a run whose first N instructions are
//! executed architecturally (no timing model) must agree with the cold full
//! run on every final architectural figure — registers, memory, state
//! digest, instruction count — for every core model, whether the warmed
//! state is used directly, threaded through a checkpoint, or resumed on
//! another simulator.  Cycle counts legitimately differ: they cover only the
//! timed region, which is the fast-forward methodology.

use icfp_isa::{TraceCursor, TraceFile, TraceFileWriter, TraceFormat, TraceSource};
use icfp_sim::{functional_warmup, CkptError, CoreModel, SimCheckpoint, SimConfig, Simulator};

const INSTS: usize = 3_000;
const SEED: u64 = 0xFF_C0DE;

fn trace_for(workload: &str) -> icfp_isa::Trace {
    icfp_workloads::by_name(workload, INSTS, SEED).expect("standard workload")
}

#[test]
fn functional_warmup_clamps_and_counts() {
    let t = trace_for("pointer-chase");
    let cur = TraceCursor::from_trace(&t);
    assert_eq!(functional_warmup(&cur, 0).instructions, 0);
    assert_eq!(functional_warmup(&cur, 7).instructions, 7);
    assert_eq!(functional_warmup(&cur, t.len()).instructions, t.len() as u64);
    // Requests past the end clamp instead of spinning or panicking.
    assert_eq!(
        functional_warmup(&cur, t.len() * 3).instructions,
        t.len() as u64
    );
    // Pure function of (trace, n).
    assert_eq!(functional_warmup(&cur, 100), functional_warmup(&cur, 100));
}

#[test]
fn fast_forwarded_runs_match_cold_runs_on_final_architectural_state() {
    for wl in ["pointer-chase", "streaming"] {
        let t = trace_for(wl);
        // The same matrix once more through the two streamed backings, whose
        // warm-state stores are shared by all five models and all four
        // depths (exact matches, resumes and restarts in one loop).
        let path = std::env::temp_dir().join(format!("icfp-ff-{}-{wl}.trace", std::process::id()));
        TraceFileWriter::write_trace_as(&path, &t, 128, TraceFormat::V2).expect("write");
        let file = TraceFile::open(&path).expect("open");
        let generator = icfp_workloads::source_by_name(wl, INSTS, SEED, 128).expect("standard");
        let streamed: [&dyn TraceSource; 2] = [&file, &generator];
        for model in CoreModel::ALL {
            let config = SimConfig::new(model);
            let cold = Simulator::new(config.clone()).run(&t);
            for ff in [1, t.len() / 3, t.len() / 2 + 17, t.len()] {
                let warm = Simulator::new(config.clone()).run_ff(&t, ff);
                for source in streamed {
                    let s = Simulator::new(config.clone()).run_source_ff(source, ff);
                    assert_eq!(s.result, warm.result, "{model:?}/{wl} ff={ff}: backings diverged");
                }
                assert_eq!(
                    warm.state_digest, cold.state_digest,
                    "{model:?}/{wl} ff={ff}: architectural execution is \
                     timing-independent, digests must agree"
                );
                assert_eq!(warm.instructions, cold.instructions);
                assert_eq!(
                    warm.result.final_regs, cold.result.final_regs,
                    "{model:?}/{wl} ff={ff}"
                );
                assert_eq!(warm.result.final_mem, cold.result.final_mem);
                assert!(
                    warm.cycles <= cold.cycles,
                    "{model:?}/{wl} ff={ff}: the timed region shrank, cycles \
                     cannot grow ({} vs {})",
                    warm.cycles,
                    cold.cycles
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn fast_forward_zero_is_exactly_the_cold_run() {
    let t = trace_for("branchy");
    for model in CoreModel::ALL {
        let config = SimConfig::new(model);
        let cold = Simulator::new(config.clone()).run(&t);
        let ff0 = Simulator::new(config).run_ff(&t, 0);
        assert_eq!(ff0.cycles, cold.cycles, "{model:?}: ff=0 must not seed");
        assert_eq!(ff0.state_digest, cold.state_digest);
        assert_eq!(ff0.instructions, cold.instructions);
    }
}

#[test]
fn checkpoints_minted_after_fast_forward_resume_into_the_cold_digest() {
    let t = trace_for("pointer-chase");
    let ff = t.len() / 2;
    for model in CoreModel::ALL {
        let config = SimConfig::new(model);
        let cold = Simulator::new(config.clone()).run(&t);

        let mut sim = Simulator::new(config);
        sim.load(t.clone());
        let skipped = sim.fast_forward(ff).expect("fresh loaded engine seeds");
        assert_eq!(skipped, ff as u64);
        // Mint the checkpoint at the fast-forward point itself and push it
        // through the full icfp-ckpt/v5 byte encoding.
        let ckpt = sim.checkpoint().expect("undrained engine checkpoints");
        let ckpt = SimCheckpoint::from_bytes(&ckpt.to_bytes()).expect("container round-trip");

        let mut resumed = Simulator::resume(&ckpt, t.clone()).expect("resume own trace");
        let resumed_report = resumed.finish_loaded().expect("resumed run is loaded");
        let direct_report = sim.finish_loaded().expect("loaded");

        for (label, report) in [("resumed", &resumed_report), ("direct", &direct_report)] {
            assert_eq!(
                report.state_digest, cold.state_digest,
                "{model:?} {label}: digest must equal the cold full run"
            );
            assert_eq!(report.instructions, cold.instructions, "{model:?} {label}");
        }
        // The fork members replay exactly the leader's timed region.
        assert_eq!(resumed_report.cycles, direct_report.cycles, "{model:?}");
    }
}

#[test]
fn fast_forward_requires_a_fresh_loaded_engine() {
    let t = trace_for("streaming");
    // No trace loaded: typed status, not a panic.
    let mut idle = Simulator::new(SimConfig::new(CoreModel::Icfp));
    assert!(matches!(idle.fast_forward(10), Err(CkptError::NotLoaded)));
    // An engine that has already done timed work refuses a seed.
    for model in CoreModel::ALL {
        let mut sim = Simulator::new(SimConfig::new(model));
        sim.load(t.clone());
        sim.advance_to_inst(t.len() / 4).expect("loaded");
        assert!(
            matches!(sim.fast_forward(10), Err(CkptError::Engine(_))),
            "{model:?}: seeding mid-run must be rejected"
        );
        // The refused seed left the run intact.
        let report = sim.finish_loaded().expect("loaded");
        let cold = Simulator::new(SimConfig::new(model)).run(&t);
        assert_eq!(report.cycles, cold.cycles, "{model:?}");
        assert_eq!(report.state_digest, cold.state_digest);
    }
}
