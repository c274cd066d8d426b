//! Acceptance tests for the `icfp-trace/v2` container: the same workload
//! written as v1 and as v2 must produce byte-identical simulation results
//! under every core model, v2 files must be at most half the v1 size on the
//! standard workloads, and checkpoints must resume across versions (block
//! digests are over decoded instructions, not the encoding).

use icfp_isa::{TraceFile, TraceFileWriter, TraceFormat, TraceSource};
use icfp_sim::{CoreModel, SimConfig, Simulator};
use std::path::PathBuf;
use std::sync::Arc;

const INSTS: usize = 1200;
const SEED: u64 = 0x7E57;
const BLOCK: usize = 128;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icfp-v2-equiv-{}-{name}", std::process::id()))
}

#[test]
fn v1_and_v2_containers_simulate_byte_identically_for_all_models() {
    for spec in &icfp_workloads::STANDARD {
        let trace = spec.trace(INSTS, SEED);
        let p1 = tmp(&format!("{}-v1", spec.name));
        let p2 = tmp(&format!("{}-v2", spec.name));
        let s1 = TraceFileWriter::write_trace_as(&p1, &trace, BLOCK, TraceFormat::V1)
            .expect("write v1");
        let s2 = TraceFileWriter::write_trace_as(&p2, &trace, BLOCK, TraceFormat::V2)
            .expect("write v2");
        assert_eq!(s1.digest, s2.digest, "{}: content identity differs", spec.name);

        let f1: Arc<dyn TraceSource> = TraceFile::open(&p1).expect("open v1").into();
        let f2: Arc<dyn TraceSource> = TraceFile::open(&p2).expect("open v2").into();
        for model in CoreModel::ALL {
            let a = Simulator::new(SimConfig::new(model)).run_source(f1.as_ref());
            let b = Simulator::new(SimConfig::new(model)).run_source(f2.as_ref());
            assert_eq!(a.cycles, b.cycles, "{model} {}: cycles", spec.name);
            assert_eq!(
                a.state_digest, b.state_digest,
                "{model} {}: state digest",
                spec.name
            );
            assert_eq!(a.result.stats, b.result.stats, "{model} {}", spec.name);
            assert_eq!(a.result.final_regs, b.result.final_regs);
            assert_eq!(a.result.final_mem, b.result.final_mem);
        }
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}

#[test]
fn v2_is_at_most_half_the_v1_size_on_every_standard_workload() {
    for spec in &icfp_workloads::STANDARD {
        let trace = spec.trace(4000, SEED);
        let p1 = tmp(&format!("{}-size-v1", spec.name));
        let p2 = tmp(&format!("{}-size-v2", spec.name));
        let s1 =
            TraceFileWriter::write_trace_as(&p1, &trace, BLOCK, TraceFormat::V1).expect("v1");
        let s2 =
            TraceFileWriter::write_trace_as(&p2, &trace, BLOCK, TraceFormat::V2).expect("v2");
        assert!(
            s2.bytes * 2 <= s1.bytes,
            "{}: v2 {} bytes vs v1 {} bytes — not ≤ 50%",
            spec.name,
            s2.bytes,
            s1.bytes
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}

#[test]
fn checkpoint_taken_on_v1_resumes_against_v2() {
    let spec = &icfp_workloads::STANDARD[0];
    let trace = spec.trace(INSTS, SEED);
    let reference = Simulator::new(SimConfig::new(CoreModel::Icfp)).run(&trace);
    let p1 = tmp("ckpt-v1");
    let p2 = tmp("ckpt-v2");
    TraceFileWriter::write_trace_as(&p1, &trace, BLOCK, TraceFormat::V1).expect("v1");
    TraceFileWriter::write_trace_as(&p2, &trace, BLOCK, TraceFormat::V2).expect("v2");

    let v1: Arc<dyn TraceSource> = TraceFile::open(&p1).expect("open v1").into();
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    sim.load(v1);
    sim.advance_to_inst(BLOCK + BLOCK / 2).expect("loaded");
    let ckpt = sim.checkpoint().expect("mid-block checkpoint");

    let v2: Arc<dyn TraceSource> = TraceFile::open(&p2).expect("open v2").into();
    let mut resumed = Simulator::resume(&ckpt, v2).expect("identity is content, not encoding");
    let report = resumed.finish_loaded().expect("resumed run is loaded");
    assert_eq!(report.cycles, reference.cycles);
    assert_eq!(report.state_digest, reference.state_digest);
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}
