//! Acceptance tests for the `icfp-trace/v2` container: the same workload
//! written as v1 and as v2 must produce byte-identical simulation results
//! under every core model, v2 files must be at most half the v1 size on the
//! standard workloads, checkpoints must resume across versions (block
//! digests are over decoded instructions, not the encoding), and the bytes
//! and digests of both versions are pinned.

use icfp_isa::{
    fnv1a, DynInst, MemWidth, Op, Reg, Trace, TraceFile, TraceFileWriter, TraceFormat,
    TraceSource,
};
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

/// One instruction of every opcode, memory width and field extreme the v2
/// codec distinguishes (the codec's own round-trip shapes), then a
/// 2,500-instruction prefix of each registry workload: 10,038 instructions.
fn pinned_trace() -> Trace {
    use Op::*;
    let ops = [
        Add, Sub, And, Or, Xor, Shl, Shr, CmpLt, Mul, FpAdd, FpMul, Load, Store, Branch, Jump, Nop,
    ];
    let mut v = Vec::new();
    for (k, op) in ops.into_iter().enumerate() {
        let inst = match op {
            Load => DynInst::load(Reg::int(k % 32), Reg::int(2), 0x4000 + k as u64 * 8),
            Store => DynInst::store(Reg::int(1), Reg::int(2), 0x9000 - k as u64 * 16),
            Branch => DynInst::branch(Reg::int(3), k % 2 == 0, 0x100, 0.75),
            Jump => DynInst::branch(Reg::int(3), true, 0x40, 1.0).with_pc(0x8000),
            Nop => DynInst::nop(),
            _ => DynInst::alu(op, Reg::fp(k % 32), Reg::int(5), Reg::int(6)),
        };
        v.push(inst.with_pc(0x1000 + k as u64 * 4));
    }
    let widths = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
    for (k, w) in widths.into_iter().enumerate() {
        let mut i = DynInst::load(Reg::int(7), Reg::int(8), u64::MAX - 64 + k as u64);
        i.width = w;
        v.push(i.with_pc(0x2000));
    }
    for imm in [u64::MAX - 5, 1 << 62, 1 << 63] {
        v.push(DynInst::alu_imm(Xor, Reg::int(9), Reg::int(9), imm).with_pc(0x3000));
    }
    v.push(DynInst::branch(Reg::int(1), true, 0x10, 0.0).with_pc(0xFFFF_0000));
    for spec in &icfp_workloads::STANDARD {
        v.extend_from_slice(spec.trace(2_500, 0x9177).as_slice());
    }
    Trace::new("pinned", v)
}

/// What each container version of [`pinned_trace`] in 2,048-instruction
/// blocks hashes to, recorded once: FNV-1a of the file's bytes, the
/// whole-trace digest and every block digest.  A change that moves any of
/// them is an on-disk format change.
const PINNED_FILE_FNV: [(TraceFormat, u64); 2] =
    [(TraceFormat::V1, 0xbdfe2a2f533805fc), (TraceFormat::V2, 0xb902d99403de7691)];
const PINNED_WHOLE: u64 = 0x4c1fb5a9bb75c4bf;
const PINNED_BLOCKS: [u64; 5] = [
    0x988d3fcb94ac9d6e,
    0x076a5c410260074e,
    0xc50b777f90712996,
    0x0b0d14d78cad9587,
    0xbb85888a0928290e,
];

#[test]
fn container_bytes_and_digests_are_pinned() {
    let trace = pinned_trace();
    assert_eq!(trace.len(), 10_038);
    for (format, file_fnv) in PINNED_FILE_FNV {
        let path = tmp(&format!("pinned-{format}"));
        let summary =
            TraceFileWriter::write_trace_as(&path, &trace, 2048, format).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        let f = TraceFile::open(&path).expect("open");
        let blocks: Vec<u64> =
            (0..f.block_count()).map(|k| f.block_digest(k).expect("in range")).collect();
        assert_eq!(fnv1a(&bytes), file_fnv, "{format} file bytes");
        assert_eq!(summary.digest, PINNED_WHOLE, "{format} whole digest");
        assert_eq!(f.digest(), PINNED_WHOLE, "{format} index digest");
        assert_eq!(blocks, PINNED_BLOCKS, "{format} block digests");
        f.verify().expect("every block decodes to its pinned digest");
        let _ = std::fs::remove_file(&path);
    }
}
