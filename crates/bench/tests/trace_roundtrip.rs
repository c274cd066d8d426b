//! Convert → simulate round-trip: an `icfp-bbp/v1` fixture converts into an
//! `icfp-trace/v1` container, the container streams through the simulator,
//! and the results are bit-identical to simulating the same program
//! materialized in memory — the real-workload frontend end to end.

use icfp_isa::{TraceFile, TraceFileWriter, TraceFormat, TraceSource};
use icfp_sim::{CoreModel, SimConfig, Simulator};
use icfp_workloads::bbp;

/// A miss-heavy pointer walk with a predictable inner branch and a store
/// phase — enough structure to exercise loads, stores, branches and the
/// stride patterns of the converter.
const FIXTURE: &str = "\
name fixture-walk
loop 300
  pc 0x2000
  ld r1, r1, 0x100000+4096*i
  add r2, r1, #1
  xor r3, r2, r3
  br r2, t, 0x2000 0.9
end
loop 64
  st r3, r4, 0x400000+8*i
  ld r5, r4, 0x400000+8*i
end
nop
";

#[test]
fn convert_then_simulate_matches_in_memory_expansion() {
    let program = bbp::parse(FIXTURE).expect("fixture parses");
    let arena = program.to_trace("unused-fallback");
    assert_eq!(arena.name(), "fixture-walk");
    assert_eq!(arena.len() as u64, program.dynamic_len());

    // Convert through the streaming writer (tiny blocks: many boundaries).
    let path = std::env::temp_dir().join(format!(
        "icfp-bbp-roundtrip-{}.trace",
        std::process::id()
    ));
    let mut writer =
        TraceFileWriter::create_as(&path, "fixture-walk", 128, TraceFormat::V2).expect("create");
    struct Sink(TraceFileWriter);
    impl icfp_workloads::TraceSink for Sink {
        fn push(&mut self, inst: icfp_isa::DynInst) {
            self.0.push(inst).expect("write");
        }
        fn set_next_pc(&mut self, pc: u64) {
            self.0.set_next_pc(pc);
        }
        fn emitted(&self) -> usize {
            self.0.len()
        }
    }
    let mut sink = Sink(writer);
    program.emit(&mut sink);
    writer = sink.0;
    let summary = writer.finish().expect("finish");
    assert_eq!(summary.instructions, arena.len() as u64);
    assert_eq!(summary.digest, arena.digest(), "converted content differs");

    let file = TraceFile::open(&path).expect("open");
    file.verify().expect("container verifies");
    assert_eq!(file.digest(), arena.digest());

    for model in CoreModel::ALL {
        let config = SimConfig::new(model);
        let from_arena = Simulator::new(config.clone()).run(&arena);
        let from_file = Simulator::new(config).run_source(&file);
        assert_eq!(from_arena.cycles, from_file.cycles, "{model}");
        assert_eq!(from_arena.state_digest, from_file.state_digest, "{model}");
        assert_eq!(from_arena.instructions, from_file.instructions, "{model}");
    }
    // The MRU cache (4), at most one decode in flight (demand and prefetch
    // decodes serialize under the cache lock), and the one block the driver
    // pins while the cache churns past it.
    let peak = file.residency().expect("file source counts").peak();
    assert!(peak <= 6, "peak resident blocks {peak}");
    let _ = std::fs::remove_file(&path);
}
