//! The baseline 2-way in-order pipeline.
//!
//! This is the reference point every figure in the paper normalises to.  It
//! stalls at the first instruction that needs the result of a pending cache
//! miss (not at the miss itself), exactly as the paper describes, because
//! issue is in order: a stalled instruction blocks everything younger.
//!
//! The core is the latency-tolerant machine's normal mode with advance
//! compiled out: [`crate::runahead`]'s machine, built for
//! [`crate::CoreModel::InOrder`].

#[cfg(test)]
mod tests {
    use crate::common::golden_final_state;
    use crate::config::CoreConfig;
    use crate::engine::{run_model, CoreModel};
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};
    use icfp_pipeline::RunResult;

    fn run(trace: &Trace) -> RunResult {
        run_model(CoreModel::InOrder, &CoreConfig::paper_default(), trace)
    }

    #[test]
    fn empty_trace_runs() {
        let t = TraceBuilder::new("empty").build();
        let r = run(&t);
        assert_eq!(r.stats.instructions, 0);
    }

    #[test]
    fn alu_chain_matches_golden_model() {
        let mut b = TraceBuilder::new("alu");
        for i in 0..50u64 {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(1), i));
            b.push(DynInst::alu(Op::Xor, Reg::int(2), Reg::int(1), Reg::int(2)));
        }
        let t = b.build();
        let r = run(&t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn store_load_forwarding_preserves_values() {
        let mut b = TraceBuilder::new("st-ld");
        b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(1), 7));
        b.push(DynInst::store(Reg::int(1), Reg::int(2), 0x4000));
        b.push(DynInst::load(Reg::int(3), Reg::int(2), 0x4000));
        b.push(DynInst::alu(Op::Add, Reg::int(4), Reg::int(3), Reg::int(3)));
        let t = b.build();
        let r = run(&t);
        let (regs, _) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert!(r.stats.store_forwards >= 1);
    }

    #[test]
    fn cache_miss_stalls_first_dependent_instruction() {
        // ld (L2 miss) ; dependent add ; independent add
        let mut b = TraceBuilder::new("stall");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x80000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), 1));
        let t = b.build();
        let r = run(&t);
        // The dependent add waits for ~420+ cycles of memory latency, and the
        // independent add is stuck behind it (in-order).
        assert!(r.stats.cycles > 400, "cycles = {}", r.stats.cycles);
    }

    #[test]
    fn independent_misses_serialize_in_order_pipeline() {
        // Two independent L2 misses, each followed by a dependent use: the
        // baseline cannot overlap them.
        let mut b = TraceBuilder::new("serial");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        b.push(DynInst::load(Reg::int(4), Reg::int(5), 0x200000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(6), Reg::int(4), 1));
        let t = b.build();
        let r = run(&t);
        assert!(
            r.stats.cycles > 800,
            "two serialized memory accesses should cost two memory latencies, got {}",
            r.stats.cycles
        );
    }

    #[test]
    fn branch_heavy_code_pays_mispredict_penalties() {
        let mut b = TraceBuilder::new("branches");
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            b.push(DynInst::branch(Reg::int(1), x & 1 == 0, 0x4000, 0.5).with_pc(0x2000));
        }
        let t = b.build();
        let r = run(&t);
        assert!(r.stats.branch_mispredicts > 50);
        assert!(r.stats.cycles > 500);
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let mut b = TraceBuilder::new("ilp");
        for i in 0..1000usize {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(i % 16), Reg::int((i + 1) % 16), 3));
        }
        let t = b.build();
        let r = run(&t);
        let ipc = r.stats.ipc();
        assert!(ipc <= 2.01, "2-way core cannot exceed IPC 2, got {ipc}");
        assert!(ipc > 1.0, "independent ALU code should exceed IPC 1, got {ipc}");
    }
}
