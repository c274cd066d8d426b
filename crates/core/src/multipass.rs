//! "Flea-flicker" Multipass pipelining (Barnes, Ryoo & Hwu), modelled as the
//! paper describes it: Runahead-style advance execution plus a bounded result
//! buffer that saves the results of miss-independent advance instructions and
//! uses them to break dependences during the re-execution pass, accelerating
//! the rally.  Unlike iCFP/SLTP, Multipass still *re-processes* every
//! post-miss instruction; the saved results only make that re-processing
//! cheaper.  Per Section 5.1, Multipass advances under L2 misses and primary
//! data-cache misses but blocks on secondary data-cache misses
//! ([`crate::AdvancePolicy::L2AndPrimaryDcache`]).  The machine is
//! [`crate::runahead`]'s, built for [`crate::CoreModel::Multipass`].

#[cfg(test)]
mod tests {
    use crate::common::golden_final_state;
    use crate::config::CoreConfig;
    use crate::engine::{run_model, CoreModel};
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};

    /// Independent L2 misses each followed by a short dependence chain of ALU
    /// work — the scenario where saved results pay off during re-execution.
    fn chained_work_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new("mp-work");
        for k in 0..n {
            let base = 0x200000 + (k as u64) * 0x8000;
            b.push(DynInst::load(Reg::int(1), Reg::int(2), base));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            // A serial chain of independent work (each instruction depends on
            // the previous one, but not on the load).
            b.push(DynInst::alu_imm(Op::Add, Reg::int(8), Reg::int(9), 1));
            for _ in 0..10 {
                b.push(DynInst::alu(Op::Mul, Reg::int(8), Reg::int(8), Reg::int(9)));
            }
        }
        b.build()
    }

    #[test]
    fn multipass_matches_golden_state() {
        let t = chained_work_trace(6);
        let r = run_model(CoreModel::Multipass, &CoreConfig::multipass_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn multipass_beats_in_order_on_independent_misses() {
        let t = chained_work_trace(8);
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let mp = run_model(CoreModel::Multipass, &CoreConfig::multipass_default(), &t);
        assert!(
            mp.stats.cycles < base.stats.cycles,
            "multipass {} vs in-order {}",
            mp.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn multipass_rally_is_at_least_as_fast_as_runahead() {
        // With the same advance policy, saved results can only help.
        let t = chained_work_trace(8);
        let cfg = CoreConfig::multipass_default();
        let ra = run_model(CoreModel::Runahead, &cfg, &t);
        let mp = run_model(CoreModel::Multipass, &cfg, &t);
        assert!(
            mp.stats.cycles <= ra.stats.cycles + 4,
            "multipass {} should not be slower than runahead {}",
            mp.stats.cycles,
            ra.stats.cycles
        );
    }

    #[test]
    fn multipass_with_stores_stays_correct() {
        let mut b = TraceBuilder::new("mp-stores");
        for k in 0..5u64 {
            let base = 0x300000 + k * 0x8000;
            b.push(DynInst::load(Reg::int(1), Reg::int(2), base));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), k));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), 5));
            b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x1000 + k * 8));
            b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x1000 + k * 8));
            b.push(DynInst::alu(Op::Xor, Reg::int(7), Reg::int(6), Reg::int(7)));
        }
        let t = b.build();
        let r = run_model(CoreModel::Multipass, &CoreConfig::multipass_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }
}
