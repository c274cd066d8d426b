//! The shared execution engine used by every core model.
//!
//! [`Engine`] bundles the front end, issue scheduling, register file, memory
//! hierarchy, architectural memory image and statistics, and provides the
//! operations every core performs identically (operand readiness / poison
//! collection, issue-slot allocation, branch resolution, demand memory access
//! with MSHR-full retry, and final result assembly).  The cores differ only in
//! *what they do* around cache misses — which is exactly the paper's point.

use crate::config::CoreConfig;
use icfp_isa::{exec, Addr, Cycle, DynInst, FunctionalMemory, OpClass, Reg, Trace, TraceCursor, Value};
use icfp_mem::{AccessOutcome, MemError, MemoryHierarchy, MshrId};
use icfp_pipeline::{
    FetchEngine, IssueSchedule, PoisonMask, RunResult, RunStats, TimedRegFile,
};
use serde::{Deserialize, Serialize};

/// The per-run execution context shared by all core models.
///
/// Every field is part of the checkpointable simulation state: the derived
/// `Serialize`/`Deserialize` impls (vendored serde, declaration-order binary
/// codec) are what `CoreEngine::save`/`restore` are built on.
#[derive(Debug, Serialize, Deserialize)]
pub struct Engine {
    /// Core configuration.
    pub cfg: CoreConfig,
    /// Front end (fetch bandwidth, branch prediction, redirects).
    pub fetch: FetchEngine,
    /// Issue-slot / port schedule.
    pub issue: IssueSchedule,
    /// Main architectural register file (RF0).
    pub rf: TimedRegFile,
    /// The memory hierarchy (timing).
    pub mem: MemoryHierarchy,
    /// The architectural memory image (values of committed stores).
    pub arch_mem: FunctionalMemory,
    /// Run statistics.
    pub stats: RunStats,
    /// In-order issue frontier: the next instruction cannot issue earlier.
    pub frontier: Cycle,
    /// Latest completion observed (determines the run's cycle count).
    pub completion: Cycle,
}

impl Engine {
    /// Creates an engine for one run under the given configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        Engine {
            fetch: FetchEngine::new(&cfg.pipeline, cfg.predictor.clone()),
            issue: IssueSchedule::new(
                cfg.pipeline.width,
                cfg.pipeline.int_ports,
                cfg.pipeline.mem_fp_br_ports,
            ),
            rf: TimedRegFile::new(),
            mem: MemoryHierarchy::new(cfg.mem.clone()),
            arch_mem: FunctionalMemory::new(),
            stats: RunStats::default(),
            frontier: 0,
            completion: 0,
            cfg: cfg.clone(),
        }
    }

    /// Latest readiness cycle over the instruction's source registers.
    pub fn src_ready(&self, inst: &DynInst) -> Cycle {
        inst.sources().map(|r| self.rf.ready_at(r)).max().unwrap_or(0)
    }

    /// Union of the poison masks of the instruction's source registers.
    pub fn src_poison(&self, inst: &DynInst) -> PoisonMask {
        inst.sources()
            .map(|r| self.rf.poison(r))
            .fold(PoisonMask::CLEAN, PoisonMask::union)
    }

    /// Current architectural values of the instruction's two source operands.
    pub fn src_values(&self, inst: &DynInst) -> (Value, Value) {
        (
            inst.src1.map(|r| self.rf.value(r)).unwrap_or(0),
            inst.src2.map(|r| self.rf.value(r)).unwrap_or(0),
        )
    }

    /// Computes a non-memory instruction's result from the current register
    /// values (the memory closure is never invoked for non-loads).
    pub fn compute(&self, inst: &DynInst) -> Option<Value> {
        let (s1, s2) = self.src_values(inst);
        exec::compute(inst, s1, s2, |a| self.arch_mem.read(a))
    }

    /// Installs a functionally fast-forwarded architectural state into this
    /// (fresh) engine: every register holds its warmed value, ready at cycle
    /// 0 as if produced before the timed region began, and architectural
    /// memory is the warmed image.  Timing state — caches, predictors,
    /// statistics, the issue schedule — stays cold; that is the point of
    /// functional fast-forward, and why seeded runs match cold runs on final
    /// architectural state but intentionally not on cycle counts.
    pub fn seed_arch(&mut self, warm: &exec::ArchState) {
        for r in Reg::all() {
            self.rf.write(r, warm.reg(r), 0, 0);
        }
        self.arch_mem = warm.mem.clone();
    }

    /// Allocates an issue slot at or after `earliest`, maintaining in-order
    /// issue, and returns the issue cycle.
    pub fn issue_at(&mut self, class: OpClass, earliest: Cycle) -> Cycle {
        let cycle = self.issue.issue(earliest.max(self.frontier), class);
        self.frontier = cycle;
        self.note_completion(cycle);
        cycle
    }

    /// Records a completion cycle (the run finishes when the last one passes).
    pub fn note_completion(&mut self, cycle: Cycle) {
        self.completion = self.completion.max(cycle);
    }

    /// Resolves a branch at `resolve_cycle`; applies the redirect penalty and
    /// counts the mis-prediction if the predictor was wrong.  Returns whether
    /// it mis-predicted.
    pub fn exec_branch(&mut self, inst: &DynInst, resolve_cycle: Cycle) -> bool {
        let mispredicted = self.fetch.resolve_branch(inst);
        if mispredicted {
            self.stats.branch_mispredicts += 1;
            self.fetch.redirect(resolve_cycle);
        }
        mispredicted
    }

    /// Issues a demand load to the hierarchy at `at`, retrying if the MSHRs
    /// are full, and returns `(completes_at, outcome, mshr)`.
    pub fn demand_load(&mut self, addr: Addr, at: Cycle) -> (Cycle, AccessOutcome, Option<MshrId>) {
        let mut t = at;
        loop {
            match self.mem.load(addr, t) {
                Ok(r) => return (r.completes_at, r.outcome, r.mshr),
                Err(MemError::MshrFull { retry_at }) => {
                    let retry = retry_at.max(t + 1);
                    self.stats.resource_stall_cycles += retry - t;
                    t = retry;
                }
            }
        }
    }

    /// Issues a demand store (a store-buffer drain) to the hierarchy at `at`,
    /// retrying if the MSHRs are full, and returns its completion cycle.
    pub fn demand_store(&mut self, addr: Addr, at: Cycle) -> Cycle {
        let mut t = at;
        loop {
            match self.mem.store(addr, t) {
                Ok(r) => return r.completes_at,
                Err(MemError::MshrFull { retry_at }) => {
                    let retry = retry_at.max(t + 1);
                    t = retry;
                }
            }
        }
    }

    /// Finalises the run: fills in the cycle/instruction counts and snapshots
    /// the architectural state.
    pub fn finish(mut self, core: &'static str, trace: &TraceCursor<'_>) -> RunResult {
        self.stats.cycles = self.completion.max(self.frontier);
        self.stats.instructions = trace.len() as u64;
        let m = self.mem.stats();
        self.stats.mem_loads = m.loads;
        self.stats.mem_stores = m.stores;
        self.stats.l1d_misses = m.l1d_misses;
        self.stats.l2_misses = m.l2_misses;
        let mut final_mem: Vec<(u64, Value)> = self.arch_mem.iter().map(|(a, v)| (*a, *v)).collect();
        final_mem.sort_unstable();
        RunResult {
            core: core.to_string(),
            workload: trace.name().to_string(),
            stats: self.stats,
            final_regs: self.rf.values_snapshot(),
            final_mem,
        }
    }
}

/// Seeds `eng` from a functional fast-forward state, if one was supplied,
/// and returns the trace index the timed run starts at (0 when cold).  The
/// shared prologue of every whole-trace model.
pub fn seed_start(eng: &mut Engine, warm: Option<&exec::ArchState>, len: usize) -> usize {
    warm.map_or(0, |w| {
        eng.seed_arch(w);
        (w.instructions as usize).min(len)
    })
}

/// Runs the architectural golden model over a trace, returning the final
/// register values and memory image in the same format as [`RunResult`].
/// Integration tests compare every timing model against this.
pub fn golden_final_state(trace: &Trace) -> (Vec<Value>, Vec<(u64, Value)>) {
    golden_final_state_cursor(&TraceCursor::from_trace(trace))
}

/// [`golden_final_state`] over any cursor (streamed sources included —
/// memory stays bounded by the source's resident blocks).
pub fn golden_final_state_cursor(trace: &TraceCursor<'_>) -> (Vec<Value>, Vec<(u64, Value)>) {
    let mut st = icfp_isa::ArchState::new();
    for k in 0..trace.len() {
        st.exec(&trace.get(k));
    }
    let mut mem: Vec<(u64, Value)> = st.mem.iter().map(|(a, v)| (*a, *v)).collect();
    mem.sort_unstable();
    (st.reg_snapshot(), mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::{DynInst, Op, Reg, TraceBuilder};

    fn cfg() -> CoreConfig {
        CoreConfig::paper_default()
    }

    #[test]
    fn src_ready_and_poison_aggregate_over_sources() {
        let mut e = Engine::new(&cfg());
        e.rf.write(Reg::int(1), 5, 100, 0);
        e.rf.poison_write(Reg::int(2), PoisonMask::bit(1), 1);
        let i = DynInst::alu(Op::Add, Reg::int(3), Reg::int(1), Reg::int(2));
        assert_eq!(e.src_ready(&i), 100);
        assert!(e.src_poison(&i).intersects(PoisonMask::bit(1)));
    }

    #[test]
    fn issue_at_is_monotonic() {
        let mut e = Engine::new(&cfg());
        let a = e.issue_at(OpClass::IntAlu, 10);
        let b = e.issue_at(OpClass::IntAlu, 0);
        assert!(b >= a, "in-order issue must not go backwards");
    }

    #[test]
    fn demand_load_retries_until_mshr_available() {
        let mut small = CoreConfig::tiny_for_tests();
        small.mem.max_outstanding_misses = 1;
        let mut e = Engine::new(&small);
        let (c1, _, _) = e.demand_load(0x10000, 0);
        // Second load to a different line must wait for the first MSHR.
        let (c2, _, _) = e.demand_load(0x20000, 0);
        assert!(c2 > c1);
        assert!(e.stats.resource_stall_cycles > 0);
    }

    #[test]
    fn branch_resolution_counts_mispredicts() {
        let mut e = Engine::new(&cfg());
        // Alternate an unpredictable pattern on a cold predictor; at least the
        // first resolution of a taken branch must redirect (BTB cold).
        let br = DynInst::branch(Reg::int(1), true, 0x9000, 0.5).with_pc(0x500);
        let mis = e.exec_branch(&br, 10);
        assert!(mis);
        assert_eq!(e.stats.branch_mispredicts, 1);
    }

    #[test]
    fn finish_snapshots_state_and_counts() {
        let mut b = TraceBuilder::new("t");
        b.push(DynInst::nop());
        b.push(DynInst::nop());
        let t = b.build();
        let mut e = Engine::new(&cfg());
        e.rf.write(Reg::int(1), 42, 0, 0);
        e.arch_mem.write(0x40, 7);
        e.note_completion(123);
        let r = e.finish("in-order", &TraceCursor::from_trace(&t));
        assert_eq!(r.stats.cycles, 123);
        assert_eq!(r.stats.instructions, 2);
        assert_eq!(r.final_regs[Reg::int(1).index()], 42);
        assert_eq!(r.final_mem, vec![(0x40, 7)]);
    }

    #[test]
    fn golden_final_state_matches_arch_state() {
        let mut b = TraceBuilder::new("t");
        b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(1), 1));
        b.push(DynInst::store(Reg::int(1), Reg::int(2), 0x80));
        let t = b.build();
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(regs.len(), icfp_isa::NUM_ARCH_REGS);
        assert_eq!(mem.len(), 1);
    }
}
