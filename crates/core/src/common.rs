//! The shared execution engine used by every core model.
//!
//! [`Engine`] bundles the front end, issue scheduling, register file, memory
//! hierarchy, architectural memory image and statistics, and provides the
//! operations every core performs identically (operand readiness / poison
//! collection, issue-slot allocation, branch resolution, demand memory access
//! with MSHR-full retry, waits that move the issue frontier, and final result
//! assembly).  The cores differ only in *what they do* around cache misses —
//! which is exactly the paper's point.

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

/// Whether a visit's issue waits for its source operands' scoreboard entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandWait {
    /// Always (in-order; Runahead and Multipass, whose poisoned registers
    /// read ready at cycle 0).
    Always,
    /// Unless a source is poisoned: a miss-dependent instruction flows to
    /// the slice buffer at fetch rate (SLTP, iCFP).
    UnlessPoisoned,
    /// Never: the result is already known (a Multipass saved result).
    Never,
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

    /// Latest readiness cycle over, and union of the poison masks of, the
    /// instruction's source registers: two direct scoreboard and poison-plane
    /// reads, no iterator.
    #[inline]
    pub fn src_operands(&self, inst: &DynInst) -> (Cycle, PoisonMask) {
        let (mut ready, mut poison) = (0, PoisonMask::CLEAN);
        if let Some(r) = inst.src1 {
            ready = self.rf.ready_at(r);
            poison = self.rf.poison(r);
        }
        if let Some(r) = inst.src2 {
            ready = ready.max(self.rf.ready_at(r));
            poison = poison.union(self.rf.poison(r));
        }
        (ready, poison)
    }

    /// Union of the poison masks of the instruction's source registers.
    #[inline]
    pub fn src_poison(&self, inst: &DynInst) -> PoisonMask {
        self.src_operands(inst).1
    }

    /// One first-pass instruction visit, the kernel every model's walk runs
    /// per dynamic instruction: reads the source operands, takes the next
    /// fetch slot and an issue slot, and returns `(issue cycle, source
    /// poison)`.  `hold` is a structural hazard (a full store buffer) that
    /// delays issue; the delay is counted as resource-stall cycles.
    #[inline(always)]
    pub fn visit(&mut self, inst: &DynInst, wait: OperandWait, hold: Cycle) -> (Cycle, PoisonMask) {
        let (src_ready, poison) = self.src_operands(inst);
        let mut earliest = self.fetch.next_issue_ready();
        let waits = match wait {
            OperandWait::Always => true,
            OperandWait::UnlessPoisoned => poison.is_clean(),
            OperandWait::Never => false,
        };
        if waits {
            earliest = earliest.max(src_ready);
        }
        if hold > earliest {
            self.stats.resource_stall_cycles += hold - earliest;
            earliest = hold;
        }
        (self.issue_at(inst.class(), earliest), poison)
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
    #[inline]
    pub fn issue_at(&mut self, class: OpClass, earliest: Cycle) -> Cycle {
        let cycle = self.issue.issue(earliest.max(self.frontier), class);
        self.frontier = cycle;
        self.note_completion(cycle);
        cycle
    }

    /// Moves the issue frontier forward to `to` (never back): the one place
    /// a model moves its frontier outside issuing.  A `structural` wait (a
    /// full slice buffer, store buffer or SRL, an un-chainable store) counts
    /// the cycles it skips as resource-stall cycles.
    #[inline]
    pub fn wait_until(&mut self, to: Cycle, structural: bool) {
        if structural {
            self.stats.resource_stall_cycles += to.saturating_sub(self.frontier);
        }
        self.frontier = self.frontier.max(to);
    }

    /// Records a completion cycle (the run finishes when the last one passes).
    #[inline]
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
        assert_eq!(e.src_operands(&i).0, 100);
        assert!(e.src_poison(&i).intersects(PoisonMask::bit(1)));
    }

    /// The operand walk and issue sequence every model's first pass spelled
    /// out before [`Engine::visit`], kept as its reference: iterator-chain
    /// poison union and readiness max, one stall step per drained store.
    fn visit_reference(e: &mut Engine, inst: &DynInst, wait: OperandWait, drained: &[Cycle]) -> (Cycle, PoisonMask) {
        let fetch_ready = e.fetch.next_issue_ready();
        let poison = inst.sources().map(|r| e.rf.poison(r)).fold(PoisonMask::CLEAN, PoisonMask::union);
        let src_ready = inst.sources().map(|r| e.rf.ready_at(r)).max().unwrap_or(0);
        let waits = match wait {
            OperandWait::Always => true,
            OperandWait::UnlessPoisoned => poison.is_clean(),
            OperandWait::Never => false,
        };
        let mut earliest = if waits { fetch_ready.max(src_ready) } else { fetch_ready };
        for &done in drained {
            if done > earliest {
                e.stats.resource_stall_cycles += done - earliest;
                earliest = done;
            }
        }
        (e.issue_at(inst.class(), earliest), poison)
    }

    #[test]
    fn visit_equals_the_sequence_it_replaced_on_random_instructions() {
        for seed in [1u64, 2, 3] {
            let mut state = seed;
            let (mut a, mut b) = (Engine::new(&cfg()), Engine::new(&cfg()));
            for k in 0..2_500u64 {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let r = z ^ (z >> 31);
                // Six registers, so producers and consumers keep meeting.
                let reg = |shift: u32| Reg::int((r >> shift) as usize % 6);
                let inst = match r % 5 {
                    0 => DynInst::nop(),
                    1 => DynInst::alu_imm(Op::Mul, reg(8), reg(16), 1),
                    2 => DynInst::alu(Op::Add, reg(8), reg(16), reg(24)),
                    3 => DynInst::load(reg(8), reg(16), 0x1000),
                    _ => DynInst::store(reg(16), reg(24), 0x1000),
                };
                let wait = [OperandWait::Always, OperandWait::UnlessPoisoned, OperandWait::Never][(r >> 32) as usize % 3];
                let drained: Vec<Cycle> = (0..(r >> 36) % 3).map(|j| a.frontier + (r >> (40 + 4 * j)) % 12).collect();
                let got = a.visit(&inst, wait, drained.iter().copied().max().unwrap_or(0));
                assert_eq!(got, visit_reference(&mut b, &inst, wait, &drained), "seed {seed} inst {k}");
                assert_eq!(
                    (a.frontier, a.completion, a.stats.resource_stall_cycles),
                    (b.frontier, b.completion, b.stats.resource_stall_cycles),
                    "seed {seed} inst {k}"
                );
                if let Some(dst) = inst.dst {
                    for e in [&mut a, &mut b] {
                        if (r >> 52) % 3 == 0 {
                            e.rf.poison_write(dst, PoisonMask::bit((r >> 56) as u8 % 8), k);
                        } else {
                            e.rf.write(dst, k, got.0 + (r >> 56) % 40, k);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn issue_at_is_monotonic() {
        let mut e = Engine::new(&cfg());
        let a = e.issue_at(OpClass::IntAlu, 10);
        let b = e.issue_at(OpClass::IntAlu, 0);
        assert!(b >= a, "in-order issue must not go backwards");
    }

    #[test]
    fn wait_until_moves_forward_and_counts_only_structural_waits() {
        let mut e = Engine::new(&cfg());
        e.wait_until(40, false);
        e.wait_until(10, true);
        assert_eq!((e.frontier, e.stats.resource_stall_cycles), (40, 0));
        e.wait_until(55, true);
        assert_eq!((e.frontier, e.stats.resource_stall_cycles), (55, 15));
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
