//! Runahead execution (Dundas & Mudge; Mutlu et al.), adapted to the paper's
//! in-order setting, plus the shared machinery reused by Multipass.
//!
//! On a qualifying miss the core checkpoints the register file and keeps
//! executing ("advance").  Miss-dependent instructions are poisoned and
//! skipped; miss-independent instructions execute — including loads, which is
//! where the benefit comes from: they prefetch future misses and warm the
//! caches.  Advance stores write only a small best-effort runahead cache.
//! When the triggering miss returns, *everything* executed during advance is
//! discarded: the register file is restored from the checkpoint and execution
//! restarts at the checkpointed instruction.  That wholesale re-execution is
//! the overhead iCFP and SLTP avoid.
//!
//! The simulator pays it too — the next walk covers almost the same
//! instructions — so the advance loop replays instead of re-walking where it
//! provably can ([`crate::replay`]): a walk that reaches a grid position in
//! exactly the walk state an earlier walk recorded there takes that walk's
//! inert visits (poisoned, or clean arithmetic whose result can no longer be
//! saved) shifted by the difference in time, and visits for real whatever
//! else comes.  The replayed walk leaves every statistic, final state and
//! engine byte the visited one would; `walk_replay_*` holds it to that.

use crate::common::{Engine, OperandWait};
use crate::config::CoreConfig;
use crate::engine::{machine_bodies, CoreEngine, CoreModel};
use crate::fxmap::FxHashMap;
use crate::replay::{Inert, WalkRing, GRID};
use crate::storebuf::RunaheadCache;
use icfp_isa::{Addr, Cycle, DynInst, InstReader, OpClass, TraceCursor};
use icfp_mem::AccessOutcome;
use icfp_pipeline::{PoisonMask, RunResult};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The pipeline outside advance mode — which *is* the in-order core (the
/// in-order model runs it with advance compiled out) — plus what an advance
/// episode adds to it: the machine of the in-order, Runahead and Multipass
/// models.  For [`CoreModel::Multipass`], results of miss-independent
/// advance instructions are kept in a bounded result buffer and used to
/// accelerate the post-squash re-execution (Multipass's
/// dependence-breaking); plain Runahead discards them.  The paper's default
/// advance policy for Runahead is [`crate::AdvancePolicy::L2Only`]
/// ([`CoreConfig::runahead_default`]).
pub(crate) struct Machine {
    model: CoreModel,
    eng: Engine,
    /// Outstanding (not yet drained) stores: (drain completion, word addr).
    store_q: VecDeque<(Cycle, u64)>,
    rcache: RunaheadCache,
    /// Multipass result buffer: trace index -> saved value (None = instruction
    /// executed but produced no register result).
    results: FxHashMap<usize, Option<u64>>,
    /// Entries the result buffer may hold; zero for plain Runahead, which
    /// therefore never saves one.
    result_capacity: usize,
    /// One past the highest trace index ever saved: visits at or beyond it
    /// (nearly all, once the buffer has filled with stale entries) skip the
    /// map probe.
    saved_end: usize,
    /// Set once any store has been processed in the current advance episode;
    /// results are no longer saved after that because advance loads may then
    /// observe stale memory (conservative memory-dependence handling for
    /// Multipass's result buffer).
    poisoned_store_seen: bool,
    /// Next trace position to visit.
    i: usize,
    /// Where the last squash restarted (`usize::MAX`: none yet).  The load
    /// there waits for its access instead of starting an episode: a walk
    /// that evicted the trigger's line would otherwise miss and trigger
    /// again, forever.
    restart: usize,
    /// Recordings of earlier advance walks; `None` visits every instruction
    /// — the reference the replayed walk is tested against.  Not in the
    /// checkpoint bytes: a restored machine starts with an empty ring.
    ring: Option<WalkRing>,
}

impl CoreEngine for Machine {
    fn model(&self) -> CoreModel {
        self.model
    }

    /// In-order visits the trace block by block and stops at any
    /// instruction.  Runahead and Multipass stop only between units of
    /// work: a visit, or a trigger with its advance walk and squash.
    fn advance(&mut self, trace: &TraceCursor<'_>, inst_limit: usize) -> bool {
        let len = trace.len();
        let limit = inst_limit.min(len);
        if self.model == CoreModel::InOrder {
            // The per-instruction work reads a plain slice, so streamed
            // sources pay the cursor's RefCell dispatch once per block
            // instead of once per instruction.
            if self.i < limit {
                trace.for_each_block_from(self.i, |first, insts| {
                    let take = insts.len().min(limit - first);
                    for (off, inst) in insts[..take].iter().enumerate() {
                        let episode = self.normal_visit::<false>(inst, first + off);
                        debug_assert!(episode.is_none(), "advance is compiled out");
                    }
                    self.i = first + take;
                    self.i < limit
                });
            }
            return self.i < len;
        }
        let mut insts = trace.reader();
        let mut i = self.i;
        while i < limit {
            let Some(trigger_return) = self.normal_visit::<true>(insts.inst(i), i) else {
                i += 1;
                continue;
            };
            // Advance until execution time reaches the trigger's return (or
            // the trace runs out), then restore and re-execute from the
            // checkpoint.
            let j = self.walk(&mut insts, i, len, trigger_return);
            self.eng.stats.rally_instructions += (j - i) as u64;
            self.eng.stats.rally_passes += 1;
            self.eng.rf.restore(trigger_return);
            self.rcache.clear();
            // The front end restarts fetching the checkpointed instruction
            // when the miss returns; the restart pays a pipeline-refill
            // penalty.
            self.eng.fetch.redirect(trigger_return);
            self.eng.wait_until(trigger_return, false);
            self.restart = i;
        }
        self.i = i;
        i < len
    }

    machine_bodies!();

    fn finish(mut self: Box<Self>, trace: &TraceCursor<'_>) -> RunResult {
        self.advance(trace, usize::MAX);
        self.eng.finish(self.model.name(), trace)
    }
}

/// Checkpoint codec: the fields a paused machine reads again, in declaration
/// order.  A machine pauses only between units of work, so three fields are
/// left out and rebuilt on decode as the pause leaves them: the runahead
/// cache (cleared after every walk), the store-seen flag (reset when a walk
/// starts, read only inside one) and the last squash restart (behind every
/// position a paused machine visits again).  The walk ring starts empty.
impl Serialize for Machine {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.model.serialize(out);
        self.eng.serialize(out);
        self.store_q.serialize(out);
        self.results.serialize(out);
        self.result_capacity.serialize(out);
        self.saved_end.serialize(out);
        self.i.serialize(out);
    }
}

impl Deserialize for Machine {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let model = Deserialize::deserialize(r)?;
        let eng: Engine = Deserialize::deserialize(r)?;
        // The runahead cache below is built to this configuration.
        if eng.cfg.validate().is_err() {
            return Err(serde::Error::invalid("core configuration", r.position()));
        }
        Ok(Machine {
            model,
            rcache: RunaheadCache::new(eng.cfg.runahead_cache_entries),
            eng,
            store_q: Deserialize::deserialize(r)?,
            results: Deserialize::deserialize(r)?,
            result_capacity: Deserialize::deserialize(r)?,
            saved_end: Deserialize::deserialize(r)?,
            poisoned_store_seen: false,
            i: Deserialize::deserialize(r)?,
            restart: usize::MAX,
            ring: Some(WalkRing::default()),
        })
    }
}

impl Machine {
    /// A machine for one run of `model` (in-order, Runahead or Multipass)
    /// under `cfg`.
    pub(crate) fn new(model: CoreModel, cfg: &CoreConfig) -> Self {
        Machine {
            model,
            eng: Engine::new(cfg),
            store_q: VecDeque::new(),
            rcache: RunaheadCache::new(cfg.runahead_cache_entries),
            results: FxHashMap::default(),
            result_capacity: if model == CoreModel::Multipass { cfg.result_buffer_entries } else { 0 },
            saved_end: 0,
            poisoned_store_seen: false,
            i: 0,
            restart: usize::MAX,
            ring: Some(WalkRing::default()),
        }
    }

    /// Executes instruction `i` outside an advance episode.  Returns the
    /// cycle the miss returns at if it is a load that starts one (checkpoint
    /// taken here, destination poisoned) — never, when `ADVANCES` is false:
    /// the saved-result probe and the trigger fold away, and what is left is
    /// the in-order pipeline.
    #[inline(always)]
    fn normal_visit<const ADVANCES: bool>(&mut self, inst: &DynInst, i: usize) -> Option<Cycle> {
        let eng = &mut self.eng;
        let seq = i as u64;
        let l1_lat = eng.cfg.mem.l1_hit_latency;
        // Multipass: a saved result breaks the dependence during re-execution.
        let probe = ADVANCES && i < self.saved_end;
        let saved = if probe { self.results.get(&i).copied() } else { None };
        // A full store buffer stalls the pipeline until the oldest store drains.
        let mut hold = 0;
        if inst.is_store() {
            while self.store_q.len() >= eng.cfg.pipeline.baseline_store_buffer {
                hold = hold.max(self.store_q.pop_front().expect("non-empty").0);
            }
        }
        let wait = if saved.is_some() { OperandWait::Never } else { OperandWait::Always };
        let (issue, poison) = eng.visit(inst, wait, hold);
        debug_assert!(poison.is_clean(), "every episode ends by restoring a clean register file");

        match inst.class() {
            OpClass::Load => {
                let addr = inst.addr.expect("load without address");
                eng.stats.demand_loads += 1;
                if let Some(v) = saved {
                    // Multipass rally acceleration: the result is already known.
                    if let (Some(dst), Some(v)) = (inst.dst, v) {
                        eng.rf.write(dst, v, issue + 1, seq);
                    }
                    eng.note_completion(issue + 1);
                    return None;
                }
                let (completes, outcome) = self.load_access(addr, issue);
                let eng = &mut self.eng;
                let triggers =
                    ADVANCES && i != self.restart && eng.cfg.advance_policy.triggers_on(outcome.is_l2_miss());
                if triggers && outcome.is_l1_miss() && completes > issue + l1_lat {
                    // Enter advance mode: checkpoint here, poison the dest.
                    eng.rf.checkpoint();
                    eng.stats.advance_episodes += 1;
                    self.poisoned_store_seen = false;
                    if let Some(dst) = inst.dst {
                        eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                    }
                    eng.note_completion(issue + 1);
                    return Some(completes);
                }
                // Plain in-order behaviour.
                if let Some(dst) = inst.dst {
                    eng.rf.write(dst, eng.arch_mem.read(addr), completes, seq);
                }
                eng.note_completion(completes);
            }
            OpClass::Store => {
                let addr = inst.addr.expect("store without address");
                let data = inst.store_data_reg().map(|r| eng.rf.value(r)).unwrap_or(0);
                eng.arch_mem.write(addr, data);
                let drain_done = eng.demand_store(addr, issue + 1);
                self.store_q.push_back((drain_done, addr & !7));
                eng.note_completion(issue + 1);
            }
            OpClass::Branch => {
                let resolve = issue + inst.latency();
                eng.exec_branch(inst, resolve);
                eng.note_completion(resolve);
            }
            _ => {
                let completes = if saved.is_some() { issue + 1 } else { issue + inst.latency() };
                if let (Some(dst), Some(v)) = (inst.dst, eng.compute(inst)) {
                    eng.rf.write(dst, v, completes, seq);
                }
                eng.note_completion(completes);
            }
        }
        None
    }

    /// The advance walk after the trigger at `i`: visits until execution
    /// time reaches `trigger_return` or the trace runs out, and returns the
    /// position it stopped at.  With a ring, a stretch a recorded walk
    /// provably repeats is replayed instead of visited.
    fn walk(&mut self, insts: &mut InstReader<'_, '_>, i: usize, len: usize, trigger_return: Cycle) -> usize {
        let mut ring = self.ring.take();
        if let Some(ring) = ring.as_mut() {
            ring.begin(i);
        }
        let mut j = i + 1;
        while j < len && self.eng.frontier < trigger_return {
            let Some(ring) = ring.as_mut() else {
                self.advance_visit(insts.inst(j), j);
                j += 1;
                continue;
            };
            if j.is_multiple_of(GRID) {
                let inert = self.inert();
                let to = ring.at_grid(&mut self.eng, inert, j, len, trigger_return);
                if to != j {
                    j = to;
                    continue;
                }
            }
            let inst = insts.inst(j);
            let poisoned = self.eng.src_poison(inst).is_poisoned();
            self.advance_visit(inst, j);
            ring.record(&self.eng, j, inst, poisoned);
            j += 1;
        }
        self.ring = ring;
        j
    }

    /// Where inert visits begin for the rest of the current episode (see
    /// [`crate::replay`]): a poisoned visit must not drop a saved result,
    /// and a clean one is inert once no result can be saved any more.
    fn inert(&self) -> Inert {
        let clean = if self.poisoned_store_seen {
            0
        } else if self.results.len() >= self.result_capacity {
            self.saved_end
        } else {
            usize::MAX
        };
        Inert { poisoned: self.saved_end, clean }
    }

    /// Executes instruction `i` inside an advance episode.  The poisoned
    /// case — most visits of a miss-bound walk — touches only the poison
    /// plane, the scoreboard, the slot counters and the statistics.
    fn advance_visit(&mut self, inst: &DynInst, i: usize) {
        let eng = &mut self.eng;
        let seq = i as u64;
        let (issue, poison) = eng.visit(inst, OperandWait::Always, 0);
        eng.stats.advance_instructions += 1;

        // Poisoned instructions just flow through the pipe.
        if poison.is_poisoned() {
            if let Some(dst) = inst.dst {
                eng.rf.poison_write(dst, poison, seq);
            }
            if inst.is_store() {
                self.poisoned_store_seen = true;
                if let Some(addr) = inst.addr {
                    self.rcache.write(addr, 0, poison);
                }
            }
            if i < self.saved_end {
                self.results.remove(&i);
            }
            eng.note_completion(issue + 1);
            return;
        }

        match inst.class() {
            OpClass::Load => {
                let addr = inst.addr.expect("load without address");
                let l1_lat = eng.cfg.mem.l1_hit_latency;
                // Advance-mode forwarding via the runahead cache.
                if let Some((v, p)) = self.rcache.read(addr) {
                    let completes = if p.is_poisoned() { issue + 1 } else { issue + l1_lat };
                    if let Some(dst) = inst.dst {
                        if p.is_poisoned() {
                            eng.rf.poison_write(dst, p, seq);
                        } else {
                            eng.rf.write(dst, v, completes, seq);
                        }
                    }
                    eng.note_completion(completes);
                    return;
                }
                let (completes, outcome) = self.load_access(addr, issue);
                let eng = &mut self.eng;
                // Secondary miss during advance.
                let poison_it = outcome.is_l2_miss()
                    || (outcome.is_l1_miss() && eng.cfg.advance_policy.poisons_secondary_dcache());
                if poison_it && completes > issue + l1_lat {
                    if let Some(dst) = inst.dst {
                        eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                    }
                    eng.note_completion(issue + 1);
                } else {
                    // Wait for it (D$-blocking) or it was a hit.
                    let value = eng.arch_mem.read(addr);
                    if let Some(dst) = inst.dst {
                        eng.rf.write(dst, value, completes, seq);
                    }
                    eng.note_completion(completes);
                    self.save_result(i, Some(value));
                }
            }
            OpClass::Store => {
                // Advance stores write the runahead cache only (plus a
                // prefetch of the line).  Result saving stops here: later
                // advance loads may observe stale architectural memory.
                let addr = inst.addr.expect("store without address");
                let data = inst.store_data_reg().map(|r| eng.rf.value(r)).unwrap_or(0);
                self.poisoned_store_seen = true;
                self.rcache.write(addr, data, PoisonMask::CLEAN);
                let _ = eng.demand_store(addr, issue + 1);
                eng.note_completion(issue + 1);
            }
            OpClass::Branch => {
                let resolve = issue + inst.latency();
                eng.exec_branch(inst, resolve);
                eng.note_completion(resolve);
            }
            _ => {
                let completes = issue + inst.latency();
                let value = eng.compute(inst);
                if let (Some(dst), Some(v)) = (inst.dst, value) {
                    eng.rf.write(dst, v, completes, seq);
                }
                eng.note_completion(completes);
                self.save_result(i, value);
            }
        }
    }

    /// A clean load's memory access at `issue`: forwarded from the
    /// conventional store buffer if an outstanding store matches, otherwise
    /// a demand access.  Returns `(completes_at, outcome)`.
    #[inline(always)]
    fn load_access(&mut self, addr: Addr, issue: Cycle) -> (Cycle, AccessOutcome) {
        while matches!(self.store_q.front(), Some(&(done, _)) if done <= issue) {
            self.store_q.pop_front();
        }
        if self.store_q.iter().rev().any(|&(_, a)| a == (addr & !7)) {
            self.eng.stats.store_forwards += 1;
            (issue + self.eng.cfg.mem.l1_hit_latency, AccessOutcome::L1Hit)
        } else {
            let (c, o, _) = self.eng.demand_load(addr, issue);
            (c, o)
        }
    }

    /// Multipass: saves a miss-independent advance result, while no store
    /// has been seen this episode and the buffer has room.
    fn save_result(&mut self, i: usize, value: Option<u64>) {
        if !self.poisoned_store_seen && self.results.len() < self.result_capacity {
            self.results.insert(i, value);
            self.saved_end = self.saved_end.max(i + 1);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::common::golden_final_state;
    use crate::config::AdvancePolicy;
    use crate::engine::run_model;
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};

    fn independent_miss_trace(n: usize) -> Trace {
        // Pointer-independent loads to distinct far-apart lines, each followed
        // by a dependent op and some independent filler.
        let mut b = TraceBuilder::new("indep-misses");
        for k in 0..n {
            let base = 0x100000 + (k as u64) * 0x4000;
            b.push(DynInst::load(Reg::int(1), Reg::int(2), base));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            for j in 0..6u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), j));
            }
        }
        b.build()
    }

    #[test]
    fn runahead_matches_golden_state() {
        let t = independent_miss_trace(8);
        let r = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn runahead_overlaps_independent_l2_misses() {
        let t = independent_miss_trace(10);
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let ra = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        assert!(
            ra.stats.cycles < base.stats.cycles,
            "runahead {} should beat in-order {}",
            ra.stats.cycles,
            base.stats.cycles
        );
        assert!(ra.stats.advance_episodes > 0);
        assert!(ra.stats.rally_instructions > 0);
    }

    #[test]
    fn runahead_gains_nothing_on_a_lone_miss() {
        // Figure 1a: a lone L2 miss with one dependent instruction — Runahead
        // provides no benefit because it re-executes everything anyway.
        let mut b = TraceBuilder::new("lone");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        for j in 0..20u64 {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), j));
        }
        let t = b.build();
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let ra = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        assert!(
            ra.stats.cycles + 5 >= base.stats.cycles,
            "runahead ({}) should not beat in-order ({}) on a lone miss",
            ra.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn advance_stores_do_not_corrupt_memory() {
        // A store under the shadow of a miss, then the miss returns and the
        // store re-executes: final memory must match the golden model.
        let mut b = TraceBuilder::new("adv-store");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1)); // dependent
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), 9)); // independent
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x200)); // independent store
        b.push(DynInst::store(Reg::int(3), Reg::int(5), 0x300)); // dependent store
        b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x200)); // reads the store
        let t = b.build();
        let r = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    const ADVANCING: [CoreModel; 2] = [CoreModel::Runahead, CoreModel::Multipass];

    /// Runs `model` with and without walk replay and requires equal run
    /// statistics, state digests and serialized final machines (result
    /// buffers included).  Returns the advance visits replayed and the
    /// advance visits.
    fn walk_replay_is_exact(model: CoreModel, cfg: &CoreConfig, trace: &Trace, what: &str) -> (u64, u64) {
        let cursor = TraceCursor::from_trace(trace);
        let mut visited = Box::new(Machine { ring: None, ..Machine::new(model, cfg) });
        let mut replayed = Box::new(Machine::new(model, cfg));
        assert!(!visited.advance(&cursor, usize::MAX) && !replayed.advance(&cursor, usize::MAX));
        assert!(serde::to_bytes(&*replayed) == serde::to_bytes(&*visited), "{what}: machine bytes differ");
        let count = replayed.ring.as_ref().expect("the ring is on").replayed;
        let (r, v) = (replayed.finish(&cursor), visited.finish(&cursor));
        assert_eq!(r.stats, v.stats, "{what}");
        assert_eq!(r.state_digest(), v.state_digest(), "{what}");
        (count, v.stats.advance_instructions)
    }

    #[test]
    fn walk_replay_is_exact_on_the_stock_workloads() {
        // The full matrix in release builds (`cargo test --release -p
        // icfp-core walk_replay`), one seed at a shorter horizon otherwise.
        let (insts, seeds): (usize, &[u64]) =
            if cfg!(debug_assertions) { (10_000, &[0xC0DE]) } else { (50_000, &[0xC0DE, 0x5EED, 0xFACE]) };
        for model in ADVANCING {
            let base = model.default_config();
            let mut configs = vec![("default", base.clone())];
            for l2 in [10, 40] {
                let mut c = base.clone();
                c.mem.l2_hit_latency = l2;
                configs.push((if l2 == 10 { "l2=10" } else { "l2=40" }, c));
            }
            let mut c = base.clone();
            c.mem.max_outstanding_misses = 4;
            configs.push(("mshr=4", c));
            configs.push(("all-misses", base.clone().with_advance_policy(AdvancePolicy::AllMisses)));
            for wl in icfp_workloads::STANDARD_NAMES {
                for &seed in seeds {
                    let t = icfp_workloads::by_name(wl, insts, seed).expect("stock workload");
                    for (name, cfg) in &configs {
                        walk_replay_is_exact(model, cfg, &t, &format!("{model} {wl} {name} seed {seed:#x}"));
                    }
                }
            }
        }
    }

    /// A seeded random trace over six registers: loads (a quarter of them to
    /// lines spread over 16 MiB, so they miss), stores, branches and
    /// single- and multi-cycle ALU ops.
    pub(crate) fn random_trace(seed: u64, n: usize) -> Trace {
        let mut b = TraceBuilder::new("random");
        let mut state = seed;
        for _ in 0..n {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let r = z ^ (z >> 31);
            let reg = |shift: u32| Reg::int(1 + (r >> shift) as usize % 6);
            let addr = if (r >> 40).is_multiple_of(4) { 0x100_0000 + (r >> 44) % 0x4_0000 * 64 } else { 0x1000 + (r >> 44) % 128 * 8 };
            b.push(match r % 8 {
                0 | 1 => DynInst::load(reg(8), reg(16), addr),
                2 => DynInst::store(reg(8), reg(16), addr),
                3 => DynInst::branch(reg(8), (r >> 24) & 1 == 0, 0x4000, 0.9).with_pc(0x100 + (r >> 28) % 16 * 4),
                4 => DynInst::alu_imm(Op::Mul, reg(8), reg(16), 3),
                _ => DynInst::alu(Op::Add, reg(8), reg(16), reg(24)),
            });
        }
        b.build()
    }

    #[test]
    fn walk_replay_is_exact_on_random_instructions() {
        let mut replayed = 0;
        for seed in 0..200u64 {
            let t = random_trace(seed, 1_500);
            for model in ADVANCING {
                // Odd seeds shrink the result buffer and the runahead cache, so
                // that Multipass fills its buffer mid-episode; every third
                // seed runs on the tiny caches, where a walk can evict its
                // trigger's line.
                let mut cfg = model.default_config();
                if seed % 2 == 1 {
                    (cfg.result_buffer_entries, cfg.runahead_cache_entries) = (16, 16);
                }
                if seed % 3 == 0 {
                    cfg.mem = icfp_mem::MemConfig::tiny_for_tests();
                }
                replayed += walk_replay_is_exact(model, &cfg, &t, &format!("{model} random seed {seed}")).0;
            }
        }
        assert!(replayed > 0, "no random trace replayed a single visit");
    }

    fn miss_then_chain_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new("miss-then-chain");
        for k in 0..n as u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000 + k * 0x4000));
            for j in 0..15u64 {
                b.push(DynInst::alu_imm(Op::Mul, Reg::int(4), Reg::int(4), j | 1));
            }
        }
        b.build()
    }

    #[test]
    fn every_checkpointed_field_is_read_again() {
        use crate::liveness::{self, engine_fields, Field};
        let mut fields: Vec<Field<Machine>> = vec![Field {
            name: "model",
            bytes: |m| serde::to_bytes(&m.model),
            scramble: |m| m.model = CoreModel::Runahead,
        }];
        fields.extend(engine_fields!(Machine));
        let own: [Field<Machine>; 5] = [
            Field {
                name: "store_q",
                bytes: |m| serde::to_bytes(&m.store_q),
                scramble: |m| {
                    let far = m.eng.frontier + 100_000;
                    m.store_q.resize(m.eng.cfg.pipeline.baseline_store_buffer, (far, 0));
                },
            },
            Field { name: "results", bytes: |m| serde::to_bytes(&m.results), scramble: |m| m.results.clear() },
            Field {
                name: "result_capacity",
                bytes: |m| serde::to_bytes(&m.result_capacity),
                scramble: |m| m.result_capacity = 0,
            },
            Field { name: "saved_end", bytes: |m| serde::to_bytes(&m.saved_end), scramble: |m| m.saved_end = 0 },
            Field { name: "i", bytes: |m| serde::to_bytes(&m.i), scramble: |m| m.i += 1 },
        ];
        fields.extend(own);
        // Multipass, the model that uses every field, paused between walks
        // (pointer-chase, dcache-thrash, and misses with independent work
        // after them), among branches that train the predictor, and with a
        // result buffer that does not fill.
        let insts = if cfg!(debug_assertions) { 4_000 } else { 20_000 };
        let stock = |wl| icfp_workloads::by_name(wl, insts, 0xC0DE).expect("stock workload");
        let paper = CoreConfig::multipass_default();
        let roomy = CoreConfig { result_buffer_entries: 1 << 20, ..paper.clone() };
        let runs = [
            (&paper, stock("pointer-chase"), 4),
            (&paper, stock("dcache-thrash"), 4),
            (&paper, stock("branchy"), 4),
            (&roomy, stock("dcache-thrash"), 4),
            // Misses followed by a dependent multiply chain, whose saved
            // results a re-execution does not wait for, paused often enough
            // that some pause falls between a squash and the end of that
            // re-execution.
            (&roomy, miss_then_chain_trace(insts / 64), 8),
        ]
        .map(|(cfg, t, pauses)| {
            let at = (1..pauses).map(|k| t.len() * k / pauses).collect();
            (Machine::new(CoreModel::Multipass, cfg), t, at)
        });
        assert_eq!(liveness::surviving(runs.into(), &fields), Vec::<&str>::new(), "fields no scramble changed");
    }

    #[test]
    fn a_squash_restart_waits_for_its_load_instead_of_triggering_again() {
        // On these seeds a walk evicts its trigger's line from the tiny
        // caches, so the re-executed trigger misses again; were it to start
        // the same episode, the run would never finish.
        let mut cfg = CoreModel::Multipass.default_config();
        cfg.mem = icfp_mem::MemConfig::tiny_for_tests();
        for seed in [49, 64, 77, 105, 151, 161, 176] {
            let t = random_trace(seed, 1_500);
            let r = run_model(CoreModel::Multipass, &cfg, &t);
            assert_eq!((r.final_regs, r.final_mem), golden_final_state(&t), "seed {seed}");
        }
    }

    #[test]
    fn walk_replay_keeps_its_hit_rate_on_pointer_chase() {
        // Shape crack (1) in ROADMAP.md — retiring Multipass results on
        // consumption — will make clean visits save again, so they stop being
        // inert: this pin makes that loss a deliberate edit.
        let t = icfp_workloads::by_name("pointer-chase", 30_000, 0xC0DE).expect("stock workload");
        for (model, floor) in [(CoreModel::Runahead, 0.80), (CoreModel::Multipass, 0.90)] {
            let (replayed, visits) = walk_replay_is_exact(model, &model.default_config(), &t, "pointer-chase");
            let share = replayed as f64 / visits as f64;
            eprintln!("{model}: {share:.4}");
            assert!(share >= floor, "{model}: {replayed} of {visits} advance visits replayed ({share:.3}), floor {floor}");
        }
    }

    #[test]
    fn all_miss_policy_enters_more_episodes_than_l2_only() {
        // After a warming phase, repeated conflict misses hit in the L2 but
        // miss the tiny L1.  Under the L2-only policy those data-cache misses
        // must not start new advance episodes; under the all-misses policy
        // they do.
        let mut cfg_l2 = CoreConfig::runahead_default();
        cfg_l2.mem = icfp_mem::MemConfig::tiny_for_tests();
        let mut cfg_all = cfg_l2.clone();
        cfg_all.advance_policy = AdvancePolicy::AllMisses;

        let mut b = TraceBuilder::new("d$-misses");
        // Warming phase: touch 9 conflicting lines (cold L2 misses).
        for k in 0..9u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x400 * k));
            for j in 0..40u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(3), j));
            }
        }
        // Conflict phase: cycle through the same lines; these are D$ misses
        // that hit in the L2, each followed by a dependent use.
        for r in 0..6u64 {
            for k in 0..5u64 {
                b.push(DynInst::load(Reg::int(4), Reg::int(2), 0x400 * ((k + r) % 9)));
                b.push(DynInst::alu_imm(Op::Add, Reg::int(5), Reg::int(4), 1));
                for j in 0..10u64 {
                    b.push(DynInst::alu_imm(Op::Add, Reg::int(6), Reg::int(6), j));
                }
            }
        }
        let t = b.build();
        let r_l2 = run_model(CoreModel::Runahead, &cfg_l2, &t);
        let r_all = run_model(CoreModel::Runahead, &cfg_all, &t);
        assert!(
            r_all.stats.advance_episodes > r_l2.stats.advance_episodes,
            "all-miss policy ({}) should enter more episodes than L2-only ({})",
            r_all.stats.advance_episodes,
            r_l2.stats.advance_episodes
        );
    }
}
