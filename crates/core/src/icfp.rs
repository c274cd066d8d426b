//! iCFP — in-order Continual Flow Pipeline, the paper's mechanism.
//!
//! On any qualifying miss the pipeline keeps flowing: the missing load and its
//! forward slice drain into the slice buffer (with their miss-independent side
//! inputs), miss-independent instructions *commit* as they complete, and when
//! a miss returns the corresponding slice entries *rally* — re-execute and
//! merge their results into the main register file under the last-writer gate
//! of Section 3.1.  Stores (clean or poisoned-data) go to the address-hash
//! chained store buffer of Section 3.2 and drain to the cache in program
//! order; loads forward from it by walking the hash chain.  Poison is a small
//! bitvector (Section 3.4): each outstanding miss (MSHR) gets a bit, so a
//! returning miss rallies only the entries that depend on it.
//!
//! The same machine is the SLTP model (Section 4): [`CoreModel::Sltp`] runs
//! it at the first step of the Figure 7 build
//! ([`IcfpFeatures::srl_blocking`](crate::IcfpFeatures::srl_blocking): the
//! SRL memory system, whose program-order drain stalls the tail after each
//! rally pass, single blocking rallies, 1-bit poison) under L2-only advance
//! ([`CoreConfig::sltp_default`]).
//!
//! The model is written as an explicit state machine ([`IcfpMachine`]) that
//! implements [`CoreEngine`] itself: [`CoreEngine::advance`] processes one
//! dynamic instruction or one rally pass per iteration and can stop after
//! any instruction, which is what `icfp-sim` builds runs paused at an
//! instruction position (`advance_to_inst`) and mid-episode checkpoints on.
//!
//! The advance episode is derived, not stored: it lasts while a miss is
//! pending or a slice entry still waits for its rally (Section 3.4), which
//! is what [`IcfpMachine::in_episode`] reads off the pending rallies and the
//! slice buffer.  Every forward jump of the issue frontier — a stall for a
//! full slice or store buffer, a wait for a rally's miss, a drain — goes
//! through [`Engine::wait_until`].
//!
//! iCFP takes no register checkpoint: nothing in a uniprocessor trace ever
//! rolls an episode back (the paper's checkpoint serves multiprocessor
//! safety, Section 3.3), so the 64-register copy per episode would be state
//! nothing reads.  Runahead and Multipass restore theirs and keep it.
//!
//! A rally pass pays for what it executes.  It walks its selection in program
//! order ([`SliceBuffer::next_selected`]) and visits entries one at a time
//! until a visit defers an entry to misses disjoint from the returning ones.
//! From there the rest of the selection — on a dependent chain, whose every
//! entry carries the returning bit, nearly the whole slice — is certified and
//! re-poisoned as one batch ([`SliceBuffer::defer_run`]) from packed
//! per-slot state, without fetching an instruction, and visits resume at the
//! first entry the batch leaves.  A pass therefore costs a visit for each
//! entry it executes or defers alone, plus a few nanoseconds for each entry in
//! its deferred tail (on pointer-chase, 99 % of deferrals go in batches,
//! which made the iCFP run there about 1.7x faster); the batch decides
//! exactly what the visits would, so nothing reported, digested or
//! checkpointed depends on it.
//!
//! The hot loop reuses its storage: drain buffers and the slice buffer's
//! data storage keep their capacity across cycles and episodes, and a rally
//! pass walks its selection in place, so after the first tenth of a trace a
//! run makes fewer than 0.5 heap-allocation calls per 1000 instructions (what
//! is left is the occasional growth of that storage or of architectural
//! memory's hash table) — the bound `crates/sim/tests/steady_state_allocs.rs`
//! enforces.  The slice buffer holds each rallied result once, by trace
//! position, and only while a rally can still read it
//! ([`SliceBuffer::producer`]), so a run's heap does not grow with the length
//! of an episode (`crates/sim/tests/heap_bound.rs`).

use crate::common::{Engine, OperandWait};
use crate::config::CoreConfig;
use crate::engine::{machine_bodies, CoreEngine, CoreModel};
use crate::slicebuf::{SliceBuffer, SliceEntry};
use crate::storebuf::ChainedStoreBuffer;
use icfp_isa::{exec, Cycle, DynInst, InstSeq, OpClass, TraceCursor, Value};
use icfp_mem::MshrId;
use icfp_pipeline::{PoisonAllocator, PoisonMask, RunResult};
use serde::{Deserialize, Serialize};

/// A miss whose return will trigger a rally pass.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PendingRally {
    mshr: MshrId,
    returns_at: Cycle,
    bit: PoisonMask,
}

/// Index of the rally that returns first (the first such on a tie).
fn earliest_of(rallies: &[PendingRally]) -> Option<usize> {
    rallies
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.returns_at)
        .map(|(k, _)| k)
}

/// The state of an [`IcfpMachine`]'s rally batch: none outside tests, which
/// count what the batch takes to pin its hit rate.
#[derive(Debug, Default)]
struct RallyBatch {
    /// Deferrals the batch made.
    #[cfg(test)]
    batched: u64,
    /// Deferrals visits made.
    #[cfg(test)]
    visited: u64,
}

impl RallyBatch {
    /// Counts one visit's deferral and the run the batch took after it.
    fn count(&mut self, _run: usize) {
        #[cfg(test)]
        {
            self.visited += 1;
            self.batched += _run as u64;
        }
    }
}

/// The iCFP pipeline model, and SLTP's.
///
/// Create one per run ([`CoreConfig::paper_default`] gives the paper's iCFP
/// configuration: advance under all misses, full feature set;
/// [`CoreConfig::sltp_default`] SLTP's) and drive it through [`CoreEngine`].
#[derive(Debug)]
pub struct IcfpMachine {
    /// [`CoreModel::Icfp`] or [`CoreModel::Sltp`]: the model the machine
    /// reports and whose snapshots it restores.
    model: CoreModel,
    eng: Engine,
    slice: SliceBuffer,
    sbuf: ChainedStoreBuffer,
    palloc: PoisonAllocator,
    /// Misses awaiting their rally, unordered (bounded by MSHR count).
    /// Changed only through [`IcfpMachine::poison_for_miss`] and
    /// [`IcfpMachine::wait_and_rally`], which keep `earliest` current.  An
    /// advance episode lasts while this is non-empty or the slice buffer
    /// holds an active entry ([`IcfpMachine::in_episode`]).
    rallies: Vec<PendingRally>,
    /// Index into `rallies` of the miss that returns first (the first such on
    /// a tie) — what every step asks for, recomputed only when `rallies`
    /// changes.  Derived: not in the checkpoint bytes, rebuilt on restore.
    earliest: Option<usize>,
    /// Scratch: stores drained from the store buffer this step.
    drain_scratch: Vec<(u64, Value)>,
    /// Deferred tails of rally passes run as one batch
    /// ([`SliceBuffer::defer_run`]); `None` visits every entry — the
    /// reference the batch is tested against.  Not in the checkpoint bytes.
    batch: Option<RallyBatch>,
    /// Next trace index to process.
    i: usize,
    done: bool,
}

/// The store buffer's capacity: `srl_entries` under the SRL memory system,
/// `store_buffer_entries` under the chained one.
fn store_capacity(cfg: &CoreConfig) -> usize {
    if cfg.features.chained_store_buffer {
        cfg.store_buffer_entries
    } else {
        cfg.srl_entries
    }
}

impl IcfpMachine {
    /// Creates a machine for one run of `model` ([`CoreModel::Icfp`] or
    /// [`CoreModel::Sltp`]) under `cfg`.
    pub fn new(model: CoreModel, cfg: &CoreConfig) -> Self {
        debug_assert!(matches!(model, CoreModel::Icfp | CoreModel::Sltp), "{model} runs another machine");
        IcfpMachine {
            model,
            eng: Engine::new(cfg),
            slice: SliceBuffer::new(cfg.slice_buffer_entries),
            sbuf: ChainedStoreBuffer::new(cfg.store_buffer_kind, store_capacity(cfg), cfg.chain_table_entries),
            palloc: PoisonAllocator::new(cfg.features.poison_vector_width.clamp(1, 16)),
            rallies: Vec::with_capacity(cfg.mem.max_outstanding_misses),
            earliest: None,
            drain_scratch: Vec::with_capacity(store_capacity(cfg)),
            batch: Some(RallyBatch::default()),
            i: 0,
            done: false,
        }
    }

    /// True while the machine is inside an advance episode: a rally is
    /// pending or the slice buffer holds an active entry (Section 3.4).
    /// Checkpoints taken here capture mid-episode speculative state.
    pub fn in_episode(&self) -> bool {
        !self.rallies.is_empty() || !self.slice.no_active()
    }

    /// The earliest pending rally, if its miss has returned by the current
    /// frontier.
    fn due_rally(&self) -> Option<usize> {
        self.earliest
            .filter(|&k| self.rallies[k].returns_at <= self.eng.frontier)
    }

    /// Removes pending rally `k`, moves the frontier to its miss's return
    /// (a `structural` stall counts the wait) and runs it.
    fn wait_and_rally(&mut self, trace: &TraceCursor<'_>, k: usize, structural: bool) {
        let r = self.rallies.swap_remove(k);
        self.earliest = earliest_of(&self.rallies);
        self.eng.wait_until(r.returns_at, structural);
        self.run_rally(trace, r);
    }

    /// Registers a miss for a future rally and returns its poison bit.
    fn poison_for_miss(&mut self, mshr: MshrId, returns_at: Cycle) -> PoisonMask {
        if !self.in_episode() {
            self.eng.stats.advance_episodes += 1;
        }
        let bit = self.palloc.bit_for(mshr);
        if let Some(r) = self.rallies.iter_mut().find(|r| r.mshr == mshr) {
            r.returns_at = r.returns_at.max(returns_at);
        } else {
            self.rallies.push(PendingRally {
                mshr,
                returns_at,
                bit,
            });
        }
        self.earliest = earliest_of(&self.rallies);
        bit
    }

    /// The trace indices producing an instruction's poisoned operands
    /// (`usize::MAX` = operand was captured/absent), stored in the slice
    /// entry so rallies can read them from the slice data storage.
    fn producers_for(&self, inst: &DynInst) -> (usize, usize) {
        let prod = |r: Option<icfp_isa::Reg>| -> usize {
            r.map_or(usize::MAX, |r| {
                if self.eng.rf.poison(r).is_poisoned() {
                    self.eng.rf.last_writer(r).map_or(usize::MAX, |s| s as usize)
                } else {
                    usize::MAX
                }
            })
        };
        (prod(inst.src1), prod(inst.src2))
    }

    /// Diverts instruction `i` into the slice buffer.  `extra` carries poison
    /// the instruction acquired through memory (store-buffer forwarding).
    ///
    /// Returns `false` if the slice buffer is full.  In that case the paper's
    /// simple-runahead fallback is applied — the pipeline stalls for the
    /// earliest pending rally (which retires entries and frees slots) — and
    /// the caller must *re-process the instruction from scratch* without
    /// advancing.  Re-processing matters: the stall rally can finish the whole
    /// advance episode, cleaning the register poison this entry was built
    /// from, in which case the instruction no longer needs to slice at all.
    /// (Pushing a pre-built entry after such a rally would insert stale poison
    /// bits that no pending miss owns — a deadlock.)
    #[must_use]
    fn push_slice(
        &mut self,
        trace: &TraceCursor<'_>,
        inst: &DynInst,
        issue: Cycle,
        extra: PoisonMask,
    ) -> bool {
        let i = self.i;
        let seq = i as InstSeq;
        if self.slice.is_full() {
            self.slice.reclaim_head();
        }
        if self.slice.is_full() {
            // Simple-runahead fallback: stall until the earliest miss returns
            // and its rally retires head entries, then retry the instruction.
            self.eng.stats.simple_runahead_entries += 1;
            let k = self
                .earliest
                .expect("slice buffer full of active entries with no pending miss");
            self.wait_and_rally(trace, k, true);
            return false;
        }
        let mut poison = self.eng.src_poison(inst).union(extra);
        if poison.is_clean() {
            poison = PoisonMask::bit(0);
        }
        let (src1_producer, src2_producer) = self.producers_for(inst);
        let entry = SliceEntry {
            trace_idx: i,
            seq_from_ckpt: seq,
            src1_value: self.eng.rf.clean_value(inst.src1),
            src2_value: self.eng.rf.clean_value(inst.src2),
            src1_producer,
            src2_producer,
            store_color: self.sbuf.ssn_tail(),
            poison,
            active: true,
        };
        self.eng.stats.sliced_instructions += 1;
        self.slice
            .push_inst(entry, inst)
            .expect("slice slot was reserved above");
        if let Some(dst) = inst.dst {
            self.eng.rf.poison_write(dst, poison, seq);
        }
        if inst.is_store() {
            // Clean-address store with (possibly) poisoned data: chain it now;
            // the rally will resolve its value in place (Section 3.2).
            if let Some(addr) = inst.addr {
                self.chain_store(trace, addr, 0, poison, seq, issue);
            }
        }
        self.eng.note_completion(issue + 1);
        true
    }

    /// Pushes a store into the chained store buffer, stalling (draining) if
    /// it is full.
    fn chain_store(
        &mut self,
        trace: &TraceCursor<'_>,
        addr: u64,
        value: Value,
        poison: PoisonMask,
        seq: InstSeq,
        at: Cycle,
    ) {
        if self.sbuf.is_full() {
            // Drain completed stores to make room; if nothing drains, stall
            // until the earliest rally frees slice/store entries.
            self.drain_stores(seq, at);
            while self.sbuf.is_full() {
                let Some(k) = self.earliest else { break };
                // Rally to unclog poisoned stores, then drain again.
                self.wait_and_rally(trace, k, true);
                self.drain_stores(seq, self.eng.frontier);
            }
        }
        let _ = self.sbuf.push(seq, addr, value, poison);
    }

    /// Drains completed (clean, older than `completed_seq`) stores to the
    /// cache and architectural memory.  Allocation-free: uses the reusable
    /// drain scratch buffer.
    fn drain_stores(&mut self, completed_seq: InstSeq, at: Cycle) {
        self.drain_scratch.clear();
        self.sbuf
            .drain_completed_into(completed_seq, &mut self.drain_scratch);
        self.write_back(at);
    }

    /// Final drain when the run ends: every store must be clean by now.
    fn retire_all_stores(&mut self) {
        self.drain_scratch.clear();
        self.sbuf.drain_all_into(&mut self.drain_scratch);
        self.write_back(self.eng.frontier);
    }

    /// Writes the drained stores to architectural memory and the cache.
    fn write_back(&mut self, at: Cycle) {
        for k in 0..self.drain_scratch.len() {
            let (addr, value) = self.drain_scratch[k];
            self.eng.arch_mem.write(addr, value);
            let _ = self.eng.demand_store(addr, at);
        }
    }

    /// Processes one dynamic instruction (first pass).  `inst` must be the
    /// instruction at trace position `self.i` — [`CoreEngine::advance`]
    /// fetches it (from the arena slice or its pinned block).
    fn step_inst(&mut self, trace: &TraceCursor<'_>, inst: &DynInst) {
        let i = self.i;
        let seq = i as InstSeq;
        let l1_lat = self.eng.cfg.mem.l1_hit_latency;
        let policy = self.eng.cfg.advance_policy;
        let in_advance = self.in_episode();

        // Poisoned operands do not stall issue: the instruction flows to the
        // slice buffer at fetch rate.
        let (issue, src_poison) = self.eng.visit(inst, OperandWait::UnlessPoisoned, 0);
        if in_advance {
            self.eng.stats.advance_instructions += 1;
        }

        // Opportunistically drain completed stores (program order: everything
        // older than the current instruction is complete unless poisoned).
        if !self.sbuf.is_empty() {
            self.drain_stores(seq, issue);
        }

        if src_poison.is_poisoned() {
            if inst.is_store() && inst.addr_base_reg().is_some_and(|r| {
                self.eng.rf.poison(r).is_poisoned()
            }) {
                // Poisoned *address*: the store cannot be chained.  iCFP falls
                // back to simple runahead — wait for the producing miss.
                self.eng.stats.simple_runahead_entries += 1;
                self.stall_for_poison(trace, self.eng.rf.poison(inst.addr_base_reg().unwrap()));
                // After the stall+rally the base register is clean; re-run
                // this instruction from the top.
                if self.eng.src_poison(inst).is_clean() {
                    return; // self.i unchanged: reprocess now-clean inst
                }
            }
            if self.push_slice(trace, inst, issue, PoisonMask::CLEAN) {
                self.i += 1;
            }
            return;
        }

        match inst.class() {
            OpClass::Load => {
                self.eng.stats.demand_loads += 1;
                let addr = inst.addr.expect("load without address");
                // Probe the store buffer (first probe free, excess hops cost).
                let fwd = self.sbuf.forward(addr & !7, self.sbuf.ssn_tail());
                self.eng.stats.chain_hops += fwd.excess_hops;
                if fwd.must_stall {
                    // Limited-forwarding organisation: stall until the
                    // mismatching root store drains.
                    self.eng.stats.simple_runahead_entries += 1;
                    self.drain_all_rallies(trace);
                    self.drain_stores(seq, self.eng.frontier);
                }
                let fwd = if fwd.must_stall {
                    self.sbuf.forward(addr & !7, self.sbuf.ssn_tail())
                } else {
                    fwd
                };
                if let Some(st) = fwd.store {
                    let hop_penalty =
                        fwd.excess_hops * self.eng.cfg.chain_hop_penalty;
                    if st.poison.is_poisoned() {
                        // Memory dependence on a poisoned store: slice out.
                        if self.push_slice(trace, inst, issue, st.poison) {
                            self.i += 1;
                        }
                        return;
                    }
                    self.eng.stats.store_forwards += 1;
                    let completes = issue + l1_lat + hop_penalty;
                    if let Some(dst) = inst.dst {
                        self.eng.rf.write(dst, st.value, completes, seq);
                    }
                    self.eng.note_completion(completes);
                    self.i += 1;
                    return;
                }
                // Memory access.
                let (completes, outcome, mshr) = self.eng.demand_load(addr, issue);
                let value = self.eng.arch_mem.read(addr);
                let is_miss = outcome.is_l1_miss() && completes > issue + l1_lat;
                let tolerated = if !in_advance {
                    policy.triggers_on(outcome.is_l2_miss())
                } else if outcome.is_l2_miss() {
                    true
                } else {
                    policy.poisons_secondary_dcache()
                };
                if is_miss && tolerated {
                    if let Some(m) = mshr {
                        let bit = self.poison_for_miss(m, completes);
                        // A successful push poisons the destination (inside
                        // push_slice); a failed push means the instruction
                        // re-processes from scratch after the stall rally,
                        // possibly as a plain hit.
                        if self.push_slice(trace, inst, issue, bit) {
                            self.i += 1;
                        }
                        return;
                    }
                }
                // Hit, prefetch hit, or a miss the policy blocks on.
                if let Some(dst) = inst.dst {
                    self.eng.rf.write(dst, value, completes, seq);
                }
                self.eng.note_completion(completes);
            }
            OpClass::Store => {
                let addr = inst.addr.expect("store without address");
                let data = inst
                    .store_data_reg()
                    .map(|r| self.eng.rf.value(r))
                    .unwrap_or(0);
                self.chain_store(trace, addr, data, PoisonMask::CLEAN, seq, issue);
                self.eng.note_completion(issue + 1);
            }
            OpClass::Branch => {
                let resolve = issue + inst.latency();
                self.eng.exec_branch(inst, resolve);
                self.eng.note_completion(resolve);
            }
            _ => {
                let completes = issue + inst.latency();
                if let (Some(dst), Some(v)) = (inst.dst, self.eng.compute(inst)) {
                    self.eng.rf.write(dst, v, completes, seq);
                }
                self.eng.note_completion(completes);
            }
        }
        self.i += 1;
    }

    /// Stalls the pipeline until the misses in `poison` have returned and
    /// rallied (simple-runahead fallback for un-chainable stores).
    fn stall_for_poison(&mut self, trace: &TraceCursor<'_>, poison: PoisonMask) {
        let mut guard = 0usize;
        while guard < 64 {
            guard += 1;
            let Some(k) = self
                .rallies
                .iter()
                .enumerate()
                .filter(|(_, r)| r.bit.intersects(poison))
                .min_by_key(|(_, r)| r.returns_at)
                .map(|(k, _)| k)
                .or(self.earliest)
            else {
                break;
            };
            self.wait_and_rally(trace, k, true);
            if self.rallies.is_empty() {
                break;
            }
        }
    }

    /// Runs every pending rally to completion (limited-forwarding stall path).
    fn drain_all_rallies(&mut self, trace: &TraceCursor<'_>) {
        while let Some(k) = self.earliest {
            self.wait_and_rally(trace, k, false);
        }
    }

    /// Executes the rally for the returning miss `r` (Section 3.4): the
    /// active slice entries whose poison intersects the returning bit
    /// re-execute in program order; entries that depend on a *different*
    /// pending miss are re-poisoned in place and stay for a later pass.
    ///
    /// Poison bits are a *finite* namespace (width ≤ 16) shared round-robin
    /// by misses, so an entry can carry a bit whose miss has already rallied.
    /// If the last pending rally would end the episode with entries still
    /// active, cleanup passes over *all* active entries run until the episode
    /// is quiescent (each pass resolves in program order, so producer chains
    /// always make progress; a load that misses again spawns a fresh rally
    /// and the episode continues normally).
    fn run_rally(&mut self, trace: &TraceCursor<'_>, r: PendingRally) {
        self.palloc.release(r.mshr);
        self.rally_pass(trace, r.bit, r.returns_at);
        let mut guard = 0u32;
        while self.rallies.is_empty() && !self.slice.no_active() {
            let before = self.slice.active_len();
            self.rally_pass(trace, PoisonMask::all_bits(), self.eng.frontier);
            guard += 1;
            debug_assert!(
                self.slice.active_len() < before || !self.rallies.is_empty(),
                "episode cleanup made no progress"
            );
            if guard > 4096 || (self.slice.active_len() >= before && self.rallies.is_empty()) {
                break;
            }
        }
        if !self.in_episode() {
            // Episode over: speculative state retires.
            self.slice.clear();
            self.palloc.clear();
        }
    }

    /// One pass over the active slice entries selected by `select`.
    fn rally_pass(&mut self, trace: &TraceCursor<'_>, select: PoisonMask, returns_at: Cycle) {
        self.eng.stats.rally_passes += 1;
        let start = self.eng.frontier.max(returns_at);
        let l1_lat = self.eng.cfg.mem.l1_hit_latency;
        let nonblocking = self.eng.cfg.features.nonblocking_rallies;
        let multithreaded = self.eng.cfg.features.multithreaded_rally;

        // Other rallies' bits still pending (for re-poisoning decisions).
        let mut pending_bits = PoisonMask::CLEAN;
        for p in &self.rallies {
            pending_bits |= p.bit;
        }

        let mut rally_frontier = start;
        let mut rally_end = start;
        let mut next = 0;
        while let Some((slot, at)) = self.slice.next_selected(select, next) {
            next = at + 1;
            // Read the few fields a visit needs, where it needs them.
            let &SliceEntry {
                trace_idx,
                src1_value,
                src2_value,
                store_color,
                poison,
                ..
            } = self.slice.entry_at(slot);
            let inst = trace.get(trace_idx);
            let inst = &inst;
            let seq = trace_idx as InstSeq;
            self.eng.stats.rally_instructions += 1;

            // Resolve operands: captured side inputs or slice data storage.
            // (The two operands are picked by index, not iterated as an array
            // of tuples by value: that form went through memory and stalled
            // every visit.)
            let mut vals = [0u64; 2];
            let mut ready = rally_frontier;
            let mut unresolved = PoisonMask::CLEAN;
            for (n, val) in vals.iter_mut().enumerate() {
                let (src, cap) = if n == 0 {
                    (inst.src1, src1_value)
                } else {
                    (inst.src2, src2_value)
                };
                if src.is_none() {
                    continue;
                }
                if let Some(v) = cap {
                    *val = v;
                    continue;
                }
                match self.slice.producer(slot, n) {
                    Ok((v, c)) => {
                        *val = v;
                        ready = ready.max(c);
                    }
                    Err(waiting_on) => {
                        // Producer has not rallied yet: it belongs to a
                        // different pending miss.  Re-poison with its bits.
                        let pb = waiting_on.unwrap_or(pending_bits).without(select);
                        unresolved |= if pb.is_clean() { pending_bits } else { pb };
                    }
                }
            }
            if unresolved.is_poisoned() && !self.rallies.is_empty() {
                // Entry waits for another miss (non-blocking rally).
                let to = poison.without(select).union(unresolved);
                next = self.defer(slot, inst, to, select, next);
                continue;
            }

            let issue = self.eng.issue_at(inst.class(), ready.max(rally_frontier));
            rally_frontier = issue + 1;

            let (value, completes) = match inst.class() {
                OpClass::Load => {
                    let addr = inst.addr.expect("load without address");
                    let fwd = self.sbuf.forward(addr & !7, store_color);
                    self.eng.stats.chain_hops += fwd.excess_hops;
                    if let Some(st) = fwd.store {
                        if st.poison.is_poisoned() {
                            // Forwarding store still poisoned by another miss.
                            let np = poison.without(select).union(st.poison.without(select));
                            let np = if np.is_clean() { pending_bits } else { np };
                            if np.is_poisoned() && !self.rallies.is_empty() {
                                self.slice.repoison_at(slot, np);
                                continue;
                            }
                            // No other pending miss can resolve it — the store
                            // resolves within this very pass; fall through and
                            // read architectural memory after drain.
                            (Some(self.eng.arch_mem.read(addr)), issue + l1_lat)
                        } else {
                            self.eng.stats.store_forwards += 1;
                            let hop = fwd.excess_hops * self.eng.cfg.chain_hop_penalty;
                            (Some(st.value), issue + l1_lat + hop)
                        }
                    } else {
                        let (completes, outcome, mshr) = self.eng.demand_load(addr, issue);
                        // The line's data is not yet available — a genuine
                        // re-miss, or (poison-bit aliasing) a hit under a fill
                        // owned by a *different* in-flight miss that shares
                        // this rally's bit.  Either way the MSHR holding the
                        // line is returned, so the entry defers to it instead
                        // of blocking this rally.
                        let _ = outcome;
                        let still_in_flight = completes > issue + l1_lat;
                        if still_in_flight && nonblocking {
                            if let Some(m) = mshr {
                                // The line is gone again: hand the entry to a
                                // new rally instead of blocking this one.
                                let bit = self.poison_for_miss(m, completes);
                                let to = poison.without(select).union(bit);
                                next = self.defer(slot, inst, to, select, next);
                                continue;
                            }
                        }
                        // Blocking rally (or unmissable): wait it out.
                        (Some(self.eng.arch_mem.read(addr)), completes)
                    }
                }
                OpClass::Store => {
                    let v = if let Some(data) = inst.store_data_reg() {
                        // Store data is src2 (falling back to src1).
                        let (cap, n) = if inst.src2.is_some() {
                            (src2_value, 1)
                        } else {
                            (src1_value, 0)
                        };
                        cap.or_else(|| self.slice.producer(slot, n).ok().map(|(v, _)| v))
                            .unwrap_or_else(|| self.eng.rf.value(data))
                    } else {
                        0
                    };
                    self.sbuf.resolve_value(seq, v);
                    (None, issue + 1)
                }
                OpClass::Branch => {
                    let resolve = issue + 1;
                    self.eng.exec_branch(inst, resolve);
                    (None, resolve)
                }
                _ => {
                    let v = exec::compute(inst, vals[0], vals[1], |a| self.eng.arch_mem.read(a));
                    (v, issue + inst.latency())
                }
            };
            let result = inst.dst.and(value).map(|v| (v, completes));
            if let (Some(dst), Some(v)) = (inst.dst, value) {
                self.eng.rf.rally_write(dst, v, completes, seq);
            }
            rally_end = rally_end.max(completes);
            self.eng.note_completion(completes);
            self.slice.retire_at(slot, result);
        }
        self.slice.reclaim_head();

        // Drain stores unblocked by this rally.
        self.drain_stores(self.i as InstSeq, rally_frontier);

        if !multithreaded {
            // Single-threaded rally: tail execution stalls behind the rally.
            self.eng.wait_until(rally_end, false);
            self.eng.fetch.stall_until(rally_end);
        }
        if !self.eng.cfg.features.chained_store_buffer {
            // SRL memory system (SLTP's): the program-order drain blocks
            // the tail (one store per cycle).
            let drain_cycles = self.drain_scratch.len() as u64;
            self.eng.wait_until(start + drain_cycles, false);
        }
    }

    /// Defers the entry in slice slot `slot` to the misses in `poison`: the
    /// entry is re-poisoned in place and, if it is still its destination's
    /// last writer, so is the register.  Then, if `poison` is disjoint from
    /// the pass's `select`, the selected entries from logical position `next`
    /// on that a visit would defer to the same misses go as one batch
    /// ([`SliceBuffer::defer_run`]).  Returns the position the pass goes on
    /// from.
    fn defer(
        &mut self,
        slot: usize,
        inst: &DynInst,
        poison: PoisonMask,
        select: PoisonMask,
        next: usize,
    ) -> usize {
        self.slice.repoison_at(slot, poison);
        let seq = self.slice.entry_at(slot).trace_idx as InstSeq;
        let rf = &mut self.eng.rf;
        let mut repoison = |dst, seq| {
            if rf.last_writer(dst) == Some(seq) {
                rf.poison_write(dst, poison, seq);
            }
        };
        if let Some(dst) = inst.dst {
            repoison(dst, seq);
        }
        let Some(batch) = &mut self.batch else { return next };
        let (run, resume) = if poison.intersects(select) {
            (0, next)
        } else {
            debug_assert!(!self.rallies.is_empty(), "a deferral waits for a pending rally");
            self.slice.defer_run(next, select, poison, repoison)
        };
        self.eng.stats.rally_instructions += run as u64;
        batch.count(run);
        resume
    }
}

impl CoreEngine for IcfpMachine {
    fn model(&self) -> CoreModel {
        self.model
    }

    /// One unit of work per iteration: a rally pass if a miss has returned,
    /// otherwise the next dynamic instruction.  The first pass reads the
    /// arena slice, or — for a streamed source — a block pinned here, since
    /// rally passes fault older blocks in through the same cursor.
    fn advance(&mut self, trace: &TraceCursor<'_>, inst_limit: usize) -> bool {
        let len = trace.len();
        let mut insts = trace.reader();
        loop {
            if self.done {
                return false;
            }
            // 1. Fire any rally whose miss has returned by the current frontier.
            if let Some(k) = self.due_rally() {
                self.wait_and_rally(trace, k, false);
                continue;
            }
            // 2. Out of instructions: drain remaining rallies in return order.
            if self.i >= len {
                if let Some(k) = self.earliest {
                    self.wait_and_rally(trace, k, false);
                    continue;
                }
                self.retire_all_stores();
                self.done = true;
                return false;
            }
            if self.i >= inst_limit {
                return true;
            }
            // 3. Process the next dynamic instruction.
            self.step_inst(trace, insts.inst(self.i));
        }
    }

    machine_bodies!();

    fn finish(mut self: Box<Self>, trace: &TraceCursor<'_>) -> RunResult {
        self.advance(trace, usize::MAX);
        self.eng.stats.slice_peak = self.slice.peak() as u64;
        self.eng.finish(self.model.name(), trace)
    }
}

/// Checkpoint codec for the machine: every *persistent* field, the model
/// first, is written in declaration order, and after the pending rallies the
/// slice buffer's live values ([`SliceBuffer::live_values`]); the drain
/// scratch buffer is pure per-step staging (always drained before `advance`
/// returns) and is rebuilt empty, with its configured capacity, on restore,
/// the rally batch is rebuilt, and the derived `earliest` index is
/// recomputed.
impl Serialize for IcfpMachine {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.model.serialize(out);
        self.eng.serialize(out);
        self.slice.serialize(out);
        self.sbuf.serialize(out);
        self.palloc.serialize(out);
        self.rallies.serialize(out);
        self.slice.live_values().serialize(out);
        self.i.serialize(out);
        self.done.serialize(out);
    }
}

impl Deserialize for IcfpMachine {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let model = Deserialize::deserialize(r)?;
        let eng: Engine = Deserialize::deserialize(r)?;
        // The scratch capacity below comes from this configuration.
        if eng.cfg.validate().is_err() {
            return Err(serde::Error::invalid("core configuration", r.position()));
        }
        let store_cap = store_capacity(&eng.cfg);
        let mut slice: SliceBuffer = Deserialize::deserialize(r)?;
        let sbuf = Deserialize::deserialize(r)?;
        let palloc = Deserialize::deserialize(r)?;
        let rallies: Vec<PendingRally> = Deserialize::deserialize(r)?;
        let pairs: Vec<(usize, (Value, Cycle))> = Deserialize::deserialize(r)?;
        let i: usize = Deserialize::deserialize(r)?;
        slice
            .restore_values(&pairs, i)
            .map_err(|what| serde::Error::invalid(what, r.position()))?;
        Ok(IcfpMachine {
            model,
            eng,
            slice,
            sbuf,
            palloc,
            earliest: earliest_of(&rallies),
            rallies,
            drain_scratch: Vec::with_capacity(store_cap),
            batch: Some(RallyBatch::default()),
            i,
            done: Deserialize::deserialize(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::golden_final_state;
    use crate::config::StoreBufferKind;
    use crate::engine::run_model;
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};

    fn run_icfp(t: &Trace) -> RunResult {
        run_model(CoreModel::Icfp, &CoreConfig::paper_default(), t)
    }

    fn assert_golden(t: &Trace, r: &RunResult) {
        let (regs, mem) = golden_final_state(t);
        assert_eq!(r.final_regs, regs, "register state diverged");
        assert_eq!(r.final_mem, mem, "memory state diverged");
    }

    fn lone_miss_trace() -> Trace {
        let mut b = TraceBuilder::new("lone-miss");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        for j in 0..40u64 {
            b.push(DynInst::alu_imm(Op::Mul, Reg::int(4), Reg::int(4), j | 1));
        }
        b.build()
    }

    fn independent_miss_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new("indep");
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

    fn dependent_chain_trace() -> Trace {
        // A -> B -> C chained misses plus independent work: multiple rallies,
        // each spawning the next.
        let mut b = TraceBuilder::new("chain");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::load(Reg::int(3), Reg::int(1), 0x200000));
        b.push(DynInst::load(Reg::int(4), Reg::int(3), 0x300000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(5), Reg::int(4), 1));
        for j in 0..30u64 {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(6), Reg::int(6), j));
        }
        b.build()
    }

    #[test]
    fn icfp_matches_golden_state_on_a_lone_miss() {
        let t = lone_miss_trace();
        let r = run_icfp(&t);
        assert_golden(&t, &r);
        assert!(r.stats.advance_episodes >= 1);
        assert!(r.stats.rally_passes >= 1);
    }

    #[test]
    fn icfp_commits_independent_work_and_only_rallies_the_slice() {
        let t = lone_miss_trace();
        let r = run_icfp(&t);
        assert!(
            r.stats.sliced_instructions <= 4,
            "only the load and its dependent should slice, got {}",
            r.stats.sliced_instructions
        );
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        assert!(
            r.stats.cycles < base.stats.cycles,
            "icfp {} should beat in-order {} on a lone miss",
            r.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn icfp_overlaps_independent_misses_and_beats_runahead() {
        let t = independent_miss_trace(10);
        let r = run_icfp(&t);
        assert_golden(&t, &r);
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let ra = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        assert!(r.stats.cycles < base.stats.cycles);
        assert!(
            r.stats.cycles <= ra.stats.cycles,
            "icfp {} should not lose to runahead {}",
            r.stats.cycles,
            ra.stats.cycles
        );
    }

    #[test]
    fn dependent_miss_chain_matches_golden_and_spawns_rallies() {
        let t = dependent_chain_trace();
        let r = run_icfp(&t);
        assert_golden(&t, &r);
        assert!(
            r.stats.rally_passes >= 3,
            "each chained miss needs its own rally, got {}",
            r.stats.rally_passes
        );
    }

    #[test]
    fn advance_stores_forward_and_drain_in_program_order() {
        let mut b = TraceBuilder::new("adv-stores");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1)); // dependent
        b.push(DynInst::store(Reg::int(3), Reg::int(5), 0x400)); // poisoned data
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), 9)); // independent
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x400)); // younger, clean
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x500));
        b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x500)); // forwards
        b.push(DynInst::load(Reg::int(7), Reg::int(5), 0x400)); // youngest store wins
        let t = b.build();
        let r = run_icfp(&t);
        assert_golden(&t, &r);
        assert!(r.stats.store_forwards >= 1);
    }

    #[test]
    fn store_with_poisoned_address_falls_back_to_simple_runahead() {
        let mut b = TraceBuilder::new("poison-addr-store");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        // Store whose *base* register is the missing load's destination.
        b.push(DynInst::store(Reg::int(4), Reg::int(1), 0x600));
        b.push(DynInst::load(Reg::int(5), Reg::int(2), 0x600));
        let t = b.build();
        let r = run_icfp(&t);
        assert_golden(&t, &r);
        assert!(r.stats.simple_runahead_entries >= 1);
    }

    #[test]
    fn all_store_buffer_kinds_match_golden() {
        let t = {
            let mut b = TraceBuilder::new("kinds");
            for k in 0..8u64 {
                b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000 + k * 0x4000));
                b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), k));
                b.push(DynInst::store(Reg::int(3), Reg::int(5), 0x400 + (k % 3) * 64));
                b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x400 + (k % 3) * 64));
            }
            b.build()
        };
        for kind in [
            StoreBufferKind::Chained,
            StoreBufferKind::FullyAssociative,
            StoreBufferKind::IndexedLimited,
        ] {
            let cfg = CoreConfig::paper_default().with_store_buffer_kind(kind);
            let r = run_model(CoreModel::Icfp, &cfg, &t);
            assert_golden(&t, &r);
        }
    }

    #[test]
    fn figure7_feature_builds_all_match_golden() {
        let t = independent_miss_trace(6);
        for (name, features) in crate::config::IcfpFeatures::build_steps() {
            let cfg = CoreConfig::paper_default().with_features(features);
            let r = run_model(CoreModel::Icfp, &cfg, &t);
            let (regs, mem) = golden_final_state(&t);
            assert_eq!(r.final_regs, regs, "register state diverged for {name}");
            assert_eq!(r.final_mem, mem, "memory state diverged for {name}");
        }
    }

    #[test]
    fn machine_stepping_equals_whole_run() {
        let t = independent_miss_trace(8);
        let whole = run_icfp(&t);
        let cfg = CoreConfig::paper_default();
        let cur = TraceCursor::from_trace(&t);
        let mut m = Box::new(IcfpMachine::new(CoreModel::Icfp, &cfg));
        let mut steps = 0usize;
        while m.advance(&cur, m.processed() + 1) {
            steps += 1;
        }
        assert_eq!(steps, t.len() - 1, "a one-instruction budget stops after every instruction");
        let stepped = m.finish(&cur);
        assert_eq!(stepped.stats.cycles, whole.stats.cycles);
        assert_eq!(stepped.final_regs, whole.final_regs);
        assert_eq!(stepped.final_mem, whole.final_mem);
    }

    #[test]
    fn slice_buffer_overflow_stalls_but_stays_correct() {
        // Tiny slice buffer, long dependent chain: the overflow fallback must
        // stall (never drop) and the final state must stay golden.
        let mut cfg = CoreConfig::paper_default();
        cfg.slice_buffer_entries = 8;
        let mut b = TraceBuilder::new("overflow");
        for k in 0..12u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(1), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(2), Reg::int(1), 1));
            b.push(DynInst::alu(Op::Xor, Reg::int(3), Reg::int(2), Reg::int(3)));
        }
        let t = b.build();
        let r = run_model(CoreModel::Icfp, &cfg, &t);
        assert_golden(&t, &r);
        assert!(r.stats.simple_runahead_entries > 0);
    }

    #[test]
    fn a_snapshot_with_unbuildable_sizes_is_a_decode_error_not_a_panic() {
        for bad in [0, usize::MAX / 2] {
            let mut m = IcfpMachine::new(CoreModel::Icfp, &CoreConfig::paper_default());
            m.eng.cfg.slice_buffer_entries = bad;
            let err = serde::from_bytes::<IcfpMachine>(&serde::to_bytes(&m)).unwrap_err();
            assert!(err.to_string().contains("core configuration"), "{err}");
        }
        // Flat tables whose own geometry disagrees with their length: the
        // machine's bytes with one structure's geometry rewritten (its last
        // encoding; the configuration copies come first).  Its slice buffer
        // holds an active entry at 4 whose first operand waits on 3, and a
        // retired one at 5.
        let mut m = IcfpMachine::new(CoreModel::Icfp, &CoreConfig::paper_default());
        for (trace_idx, active) in [(4, true), (5, false)] {
            let e = SliceEntry { trace_idx, src1_producer: 3, poison: PoisonMask::bit(0), active, ..SliceEntry::vacant() };
            m.slice.push(e).unwrap();
        }
        let bytes = serde::to_bytes(&m);
        let words = |w: &[u64]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let halves = |w: &[u32]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        // The slice values, the machine's last fields but two: a count, then
        // position, value and ready cycle per pair; then the next trace
        // position and the `done` flag.
        let fresh = bytes.len() - 8 - 8 - 1;
        let with_values = |pairs: &[[u64; 3]], i: u64| {
            let mut b = bytes[..fresh].to_vec();
            b.extend(words(&[pairs.len() as u64]));
            pairs.iter().for_each(|p| b.extend(words(p)));
            b.extend(words(&[i]));
            b.push(0);
            b
        };
        let sound = with_values(&[[3, 7, 100], [5, 8, 120]], 10);
        let m = serde::from_bytes::<IcfpMachine>(&sound).expect("sorted positions below i decode");
        assert_eq!(m.slice.producer(0, 0), Ok((7, 100)), "the active entry reads its producer's value");
        assert_eq!(serde::to_bytes(&m), sound, "every value is live");
        // A value at a position no entry names is not read again, nor kept.
        let stray = with_values(&[[2, 6, 90], [3, 7, 100], [5, 8, 120]], 10);
        let m = serde::from_bytes::<IcfpMachine>(&stray).expect("sorted positions below i decode");
        assert_eq!(serde::to_bytes(&m), sound, "the buffer re-encodes what a rally can read");
        for (what, pairs, i) in [
            ("slice value positions", vec![[5, 8, 120], [3, 7, 100]], 10),
            ("slice value positions", vec![[3, 7, 100], [3, 8, 120]], 10),
            ("slice value positions", vec![[3, 7, 100], [10, 8, 120]], 10),
            // The entries at 4 and 5 were processed before the next position.
            ("slice entry positions", vec![], 5),
            // A span of 2^60 pairs: more bytes than an allocation may hold.
            ("slice value window", vec![[0, 7, 100], [1 << 60, 8, 120]], 1 << 61),
        ] {
            let err = serde::from_bytes::<IcfpMachine>(&with_values(&pairs, i)).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        for (what, from, to) in [
            // The L1 (32 KB, 4-way, 64 B lines) as 48 KB: 192 sets.
            ("cache set count", words(&[32768, 4, 64]), words(&[49152, 4, 64])),
            // ... as 64 KB: 256 sets, but the arrays hold 128 x 4 ways.
            ("cache key array length", words(&[32768, 4, 64]), words(&[65536, 4, 64])),
            // Stream depth 8 -> 7 (then block bytes and the buffer count):
            // each buffer holds eight slots, one more than its depth.
            ("stream table length", words(&[8, 128, 8]), words(&[7, 128, 8])),
            // The BTB's 4 ways x 512 sets as 256 sets, or as 500.
            ("btb table size", words(&[4, 512]), words(&[4, 256])),
            ("btb geometry", words(&[4, 512]), words(&[4, 500])),
            // The PPM's 2^13 base / 2^12 tagged entries, one bit narrower.
            ("ppm base table size", halves(&[13, 12]), halves(&[12, 12])),
            ("ppm tagged table size", halves(&[13, 12]), halves(&[13, 11])),
        ] {
            let at = bytes.windows(from.len()).rposition(|w| w == from).expect(what);
            let mut hostile = bytes.clone();
            hostile[at..at + to.len()].copy_from_slice(&to);
            let err = serde::from_bytes::<IcfpMachine>(&hostile).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    /// Runs iCFP with the rally batch and without it (every deferral a
    /// visit), pausing both at a quarter, half and three quarters of the
    /// trace, and requires equal checkpoint bytes at every pause and equal
    /// statistics and state digests at the end — also for a batched run
    /// resumed from the half-way bytes (a decoded buffer knows no entry's
    /// shape).  Returns the deferrals the batch made and all deferrals.
    fn rally_batch_is_exact(cfg: &CoreConfig, trace: &Trace, what: &str) -> (u64, u64) {
        let cursor = TraceCursor::from_trace(trace);
        let mut batched = Box::new(IcfpMachine::new(CoreModel::Icfp, cfg));
        let mut visited = Box::new(IcfpMachine { batch: None, ..IcfpMachine::new(CoreModel::Icfp, cfg) });
        let mut resumed = None;
        for at in [1, 2, 3].map(|k| trace.len() * k / 4) {
            batched.advance(&cursor, at);
            visited.advance(&cursor, at);
            let bytes = batched.save().bytes;
            assert!(bytes == visited.save().bytes, "{what}: checkpoint bytes differ at instruction {at}");
            if resumed.is_none() && at >= trace.len() / 2 {
                resumed = Some(Box::new(serde::from_bytes::<IcfpMachine>(&bytes).expect("own bytes decode")));
            }
        }
        let b = batched.batch.as_ref().expect("the batch is on");
        let counts = (b.batched, b.batched + b.visited);
        let v = visited.finish(&cursor);
        let resumed = resumed.expect("paused");
        for (run, r) in [("batched", batched.finish(&cursor)), ("resumed", resumed.finish(&cursor))] {
            assert_eq!(r.stats, v.stats, "{what}: {run}");
            assert_eq!(r.state_digest(), v.state_digest(), "{what}: {run}");
        }
        counts
    }

    #[test]
    fn rally_batch_is_exact_on_the_stock_workloads() {
        // The full matrix in release builds (`cargo test --release -p
        // icfp-core rally_batch`), one seed at a shorter horizon otherwise.
        let (insts, seeds): (usize, &[u64]) =
            if cfg!(debug_assertions) { (10_000, &[0xC0DE]) } else { (50_000, &[0xC0DE, 0x5EED, 0xFACE]) };
        let base = CoreConfig::paper_default();
        let mut configs = vec![("paper default".to_string(), base.clone())];
        for (name, features) in crate::config::IcfpFeatures::build_steps() {
            configs.push((name.to_string(), base.clone().with_features(features)));
        }
        use StoreBufferKind::{Chained, FullyAssociative, IndexedLimited};
        for kind in [Chained, FullyAssociative, IndexedLimited] {
            configs.push((format!("{kind:?}"), base.clone().with_store_buffer_kind(kind)));
        }
        for width in [1, 2, 16] {
            let mut c = base.clone();
            c.features.poison_vector_width = width;
            configs.push((format!("poison width {width}"), c));
        }
        for entries in [16, 64] {
            let mut c = base.clone();
            c.slice_buffer_entries = entries;
            configs.push((format!("slice {entries}"), c));
        }
        let mut batched = 0;
        for wl in icfp_workloads::STANDARD_NAMES {
            for &seed in seeds {
                let t = icfp_workloads::by_name(wl, insts, seed).expect("stock workload");
                for (name, cfg) in &configs {
                    batched += rally_batch_is_exact(cfg, &t, &format!("{wl} {name} seed {seed:#x}")).0;
                }
            }
        }
        assert!(batched > 0, "the batch never ran");
    }

    #[test]
    fn rally_batch_is_exact_on_random_instructions() {
        let cfg = CoreConfig::tiny_for_tests();
        let mut batched = 0;
        for seed in 0..200u64 {
            let t = crate::runahead::tests::random_trace(seed, 1_500);
            batched += rally_batch_is_exact(&cfg, &t, &format!("random seed {seed}")).0;
        }
        assert!(batched > 0, "no random trace ran the batch");
    }

    #[test]
    fn rally_batch_keeps_its_hit_rate_on_pointer_chase() {
        // Shape cracks (4) and (5) in ROADMAP.md may break the uniform
        // deferred tail a dependent chain leaves: this pin makes that loss a
        // deliberate edit.
        let t = icfp_workloads::by_name("pointer-chase", 30_000, 0xC0DE).expect("stock workload");
        let (batched, deferrals) = rally_batch_is_exact(&CoreConfig::paper_default(), &t, "pointer-chase");
        let share = batched as f64 / deferrals as f64;
        eprintln!("batched {batched} of {deferrals} deferrals ({share:.4})");
        assert!(share >= 0.95, "{batched} of {deferrals} deferrals batched ({share:.3}), floor 0.95");
    }

    #[test]
    fn every_checkpointed_field_is_read_again() {
        use crate::liveness::{self, engine_fields, Field};
        let mut fields: Vec<Field<IcfpMachine>> =
            vec![Field { name: "model", bytes: |m| serde::to_bytes(&m.model), scramble: |m| m.model = CoreModel::Sltp }];
        fields.extend(engine_fields!(IcfpMachine));
        let own: [Field<IcfpMachine>; 7] = [
            Field {
                name: "slice",
                bytes: |m| serde::to_bytes(&m.slice),
                scramble: |m| m.slice = SliceBuffer::new(m.eng.cfg.slice_buffer_entries),
            },
            Field {
                name: "sbuf",
                bytes: |m| serde::to_bytes(&m.sbuf),
                scramble: |m| {
                    let cfg = &m.eng.cfg;
                    m.sbuf = ChainedStoreBuffer::new(cfg.store_buffer_kind, store_capacity(cfg), cfg.chain_table_entries);
                },
            },
            Field {
                name: "palloc",
                bytes: |m| serde::to_bytes(&m.palloc),
                scramble: |m| m.palloc = PoisonAllocator::new(m.eng.cfg.features.poison_vector_width.clamp(1, 16)),
            },
            Field {
                name: "rallies",
                bytes: |m| serde::to_bytes(&m.rallies),
                scramble: |m| m.rallies.iter_mut().for_each(|r| r.returns_at += 1_000),
            },
            Field {
                name: "slice values",
                bytes: |m| serde::to_bytes(&m.slice.live_values()),
                scramble: |m| m.slice.flip_values(),
            },
            Field { name: "i", bytes: |m| serde::to_bytes(&m.i), scramble: |m| m.i += 1 },
            Field { name: "done", bytes: |m| serde::to_bytes(&m.done), scramble: |m| m.done = true },
        ];
        fields.extend(own);
        // Paused inside episodes (pointer-chase is one, dcache-thrash many),
        // and among branches that train the predictor.
        let insts = if cfg!(debug_assertions) { 4_000 } else { 20_000 };
        let runs = ["pointer-chase", "dcache-thrash", "branchy"].map(|wl| {
            let t = icfp_workloads::by_name(wl, insts, 0xC0DE).expect("stock workload");
            (IcfpMachine::new(CoreModel::Icfp, &CoreConfig::paper_default()), t, vec![insts / 4, insts / 2, insts * 3 / 4])
        });
        assert_eq!(liveness::surviving(runs.into(), &fields), Vec::<&str>::new(), "fields no scramble changed");
    }

    #[test]
    fn rally_stats_are_populated() {
        let t = independent_miss_trace(5);
        let r = run_icfp(&t);
        assert!(r.stats.slice_peak > 0);
        assert!(r.stats.advance_instructions > 0);
        assert_eq!(r.core, "icfp");
    }

    // SLTP is this machine at the first Figure 7 step, under L2-only advance
    // (`CoreConfig::sltp_default`).

    fn run_sltp(t: &Trace) -> RunResult {
        run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), t)
    }

    #[test]
    fn sltp_is_the_icfp_machine_at_the_first_figure7_step() {
        let insts = if cfg!(debug_assertions) { 5_000 } else { 20_000 };
        for wl in icfp_workloads::STANDARD_NAMES {
            let t = icfp_workloads::by_name(wl, insts, 0x601D).expect("stock workload");
            let sltp = run_sltp(&t);
            let icfp = run_model(CoreModel::Icfp, &CoreConfig::sltp_default(), &t);
            assert_eq!(sltp.stats, icfp.stats, "{wl}");
            assert_eq!(sltp.state_digest(), icfp.state_digest(), "{wl}");
            assert_eq!((sltp.core.as_str(), icfp.core.as_str()), ("sltp", "icfp"), "{wl}");
        }
        assert_eq!(CoreModel::Sltp.engine(&CoreConfig::sltp_default()).save().model, CoreModel::Sltp);
        // The SRL memory system's store buffer holds `srl_entries` stores.
        let t = icfp_workloads::by_name("dcache-thrash", insts, 0x601D).expect("stock workload");
        let (mut srl, mut chained) = (CoreConfig::sltp_default(), CoreConfig::sltp_default());
        (srl.srl_entries, chained.store_buffer_entries) = (2, 2);
        assert_ne!(run_model(CoreModel::Sltp, &srl, &t).stats, run_sltp(&t).stats);
        assert_eq!(run_model(CoreModel::Sltp, &chained, &t).stats, run_sltp(&t).stats);
    }

    /// The final states the SLTP gate finds wrong, in its order: one defect
    /// of this machine (full iCFP shows it too, ROADMAP), a store younger
    /// than a sliced load draining to memory before that load rallies.
    /// Pinned so that a new divergence fails and a fix must edit the list.
    const KNOWN_WRONG: [&str; 6] = [
        "random seed 36 AllMisses tiny memory",
        "random seed 41 AllMisses tiny memory",
        "random seed 75 L2AndPrimaryDcache tiny memory",
        "random seed 75 AllMisses tiny memory",
        "random seed 93 AllMisses tiny memory",
        "random seed 97 L2AndPrimaryDcache tiny memory",
    ];

    #[test]
    fn sltp_final_state_is_golden_under_every_advancing_policy() {
        // The full matrix in release builds (`cargo test --release -p
        // icfp-core sltp_final_state`), one seed at a shorter horizon and
        // fewer random traces otherwise.
        let (insts, seeds, randoms): (usize, &[u64], u64) =
            if cfg!(debug_assertions) { (5_000, &[0x601D], 20) } else { (20_000, &[0x601D, 0xC0DE, 1], 100) };
        use crate::config::AdvancePolicy::{AllMisses, L2AndPrimaryDcache, L2Only};
        let configs: Vec<(String, CoreConfig)> = [L2Only, L2AndPrimaryDcache, AllMisses]
            .into_iter()
            .flat_map(|policy| {
                let paper = CoreConfig::sltp_default().with_advance_policy(policy);
                let mut tiny = paper.clone();
                tiny.mem = icfp_mem::MemConfig::tiny_for_tests();
                [(format!("{policy:?} paper memory"), paper), (format!("{policy:?} tiny memory"), tiny)]
            })
            .collect();
        let mut traces = Vec::new();
        for wl in icfp_workloads::STANDARD_NAMES {
            for &seed in seeds {
                let t = icfp_workloads::by_name(wl, insts, seed).expect("stock workload");
                traces.push((format!("{wl} seed {seed:#x}"), t));
            }
        }
        for seed in 0..randoms {
            traces.push((format!("random seed {seed}"), crate::runahead::tests::random_trace(seed, 1_500)));
        }
        let mut wrong = Vec::new();
        for (what, t) in &traces {
            let (regs, mem) = golden_final_state(t);
            for (name, cfg) in &configs {
                let r = run_model(CoreModel::Sltp, cfg, t);
                if r.final_regs != regs || r.final_mem != mem {
                    wrong.push(format!("{what} {name}"));
                }
            }
        }
        assert!(wrong.iter().all(|w| KNOWN_WRONG.contains(&w.as_str())), "final states diverged: {wrong:?}");
        if !cfg!(debug_assertions) {
            assert_eq!(wrong, KNOWN_WRONG, "a known divergence was mended: drop it from KNOWN_WRONG");
        }
    }

    #[test]
    fn sltp_matches_golden_state() {
        let t = lone_miss_trace();
        assert_golden(&t, &run_sltp(&t));
    }

    #[test]
    fn sltp_beats_in_order_and_runahead_on_a_lone_miss() {
        let t = lone_miss_trace();
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let ra = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        let (sltp, base, ra) = (run_sltp(&t).stats.cycles, base.stats.cycles, ra.stats.cycles);
        assert!(sltp < base, "sltp {sltp} vs in-order {base}");
        assert!(sltp <= ra, "sltp {sltp} should not lose to runahead {ra} on a lone miss");
    }

    #[test]
    fn sltp_commits_independent_work_and_only_replays_the_slice() {
        let sltp = run_sltp(&lone_miss_trace());
        // Only the load and its single dependent should be replayed, not the
        // 40 independent multiplies.
        assert!(sltp.stats.rally_instructions <= 4, "rally = {}", sltp.stats.rally_instructions);
        assert!(sltp.stats.sliced_instructions <= 4);
        assert_eq!(sltp.stats.rally_passes, 1);
    }

    #[test]
    fn sltp_with_advance_stores_matches_golden_state() {
        let mut b = TraceBuilder::new("sltp-stores");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1)); // dependent
        b.push(DynInst::store(Reg::int(3), Reg::int(5), 0x400)); // dependent store
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), 9)); // independent
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x400)); // younger independent store, same address
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x500));
        b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x500)); // forwards from the store buffer
        b.push(DynInst::load(Reg::int(7), Reg::int(5), 0x400)); // must see the *younger* store
        let t = b.build();
        let r = run_sltp(&t);
        assert_golden(&t, &r);
        assert!(r.stats.advance_episodes >= 1);
    }

    #[test]
    fn dependent_miss_blocks_the_rally() {
        // A dependent L2 miss inside the slice: SLTP must pay both latencies
        // essentially back to back (blocking rally), so it looks like the
        // in-order pipeline here.
        let mut b = TraceBuilder::new("dep-miss");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        // Address of the second load depends on the first.
        b.push(DynInst::load(Reg::int(3), Reg::int(1), 0x200000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(3), 1));
        for j in 0..30u64 {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(5), Reg::int(5), j));
        }
        let r = run_sltp(&b.build());
        assert!(r.stats.cycles > 800, "dependent misses must serialize under SLTP, got {}", r.stats.cycles);
    }

    #[test]
    fn all_miss_policy_also_advances_on_dcache_misses() {
        let mut cfg = CoreConfig::sltp_default().with_advance_policy(crate::config::AdvancePolicy::AllMisses);
        cfg.mem = icfp_mem::MemConfig::tiny_for_tests();
        let mut b = TraceBuilder::new("sltp-all");
        for k in 0..12u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x400 * k));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            for j in 0..10u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), j));
            }
        }
        let t = b.build();
        let r = run_model(CoreModel::Sltp, &cfg, &t);
        assert!(r.stats.advance_episodes > 0);
        assert_golden(&t, &r);
    }
}
