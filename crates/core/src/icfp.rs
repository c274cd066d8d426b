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
//! The hot loop reuses its storage: rally slot lists, drain buffers and the
//! slice-value table keep their capacity across cycles and episodes, so
//! after the first tenth of a trace a run makes fewer than 2 heap-allocation
//! calls per 1000 instructions (what is left is the occasional growth of a
//! hash table or a stream buffer) — the bound
//! `crates/sim/tests/steady_state_allocs.rs` enforces.

use crate::common::{Engine, OperandWait};
use crate::config::CoreConfig;
use crate::engine::{check_model, CoreEngine, CoreModel, EngineSnapshot};
use crate::fxmap::FxHashMap;
use crate::slicebuf::{Producer, SliceBuffer, SliceEntry};
use crate::storebuf::ChainedStoreBuffer;
use icfp_isa::{exec, exec::ArchState, Cycle, DynInst, InstSeq, OpClass, TraceCursor, Value};
use icfp_mem::MshrId;
use icfp_pipeline::{PoisonAllocator, PoisonMask, RunResult};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// Values produced by re-executed slice instructions, indexed by trace
/// position.  This models the paper's slice-buffer data storage: a rallying
/// instruction reads "pending from slice" operands from here.
///
/// Backed by an [`FxHashMap`] (fast non-cryptographic hash — a rally writes
/// it once per executed instruction and reads it only for producers that
/// have left the slice buffer) whose capacity is retained across rallies
/// (cleared, not dropped, at episode boundaries).  The serde codec writes
/// entries sorted by key, so checkpoint bytes are independent of the hasher.
#[derive(Debug, Default, Serialize, Deserialize)]
struct SliceValues {
    vals: FxHashMap<usize, (Value, Cycle)>,
}

impl SliceValues {
    fn get(&self, idx: usize) -> Option<(Value, Cycle)> {
        self.vals.get(&idx).copied()
    }

    fn set(&mut self, idx: usize, v: Value, ready: Cycle) {
        self.vals.insert(idx, (v, ready));
    }

    fn clear(&mut self) {
        self.vals.clear();
    }
}

/// The iCFP pipeline model.
///
/// Create one per run ([`CoreConfig::paper_default`] gives the paper's
/// configuration: advance under all misses, full feature set) and drive it
/// through [`CoreEngine`].
#[derive(Debug)]
pub struct IcfpMachine {
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
    /// Results of re-executed slice instructions (the slice data storage).
    /// A consumer reads a producer that still sits in the slice buffer through
    /// its link ([`SliceBuffer::producer`]); this map serves the producers
    /// already reclaimed from the head, and is what a checkpoint carries.
    slice_values: SliceValues,
    /// Scratch: physical slots selected for the current rally pass (capacity
    /// reused); the pass reads, retires and re-poisons entries in place.
    rally_scratch: Vec<u32>,
    /// Scratch: stores drained from the store buffer this step.
    drain_scratch: Vec<(u64, Value)>,
    /// Next trace index to process.
    i: usize,
    done: bool,
}

impl IcfpMachine {
    /// Creates a machine for one run under `cfg`.
    pub fn new(cfg: &CoreConfig) -> Self {
        IcfpMachine {
            eng: Engine::new(cfg),
            slice: SliceBuffer::new(cfg.slice_buffer_entries),
            sbuf: ChainedStoreBuffer::new(
                cfg.store_buffer_kind,
                cfg.store_buffer_entries,
                cfg.chain_table_entries,
            ),
            palloc: PoisonAllocator::new(cfg.features.poison_vector_width.clamp(1, 16)),
            rallies: Vec::with_capacity(cfg.mem.max_outstanding_misses),
            earliest: None,
            slice_values: SliceValues::default(),
            rally_scratch: Vec::with_capacity(cfg.slice_buffer_entries),
            drain_scratch: Vec::with_capacity(cfg.store_buffer_entries),
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
            .push(entry)
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
            self.slice_values.clear();
            self.palloc.clear();
        }
    }

    /// The rallied result of the producer of operand `operand` of the entry
    /// in slice slot `slot`; `Err` if it has none yet, with the misses the
    /// producer waits on when it is still active in the buffer.
    #[inline]
    fn produced(&self, slot: usize, operand: usize) -> Result<(Value, Cycle), Option<PoisonMask>> {
        match self.slice.producer(slot, operand) {
            Producer::Waiting(poison) => Err(Some(poison)),
            Producer::Rallied(result) => result.ok_or(None),
            Producer::Gone => {
                let e = self.slice.entry_at(slot);
                let producer = [e.src1_producer, e.src2_producer][operand];
                self.slice_values.get(producer).ok_or(None)
            }
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

        self.slice.rally_slots_into(select, &mut self.rally_scratch);

        let mut rally_frontier = start;
        let mut rally_end = start;
        for k in 0..self.rally_scratch.len() {
            let slot = self.rally_scratch[k] as usize;
            // Most visits only find a producer still waiting and re-poison the
            // entry, so read the few fields a visit needs, where it needs them.
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
                match self.produced(slot, n) {
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
                self.defer(slot, inst, poison.without(select).union(unresolved));
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
                                self.defer(slot, inst, poison.without(select).union(bit));
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
                        cap.or_else(|| self.produced(slot, n).ok().map(|(v, _)| v))
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
            if let (Some(dst), Some(v)) = (inst.dst, value) {
                self.slice_values.set(trace_idx, v, completes);
                self.slice.record_result(slot, v, completes);
                self.eng.rf.rally_write(dst, v, completes, seq);
            }
            rally_end = rally_end.max(completes);
            self.eng.note_completion(completes);
            self.slice.retire_at(slot);
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
            // SRL-style memory system: the program-order drain blocks the
            // tail (one store per cycle), as in SLTP.
            let drain_cycles = self.drain_scratch.len() as u64;
            self.eng.wait_until(start + drain_cycles, false);
        }
    }

    /// Defers the entry in slice slot `slot` to the misses in `poison`: the
    /// entry is re-poisoned in place and, if it is still its destination's
    /// last writer, so is the register.
    fn defer(&mut self, slot: usize, inst: &DynInst, poison: PoisonMask) {
        self.slice.repoison_at(slot, poison);
        let seq = self.slice.entry_at(slot).trace_idx as InstSeq;
        if let Some(dst) = inst.dst {
            if self.eng.rf.entry(dst).last_writer == Some(seq) {
                self.eng.rf.poison_write(dst, poison, seq);
            }
        }
    }
}

impl CoreEngine for IcfpMachine {
    fn model(&self) -> CoreModel {
        CoreModel::Icfp
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

    /// Checkpoints taken afterwards carry the seed (the machine serializes
    /// whole), so fast-forwarded runs mint ordinary `icfp-ckpt/v5`
    /// checkpoints.
    fn seed(&mut self, warm: &Arc<ArchState>) -> Result<(), String> {
        if self.i != 0 || self.eng.frontier != 0 || self.in_episode() || self.done {
            return Err("functional fast-forward requires a fresh machine".into());
        }
        self.eng.seed_arch(warm);
        self.i = warm.instructions as usize;
        Ok(())
    }

    fn processed(&self) -> usize {
        self.i
    }

    fn finish(mut self: Box<Self>, trace: &TraceCursor<'_>) -> RunResult {
        self.advance(trace, usize::MAX);
        self.eng.stats.slice_peak = self.slice.peak() as u64;
        self.eng.finish(CoreModel::Icfp.name(), trace)
    }

    fn save(&self) -> EngineSnapshot {
        EngineSnapshot {
            model: CoreModel::Icfp,
            bytes: serde::to_bytes(self),
        }
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), String> {
        check_model(snapshot, CoreModel::Icfp)?;
        *self = serde::from_bytes(&snapshot.bytes)
            .map_err(|e| format!("decoding icfp snapshot: {e}"))?;
        Ok(())
    }
}

/// Checkpoint codec for the machine: every *persistent* field is written in
/// declaration order; the rally/drain scratch buffers are pure per-step
/// staging (always drained before `advance` returns) and are rebuilt empty,
/// with their configured capacities, on restore, and the derived `earliest`
/// index and the slice buffer's recorded results are recomputed.
impl Serialize for IcfpMachine {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.eng.serialize(out);
        self.slice.serialize(out);
        self.sbuf.serialize(out);
        self.palloc.serialize(out);
        self.rallies.serialize(out);
        self.slice_values.serialize(out);
        self.i.serialize(out);
        self.done.serialize(out);
    }
}

impl Deserialize for IcfpMachine {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let eng: Engine = Deserialize::deserialize(r)?;
        // The scratch capacities below come from this configuration.
        if eng.cfg.validate().is_err() {
            return Err(serde::Error::invalid("core configuration", r.position()));
        }
        let (slice_cap, store_cap) = (
            eng.cfg.slice_buffer_entries,
            eng.cfg.store_buffer_entries,
        );
        let mut slice: SliceBuffer = Deserialize::deserialize(r)?;
        let sbuf = Deserialize::deserialize(r)?;
        let palloc = Deserialize::deserialize(r)?;
        let rallies: Vec<PendingRally> = Deserialize::deserialize(r)?;
        let slice_values: SliceValues = Deserialize::deserialize(r)?;
        slice.restore_results(|idx| slice_values.get(idx));
        Ok(IcfpMachine {
            eng,
            slice,
            sbuf,
            palloc,
            earliest: earliest_of(&rallies),
            rallies,
            slice_values,
            rally_scratch: Vec::with_capacity(slice_cap),
            drain_scratch: Vec::with_capacity(store_cap),
            i: Deserialize::deserialize(r)?,
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
        let mut m = Box::new(IcfpMachine::new(&cfg));
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
            let mut m = IcfpMachine::new(&CoreConfig::paper_default());
            m.eng.cfg.slice_buffer_entries = bad;
            let err = serde::from_bytes::<IcfpMachine>(&serde::to_bytes(&m)).unwrap_err();
            assert!(err.to_string().contains("core configuration"), "{err}");
        }
        // Flat tables whose own geometry disagrees with their length: the
        // machine's bytes with one structure's geometry rewritten (its last
        // encoding; the configuration copies come first).
        let bytes = serde::to_bytes(&IcfpMachine::new(&CoreConfig::paper_default()));
        let words = |w: &[u64]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let halves = |w: &[u32]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
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

    #[test]
    fn rally_stats_are_populated() {
        let t = independent_miss_trace(5);
        let r = run_icfp(&t);
        assert!(r.stats.slice_peak > 0);
        assert!(r.stats.advance_instructions > 0);
        assert_eq!(r.core, "icfp");
    }
}
