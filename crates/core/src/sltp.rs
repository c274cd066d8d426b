//! SLTP — the Simple Latency Tolerant Processor (Nekkalapu et al.), the
//! closest contemporaneous design to iCFP and its main point of comparison.
//!
//! Like iCFP, SLTP un-blocks the pipeline on a qualifying miss, commits
//! miss-independent instructions and defers the miss forward slice into a
//! slice buffer.  It differs in two ways that the paper's Section 4 and the
//! Figure 7 build isolate:
//!
//! 1. **Memory system.** Advance stores go to a *store redo log* (SRL) and
//!    miss-independent stores also speculatively write the data cache.  Before
//!    a rally those speculatively-written lines must be flushed (hurting
//!    later locality), the SRL must be drained in program order interleaved
//!    with slice re-execution, and tail execution cannot resume until the
//!    drain finishes.
//! 2. **Blocking, single-pass rallies.** SLTP tracks only poison (no
//!    last-writer identity), so it cannot partially update the register file:
//!    the whole slice must re-execute successfully in one pass, and a
//!    dependent miss inside the slice stalls the rally until it returns.

use crate::common::{seed_start, Engine, OperandWait};
use crate::config::CoreConfig;
use crate::engine::CoreModel;
use crate::slicebuf::{SliceBuffer, SliceEntry};
use crate::storebuf::StoreRedoLog;
use icfp_isa::{exec, exec::ArchState, Cycle, OpClass, TraceCursor, Value, NUM_ARCH_REGS};
use icfp_pipeline::{PoisonMask, RunResult};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Episode {
    trigger_return: Cycle,
}

/// Simulates the trace to completion on the SLTP core, starting from the
/// functional fast-forward state `warm` if one is given.  Use
/// [`CoreConfig::sltp_default`] for the paper's advance policy (L2 misses
/// only).
pub(crate) fn run(cfg: &CoreConfig, trace: &TraceCursor<'_>, warm: Option<&ArchState>) -> RunResult {
    let mut eng = Engine::new(cfg);
    let start = seed_start(&mut eng, warm, trace.len());
    let l1_lat = cfg.mem.l1_hit_latency;
    let policy = cfg.advance_policy;
    let mut slice = SliceBuffer::new(cfg.slice_buffer_entries);
    let mut srl = StoreRedoLog::new(cfg.srl_entries);
    let mut episode: Option<Episode> = None;
    // Word address -> drain completion of the most recent committed store,
    // used for store-to-load forwarding outside advance mode.
    let mut recent_stores: HashMap<u64, Cycle> = HashMap::new();

    let mut i = start;
    while i < trace.len() || episode.is_some() {
        // A pending rally fires once execution time reaches the trigger's
        // return, or when the trace has run out.
        if let Some(ep) = episode {
            if eng.frontier >= ep.trigger_return || i >= trace.len() {
                let rally_start = ep.trigger_return;
                let rally_end = run_blocking_rally(
                    &mut eng,
                    trace,
                    &mut slice,
                    &mut srl,
                    rally_start,
                    l1_lat,
                );
                episode = None;
                eng.wait_until(rally_end, false);
                eng.fetch.stall_until(rally_end);
                eng.rf.clear_speculative_state();
                continue;
            }
        }
        if i >= trace.len() {
            break;
        }

        let inst = trace.get(i);
        let inst = &inst;
        let seq = i as u64;
        let in_advance = episode.is_some();

        // Structural stalls: a full slice buffer or SRL freezes advance
        // execution until the rally (SLTP has no other recourse).
        if in_advance && (slice.is_full() || srl.is_full()) {
            let ep = episode.expect("in advance");
            eng.stats.simple_runahead_entries += 1;
            eng.wait_until(ep.trigger_return, true);
            continue;
        }

        let (issue, src_poison) = eng.visit(inst, OperandWait::UnlessPoisoned, 0);
        debug_assert!(in_advance || src_poison.is_clean(), "every rally ends with a clean register file");
        if in_advance {
            eng.stats.advance_instructions += 1;
        }

        // Miss-dependent instructions drain into the slice buffer.
        if src_poison.is_poisoned() {
            push_slice(&mut eng, &mut slice, &mut srl, trace, i, issue);
            i += 1;
            continue;
        }

        match inst.class() {
            OpClass::Load => {
                let addr = inst.addr.expect("load without address");
                if !in_advance {
                    eng.stats.demand_loads += 1;
                }
                // Idealised memory dependence handling (Table 1): a load
                // that would forward from a still-poisoned SRL store is
                // itself miss-dependent.
                let srl_hit = srl
                    .iter()
                    .rev()
                    .find(|(sseq, a, _, _)| *sseq < seq && (*a & !7) == (addr & !7))
                    .copied();
                if let Some((_, _, v, p)) = srl_hit {
                    if p.is_poisoned() {
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, p, seq);
                        }
                        push_slice(&mut eng, &mut slice, &mut srl, trace, i, issue);
                        i += 1;
                        continue;
                    }
                    eng.stats.store_forwards += 1;
                    if let Some(dst) = inst.dst {
                        eng.rf.write(dst, v, issue + l1_lat, seq);
                    }
                    eng.note_completion(issue + l1_lat);
                    i += 1;
                    continue;
                }
                // Forward from a recent committed store still draining.
                if !in_advance {
                    if let Some(&done) = recent_stores.get(&(addr & !7)) {
                        if done > issue {
                            eng.stats.store_forwards += 1;
                            if let Some(dst) = inst.dst {
                                eng.rf.write(dst, eng.arch_mem.read(addr), issue + l1_lat, seq);
                            }
                            eng.note_completion(issue + l1_lat);
                            i += 1;
                            continue;
                        }
                    }
                }
                let (completes, outcome, _) = eng.demand_load(addr, issue);
                let value = eng.arch_mem.read(addr);
                let is_miss = outcome.is_l1_miss() && completes > issue + l1_lat;
                let is_l2_miss = outcome.is_l2_miss();
                if !in_advance {
                    if is_miss && policy.triggers_on(is_l2_miss) {
                        // Enter advance mode; the missing load is the first
                        // slice entry.
                        eng.stats.advance_episodes += 1;
                        episode = Some(Episode {
                            trigger_return: completes,
                        });
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                        }
                        push_slice(&mut eng, &mut slice, &mut srl, trace, i, issue);
                    } else {
                        if let Some(dst) = inst.dst {
                            eng.rf.write(dst, value, completes, seq);
                        }
                        eng.note_completion(completes);
                    }
                } else {
                    // Secondary miss during advance.
                    let tolerate = if is_l2_miss {
                        true
                    } else {
                        policy.poisons_secondary_dcache()
                    };
                    if is_miss && tolerate {
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                        }
                        push_slice(&mut eng, &mut slice, &mut srl, trace, i, issue);
                    } else {
                        // Hit, or a data-cache miss SLTP blocks on.
                        if let Some(dst) = inst.dst {
                            eng.rf.write(dst, value, completes, seq);
                        }
                        eng.note_completion(completes);
                    }
                }
            }
            OpClass::Store => {
                let addr = inst.addr.expect("store without address");
                let data = inst.store_data_reg().map(|r| eng.rf.value(r)).unwrap_or(0);
                if in_advance {
                    // Miss-independent advance store: logged in the SRL and
                    // speculatively written to the data cache.
                    if srl.push(seq, addr, data, PoisonMask::CLEAN).is_err() {
                        eng.stats.simple_runahead_entries += 1;
                    }
                    let _ = eng.demand_store(addr, issue + 1);
                    eng.note_completion(issue + 1);
                } else {
                    eng.arch_mem.write(addr, data);
                    let done = eng.demand_store(addr, issue + 1);
                    recent_stores.insert(addr & !7, done);
                    eng.note_completion(issue + 1);
                }
            }
            OpClass::Branch => {
                let resolve = issue + inst.latency();
                eng.exec_branch(inst, resolve);
                eng.note_completion(resolve);
            }
            _ => {
                let completes = issue + inst.latency();
                if let (Some(dst), Some(v)) = (inst.dst, eng.compute(inst)) {
                    eng.rf.write(dst, v, completes, seq);
                }
                eng.note_completion(completes);
            }
        }
        i += 1;
    }
    eng.finish(CoreModel::Sltp.name(), trace)
}

/// Diverts instruction `i` into the slice buffer, capturing its currently
/// available (non-poisoned) source values, and poisons its destination.
/// Stores additionally log a (data-poisoned) SRL entry so program-order
/// draining still works.
fn push_slice(
    eng: &mut Engine,
    slice: &mut SliceBuffer,
    srl: &mut StoreRedoLog,
    trace: &TraceCursor<'_>,
    i: usize,
    issue: Cycle,
) {
    let inst = trace.get(i);
    let inst = &inst;
    let seq = i as u64;
    let mut poison = eng.src_poison(inst);
    if poison.is_clean() {
        poison = PoisonMask::bit(0);
    }
    eng.stats.sliced_instructions += 1;
    let entry = SliceEntry {
        trace_idx: i,
        seq_from_ckpt: seq,
        src1_value: eng.rf.clean_value(inst.src1),
        src2_value: eng.rf.clean_value(inst.src2),
        // SLTP's blocking rally resolves operands through its own register
        // scratch, not producer pointers.
        src1_producer: usize::MAX,
        src2_producer: usize::MAX,
        store_color: 0,
        poison,
        active: true,
    };
    // The paper's SLTP stalls when the slice buffer fills; the caller checks
    // capacity before processing, so a failure here only happens for the
    // entry that tipped it over — treat it as a stall marker.
    if slice.push(entry).is_err() {
        eng.stats.simple_runahead_entries += 1;
    }
    if let Some(dst) = inst.dst {
        eng.rf.poison_write(dst, poison, seq);
    }
    if inst.is_store() {
        if let Some(addr) = inst.addr {
            let _ = srl.push(seq, addr, 0, poison);
        }
    }
    eng.note_completion(issue + 1);
}

/// Executes SLTP's single blocking rally: flushes speculatively-written lines,
/// re-executes the slice in program order (waiting on any dependent miss),
/// resolves SRL values and finally drains the SRL to memory.  Returns the
/// cycle at which tail execution may resume.
fn run_blocking_rally(
    eng: &mut Engine,
    trace: &TraceCursor<'_>,
    slice: &mut SliceBuffer,
    srl: &mut StoreRedoLog,
    start: Cycle,
    l1_lat: u64,
) -> Cycle {
    eng.stats.rally_passes += 1;
    // Flush speculatively written lines (the SRL/SLTP penalty the paper
    // describes for galgel): they must be re-fetched on next use.
    for (_, a, _, _) in srl.iter() {
        eng.mem.invalidate_l1(*a);
    }

    // Scratch register values produced by earlier slice instructions in this
    // rally, by register index.
    let mut scratch: [Option<(Value, Cycle)>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
    let mut rally_frontier = start;
    let mut slice_end = start;
    // The whole slice re-executes in this one pass and is squashed after it,
    // so entries are read in place and never individually retired.
    for e in slice.active_entries() {
        eng.stats.rally_instructions += 1;
        let inst = trace.get(e.trace_idx);
        let inst = &inst;
        let seq = e.trace_idx as u64;
        // Operand resolution: captured side inputs or scratch register values.
        let mut ready = rally_frontier;
        let mut vals = [0u64; 2];
        for (k, (src, cap)) in [(inst.src1, e.src1_value), (inst.src2, e.src2_value)]
            .into_iter()
            .enumerate()
        {
            if src.is_none() {
                continue;
            }
            if let Some(v) = cap {
                vals[k] = v;
            } else if let Some((v, r)) = scratch[src.unwrap().index()] {
                vals[k] = v;
                ready = ready.max(r);
            }
        }
        let issue = eng.issue_at(inst.class(), ready.max(rally_frontier));
        rally_frontier = issue + 1;

        let (value, completes) = match inst.class() {
            OpClass::Load => {
                let addr = inst.addr.expect("load");
                // Forward from an older SRL store if one matches.
                let srl_hit = srl
                    .iter()
                    .rev()
                    .find(|(sseq, a, _, _)| *sseq < seq && (*a & !7) == (addr & !7))
                    .copied();
                if let Some((_, _, v, p)) = srl_hit {
                    debug_assert!(p.is_clean(), "older slice store must already be resolved");
                    eng.stats.store_forwards += 1;
                    (Some(v), issue + l1_lat)
                } else {
                    // Blocking rally: wait for the access, however long.
                    let (completes, _, _) = eng.demand_load(addr, issue);
                    (Some(eng.arch_mem.read(addr)), completes)
                }
            }
            OpClass::Store => {
                let data_reg = inst.store_data_reg();
                let v = data_reg
                    .and_then(|r| scratch[r.index()])
                    .map(|(v, _)| v)
                    .or(e.src2_value.or(e.src1_value))
                    .unwrap_or(0);
                srl.resolve_value(seq, v);
                (None, issue + 1)
            }
            OpClass::Branch => {
                let resolve = issue + 1;
                eng.exec_branch(inst, resolve);
                (None, resolve)
            }
            _ => {
                let v = exec::compute(inst, vals[0], vals[1], |a| eng.arch_mem.read(a));
                (v, issue + inst.latency())
            }
        };
        if let (Some(dst), Some(v)) = (inst.dst, value) {
            scratch[dst.index()] = Some((v, completes));
            eng.rf.rally_write(dst, v, completes, seq);
        }
        // Blocking rally: a missing load stalls the rally until it returns.
        if inst.is_load() {
            rally_frontier = rally_frontier.max(completes);
        }
        slice_end = slice_end.max(completes);
        eng.note_completion(completes);
    }
    slice.clear();

    // Drain the SRL in program order; tail execution waits for the drain.
    let drained = srl.drain();
    let drain_cycles = drained.len() as u64;
    for (_, addr, value) in drained {
        eng.arch_mem.write(addr, value);
        let _ = eng.demand_store(addr, rally_frontier);
    }
    // Tail execution resumes only after both the slice re-execution and the
    // program-order SRL drain (one store per cycle) have finished.
    let rally_end = slice_end.max(rally_frontier).max(start + drain_cycles);
    eng.note_completion(rally_end);
    rally_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::golden_final_state;
    use crate::config::AdvancePolicy;
    use crate::engine::run_model;
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};

    fn lone_miss_trace() -> Trace {
        // Figure 1a: one L2 miss, one dependent instruction, then independent
        // work.  SLTP/iCFP win here; Runahead does not.
        let mut b = TraceBuilder::new("lone-miss");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        for j in 0..40u64 {
            b.push(DynInst::alu_imm(Op::Mul, Reg::int(4), Reg::int(4), j | 1));
        }
        b.build()
    }

    #[test]
    fn sltp_matches_golden_state() {
        let t = lone_miss_trace();
        let r = run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn sltp_beats_in_order_and_runahead_on_a_lone_miss() {
        let t = lone_miss_trace();
        let base = run_model(CoreModel::InOrder, &CoreConfig::paper_default(), &t);
        let ra = run_model(CoreModel::Runahead, &CoreConfig::runahead_default(), &t);
        let sltp = run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), &t);
        assert!(
            sltp.stats.cycles < base.stats.cycles,
            "sltp {} vs in-order {}",
            sltp.stats.cycles,
            base.stats.cycles
        );
        assert!(
            sltp.stats.cycles <= ra.stats.cycles,
            "sltp {} should not lose to runahead {} on a lone miss",
            sltp.stats.cycles,
            ra.stats.cycles
        );
    }

    #[test]
    fn sltp_commits_independent_work_and_only_replays_the_slice() {
        let t = lone_miss_trace();
        let sltp = run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), &t);
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
        b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x500)); // forwards from SRL
        b.push(DynInst::load(Reg::int(7), Reg::int(5), 0x400)); // must see the *younger* store
        let t = b.build();
        let r = run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), &t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs, "register state diverged");
        assert_eq!(r.final_mem, mem, "memory state diverged");
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
        let t = b.build();
        let r = run_model(CoreModel::Sltp, &CoreConfig::sltp_default(), &t);
        assert!(
            r.stats.cycles > 800,
            "dependent misses must serialize under SLTP, got {}",
            r.stats.cycles
        );
    }

    #[test]
    fn all_miss_policy_also_advances_on_dcache_misses() {
        let mut cfg = CoreConfig::sltp_default().with_advance_policy(AdvancePolicy::AllMisses);
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
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }
}
