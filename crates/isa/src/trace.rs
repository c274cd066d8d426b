//! Dynamic-instruction traces.
//!
//! A [`Trace`] is the unit of work handed to the timing models: a finite,
//! correct-path dynamic instruction stream.  The synthetic workload generators
//! in `icfp-workloads` produce traces; the cores in `icfp-core` consume them.

use crate::{DynInst, Op};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A finite dynamic instruction stream.  An instruction's sequence number
/// ([`crate::InstSeq`]) is its position here, counted from 0; records carry
/// none of their own.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    insts: Vec<DynInst>,
    name: String,
    /// Cached content digest: computed on first [`Trace::digest`] call,
    /// invalidated by mutation.  Excluded from equality — it is derived
    /// state, and checkpoint resume validates against many shared
    /// references to one trace (the cache is what makes that O(1) after the
    /// first validation instead of O(len) per resume).
    digest: OnceLock<u64>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        // The digest cache is derived state; two traces are equal iff their
        // content is.
        self.insts == other.insts && self.name == other.name
    }
}

impl Trace {
    /// Creates a trace from a vector of instructions, in program order.
    pub fn new(name: impl Into<String>, insts: Vec<DynInst>) -> Self {
        Trace {
            insts,
            name: name.into(),
            digest: OnceLock::new(),
        }
    }

    /// The trace's human-readable name (workload / scenario identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at dynamic position `seq`.
    pub fn get(&self, seq: usize) -> Option<&DynInst> {
        self.insts.get(seq)
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.insts.iter()
    }

    /// The instructions as a slice.
    pub fn as_slice(&self) -> &[DynInst] {
        &self.insts
    }

    /// Content digest of the whole trace: a [`crate::InstDigest`] seeded with
    /// the name, over every instruction's position and field values, the
    /// length last.
    /// Checkpoints record it so a resume against the wrong trace — or a
    /// differently seeded regeneration of the "same" workload — is rejected
    /// instead of silently diverging.
    ///
    /// The length is folded in *last* so streaming producers (the
    /// `icfp-trace` writer, block generators) can compute the identical
    /// digest in one pass without knowing the final length up front; every
    /// [`crate::TraceSource`] implementation reports this same digest for the
    /// same content.
    ///
    /// Computed once and cached: repeated calls (one per checkpoint capture
    /// and per resume validation — sweeps make many against one shared
    /// trace) are O(1) after the first.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut d = crate::InstDigest::named(&self.name);
            for inst in &self.insts {
                d.push(inst);
            }
            d.finish()
        })
    }

    /// Summary statistics of the trace's instruction mix.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for i in &self.insts {
            s.instructions += 1;
            match i.op {
                Op::Load => s.loads += 1,
                Op::Store => s.stores += 1,
                Op::Branch | Op::Jump => s.branches += 1,
                Op::Mul | Op::FpMul => s.multiplies += 1,
                Op::FpAdd => s.fp_adds += 1,
                _ => s.alu_ops += 1,
            }
        }
        s
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;
    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl FromIterator<DynInst> for Trace {
    fn from_iter<T: IntoIterator<Item = DynInst>>(iter: T) -> Self {
        Trace::new("anonymous", iter.into_iter().collect())
    }
}

impl Extend<DynInst> for Trace {
    fn extend<T: IntoIterator<Item = DynInst>>(&mut self, iter: T) {
        self.digest.take(); // content changes: drop the cached digest
        self.insts.extend(iter);
    }
}

/// Instruction-mix statistics for a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic branches and jumps.
    pub branches: u64,
    /// Integer and floating-point multiplies.
    pub multiplies: u64,
    /// Floating-point adds.
    pub fp_adds: u64,
    /// Remaining single-cycle ALU operations (including nops).
    pub alu_ops: u64,
}

impl TraceStats {
    /// Fraction of instructions that are memory operations.
    pub fn mem_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.instructions as f64
        }
    }

    /// Fraction of instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }
}

/// Incremental builder for [`Trace`]s.
///
/// Assigns program counters (4-byte spaced) as instructions are pushed,
/// which keeps the workload generators simple; push order is position.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    name: String,
    insts: Vec<DynInst>,
    next_pc: u64,
}

impl TraceBuilder {
    /// Creates a builder for a trace with the given name.  Program counters
    /// start at `0x1000`.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0)
    }

    /// [`TraceBuilder::new`] with room for `insts` instructions reserved up
    /// front, so a producer that knows its length never grows the arena by
    /// doubling (nor leaves it up to half empty).
    pub fn with_capacity(name: impl Into<String>, insts: usize) -> Self {
        TraceBuilder {
            name: name.into(),
            insts: Vec::with_capacity(insts),
            next_pc: 0x1000,
        }
    }

    /// Appends an instruction, assigning its PC if it has none.
    pub fn push(&mut self, mut inst: DynInst) -> &mut Self {
        if inst.pc == 0 {
            inst.pc = self.next_pc;
        }
        self.next_pc = inst.pc + 4;
        self.insts.push(inst);
        self
    }

    /// Overrides the PC that will be assigned to the next pushed instruction.
    /// Used by generators that model loops (re-visiting the same static PCs),
    /// which matters for the branch predictor and stream prefetcher models.
    pub fn set_next_pc(&mut self, pc: u64) -> &mut Self {
        self.next_pc = pc;
        self
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finishes the trace.
    pub fn build(self) -> Trace {
        Trace {
            insts: self.insts,
            name: self.name,
            digest: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynInst, Op, Reg};

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new("t");
        b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(0), 1));
        b.push(DynInst::load(Reg::int(2), Reg::int(1), 0x100));
        b.push(DynInst::store(Reg::int(2), Reg::int(1), 0x108));
        b.push(DynInst::branch(Reg::int(2), true, 0x1000, 0.5));
        b.build()
    }

    #[test]
    fn builder_assigns_pc() {
        let t = small_trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0).unwrap().pc, 0x1000);
        assert_eq!(t.get(1).unwrap().pc, 0x1004);
        let mut b = TraceBuilder::new("t");
        b.push(DynInst::nop().with_pc(0x8000));
        b.push(DynInst::nop());
        let t = b.build();
        assert_eq!((t.get(0).unwrap().pc, t.get(1).unwrap().pc), (0x8000, 0x8004));
    }

    #[test]
    fn stats_count_classes() {
        let s = small_trace().stats();
        assert_eq!(s.instructions, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.alu_ops, 1);
        assert!((s.mem_fraction() - 0.5).abs() < 1e-9);
        assert!((s.branch_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn from_iterator_is_an_anonymous_trace() {
        let insts = small_trace().as_slice().to_vec();
        let t: Trace = insts.iter().copied().collect();
        assert_eq!(t, Trace::new("anonymous", insts));
    }

    #[test]
    fn extend_continues_sequence_numbers() {
        // Appended instructions sit at the old end onwards, so the digest is
        // the one of the whole sequence built at once.
        let mut t = small_trace();
        let tail = [DynInst::nop(), DynInst::nop()];
        t.extend(tail);
        assert_eq!(t.len(), 6);
        let mut whole = small_trace().as_slice().to_vec();
        whole.extend(tail);
        assert_eq!(t.digest(), Trace::new("t", whole).digest());
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.stats().mem_fraction(), 0.0);
    }

    #[test]
    fn set_next_pc_models_loops() {
        let mut b = TraceBuilder::new("loop");
        b.push(DynInst::nop());
        b.set_next_pc(0x1000);
        b.push(DynInst::nop());
        let t = b.build();
        assert_eq!(t.get(0).unwrap().pc, t.get(1).unwrap().pc);
    }

    #[test]
    fn digest_is_content_addressed_and_cache_invalidates_on_extend() {
        let build = |n: u64| {
            let mut b = TraceBuilder::new("dig");
            for k in 0..n {
                b.push(DynInst::alu_imm(Op::Add, crate::Reg::int(1), crate::Reg::int(2), k));
            }
            b.build()
        };
        let a = build(5);
        let b = build(5);
        assert_eq!(a.digest(), b.digest(), "same content, same digest");
        assert_eq!(a.digest(), a.digest(), "cached digest is stable");
        assert_ne!(a.digest(), build(6).digest());
        // Equality ignores the cache (b's digest not yet computed elsewhere).
        assert_eq!(a, b);
        // Mutation must drop the cached value.
        let mut c = build(5);
        let before = c.digest();
        c.extend([DynInst::nop()]);
        assert_ne!(c.digest(), before, "extend must invalidate the cache");
        // A clone carries content (and possibly the cache) — digests agree.
        assert_eq!(c.clone().digest(), c.digest());
    }
}
