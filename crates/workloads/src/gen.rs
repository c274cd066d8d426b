//! Resumable generator state machines behind the synthetic workloads.
//!
//! Each of the four standard generators is a small cloneable state machine
//! (`Gen`) that emits one *burst* (one loop iteration of the original
//! generator, 1–8 instructions) per call.  The same state machine drives two
//! frontends:
//!
//! * `materialize` — run bursts into a [`TraceBuilder`] until the budget is
//!   met, producing exactly the `Trace` the pre-streaming generators built
//!   (bit-identical content, digests unchanged), in an arena reserved at
//!   its final size;
//! * [`WorkloadSource`] — a streaming [`TraceSource`]: the constructor makes
//!   one O(total) scan recording a tiny resume snapshot (generator clone +
//!   PC and position state + the few overshoot instructions of a split
//!   burst) per block boundary, and [`TraceSource::block`] re-generates any
//!   block from its snapshot on demand.  A 100M-instruction pointer-chase
//!   is never resident beyond a handful of blocks plus the boundary table.

use crate::SplitMix64;
use icfp_isa::source::{
    block_digest_at, BlockCache, Residency, TraceBlock, TraceSource, TraceSourceError, WarmStore,
};
use icfp_isa::{inst_mix, DynInst, InstDigest, InstSeq, Op, Reg, Trace, TraceBuilder};
use std::collections::VecDeque;
use std::sync::Arc;

/// A consumer of generated instructions, mirroring the [`TraceBuilder`]
/// surface the original generators were written against (push order is
/// position; zero PCs are assigned from a running counter;
/// [`TraceSink::set_next_pc`] models loops).  Implemented by
/// [`TraceBuilder`], by the streaming emitter here, and by the
/// `icfp-trace/v1` writer adapter in the converter.
pub trait TraceSink {
    /// Appends one instruction.
    fn push(&mut self, inst: DynInst);
    /// Overrides the PC assigned to the next zero-PC instruction.
    fn set_next_pc(&mut self, pc: u64);
    /// Instructions emitted so far (the generators' loop-budget condition).
    fn emitted(&self) -> usize;
}

impl TraceSink for TraceBuilder {
    fn push(&mut self, inst: DynInst) {
        TraceBuilder::push(self, inst);
    }

    fn set_next_pc(&mut self, pc: u64) {
        TraceBuilder::set_next_pc(self, pc);
    }

    fn emitted(&self) -> usize {
        self.len()
    }
}

// ---------------------------------------------------------------------------
// The four generator state machines
// ---------------------------------------------------------------------------

/// Pointer-chase state (see [`crate::pointer_chase`]).
#[derive(Debug, Clone)]
pub(crate) struct PointerChaseGen {
    rng: SplitMix64,
    slots: u64,
    cursor: u64,
}

impl PointerChaseGen {
    pub(crate) fn new(working_set: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        let slots = (working_set / 64).max(4);
        let cursor = rng.below(slots);
        PointerChaseGen { rng, slots, cursor }
    }

    fn burst(&mut self, b: &mut dyn TraceSink) {
        let base = 0x10_0000u64;
        let addr = base + self.cursor * 64;
        // The chase: ld r1, [r1]; the trace pre-resolves the address.
        b.push(DynInst::load(Reg::int(1), Reg::int(1), addr));
        // A short dependent computation on the loaded value.
        b.push(DynInst::alu_imm(Op::Add, Reg::int(2), Reg::int(1), 1));
        b.push(DynInst::alu(Op::Xor, Reg::int(3), Reg::int(2), Reg::int(3)));
        // Some independent work the pipeline could overlap.
        for _ in 0..self.rng.below(4) {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), 3));
        }
        self.cursor = self.rng.below(self.slots);
    }
}

/// Data-cache-thrash state (see [`crate::dcache_thrash`]).
#[derive(Debug, Clone)]
pub(crate) struct DcacheThrashGen {
    rng: SplitMix64,
    slots: u64,
}

impl DcacheThrashGen {
    pub(crate) fn new(working_set: u64, seed: u64) -> Self {
        DcacheThrashGen {
            rng: SplitMix64::new(seed ^ 0xD0_D0),
            slots: (working_set / 64).max(8),
        }
    }

    fn burst(&mut self, b: &mut dyn TraceSink) {
        let base = 0x40_0000u64;
        let addr = base + self.rng.below(self.slots) * 64;
        let dst = 1 + (self.rng.below(6) as usize);
        b.push(DynInst::load(Reg::int(dst), Reg::int(7), addr));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(8), Reg::int(dst), 1));
        for _ in 0..2 + self.rng.below(4) {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(9), Reg::int(10), 5));
        }
        if self.rng.chance(0.25) {
            // Occasional store to a recently loaded line: forwarding traffic.
            b.push(DynInst::store(Reg::int(8), Reg::int(7), addr ^ 8));
        }
    }
}

/// Branchy-code state (see [`crate::branchy`]).
#[derive(Debug, Clone)]
pub(crate) struct BranchyGen {
    rng: SplitMix64,
    bias_state: u64,
}

impl BranchyGen {
    pub(crate) fn new(seed: u64) -> Self {
        BranchyGen {
            rng: SplitMix64::new(seed ^ 0xB4A4C4),
            bias_state: 0,
        }
    }

    fn burst(&mut self, b: &mut dyn TraceSink) {
        let pc = 0x2000 + self.rng.below(16) * 8;
        let hard = self.rng.chance(0.3);
        self.bias_state = self
            .bias_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        let taken = if hard {
            self.rng.chance(0.5)
        } else {
            self.bias_state & 0xF != 0 // ~94% taken
        };
        let predictability = if hard { 0.55 } else { 0.95 };
        b.push(DynInst::alu_imm(Op::CmpLt, Reg::int(1), Reg::int(2), 1));
        b.set_next_pc(pc);
        b.push(DynInst::branch(Reg::int(1), taken, 0x4000 + pc, predictability));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(3), 1));
    }
}

/// Streaming-walk state (see [`crate::streaming`]).
#[derive(Debug, Clone)]
pub(crate) struct StreamingGen {
    base: u64,
    off: u64,
}

impl StreamingGen {
    pub(crate) fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x57_12EA);
        StreamingGen {
            base: 0x80_0000u64 + rng.below(64) * 4096,
            off: 0,
        }
    }

    fn burst(&mut self, b: &mut dyn TraceSink) {
        b.push(DynInst::load(Reg::int(1), Reg::int(2), self.base + self.off));
        b.push(DynInst::alu(Op::FpAdd, Reg::fp(1), Reg::fp(1), Reg::fp(2)));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 7));
        if self.off % 128 == 64 {
            b.push(DynInst::store(
                Reg::int(3),
                Reg::int(4),
                self.base + 0x200_0000 + self.off,
            ));
        }
        self.off += 8;
    }
}

/// The most instructions one burst emits (dcache-thrash: load, add, up to
/// five adds, a store), so a budget is overshot by less than this.
const MAX_BURST: usize = 8;

/// One of the four generator state machines, as a cloneable value (the
/// block-boundary resume snapshot is literally a clone of this).
#[derive(Debug, Clone)]
pub(crate) enum Gen {
    Chase(PointerChaseGen),
    Thrash(DcacheThrashGen),
    Branchy(BranchyGen),
    Streaming(StreamingGen),
}

impl Gen {
    /// Emits one burst (one loop iteration of the original generator).
    fn burst(&mut self, sink: &mut dyn TraceSink) {
        match self {
            Gen::Chase(g) => g.burst(sink),
            Gen::Thrash(g) => g.burst(sink),
            Gen::Branchy(g) => g.burst(sink),
            Gen::Streaming(g) => g.burst(sink),
        }
    }
}

/// Runs `gen` into a fresh [`TraceBuilder`] until at least `insts`
/// instructions exist — byte-for-byte what the pre-streaming generator
/// functions produced.  The arena is reserved once, for the budget plus one
/// burst, so it never grows and never holds more than that spare.
pub(crate) fn materialize(name: &str, mut gen: Gen, insts: usize) -> Trace {
    let mut b = TraceBuilder::with_capacity(name, insts + MAX_BURST);
    while b.len() < insts {
        gen.burst(&mut b);
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Streaming emission
// ---------------------------------------------------------------------------

/// PC assignment and position state plus the overshoot queue of a split burst —
/// everything (besides the generator itself) needed to resume emission at an
/// arbitrary instruction boundary.
#[derive(Debug, Clone)]
struct EmitState {
    gen: Gen,
    next_pc: u64,
    /// Instructions emitted so far == the position of the next one (bursts
    /// check this against the budget).
    emitted: usize,
    /// Instructions a burst emitted past the point we have consumed
    /// (already PC-assigned).  Bounded by the largest burst ([`MAX_BURST`]).
    pending: VecDeque<DynInst>,
}

impl EmitState {
    fn new(gen: Gen) -> Self {
        EmitState {
            gen,
            next_pc: 0x1000,
            emitted: 0,
            pending: VecDeque::new(),
        }
    }

    /// Pulls the next instruction of the logical stream, or `None` once the
    /// generator's budget condition (`emitted >= target`) stops it.
    fn next(&mut self, target: usize) -> Option<DynInst> {
        if let Some(i) = self.pending.pop_front() {
            return Some(i);
        }
        // The original generators loop `while emitted < target { burst }`:
        // a burst fires iff the count *before* it is under budget.
        if self.emitted >= target {
            return None;
        }
        let mut sink = PendingSink {
            pending: &mut self.pending,
            next_pc: &mut self.next_pc,
            emitted: &mut self.emitted,
        };
        self.gen.burst(&mut sink);
        self.pending.pop_front()
    }
}

/// [`TraceSink`] that assigns PCs exactly like [`TraceBuilder`] but emits
/// into the overshoot queue instead of an arena.
struct PendingSink<'a> {
    pending: &'a mut VecDeque<DynInst>,
    next_pc: &'a mut u64,
    emitted: &'a mut usize,
}

impl TraceSink for PendingSink<'_> {
    fn push(&mut self, mut inst: DynInst) {
        if inst.pc == 0 {
            inst.pc = *self.next_pc;
        }
        *self.next_pc = inst.pc + 4;
        *self.emitted += 1;
        self.pending.push_back(inst);
    }

    fn set_next_pc(&mut self, pc: u64) {
        *self.next_pc = pc;
    }

    fn emitted(&self) -> usize {
        *self.emitted
    }
}

/// Streaming [`TraceSource`] over a synthetic generator: block `k` is
/// re-generated on demand from the boundary snapshot recorded during the
/// constructor's single scan.  Content, digests and block geometry are
/// identical to materializing the same generator and wrapping it in an
/// [`icfp_isa::ArenaSource`] with the same block size — streamed and
/// arena-backed simulations are bit-identical.
#[derive(Debug)]
pub struct WorkloadSource {
    name: String,
    target: usize,
    total: usize,
    block_size: usize,
    whole_digest: u64,
    block_digests: Vec<u64>,
    boundaries: Vec<EmitState>,
    residency: Arc<Residency>,
    /// Bounded MRU cache of regenerated blocks: regeneration is cheap,
    /// residency is what matters.
    cache: BlockCache,
    warm: WarmStore,
}

/// Regenerated blocks kept resident per source (current + lookback).
const GEN_RESIDENT_BLOCKS: usize = 3;

impl WorkloadSource {
    pub(crate) fn new(name: &str, gen: Gen, insts: usize, block_size: usize) -> Self {
        let block_size = block_size.max(1);
        let mut emit = EmitState::new(gen);
        let mut boundaries = Vec::new();
        let mut block_digests = Vec::new();
        let mut whole = InstDigest::named(name);
        let mut pos: InstSeq = 0;
        loop {
            boundaries.push(emit.clone());
            // One mix per instruction, folded into both chains.
            let mut block = InstDigest::at(pos);
            let mut len = 0;
            while len < block_size {
                let Some(inst) = emit.next(insts) else { break };
                let mix = inst_mix(pos, &inst);
                pos += 1;
                whole.push_mix(mix);
                block.push_mix(mix);
                len += 1;
            }
            if len == 0 {
                boundaries.pop();
                break;
            }
            block_digests.push(block.finish());
            if len < block_size {
                break;
            }
        }
        let total = emit.emitted;
        WorkloadSource {
            name: name.to_string(),
            target: insts,
            total,
            block_size,
            whole_digest: whole.finish(),
            block_digests,
            boundaries,
            residency: Arc::new(Residency::default()),
            cache: BlockCache::new(GEN_RESIDENT_BLOCKS),
            warm: WarmStore::default(),
        }
    }
}

impl TraceSource for WorkloadSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.total
    }

    fn digest(&self) -> u64 {
        self.whole_digest
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn block(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        self.cache.get_or_insert(index, || {
            let Some(boundary) = self.boundaries.get(index) else {
                return Err(TraceSourceError::BlockOutOfRange {
                    index,
                    count: self.boundaries.len(),
                });
            };
            let mut emit = boundary.clone();
            let mut insts = Vec::with_capacity(self.block_size);
            while insts.len() < self.block_size {
                match emit.next(self.target) {
                    Some(i) => insts.push(i),
                    None => break,
                }
            }
            // The scan's digest is what consumers were promised (checkpoint
            // resume validates against it), so a regeneration that diverges
            // from it is refused, in every profile.
            let first = index * self.block_size;
            let found = block_digest_at(first as InstSeq, &insts);
            let expected = self.block_digests[index];
            if found != expected {
                return Err(TraceSourceError::BlockDigestMismatch { index, expected, found });
            }
            Ok(Arc::new(TraceBlock::counted(first, insts, &self.residency)))
        })
    }

    fn block_digest(&self, index: usize) -> Result<u64, TraceSourceError> {
        self.block_digests
            .get(index)
            .copied()
            .ok_or(TraceSourceError::BlockOutOfRange {
                index,
                count: self.block_digests.len(),
            })
    }

    fn residency(&self) -> Option<&Residency> {
        Some(&self.residency)
    }

    fn warm(&self) -> Option<&WarmStore> {
        Some(&self.warm)
    }
}

impl From<WorkloadSource> for Arc<dyn TraceSource> {
    fn from(src: WorkloadSource) -> Self {
        Arc::new(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_regeneration_that_diverges_from_the_scan_is_a_typed_error() {
        let gen = Gen::Chase(PointerChaseGen::new(1 << 20, 7));
        let mut src = WorkloadSource::new("pointer-chase", gen, 300, 64);
        // Damage one stored boundary: block 1 now regenerates at other PCs.
        src.boundaries[1].next_pc += 4;
        src.block(0).expect("block 0 resumes from an intact boundary");
        let expected = src.block_digests[1];
        match src.block(1) {
            Err(TraceSourceError::BlockDigestMismatch { index: 1, expected: e, found }) => {
                assert_eq!(e, expected);
                assert_ne!(found, expected);
            }
            other => panic!("expected a digest mismatch, got {other:?}"),
        }
    }
}
