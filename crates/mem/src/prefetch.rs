//! Hardware stream-buffer prefetcher.
//!
//! The paper's baseline includes "8 stream buffers with 8 128-byte blocks
//! each" (Table 1) — an important detail, because all reported speedups are
//! *on top of* stream prefetching.  Each stream buffer follows a sequential
//! stream of L2-line-sized blocks.  A demand miss that hits in a stream buffer
//! is serviced from it (at the block's arrival time) and the stream runs
//! ahead by one more block; a demand miss that hits no buffer allocates a new
//! stream (round-robin over the buffers) starting at the next sequential
//! block.
//!
//! Every L1 miss asks the prefetcher twice whether some buffer holds a block
//! (the probe, then the "already covered" test when it trains a stream), and
//! nearly always the answer is no.  A counting presence filter over the held
//! blocks answers that no without looking at the table; only a block the
//! filter may hold costs a pass over it.

use icfp_isa::{Addr, Cycle};
use serde::{Deserialize, Reader, Serialize};

/// A prefetch request the hierarchy should issue on behalf of the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Block-aligned address to prefetch.
    pub block_addr: Addr,
    /// Which stream buffer the block belongs to.
    pub buffer: usize,
}

/// An empty slot of the block table, and the next block of a buffer that
/// holds no stream.  Blocks are aligned to the (at least two-byte) block
/// size, so no block address is odd.
const EMPTY: Addr = 1;

/// The stream-buffer prefetch engine.
///
/// One flat `buffers × depth` block table: buffer `b` owns slots
/// `b * depth .. (b + 1) * depth`, its blocks packed at the front in arrival
/// order and the rest empty (an odd sentinel).  A lookup is one pass over
/// the table, taken only when the presence filter may hold the block.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    depth: usize,
    block_bytes: u64,
    /// Per buffer: the next block the stream will prefetch; [`EMPTY`] while
    /// the buffer holds no stream.
    next_block: Vec<Addr>,
    /// Per buffer: the block address the stream was trained on (its low end).
    stream_base: Vec<Addr>,
    /// Per buffer: cycle of last use, for round-robin-with-LRU allocation.
    last_use: Vec<Cycle>,
    /// Block address held / in flight in each slot.
    blocks: Vec<Addr>,
    /// Arrival cycle of each slot's block; stale in an empty slot, and not
    /// serialized there.
    ready: Vec<Cycle>,
    /// The index below is derived from `blocks`: not in the serialized form,
    /// rebuilt on decode.  Per buffer: how many of its slots hold a block
    /// (the packed front), so an arrival takes the next free slot directly.
    filled: Vec<usize>,
    /// Counting presence filter: per counter, how many held blocks hash to
    /// it ([`StreamPrefetcher::counter`]).  Zero means no slot holds any
    /// block of that hash.  A power-of-two length of at least four counters
    /// per slot.
    present: Vec<u32>,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with `num_buffers` stream buffers, each holding up
    /// to `depth` blocks of `block_bytes` bytes (a power of two of at least
    /// 2).
    pub fn new(num_buffers: usize, depth: usize, block_bytes: u64) -> Self {
        let mut p = StreamPrefetcher {
            depth,
            block_bytes,
            next_block: vec![EMPTY; num_buffers],
            stream_base: vec![0; num_buffers],
            last_use: vec![0; num_buffers],
            blocks: vec![EMPTY; num_buffers * depth],
            ready: vec![0; num_buffers * depth],
            filled: Vec::new(),
            present: Vec::new(),
        };
        p.index();
        p
    }

    /// Builds the derived index from the block table; false if some buffer
    /// holds a block after an empty slot (the table is not packed).
    fn index(&mut self) -> bool {
        self.filled = vec![0; self.next_block.len()];
        self.present = vec![0; self.blocks.len().saturating_mul(4).max(4).next_power_of_two()];
        for (b, slots) in self.blocks.chunks(self.depth.max(1)).enumerate() {
            self.filled[b] = slots.iter().take_while(|&&a| a != EMPTY).count();
            if slots[self.filled[b]..].iter().any(|&a| a != EMPTY) {
                return false;
            }
        }
        for k in 0..self.blocks.len() {
            if self.blocks[k] != EMPTY {
                let c = self.counter(self.blocks[k]);
                self.present[c] += 1;
            }
        }
        true
    }

    /// Block-aligned address for this prefetcher's block size.
    pub fn block_addr(&self, addr: Addr) -> Addr {
        addr & !(self.block_bytes - 1)
    }

    /// The presence-filter counter of `block`: its block number,
    /// Fibonacci-hashed so strided streams spread over the counters.
    #[inline]
    fn counter(&self, block: Addr) -> usize {
        let number = block >> self.block_bytes.trailing_zeros();
        let bits = self.present.len().trailing_zeros();
        (number.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The first slot holding `block`, in table order.
    #[inline]
    fn slot_of(&self, block: Addr) -> Option<usize> {
        if self.present[self.counter(block)] == 0 {
            return None;
        }
        self.blocks.iter().position(|&a| a == block)
    }

    /// Probes the stream buffers for `addr`.  On a hit, the block is consumed,
    /// its arrival cycle is returned, and the stream is extended by one block
    /// (returned as a new prefetch request).
    pub fn probe(
        &mut self,
        addr: Addr,
        now: Cycle,
    ) -> (Option<Cycle>, Option<PrefetchRequest>) {
        let block = self.block_addr(addr);
        let Some(slot) = self.slot_of(block) else {
            return (None, None);
        };
        let ready = self.ready[slot];
        // Remove the block, keeping the order of the rest of its buffer: its
        // filled front shifts down by one.
        let buffer = slot / self.depth;
        let end = buffer * self.depth + self.filled[buffer];
        self.blocks.copy_within(slot + 1..end, slot);
        self.ready.copy_within(slot + 1..end, slot);
        self.blocks[end - 1] = EMPTY;
        self.filled[buffer] -= 1;
        let c = self.counter(block);
        self.present[c] -= 1;
        self.last_use[buffer] = now;
        // Keep the stream running ahead (the buffer now has room).
        let next = self.next_block[buffer];
        self.next_block[buffer] = next.wrapping_add(self.block_bytes);
        (
            Some(ready.max(now)),
            Some(PrefetchRequest {
                block_addr: next,
                buffer,
            }),
        )
    }

    /// Notifies the prefetcher of a demand miss that no stream buffer covered.
    /// Allocates (or re-targets) a stream buffer starting at the next
    /// sequential block and returns the initial burst of prefetch requests —
    /// an iterator over plain values, so training on a miss allocates nothing.
    pub fn on_demand_miss(
        &mut self,
        addr: Addr,
        now: Cycle,
    ) -> impl ExactSizeIterator<Item = PrefetchRequest> {
        let (first, buffer, blocks) = self.allocate_stream(addr, now).unwrap_or((0, 0, 0));
        let block_bytes = self.block_bytes;
        (0..blocks).map(move |k| PrefetchRequest {
            block_addr: first.wrapping_add(block_bytes.wrapping_mul(k as u64)),
            buffer,
        })
    }

    /// Re-targets a stream buffer at the block after `addr`'s and accounts
    /// for its initial burst: `(first block, buffer, blocks)`, or `None` when
    /// there is no buffer or an active stream already covers the miss.
    fn allocate_stream(&mut self, addr: Addr, now: Cycle) -> Option<(Addr, usize, usize)> {
        let block = self.block_addr(addr);
        let next = block.wrapping_add(self.block_bytes);
        // Don't steal a buffer that is already streaming over this address:
        // some active stream holds the missing block's successor (inactive
        // buffers hold no blocks) or its span covers the miss.
        if self.next_block.is_empty() || self.slot_of(next).is_some() {
            return None;
        }
        // One walk over the buffers both checks span coverage and picks the
        // victim: the least-recently-used buffer, inactive buffers first, the
        // first such on a tie.  Like `Cache::fill`'s pass it runs backwards,
        // so each pick is a plain overwrite in conditional moves.
        let (mut covered, mut victim, mut victim_active, mut victim_use) = (false, 0, true, Cycle::MAX);
        let buffers = self.stream_base.iter().zip(&self.next_block).zip(&self.last_use);
        for (b, ((&base, &high), &last_use)) in buffers.enumerate().rev() {
            let active = high != EMPTY;
            covered |= active & ((high == next) | ((block >= base) & (next <= high)));
            let older = (!active & victim_active) | ((active == victim_active) & (last_use <= victim_use));
            victim = if older { b } else { victim };
            victim_active = if older { active } else { victim_active };
            victim_use = if older { last_use } else { victim_use };
        }
        if covered {
            return None;
        }
        let start = victim * self.depth;
        for k in start..start + self.filled[victim] {
            let c = self.counter(self.blocks[k]);
            self.present[c] -= 1;
            self.blocks[k] = EMPTY;
        }
        self.filled[victim] = 0;
        self.last_use[victim] = now;
        self.stream_base[victim] = block;
        self.next_block[victim] = next.wrapping_add(self.block_bytes.wrapping_mul(self.depth as u64));
        Some((next, victim, self.depth))
    }

    /// Records that a previously requested prefetch block will arrive at
    /// `ready_at`.  Blocks beyond the buffer's depth are dropped.
    pub fn record_arrival(&mut self, req: PrefetchRequest, ready_at: Cycle) {
        debug_assert_ne!(req.block_addr, EMPTY, "a requested block is aligned");
        let b = req.buffer;
        if self.next_block.get(b).is_some_and(|&n| n != EMPTY) && self.filled[b] < self.depth {
            let slot = b * self.depth + self.filled[b];
            self.blocks[slot] = req.block_addr;
            self.ready[slot] = ready_at;
            self.filled[b] += 1;
            let c = self.counter(req.block_addr);
            self.present[c] += 1;
        }
    }

    /// Records that a previously generated prefetch request was refused (the
    /// bus dropped it).  The stream rolls its high-water mark back to the
    /// dropped block so a later extension re-requests it, instead of leaving
    /// a permanent hole the stream believes it has covered.
    pub fn record_drop(&mut self, req: PrefetchRequest) {
        if let Some(next) = self.next_block.get_mut(req.buffer).filter(|n| **n != EMPTY) {
            *next = (*next).min(req.block_addr);
        }
    }

    /// The slots that hold a block, in table order.
    fn held_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.blocks.len()).filter(|&k| self.blocks[k] != EMPTY)
    }

    /// Number of blocks currently held or in flight across all buffers.
    pub fn blocks_in_flight(&self) -> usize {
        self.filled.iter().sum()
    }
}

/// Checkpoint codec: the geometry, then each per-buffer array and the block
/// table, then the ready times of the slots that hold a block, in table
/// order; the derived index is left out.
impl Serialize for StreamPrefetcher {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.depth.serialize(out);
        self.block_bytes.serialize(out);
        self.next_block.serialize(out);
        self.stream_base.serialize(out);
        self.last_use.serialize(out);
        self.blocks.serialize(out);
        let held: Vec<Cycle> = self.held_slots().map(|k| self.ready[k]).collect();
        held.serialize(out);
    }
}

/// Refuses a block size with no free low bit, per-buffer arrays of unequal
/// length, a block table that is not buffers × depth slots, a ready time
/// count that is not its block count, and a buffer with a block after an
/// empty slot; rebuilds the derived index.
impl Deserialize for StreamPrefetcher {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let depth: usize = Deserialize::deserialize(r)?;
        let block_bytes: u64 = Deserialize::deserialize(r)?;
        if !block_bytes.is_power_of_two() || block_bytes < 2 {
            return Err(serde::Error::invalid("stream block size", r.position()));
        }
        let next_block: Vec<Addr> = Deserialize::deserialize(r)?;
        let buffers = next_block.len();
        let slots = buffers
            .checked_mul(depth)
            .ok_or(serde::Error::invalid("stream buffer depth", r.position()))?;
        let mut p = StreamPrefetcher {
            depth,
            block_bytes,
            next_block,
            stream_base: serde::vec_of_len(r, buffers, "stream base array length")?,
            last_use: serde::vec_of_len(r, buffers, "stream last-use array length")?,
            blocks: serde::vec_of_len(r, slots, "stream table length")?,
            ready: vec![0; slots],
            filled: Vec::new(),
            present: Vec::new(),
        };
        let held: Vec<usize> = p.held_slots().collect();
        let ready: Vec<Cycle> = serde::vec_of_len(r, held.len(), "stream ready-time array length")?;
        for (k, at) in held.into_iter().zip(ready) {
            p.ready[k] = at;
        }
        if !p.index() {
            return Err(serde::Error::invalid("stream buffer packing", r.position()));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(2, 4, 128)
    }

    #[test]
    fn miss_allocates_stream_of_depth_blocks() {
        let mut p = pf();
        let reqs: Vec<_> = p.on_demand_miss(0x1000, 0).collect();
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].block_addr, 0x1080);
        assert_eq!(reqs[3].block_addr, 0x1200);
        assert!(reqs.iter().all(|r| r.buffer == reqs[0].buffer), "one stream, one buffer");
    }

    #[test]
    fn probe_hit_consumes_block_and_extends_stream() {
        let mut p = pf();
        for r in p.on_demand_miss(0x1000, 0) {
            p.record_arrival(r, 500);
        }
        assert_eq!(p.blocks_in_flight(), 4);
        let (hit, extend) = p.probe(0x1080, 600);
        assert_eq!(hit, Some(600)); // arrived at 500, probed at 600
        let ext = extend.expect("stream should extend");
        assert_eq!(ext.block_addr, 0x1280);
        assert_eq!(p.blocks_in_flight(), 3);
    }

    #[test]
    fn probe_before_arrival_returns_arrival_time() {
        let mut p = pf();
        let first = p.on_demand_miss(0x1000, 0).next().expect("a burst of four");
        p.record_arrival(first, 500);
        let (hit, _) = p.probe(0x1080, 100);
        assert_eq!(hit, Some(500));
    }

    #[test]
    fn dropped_request_rolls_the_stream_back() {
        let mut p = pf();
        let reqs: Vec<_> = p.on_demand_miss(0x1000, 0).collect(); // 0x1080, 0x1100, 0x1180, 0x1200
        p.record_arrival(reqs[0], 500);
        p.record_drop(reqs[1]); // bus refused 0x1100
        // Consuming a buffered block extends the stream from the dropped
        // block, not from beyond the hole.
        let (hit, ext) = p.probe(0x1080, 600);
        assert!(hit.is_some());
        assert_eq!(ext.expect("stream should extend").block_addr, 0x1100);
    }

    #[test]
    fn unrelated_address_misses_all_buffers() {
        let mut p = pf();
        for r in p.on_demand_miss(0x1000, 0) {
            p.record_arrival(r, 10);
        }
        let (hit, ext) = p.probe(0x9000, 20);
        assert!(hit.is_none());
        assert!(ext.is_none());
    }

    #[test]
    fn repeated_miss_in_same_stream_does_not_thrash() {
        let mut p = pf();
        assert_eq!(p.on_demand_miss(0x1000, 0).len(), 4);
        // Miss to the block the existing stream is about to cover must not
        // re-allocate a buffer.
        let reqs = p.on_demand_miss(0x1000, 1);
        assert_eq!(reqs.len(), 0);
    }

    #[test]
    fn snapshots_round_trip_and_refuse_tables_that_disagree_with_the_geometry() {
        let mut p = pf();
        for r in p.on_demand_miss(0x1000, 0) {
            p.record_arrival(r, 500);
        }
        let back: StreamPrefetcher = serde::from_bytes(&serde::to_bytes(&p)).expect("decode");
        assert_eq!(serde::to_bytes(&back), serde::to_bytes(&p));
        for (mutate, what) in [
            ((|p: &mut StreamPrefetcher| p.depth = 3) as fn(&mut StreamPrefetcher), "stream table length"),
            (|p| p.stream_base.truncate(1), "stream base array length"),
            (|p| p.last_use.push(0), "stream last-use array length"),
            (|p| p.depth = usize::MAX, "stream buffer depth"),
            (|p| p.block_bytes = 1, "stream block size"),
            (|p| p.blocks[0] = EMPTY, "stream buffer packing"),
        ] {
            let mut hostile = p.clone();
            mutate(&mut hostile);
            let err = serde::from_bytes::<StreamPrefetcher>(&serde::to_bytes(&hostile)).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // The bytes end with the held blocks' ready times, a count first:
        // one time fewer than blocks held is refused.
        let bytes = serde::to_bytes(&p);
        let mut hostile = bytes[..bytes.len() - 8 * 4 - 8].to_vec();
        hostile.extend(3u64.to_le_bytes());
        hostile.extend(500u64.to_le_bytes().repeat(3));
        let err = serde::from_bytes::<StreamPrefetcher>(&hostile).unwrap_err();
        assert!(err.to_string().contains("stream ready-time array length"), "{err}");
    }

    #[test]
    fn empty_slots_are_not_in_the_bytes() {
        // Two prefetchers holding the same blocks at the same times encode
        // alike, whatever their empty slots once held: `a` consumed two of
        // its four blocks, `b` only ever received the other two.
        let (mut a, mut b) = (pf(), pf());
        let reqs: Vec<_> = a.on_demand_miss(0x1000, 0).collect();
        assert_eq!(b.on_demand_miss(0x1000, 0).len(), reqs.len());
        for &r in &reqs {
            a.record_arrival(r, 500);
        }
        for &r in &reqs[2..] {
            b.record_arrival(r, 500);
        }
        assert!(a.probe(0x1080, 600).0.is_some() && a.probe(0x1100, 600).0.is_some());
        b.next_block.clone_from(&a.next_block);
        b.last_use.clone_from(&a.last_use);
        assert_eq!(a.blocks, b.blocks);
        assert_ne!(a.ready, b.ready, "the empty slots' stale times differ");
        assert_eq!(serde::to_bytes(&a), serde::to_bytes(&b));
    }

    #[test]
    fn zero_buffers_is_a_no_op() {
        let mut p = StreamPrefetcher::new(0, 4, 128);
        assert_eq!(p.on_demand_miss(0x1000, 0).len(), 0);
        assert_eq!(p.probe(0x1000, 0), (None, None));
    }
}
