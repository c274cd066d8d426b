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

use icfp_isa::{Addr, Cycle};
use serde::{Deserialize, Serialize};

/// A prefetch request the hierarchy should issue on behalf of the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Block-aligned address to prefetch.
    pub block_addr: Addr,
    /// Which stream buffer the block belongs to.
    pub buffer: usize,
}

/// Statistics for the prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Prefetch requests issued.
    pub issued: u64,
    /// Demand misses that were serviced by a stream buffer.
    pub hits: u64,
    /// Streams (re)allocated.
    pub allocations: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamBuffer {
    /// Blocks currently held / in flight: (block address, ready cycle).
    blocks: Vec<(Addr, Cycle)>,
    /// Block address the stream was trained on (its low end).
    stream_base: Addr,
    /// Next block address this stream will prefetch.
    next_block: Addr,
    /// Cycle of last use, for round-robin-with-LRU allocation.
    last_use: Cycle,
    /// Whether this buffer holds an active stream.
    active: bool,
}

impl StreamBuffer {
    fn empty() -> Self {
        StreamBuffer {
            blocks: Vec::new(),
            stream_base: 0,
            next_block: 0,
            last_use: 0,
            active: false,
        }
    }
}

/// The stream-buffer prefetch engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamPrefetcher {
    buffers: Vec<StreamBuffer>,
    depth: usize,
    block_bytes: u64,
    stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with `num_buffers` stream buffers, each holding up
    /// to `depth` blocks of `block_bytes` bytes.
    pub fn new(num_buffers: usize, depth: usize, block_bytes: u64) -> Self {
        StreamPrefetcher {
            buffers: (0..num_buffers).map(|_| StreamBuffer::empty()).collect(),
            depth,
            block_bytes,
            stats: PrefetchStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Block-aligned address for this prefetcher's block size.
    pub fn block_addr(&self, addr: Addr) -> Addr {
        addr & !(self.block_bytes - 1)
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
        for (bi, buf) in self.buffers.iter_mut().enumerate() {
            if !buf.active {
                continue;
            }
            if let Some(pos) = buf.blocks.iter().position(|&(a, _)| a == block) {
                let (_, ready) = buf.blocks.remove(pos);
                buf.last_use = now;
                self.stats.hits += 1;
                // Keep the stream running ahead.
                let req = if buf.blocks.len() < self.depth {
                    let next = buf.next_block;
                    buf.next_block = next.wrapping_add(self.block_bytes);
                    self.stats.issued += 1;
                    Some(PrefetchRequest {
                        block_addr: next,
                        buffer: bi,
                    })
                } else {
                    None
                };
                return (Some(ready.max(now)), req);
            }
        }
        (None, None)
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
        if self.buffers.is_empty() {
            return None;
        }
        let block = self.block_addr(addr);
        let next = block.wrapping_add(self.block_bytes);
        // One walk over the buffers both checks coverage and picks the
        // victim: the least-recently-used buffer, inactive buffers first, the
        // first such on a tie.
        let (mut victim, mut victim_key) = (0, (true, Cycle::MAX));
        for (i, b) in self.buffers.iter().enumerate() {
            // Don't steal a buffer that is already streaming over this
            // address: the missing block lies within the span some active
            // stream covers.
            if b.active
                && (b.next_block == next
                    || (block >= b.stream_base && next <= b.next_block)
                    || b.blocks.iter().any(|&(a, _)| a == next))
            {
                return None;
            }
            let key = (b.active, b.last_use);
            if i == 0 || key < victim_key {
                (victim, victim_key) = (i, key);
            }
        }
        let buf = &mut self.buffers[victim];
        buf.active = true;
        buf.blocks.clear();
        buf.last_use = now;
        buf.stream_base = block;
        buf.next_block = next.wrapping_add(self.block_bytes.wrapping_mul(self.depth as u64));
        self.stats.allocations += 1;
        self.stats.issued += self.depth as u64;
        Some((next, victim, self.depth))
    }

    /// Records that a previously requested prefetch block will arrive at
    /// `ready_at`.  Blocks beyond the buffer's depth are dropped.
    pub fn record_arrival(&mut self, req: PrefetchRequest, ready_at: Cycle) {
        if let Some(buf) = self.buffers.get_mut(req.buffer) {
            if buf.active && buf.blocks.len() < self.depth {
                buf.blocks.push((req.block_addr, ready_at));
            }
        }
    }

    /// Records that a previously generated prefetch request was refused (the
    /// bus dropped it).  The stream rolls its high-water mark back to the
    /// dropped block so a later extension re-requests it, instead of leaving
    /// a permanent hole the stream believes it has covered.
    pub fn record_drop(&mut self, req: PrefetchRequest) {
        if let Some(buf) = self.buffers.get_mut(req.buffer) {
            if buf.active {
                buf.next_block = buf.next_block.min(req.block_addr);
            }
        }
    }

    /// Number of blocks currently held or in flight across all buffers.
    pub fn blocks_in_flight(&self) -> usize {
        self.buffers.iter().map(|b| b.blocks.len()).sum()
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
        assert_eq!(p.stats().allocations, 1);
        assert_eq!(p.stats().issued, 4);
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
        assert_eq!(p.stats().hits, 1);
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
        assert_eq!(p.stats().allocations, 1);
    }

    #[test]
    fn zero_buffers_is_a_no_op() {
        let mut p = StreamPrefetcher::new(0, 4, 128);
        assert_eq!(p.on_demand_miss(0x1000, 0).len(), 0);
        assert_eq!(p.probe(0x1000, 0), (None, None));
    }
}
