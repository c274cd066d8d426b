//! The nested-table [`Cache`] and [`StreamPrefetcher`] the flat ones
//! replaced — a `Vec` of lines per set, a `Vec` of blocks per stream buffer —
//! and a shifting victim buffer of the tests' own, kept as references for
//! the real ones: seeded random operation streams must get the same answers,
//! occupancy and checkpoint bytes from both, also where the flat ones answer
//! from a derived index (the prefetcher's presence filter and fill counts,
//! rebuilt from the checkpoint bytes), from one pass over a set (a fill picks
//! the resident way, else the first invalid way, else the first of the
//! least-recently-used ways), and where the [`VictimBuffer`] holds one line
//! twice (a probe takes the oldest copy).

use icfp_isa::{Addr, Cycle};
use icfp_mem::cache::{Evicted, ProbeResult};
use icfp_mem::prefetch::PrefetchRequest;
use icfp_mem::{Cache, CacheConfig, MemConfig, StreamPrefetcher, VictimBuffer};

/// The victim buffer as a `Vec` in insertion order: an insert past capacity
/// shifts out the front, a probe takes the first match and shifts the rest.
struct ShiftingVictims {
    entries: Vec<(Addr, bool, Cycle)>,
    capacity: usize,
    /// Inserts of a line the buffer already held.
    duplicates: u32,
}

impl ShiftingVictims {
    fn new(capacity: usize) -> Self {
        ShiftingVictims { entries: Vec::new(), capacity, duplicates: 0 }
    }

    fn insert(&mut self, line_addr: Addr, dirty: bool, ready_at: Cycle) -> Option<Evicted> {
        if self.capacity == 0 {
            return Some(Evicted { line_addr, dirty });
        }
        self.duplicates += u32::from(self.entries.iter().any(|e| e.0 == line_addr));
        let displaced = (self.entries.len() == self.capacity).then(|| {
            let (line_addr, dirty, _) = self.entries.remove(0);
            Evicted { line_addr, dirty }
        });
        self.entries.push((line_addr, dirty, ready_at));
        displaced
    }

    fn take(&mut self, line_addr: Addr) -> Option<(bool, Cycle)> {
        let pos = self.entries.iter().position(|e| e.0 == line_addr)?;
        let (_, dirty, ready_at) = self.entries.remove(pos);
        Some((dirty, ready_at))
    }

    /// The checkpoint bytes of a buffer holding these entries.
    fn bytes(&self) -> Vec<u8> {
        serde::to_bytes(&(self.entries.clone(), self.capacity))
    }
}

#[derive(Clone, Copy)]
struct Line {
    tag: Addr,
    valid: bool,
    dirty: bool,
    last_use: Cycle,
    ready_at: Cycle,
}

struct NestedCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    victim: ShiftingVictims,
    /// Fills that replaced a valid way while two or more ways were least
    /// recently used.
    lru_ties: u32,
}

impl NestedCache {
    fn new(config: CacheConfig) -> Self {
        let invalid = Line { tag: 0, valid: false, dirty: false, last_use: 0, ready_at: 0 };
        NestedCache {
            sets: vec![vec![invalid; config.assoc]; config.num_sets()],
            victim: ShiftingVictims::new(config.victim_entries),
            config,
            lru_ties: 0,
        }
    }

    fn line(&mut self, line_addr: Addr) -> Option<&mut Line> {
        let set = self.config.set_index(line_addr);
        self.sets[set].iter_mut().find(|l| l.valid && l.tag == line_addr)
    }

    fn access(&mut self, addr: Addr, now: Cycle, is_write: bool) -> ProbeResult {
        let line_addr = self.config.line_addr(addr);
        if let Some(line) = self.line(line_addr) {
            line.last_use = now;
            line.dirty |= is_write;
            return ProbeResult::Hit { ready_at: line.ready_at.max(now) };
        }
        if let Some((dirty, ready_at)) = self.victim.take(line_addr) {
            let ready_at = ready_at.max(now);
            self.fill_internal(line_addr, now, ready_at, dirty || is_write);
            return ProbeResult::Hit { ready_at };
        }
        ProbeResult::Miss
    }

    fn peek(&mut self, addr: Addr) -> bool {
        let line_addr = self.config.line_addr(addr);
        self.line(line_addr).is_some()
    }

    fn fill(&mut self, addr: Addr, now: Cycle, ready_at: Cycle, dirty: bool) -> Option<Evicted> {
        self.fill_internal(self.config.line_addr(addr), now, ready_at, dirty)
    }

    fn fill_internal(&mut self, line_addr: Addr, now: Cycle, ready_at: Cycle, dirty: bool) -> Option<Evicted> {
        if let Some(line) = self.line(line_addr) {
            line.last_use = now;
            line.ready_at = line.ready_at.min(ready_at);
            line.dirty |= dirty;
            return None;
        }
        let set = &mut self.sets[self.config.set_index(line_addr)];
        let way = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            let oldest = set.iter().enumerate().min_by_key(|(_, l)| l.last_use);
            let (way, line) = oldest.expect("associativity is at least 1");
            self.lru_ties += u32::from(set.iter().filter(|l| l.last_use == line.last_use).count() > 1);
            way
        });
        let old = std::mem::replace(&mut set[way], Line { tag: line_addr, valid: true, dirty, last_use: now, ready_at });
        if !old.valid {
            return None;
        }
        self.victim.insert(old.tag, old.dirty, old.ready_at)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}

struct StreamBuffer {
    blocks: Vec<(Addr, Cycle)>,
    stream_base: Addr,
    next_block: Addr,
    last_use: Cycle,
    active: bool,
}

struct NestedPrefetcher {
    buffers: Vec<StreamBuffer>,
    depth: usize,
    block_bytes: u64,
    /// Probe hits on a block two or more active buffers held.
    shared_hits: u32,
}

impl NestedPrefetcher {
    fn new(num_buffers: usize, depth: usize, block_bytes: u64) -> Self {
        let empty = || StreamBuffer { blocks: Vec::new(), stream_base: 0, next_block: 0, last_use: 0, active: false };
        NestedPrefetcher {
            buffers: (0..num_buffers).map(|_| empty()).collect(),
            depth,
            block_bytes,
            shared_hits: 0,
        }
    }

    fn probe(&mut self, addr: Addr, now: Cycle) -> (Option<Cycle>, Option<PrefetchRequest>) {
        let block = addr & !(self.block_bytes - 1);
        let holders = self.buffers.iter().filter(|b| b.active && b.blocks.iter().any(|&(a, _)| a == block));
        self.shared_hits += u32::from(holders.count() > 1);
        for (bi, buf) in self.buffers.iter_mut().enumerate().filter(|(_, b)| b.active) {
            if let Some(pos) = buf.blocks.iter().position(|&(a, _)| a == block) {
                let (_, ready) = buf.blocks.remove(pos);
                buf.last_use = now;
                let req = (buf.blocks.len() < self.depth).then(|| {
                    let next = buf.next_block;
                    buf.next_block = next.wrapping_add(self.block_bytes);
                    PrefetchRequest { block_addr: next, buffer: bi }
                });
                return (Some(ready.max(now)), req);
            }
        }
        (None, None)
    }

    fn on_demand_miss(&mut self, addr: Addr, now: Cycle) -> Vec<PrefetchRequest> {
        if self.buffers.is_empty() {
            return Vec::new();
        }
        let block = addr & !(self.block_bytes - 1);
        let next = block.wrapping_add(self.block_bytes);
        let (mut victim, mut victim_key) = (0, (true, Cycle::MAX));
        for (i, b) in self.buffers.iter().enumerate() {
            if b.active
                && (b.next_block == next
                    || (block >= b.stream_base && next <= b.next_block)
                    || b.blocks.iter().any(|&(a, _)| a == next))
            {
                return Vec::new();
            }
            if i == 0 || (b.active, b.last_use) < victim_key {
                (victim, victim_key) = (i, (b.active, b.last_use));
            }
        }
        let buf = &mut self.buffers[victim];
        buf.active = true;
        buf.blocks.clear();
        buf.last_use = now;
        buf.stream_base = block;
        buf.next_block = next.wrapping_add(self.block_bytes.wrapping_mul(self.depth as u64));
        (0..self.depth as u64)
            .map(|k| PrefetchRequest { block_addr: next.wrapping_add(self.block_bytes.wrapping_mul(k)), buffer: victim })
            .collect()
    }

    fn record_arrival(&mut self, req: PrefetchRequest, ready_at: Cycle) {
        if let Some(buf) = self.buffers.get_mut(req.buffer).filter(|b| b.active && b.blocks.len() < self.depth) {
            buf.blocks.push((req.block_addr, ready_at));
        }
    }

    fn record_drop(&mut self, req: PrefetchRequest) {
        if let Some(buf) = self.buffers.get_mut(req.buffer).filter(|b| b.active) {
            buf.next_block = buf.next_block.min(req.block_addr);
        }
    }

    fn blocks_in_flight(&self) -> usize {
        self.buffers.iter().map(|b| b.blocks.len()).sum()
    }
}

/// splitmix64: the operation streams' seeded generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn flat_caches_match_the_nested_reference_on_random_operations() {
    let (paper, tiny) = (MemConfig::paper_default(), MemConfig::tiny_for_tests());
    let direct = CacheConfig { size_bytes: 2048, assoc: 1, line_bytes: 32, victim_entries: 0 };
    let one_victim = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, victim_entries: 1 };
    let configs = [paper.l1d, paper.l2, tiny.l1d, tiny.l2, direct, one_victim];
    // Two streams per geometry: one whose clock advances on two operations in
    // three over every set, and one whose clock stands still for fifteen in
    // sixteen over two sets, so least-recently-used ties meet evictions and
    // the fill must take the first of the tied ways.
    let streams = configs.into_iter().enumerate().flat_map(|(seed, c)| [(seed, c, false), (seed + 100, c, true)]);
    for (seed, config, still) in streams {
        let (mut flat, mut nested) = (Cache::new(config), NestedCache::new(config));
        // Three lines per way, so sets fill, evict and hit the victim buffer.
        let sets = if still { config.num_sets().min(2) } else { config.num_sets() } as u64;
        let lines = sets * config.assoc as u64 * 3;
        let (mut state, mut now) = (seed as u64, 0u64);
        // Coverage: array hits, victim-buffer hits, misses, dirty lines
        // handed back for writeback.
        let (mut hits, mut victim_hits, mut misses, mut writebacks) = (0, 0, 0, 0);
        for k in 0..30_000 {
            let r = next(&mut state);
            now += if still { u64::from(r >> 60 == 0) } else { (r >> 60) % 3 };
            let line = (r % lines) / sets * config.num_sets() as u64 + (r % lines) % sets;
            let addr = line * config.line_bytes + (r >> 20) % config.line_bytes;
            match (r >> 32) % 8 {
                0..=3 => {
                    let write = (r >> 40).is_multiple_of(4);
                    let resident = flat.peek(addr);
                    let got = flat.access(addr, now, write);
                    assert_eq!(got, nested.access(addr, now, write), "{config:?} op {k}");
                    match got {
                        ProbeResult::Hit { .. } if resident => hits += 1,
                        ProbeResult::Hit { .. } => victim_hits += 1,
                        ProbeResult::Miss => misses += 1,
                    }
                }
                4 | 5 => {
                    let (ready, dirty) = (now + (r >> 44) % 500, (r >> 40).is_multiple_of(3));
                    let got = flat.fill(addr, now, ready, dirty);
                    assert_eq!(got, nested.fill(addr, now, ready, dirty), "{config:?} op {k}");
                    writebacks += u32::from(got.is_some_and(|e| e.dirty));
                }
                _ => assert_eq!(flat.peek(addr), nested.peek(addr), "{config:?} op {k}"),
            }
            if k % 64 == 0 {
                assert_eq!(flat.resident_lines(), nested.resident_lines(), "{config:?} op {k}");
            }
            if k % 1000 == 999 {
                // Continue from the checkpoint bytes.
                let bytes = serde::to_bytes(&flat);
                flat = serde::from_bytes(&bytes).expect("own bytes decode");
                assert_eq!(serde::to_bytes(&flat), bytes, "{config:?} op {k}");
            }
        }
        let (ties, duplicates) = (nested.lru_ties, nested.victim.duplicates);
        let counts = format!(
            "{hits} hits, {victim_hits} victim hits, {misses} misses, {writebacks} writebacks, {ties} LRU ties, \
             {duplicates} lines buffered twice"
        );
        assert!(hits > 1000 && misses > 1000 && writebacks > 0, "{config:?}: {counts}");
        assert!(config.victim_entries == 0 || victim_hits > 0, "{config:?}: {counts}");
        assert!(!still || config.victim_entries < 2 || duplicates > 0, "{config:?}: {counts}");
        assert!(!still || config.assoc == 1 || ties > 20, "{config:?}: {counts}");
    }
}

#[test]
fn the_victim_buffer_matches_the_shifting_reference_on_random_operations() {
    for (seed, capacity) in [0usize, 1, 2, 3, 8].into_iter().enumerate() {
        let (mut real, mut shifting) = (VictimBuffer::new(capacity), ShiftingVictims::new(capacity));
        let (mut state, mut hits, mut displaced, mut decodes) = (seed as u64 + 200, 0, 0, 0);
        for k in 0..20_000 {
            let r = next(&mut state);
            // Few lines, so the buffer often holds one line twice.
            let line = ((r >> 8) % (capacity as u64 + 3)) * 64;
            match (r >> 32) % 8 {
                0..=3 => {
                    let (dirty, ready) = ((r >> 40).is_multiple_of(3), (r >> 44) % 1000);
                    let got = real.insert(line, dirty, ready);
                    assert_eq!(got, shifting.insert(line, dirty, ready), "capacity {capacity} op {k}");
                    displaced += u32::from(got.is_some());
                }
                4..=6 => {
                    let got = real.take(line);
                    assert_eq!(got, shifting.take(line), "capacity {capacity} op {k}");
                    hits += u32::from(got.is_some());
                }
                _ => {
                    let bytes = serde::to_bytes(&real);
                    assert_eq!(bytes, shifting.bytes(), "capacity {capacity} op {k}");
                    real = serde::from_bytes(&bytes).expect("own bytes decode");
                    decodes += 1;
                }
            }
            assert_eq!(real.len(), shifting.entries.len(), "capacity {capacity} op {k}");
        }
        let duplicates = shifting.duplicates;
        let counts = format!("{hits} hits, {displaced} displaced, {duplicates} lines buffered twice, {decodes} decodes");
        assert!(displaced > 1000 && decodes > 1000, "capacity {capacity}: {counts}");
        assert!(capacity == 0 || hits > 1000, "capacity {capacity}: {counts}");
        assert!(capacity < 2 || duplicates > 1000, "capacity {capacity}: {counts}");
    }
}

#[test]
fn flat_stream_buffers_match_the_nested_reference_on_random_operations() {
    let (paper, tiny) = (MemConfig::paper_default(), MemConfig::tiny_for_tests());
    let geometries = [
        (paper.stream_buffers, paper.stream_buffer_blocks, paper.l2.line_bytes),
        (tiny.stream_buffers, tiny.stream_buffer_blocks, tiny.l2.line_bytes),
        (3, 5, 64),
        (0, 4, 128),
    ];
    for (seed, (buffers, depth, block)) in geometries.into_iter().enumerate() {
        let mut flat = StreamPrefetcher::new(buffers, depth, block);
        let mut nested = NestedPrefetcher::new(buffers, depth, block);
        // Requests the prefetcher made and the hierarchy has not answered.
        let mut pending: Vec<PrefetchRequest> = Vec::new();
        let (mut state, mut now) = (seed as u64 + 100, 0u64);
        let (mut hits, mut drops, mut decodes) = (0, 0, 0);
        for k in 0..30_000 {
            let r = next(&mut state);
            now += (r >> 60) % 4;
            let addr = 0x10_0000 + ((r % 96) * block + (r >> 20) % block);
            match (r >> 32) % 8 {
                0..=2 => {
                    let got = flat.probe(addr, now);
                    assert_eq!(got, nested.probe(addr, now), "{buffers}x{depth}x{block} op {k}");
                    hits += u32::from(got.0.is_some());
                    pending.extend(got.1);
                }
                3 => {
                    let got: Vec<_> = flat.on_demand_miss(addr, now).collect();
                    assert_eq!(got, nested.on_demand_miss(addr, now), "{buffers}x{depth}x{block} op {k}");
                    pending.extend(got);
                }
                4..=6 if !pending.is_empty() => {
                    let mut req = pending.swap_remove((r >> 40) as usize % pending.len());
                    if (r >> 50).is_multiple_of(16) {
                        req.buffer = (r >> 54) as usize % (buffers + 2); // out of range too
                    }
                    if (r >> 36).is_multiple_of(4) {
                        flat.record_drop(req);
                        nested.record_drop(req);
                        drops += 1;
                    } else {
                        let ready = now + (r >> 44) % 600;
                        flat.record_arrival(req, ready);
                        nested.record_arrival(req, ready);
                    }
                }
                7 if (r >> 40).is_multiple_of(8) => {
                    // Continue from the checkpoint bytes: the derived index
                    // is rebuilt from them.
                    let bytes = serde::to_bytes(&flat);
                    flat = serde::from_bytes(&bytes).expect("own bytes decode");
                    assert_eq!(serde::to_bytes(&flat), bytes, "{buffers}x{depth}x{block} op {k}");
                    decodes += 1;
                }
                _ => {}
            }
            assert_eq!(flat.blocks_in_flight(), nested.blocks_in_flight(), "{buffers}x{depth}x{block} op {k}");
        }
        let shared = nested.shared_hits;
        let counts = format!("{hits} hits, {shared} on a block two buffers held, {drops} drops, {decodes} decodes");
        assert!(buffers == 0 || hits > 100, "{buffers}x{depth}: {counts}");
        assert!(buffers < 2 || shared > 0, "{buffers}x{depth}: {counts}");
        assert!(buffers == 0 || drops > 100, "{buffers}x{depth}: {counts}");
        assert!(decodes > 100, "{buffers}x{depth}: {counts}");
    }
}
