//! Set-associative cache arrays with LRU replacement and victim buffers.
//!
//! These are *tag/timing* models: no data is stored (functional data lives in
//! `icfp_isa::FunctionalMemory` and in the store buffers).  Each line records
//! the cycle at which its fill completes so that accesses arriving while the
//! fill is still in flight are treated as hits-under-fill (they complete when
//! the fill does), which is how MSHR merging becomes visible to the pipeline.

use icfp_isa::{Addr, Cycle};
use serde::{Deserialize, Reader, Serialize};

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Number of entries in the fully-associative victim buffer.
    pub victim_entries: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.assoc as u64)).max(1) as usize
    }

    /// The line-aligned address of the line containing `addr`.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    /// The set index for `addr`.
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr >> self.line_bytes.trailing_zeros()) as usize) & (self.num_sets() - 1)
    }

    /// The number of ways (sets × associativity) of a buildable geometry: a
    /// power-of-two line of at least two bytes (bit 0 of a line address is
    /// the valid bit), at least one way per set, and a power-of-two set
    /// count.  Otherwise names what is wrong.
    fn ways(&self) -> Result<usize, &'static str> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 2 {
            return Err("cache line size (a power of two of at least 2)");
        }
        if self.assoc == 0 || self.line_bytes.checked_mul(self.assoc as u64).is_none() {
            return Err("cache associativity");
        }
        let sets = self.num_sets();
        if !sets.is_power_of_two() {
            return Err("cache set count (not a power of two)");
        }
        Ok(sets * self.assoc)
    }
}

/// Result of probing a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The line is present; data is usable at `ready_at` (which may be in the
    /// future if the line's fill is still in flight).
    Hit {
        /// Cycle at which the line's data is available.
        ready_at: Cycle,
    },
    /// The line is absent.
    Miss,
}

/// A line evicted by a fill, handed to the caller (victim buffer / writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the evicted line.
    pub line_addr: Addr,
    /// Whether the evicted line was dirty.
    pub dirty: bool,
}

/// A small fully-associative victim buffer.
///
/// Holds recently evicted lines; a probe hit returns the line to the caller
/// (who normally re-fills it into the main array).  Each entry keeps the
/// line's fill-ready cycle: a line evicted while its fill is still in flight
/// must not supply data before that fill would have arrived.
///
/// A line a prefetch refilled while it was buffered can be evicted into the
/// buffer a second time; a probe takes the oldest copy.
#[derive(Debug, Clone, Serialize)]
pub struct VictimBuffer {
    entries: Vec<(Addr, bool, Cycle)>, // (line address, dirty, data ready at)
    capacity: usize,
}

impl VictimBuffer {
    /// Creates a victim buffer with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        VictimBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Inserts an evicted line, displacing the oldest entry if full.
    /// Returns the displaced line, if any, so dirty victims can be written back.
    pub fn insert(&mut self, line_addr: Addr, dirty: bool, ready_at: Cycle) -> Option<Evicted> {
        if self.capacity == 0 {
            return Some(Evicted { line_addr, dirty });
        }
        let displaced = if self.entries.len() == self.capacity {
            let (a, d, _) = self.entries.remove(0);
            Some(Evicted {
                line_addr: a,
                dirty: d,
            })
        } else {
            None
        };
        self.entries.push((line_addr, dirty, ready_at));
        displaced
    }

    /// Probes for a line; on a hit the entry is removed and its dirtiness and
    /// data-ready cycle returned (the caller re-fills it into the main array).
    pub fn take(&mut self, line_addr: Addr) -> Option<(bool, Cycle)> {
        if let Some(pos) = self.entries.iter().position(|&(a, _, _)| a == line_addr) {
            let (_, dirty, ready_at) = self.entries.remove(pos);
            Some((dirty, ready_at))
        } else {
            None
        }
    }

    /// Number of lines currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no lines are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Decodes the derived layout (entries, then capacity); refuses more entries
/// than the capacity, which no insert could have left.
impl Deserialize for VictimBuffer {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let entries: Vec<(Addr, bool, Cycle)> = Deserialize::deserialize(r)?;
        let at = r.position();
        let capacity: usize = Deserialize::deserialize(r)?;
        if entries.len() > capacity {
            return Err(serde::Error::invalid("victim buffer occupancy (more entries than its capacity)", at));
        }
        Ok(VictimBuffer { entries, capacity })
    }
}

/// Bit 0 of a way's key: the way holds a valid line.  Line addresses are at
/// least two-byte aligned, so the bit is free.
const VALID: Addr = 1;

/// A set-associative, LRU-replacement cache tag array with a victim buffer.
///
/// One flat array per field, indexed `set * assoc + way`: a probe scans one
/// contiguous run of keys, and so does a fill, which finds the resident way,
/// the first invalid way and the first least-recently-used way in that one
/// scan.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line-aligned address, [`VALID`] set while the way holds the line.
    keys: Vec<Addr>,
    dirty: Vec<bool>,
    last_use: Vec<Cycle>,
    /// Cycle at which the fill that brought the line in completes.
    ready_at: Vec<Cycle>,
    /// Set count − 1 (the set count is a power of two).
    set_mask: usize,
    victim: VictimBuffer,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two of at least 2 bytes,
    /// the associativity is 0, or the set count is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.ways().unwrap_or_else(|what| panic!("invalid {what}"));
        Cache {
            victim: VictimBuffer::new(config.victim_entries),
            keys: vec![0; ways],
            dirty: vec![false; ways],
            last_use: vec![0; ways],
            ready_at: vec![0; ways],
            set_mask: config.num_sets() - 1,
            config,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligned address for this cache's line size.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        self.config.line_addr(addr)
    }

    /// [`CacheConfig::set_index`] without recomputing the set count (two
    /// divisions) on every access.
    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        ((addr >> self.config.line_bytes.trailing_zeros()) as usize) & self.set_mask
    }

    /// The index range of `addr`'s set in the flat arrays.
    #[inline]
    fn ways_of(&self, addr: Addr) -> std::ops::Range<usize> {
        let base = self.set_of(addr) * self.config.assoc;
        base..base + self.config.assoc
    }

    /// The flat index of the way holding `line_addr`'s line, if resident.
    #[inline]
    fn find(&self, line_addr: Addr) -> Option<usize> {
        let ways = self.ways_of(line_addr);
        self.keys[ways.clone()].iter().position(|&k| k == line_addr | VALID).map(|w| ways.start + w)
    }

    /// Probes for `addr` as a demand access at cycle `now`, updating LRU
    /// state.  A victim-buffer hit counts as a hit and moves the line
    /// back into the main array.
    pub fn access(&mut self, addr: Addr, now: Cycle, is_write: bool) -> ProbeResult {
        let line_addr = self.config.line_addr(addr);
        if let Some(i) = self.find(line_addr) {
            self.last_use[i] = now;
            self.dirty[i] |= is_write;
            return ProbeResult::Hit {
                ready_at: self.ready_at[i].max(now),
            };
        }
        // Victim buffer probe: hit moves the line back into the array.  The
        // line keeps its original fill time: a victim evicted mid-fill still
        // cannot supply data before the fill arrives.
        if let Some((dirty, ready_at)) = self.victim.take(line_addr) {
            let ready_at = ready_at.max(now);
            self.fill_internal(line_addr, now, ready_at, dirty || is_write);
            return ProbeResult::Hit { ready_at };
        }
        ProbeResult::Miss
    }

    /// Probes without updating LRU (used by prefetchers and by
    /// external-store snoops).
    pub fn peek(&self, addr: Addr) -> bool {
        self.find(self.config.line_addr(addr)).is_some()
    }

    /// Fills `addr`'s line, marking its data ready at `ready_at`.  Returns the
    /// evicted line if a valid line had to be displaced (after it has been
    /// pushed through the victim buffer).
    pub fn fill(&mut self, addr: Addr, now: Cycle, ready_at: Cycle, dirty: bool) -> Option<Evicted> {
        self.fill_internal(self.config.line_addr(addr), now, ready_at, dirty)
    }

    /// Refreshes the line if it is resident, else installs it in the set's
    /// first invalid way, else in its first least-recently-used way.
    fn fill_internal(&mut self, line_addr: Addr, now: Cycle, ready_at: Cycle, dirty: bool) -> Option<Evicted> {
        let ways = self.ways_of(line_addr);
        let (keys, uses) = (&self.keys[ways.clone()], &self.last_use[ways.clone()]);
        // One pass finds all three.  It runs backwards so that each find is a
        // plain overwrite (the last one written is the first way) and compiles
        // to conditional moves: which way is older is a coin toss to the
        // host's branch predictor.
        const NONE: usize = usize::MAX;
        let (mut resident, mut invalid, mut lru, mut lru_use) = (NONE, NONE, 0, Cycle::MAX);
        for (w, (&key, &last_use)) in keys.iter().zip(uses).enumerate().rev() {
            resident = if key == line_addr | VALID { w } else { resident };
            invalid = if key & VALID == 0 { w } else { invalid };
            let older = last_use <= lru_use;
            lru = if older { w } else { lru };
            lru_use = if older { last_use } else { lru_use };
        }
        if resident != NONE {
            // Already present (e.g. prefetch raced a demand fill): refresh.
            let i = ways.start + resident;
            self.last_use[i] = now;
            self.ready_at[i] = self.ready_at[i].min(ready_at);
            self.dirty[i] |= dirty;
            return None;
        }
        let i = ways.start + if invalid != NONE { invalid } else { lru };
        let (old_key, old_dirty, old_ready) = (self.keys[i], self.dirty[i], self.ready_at[i]);
        self.keys[i] = line_addr | VALID;
        self.dirty[i] = dirty;
        self.last_use[i] = now;
        self.ready_at[i] = ready_at;
        if old_key & VALID != 0 {
            // Displaced lines go to the victim buffer; whatever the victim
            // buffer displaces in turn is reported to the caller.
            return self.victim.insert(old_key & !VALID, old_dirty, old_ready);
        }
        None
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.keys.iter().filter(|&&k| k & VALID != 0).count()
    }
}

/// Checkpoint codec: the geometry, then each flat array.
impl Serialize for Cache {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.config.serialize(out);
        self.keys.serialize(out);
        self.dirty.serialize(out);
        self.last_use.serialize(out);
        self.ready_at.serialize(out);
        self.victim.serialize(out);
    }
}

/// Refuses a geometry [`Cache::new`] would refuse and any array whose length
/// is not its sets × associativity.
impl Deserialize for Cache {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let config: CacheConfig = Deserialize::deserialize(r)?;
        let ways = config.ways().map_err(|what| serde::Error::invalid(what, r.position()))?;
        Ok(Cache {
            keys: serde::vec_of_len(r, ways, "cache key array length")?,
            dirty: serde::vec_of_len(r, ways, "cache dirty array length")?,
            last_use: serde::vec_of_len(r, ways, "cache last-use array length")?,
            ready_at: serde::vec_of_len(r, ways, "cache ready-time array length")?,
            set_mask: config.num_sets() - 1,
            config,
            victim: Deserialize::deserialize(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            victim_entries: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.config().line_addr(0x7f), 0x40);
        assert_eq!(c.config().set_index(0x40), 1);
        for addr in [0u64, 0x3f, 0x40, 0x1c0, 0x1000, 0xdead_beef, u64::MAX] {
            assert_eq!(c.set_of(addr), c.config().set_index(addr), "{addr:#x}");
            assert_eq!(c.set_of(addr), (addr / 64) as usize % 4, "{addr:#x}");
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, 0, false), ProbeResult::Miss);
        c.fill(0x1000, 0, 10, false);
        match c.access(0x1000, 5, false) {
            ProbeResult::Hit { ready_at } => assert_eq!(ready_at, 10),
            _ => panic!("expected hit-under-fill"),
        }
        match c.access(0x1000, 20, false) {
            ProbeResult::Hit { ready_at } => assert_eq!(ready_at, 20),
            _ => panic!("expected plain hit"),
        }
    }

    #[test]
    fn lru_replacement_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: addresses with set_index 0, i.e. multiples of 64*4=256.
        c.fill(0x0000, 0, 0, false);
        c.fill(0x0100, 1, 1, false);
        // Touch 0x0000 so 0x0100 becomes LRU.
        c.access(0x0000, 2, false);
        let evicted = c.fill(0x0200, 3, 3, false);
        // Evicted line goes into victim buffer first, so no overflow yet.
        assert!(evicted.is_none());
        // 0x0100 must be gone from the array but still victim-buffered.
        assert!(c.peek(0x0000));
        assert!(c.peek(0x0200));
        assert!(!c.peek(0x0100));
        // Access to 0x0100 hits via the victim buffer.
        assert!(matches!(c.access(0x0100, 4, false), ProbeResult::Hit { .. }));
        // The hit moved it back into the array.
        assert!(c.peek(0x0100));
    }

    #[test]
    fn victim_buffer_overflow_reports_displaced_line() {
        let mut vb = VictimBuffer::new(1);
        assert!(vb.insert(0x40, false, 0).is_none());
        let displaced = vb.insert(0x80, true, 0).expect("should displace");
        assert_eq!(displaced.line_addr, 0x40);
        assert_eq!(vb.len(), 1);
    }

    #[test]
    fn a_line_buffered_twice_is_taken_oldest_copy_first() {
        let mut vb = VictimBuffer::new(3);
        vb.insert(0x40, false, 1);
        vb.insert(0x80, false, 2);
        assert!(vb.take(0x80).is_some());
        vb.insert(0x40, true, 9); // a second copy of 0x40
        assert_eq!((vb.take(0x40), vb.take(0x40), vb.take(0x40)), (Some((false, 1)), Some((true, 9)), None));
        assert!(vb.is_empty());
    }

    #[test]
    fn a_victim_buffer_with_more_entries_than_its_capacity_does_not_decode() {
        let entries = vec![(0x40u64, false, 0u64), (0x80, true, 3)];
        let fits = serde::to_bytes(&(entries.clone(), 2usize));
        let vb: VictimBuffer = serde::from_bytes(&fits).expect("decode");
        assert_eq!((vb.len(), serde::to_bytes(&vb)), (2, fits));
        let over = serde::from_bytes::<VictimBuffer>(&serde::to_bytes(&(entries, 1usize))).unwrap_err();
        assert!(over.to_string().contains("victim buffer occupancy"), "{over}");
    }

    #[test]
    fn zero_capacity_victim_buffer_passes_through() {
        let mut vb = VictimBuffer::new(0);
        let d = vb.insert(0x40, true, 0).unwrap();
        assert_eq!(d.line_addr, 0x40);
        assert!(d.dirty);
        assert!(vb.is_empty());
    }

    #[test]
    fn victim_hit_preserves_in_flight_fill_time() {
        // Fill a line whose data arrives at cycle 500, evict it while the
        // fill is still in flight, then re-access it via the victim buffer:
        // the data must still not be available before cycle 500.
        let mut c = tiny();
        c.fill(0x0000, 0, 500, false);
        c.fill(0x0100, 1, 1, false);
        c.fill(0x0200, 2, 2, false); // evicts 0x0000 (LRU) to the victim buffer
        assert!(!c.peek(0x0000));
        match c.access(0x0000, 10, false) {
            ProbeResult::Hit { ready_at } => assert_eq!(ready_at, 500),
            _ => panic!("expected victim-buffer hit"),
        }
    }

    #[test]
    fn writes_set_dirty_and_cause_writebacks() {
        let mut c = tiny();
        c.fill(0x0000, 0, 0, false);
        c.access(0x0000, 1, true); // dirty it
        c.fill(0x0100, 2, 2, false);
        c.fill(0x0200, 3, 3, false); // evicts 0x0000 (dirty) to victim buffer
        assert_eq!(c.fill(0x0300, 4, 4, false), None); // 0x0100 joins it
        // The third victim displaces the oldest: 0x0000, still dirty, is the
        // line the caller must write back.
        let written_back = c.fill(0x0400, 5, 5, false);
        assert_eq!(written_back, Some(Evicted { line_addr: 0x0000, dirty: true }));
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = tiny();
        assert_eq!(c.access(0x0, 0, false), ProbeResult::Miss);
        c.fill(0x0, 0, 0, false);
        assert_eq!(c.access(0x0, 1, false), ProbeResult::Hit { ready_at: 1 });
    }

    #[test]
    fn snapshots_round_trip_and_refuse_arrays_that_disagree_with_the_geometry() {
        let mut c = tiny();
        c.fill(0x1000, 0, 7, true);
        c.access(0x1040, 1, false);
        let back: Cache = serde::from_bytes(&serde::to_bytes(&c)).expect("decode");
        assert_eq!(serde::to_bytes(&back), serde::to_bytes(&c));
        assert_eq!(back.set_mask, c.set_mask);
        for (mutate, what) in [
            ((|c: &mut Cache| c.keys.truncate(1)) as fn(&mut Cache), "cache key array length"),
            (|c| c.dirty.push(true), "cache dirty array length"),
            (|c| c.last_use.truncate(1), "cache last-use array length"),
            (|c| c.ready_at.clear(), "cache ready-time array length"),
            (|c| c.config.size_bytes = 768, "cache set count"),
            (|c| c.config.line_bytes = 1, "cache line size"),
            (|c| c.config.assoc = 0, "cache associativity"),
        ] {
            let mut hostile = c.clone();
            mutate(&mut hostile);
            let err = serde::from_bytes::<Cache>(&serde::to_bytes(&hostile)).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn resident_lines_counts_fills() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.fill(0x0, 0, 0, false);
        c.fill(0x40, 0, 0, false);
        assert_eq!(c.resident_lines(), 2);
    }
}
