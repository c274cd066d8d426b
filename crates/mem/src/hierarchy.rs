//! The two-level memory hierarchy used by every core model.

use crate::bus::MemoryBus;
use crate::cache::{Cache, ProbeResult};
use crate::config::MemConfig;
use crate::mshr::{MshrFile, MshrId, MshrRequest};
use crate::prefetch::StreamPrefetcher;
use crate::stats::MemStats;
use icfp_isa::{Addr, Cycle};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a demand access was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache (including hits under a pending fill).
    L1Hit,
    /// Serviced by a hardware stream buffer.
    PrefetchHit,
    /// Missed L1, hit in the L2.
    L1MissL2Hit,
    /// Missed both L1 and L2; serviced from memory.
    L2Miss,
}

impl AccessOutcome {
    /// True if the access missed the L1 data cache (including prefetch-buffer
    /// services, which the paper does not count as data-cache hits).
    pub fn is_l1_miss(self) -> bool {
        !matches!(self, AccessOutcome::L1Hit)
    }

    /// True if the access had to go to main memory.
    pub fn is_l2_miss(self) -> bool {
        matches!(self, AccessOutcome::L2Miss)
    }
}

impl fmt::Display for AccessOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessOutcome::L1Hit => "L1 hit",
            AccessOutcome::PrefetchHit => "prefetch hit",
            AccessOutcome::L1MissL2Hit => "L2 hit",
            AccessOutcome::L2Miss => "L2 miss",
        };
        write!(f, "{s}")
    }
}

/// Response to a demand load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResponse {
    /// Cycle at which the loaded data is available to dependents.
    pub completes_at: Cycle,
    /// How the access was serviced.
    pub outcome: AccessOutcome,
    /// The MSHR tracking the miss, if the access is waiting on one.  Used by
    /// iCFP to assign poison-vector bits (paper Section 3.4).
    pub mshr: Option<MshrId>,
}

/// Response to a demand store (issued when the store drains from a store
/// buffer to the cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreResponse {
    /// Cycle at which the store is globally performed.
    pub completes_at: Cycle,
    /// How the access was serviced.
    pub outcome: AccessOutcome,
}

/// Errors returned by the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// All MSHRs are occupied; retry at (or after) the given cycle.
    MshrFull {
        /// Earliest cycle at which an MSHR frees.
        retry_at: Cycle,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::MshrFull { retry_at } => {
                write!(f, "all miss-status registers occupied until cycle {retry_at}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The simulated memory hierarchy: L1 data cache, unified L2, MSHRs, memory
/// bus/DRAM and stream prefetchers.  See the crate-level documentation for the
/// timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1d: Cache,
    l2: Cache,
    mshrs: MshrFile,
    bus: MemoryBus,
    prefetcher: StreamPrefetcher,
    stats: MemStats,
    /// Outcome of the primary miss held by each outstanding MSHR, so merged
    /// references can report the same outcome.  Slot-indexed flat table keyed
    /// by [`MshrId::slot`]; the stored id guards against stale generations.
    /// Fixed-size, so the per-access hot path performs no heap allocation and
    /// no hashing.
    mshr_outcome: Vec<Option<(MshrId, AccessOutcome)>>,
}

impl MemoryHierarchy {
    /// Creates a hierarchy with cold caches.
    pub fn new(config: MemConfig) -> Self {
        let bus = MemoryBus::new(
            config.mem_latency,
            config.mem_chunk_latency,
            config.l2.line_bytes,
            config.mem_chunk_bytes,
            config.bus_line_interval,
        );
        let prefetcher = StreamPrefetcher::new(
            if config.prefetch_enabled {
                config.stream_buffers
            } else {
                0
            },
            config.stream_buffer_blocks,
            config.l2.line_bytes,
        );
        MemoryHierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            mshrs: MshrFile::new(config.max_outstanding_misses),
            bus,
            prefetcher,
            stats: MemStats::default(),
            mshr_outcome: vec![None; config.max_outstanding_misses],
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Issues a demand load for `addr` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::MshrFull`] if the access misses and no MSHR is
    /// available; the caller should retry at the indicated cycle.
    pub fn load(&mut self, addr: Addr, now: Cycle) -> Result<LoadResponse, MemError> {
        self.stats.loads += 1;
        self.access(addr, now, false).map(|(completes_at, outcome, mshr)| LoadResponse {
            completes_at,
            outcome,
            mshr,
        })
    }

    /// Issues a demand store for `addr` at cycle `now` (typically called when
    /// the store drains from a store buffer).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::MshrFull`] if the access misses and no MSHR is
    /// available.
    pub fn store(&mut self, addr: Addr, now: Cycle) -> Result<StoreResponse, MemError> {
        self.stats.stores += 1;
        self.access(addr, now, true)
            .map(|(completes_at, outcome, _)| StoreResponse {
                completes_at,
                outcome,
            })
    }

    /// Non-destructive classification of how a load to `addr` would be
    /// serviced right now.  Does not update replacement state, statistics,
    /// MSHRs or prefetch streams.  Used by diagnostics and tests.
    pub fn classify(&self, addr: Addr) -> AccessOutcome {
        if self.l1d.peek(addr) {
            AccessOutcome::L1Hit
        } else if self.l2.peek(addr) {
            AccessOutcome::L1MissL2Hit
        } else {
            AccessOutcome::L2Miss
        }
    }

    /// Invalidates `addr` from the L1 only (used by SLTP's speculative-line
    /// flush before a rally).
    pub fn invalidate_l1(&mut self, addr: Addr) -> bool {
        self.l1d.invalidate(addr)
    }

    fn access(
        &mut self,
        addr: Addr,
        now: Cycle,
        is_write: bool,
    ) -> Result<(Cycle, AccessOutcome, Option<MshrId>), MemError> {
        let l1_lat = self.config.l1_hit_latency;
        self.mshrs.retire_completed(now);

        // 1. L1 probe.
        if let ProbeResult::Hit { ready_at } = self.l1d.access(addr, now, is_write) {
            let completes = ready_at.max(now + l1_lat);
            // If the line is still being filled there is an MSHR for it.
            let mshr = self.mshrs.lookup(self.l1d.line_addr(addr)).map(|(id, _)| id);
            return Ok((completes, AccessOutcome::L1Hit, mshr));
        }

        // 2. Stream-buffer probe.
        let (pf_hit, pf_extend) = self.prefetcher.probe(addr, now);
        if let Some(ready) = pf_hit {
            let completes = ready.max(now + l1_lat);
            self.l1d.fill(addr, now, completes, is_write);
            if let Some(req) = pf_extend {
                self.issue_prefetch(req, now);
            }
            return Ok((completes, AccessOutcome::PrefetchHit, None));
        }

        // 3. True L1 miss: take an MSHR.
        let l1_line = self.l1d.line_addr(addr);
        let mshr_id = match self.mshrs.request(l1_line, now) {
            MshrRequest::Merged { id, completes_at } => {
                let outcome = match self.mshr_outcome[id.slot()] {
                    Some((owner, o)) if owner == id => o,
                    _ => AccessOutcome::L1MissL2Hit,
                };
                if is_write {
                    // Mark the line dirty once it arrives.
                    self.l1d.fill(addr, now, completes_at, true);
                }
                return Ok((completes_at.max(now + l1_lat), outcome, Some(id)));
            }
            MshrRequest::Full { retry_at } => return Err(MemError::MshrFull { retry_at }),
            MshrRequest::Allocated(id) => id,
        };
        self.stats.l1d_misses += 1;

        // 4. L2 probe.
        let (completes, outcome) = match self.l2.access(addr, now, false) {
            ProbeResult::Hit { ready_at } => {
                let completes = (now + l1_lat + self.config.l2_hit_latency).max(ready_at);
                (completes, AccessOutcome::L1MissL2Hit)
            }
            ProbeResult::Miss => {
                // 5. Memory access via the bus.
                self.stats.l2_misses += 1;
                let transfer = self.bus.schedule(now + self.config.l2_hit_latency);
                let completes = transfer.critical_chunk_at + l1_lat;
                self.l2
                    .fill(addr, now, transfer.line_complete_at, false);
                (completes, AccessOutcome::L2Miss)
            }
        };
        self.l1d.fill(addr, now, completes, is_write);
        self.mshrs.set_completion(mshr_id, completes);
        // Slot reuse overwrites stale generations; no pruning pass needed.
        self.mshr_outcome[mshr_id.slot()] = Some((mshr_id, outcome));

        // 6. Train the stream prefetcher on the demand miss.
        let reqs = self.prefetcher.on_demand_miss(addr, now);
        for req in reqs {
            self.issue_prefetch(req, now);
        }

        Ok((completes, outcome, Some(mshr_id)))
    }

    fn issue_prefetch(&mut self, req: crate::prefetch::PrefetchRequest, now: Cycle) {
        // Prefetches that already hit on-chip are free; only memory-bound
        // prefetches consume bus bandwidth — and only *spare* bandwidth: a
        // prefetch the bus cannot accept promptly is dropped, never queued
        // ahead of future demand misses.
        let arrival = if self.l1d.peek(req.block_addr) {
            now
        } else if self.l2.peek(req.block_addr) {
            now + self.config.l2_hit_latency
        } else {
            let Some(t) = self.bus.schedule_prefetch(now + self.config.l2_hit_latency) else {
                // Dropped: roll the stream back so the block is re-requested
                // later instead of becoming a permanent hole.
                self.prefetcher.record_drop(req);
                return;
            };
            // Prefetched lines are installed in the L2 as well, modelling the
            // common install-on-prefetch policy.
            self.l2.fill(req.block_addr, now, t.line_complete_at, false);
            t.line_complete_at
        };
        self.prefetcher.record_arrival(req, arrival);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(MemConfig::paper_default().with_prefetch(false))
    }

    #[test]
    fn cold_load_is_an_l2_miss_with_memory_latency() {
        let mut m = hier();
        let r = m.load(0x4000, 0).unwrap();
        assert_eq!(r.outcome, AccessOutcome::L2Miss);
        // 20 (L2 lookup) + 400 (memory) + 3 (fill/use) = 423.
        assert_eq!(r.completes_at, 423);
        assert!(r.mshr.is_some());
        assert_eq!(m.stats().l1d_misses, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn second_load_to_same_line_merges() {
        let mut m = hier();
        let a = m.load(0x4000, 0).unwrap();
        let b = m.load(0x4008, 1).unwrap();
        assert_eq!(b.completes_at, a.completes_at.max(1 + 3));
        assert_eq!(b.outcome, AccessOutcome::L1Hit); // hit-under-fill on the same L1 line
        assert_eq!(m.stats().l1d_misses, 1, "merged access must not double-count");
    }

    #[test]
    fn load_after_fill_completes_is_an_l1_hit() {
        let mut m = hier();
        let a = m.load(0x4000, 0).unwrap();
        let r = m.load(0x4000, a.completes_at + 10).unwrap();
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
        assert_eq!(r.completes_at, a.completes_at + 10 + 3);
    }

    #[test]
    fn l2_hit_latency_applies_after_l1_eviction() {
        let mut m = hier();
        let a = m.load(0x4000, 0).unwrap();
        let warm = a.completes_at + 1;
        // Evict 0x4000 from L1 by filling many lines mapping to the same set.
        // L1: 32KB/4-way/64B → 128 sets; same set every 128*64 = 8192 bytes.
        let mut t = warm;
        for i in 1..=8u64 {
            let r = m.load(0x4000 + i * 8192, t).unwrap();
            t = r.completes_at + 1;
        }
        let r = m.load(0x4000, t).unwrap();
        // Must not be an L2 miss: the line is still in L2 (and may even hit a
        // victim buffer, in which case it is an L1 hit).
        assert_ne!(r.outcome, AccessOutcome::L2Miss);
    }

    #[test]
    fn different_lines_overlap_in_the_mlp_tracker() {
        let one = hier().load(0x10000, 0).unwrap().completes_at;
        let mut m = hier();
        m.load(0x10000, 0).unwrap();
        m.load(0x20000, 1).unwrap();
        let last = m.load(0x30000, 2).unwrap();
        // Three independent misses overlap: all are done well before two
        // serial misses' latency.
        assert_eq!(last.outcome, AccessOutcome::L2Miss);
        assert!(last.completes_at < 2 * one, "{} vs one miss {one}", last.completes_at);
    }

    #[test]
    fn bus_serializes_many_parallel_misses() {
        let mut m = hier();
        let mut completions = Vec::new();
        for i in 0..4u64 {
            completions.push(m.load(0x100000 + i * 0x1000, 0).unwrap().completes_at);
        }
        // Consecutive transfers are spaced by the 32-cycle bus interval.
        assert_eq!(completions[1] - completions[0], 32);
        assert_eq!(completions[3] - completions[0], 96);
    }

    #[test]
    fn mshr_exhaustion_reports_full() {
        let mut m = MemoryHierarchy::new(MemConfig::tiny_for_tests());
        let cap = m.config().max_outstanding_misses;
        for i in 0..cap as u64 {
            m.load(0x10000 + i * 0x1000, 0).unwrap();
        }
        let err = m.load(0xFF0000, 0).unwrap_err();
        match err {
            MemError::MshrFull { retry_at } => assert!(retry_at > 0),
        }
    }

    #[test]
    fn merged_access_reports_primary_outcome_via_flat_slot_table() {
        let mut m = hier();
        let a = m.load(0x4000, 0).unwrap();
        assert_eq!(a.outcome, AccessOutcome::L2Miss);
        let a_id = a.mshr.expect("primary miss holds an MSHR");
        // Thrash the line's L1 set (stride = sets × line bytes = 8192) hard
        // enough to push it out of the array *and* the victim buffer while
        // its fill is still in flight (12 evictions > 4 ways + 8 victims).
        for i in 1..=12u64 {
            m.load(0x4000 + i * 8192, 1).unwrap();
        }
        // Re-access: the line is gone from the L1 but its MSHR is live — the
        // access merges, and the slot-indexed outcome table must report the
        // *primary* miss's outcome and completion, not a default.
        let r = m.load(0x4000, 20).unwrap();
        assert_eq!(r.mshr, Some(a_id));
        assert_eq!(r.outcome, AccessOutcome::L2Miss);
        assert_eq!(r.completes_at, a.completes_at.max(20 + 3));
    }

    #[test]
    fn mshr_slot_recycling_keeps_outcomes_fresh() {
        // One MSHR: every miss reuses slot 0, exercising the generation guard
        // on the flat outcome table.
        let mut m = MemoryHierarchy::new(MemConfig {
            max_outstanding_misses: 1,
            ..MemConfig::paper_default().with_prefetch(false)
        });
        let a = m.load(0x4000, 0).unwrap();
        let a_id = a.mshr.unwrap();
        let b = m.load(0x20000, a.completes_at + 1).unwrap();
        let b_id = b.mshr.unwrap();
        assert_eq!(b_id.slot(), a_id.slot(), "the single slot must be reused");
        assert_ne!(b_id, a_id, "generation must advance on slot reuse");
        assert_eq!(b.outcome, AccessOutcome::L2Miss);
        // A hit-under-fill on the recycled slot's line sees the new owner's
        // completion time and MSHR id, not the stale generation's.
        let r = m.load(0x20000 + 8, a.completes_at + 2).unwrap();
        assert_eq!(r.mshr, Some(b_id));
        assert_eq!(r.completes_at, b.completes_at.max(a.completes_at + 2 + 3));
    }

    #[test]
    fn stores_write_allocate_and_dirty_lines() {
        let mut m = hier();
        let s = m.store(0x4000, 0).unwrap();
        assert_eq!(s.outcome, AccessOutcome::L2Miss);
        let r = m.load(0x4000, s.completes_at + 1).unwrap();
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
    }

    #[test]
    fn prefetcher_catches_streaming_pattern() {
        let mut m = MemoryHierarchy::new(MemConfig::paper_default());
        // Walk sequentially through memory; after the first few misses the
        // stream buffers should start supplying lines.
        let mut now = 0;
        let mut outcomes = Vec::new();
        for i in 0..64u64 {
            let r = m.load(0x100000 + i * 64, now).unwrap();
            outcomes.push(r.outcome);
            now += 4; // keep issuing; do not wait for data
        }
        assert!(
            outcomes.contains(&AccessOutcome::PrefetchHit),
            "expected some prefetch hits on a sequential stream: {outcomes:?}"
        );
    }

    #[test]
    fn classify_is_non_destructive() {
        let m = hier();
        assert_eq!(m.classify(0x4000), AccessOutcome::L2Miss);
        assert_eq!(m.stats().loads, 0);
    }

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::L2Miss.is_l1_miss());
        assert!(AccessOutcome::L2Miss.is_l2_miss());
        assert!(AccessOutcome::L1MissL2Hit.is_l1_miss());
        assert!(!AccessOutcome::L1MissL2Hit.is_l2_miss());
        assert!(!AccessOutcome::L1Hit.is_l1_miss());
        assert!(AccessOutcome::PrefetchHit.is_l1_miss());
    }
}
