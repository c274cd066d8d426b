//! Memory bus and DRAM timing model.
//!
//! The paper's configuration (Table 1): 400-cycle latency to the first
//! 16 bytes of a line, 4 additional cycles per subsequent 16-byte chunk, and a
//! bus that can accept a new L2 line transfer only every 32 cycles.  The bus
//! occupancy is what bounds exploitable L2 MLP at roughly
//! `mem_latency / bus_line_interval ≈ 12`, a limit the paper calls out
//! explicitly in Section 5.1.

use icfp_isa::Cycle;
use serde::{Deserialize, Serialize};

/// Completion times of a line transfer from main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle at which the transfer occupies the bus (request accepted).
    pub starts_at: Cycle,
    /// Cycle at which the critical (first) chunk arrives; loads waiting on the
    /// miss can complete here.
    pub critical_chunk_at: Cycle,
    /// Cycle at which the full line has arrived; the line fill is complete.
    pub line_complete_at: Cycle,
}

/// The off-chip memory bus: serializes line transfers at a fixed interval and
/// adds DRAM access latency.
///
/// Transfers come in two priorities.  *Demand* transfers (cache misses the
/// pipeline waits on) queue behind older demand transfers plus at most one
/// bus slot of lower-priority occupancy — an arriving demand preempts queued
/// prefetches rather than waiting out the whole prefetch queue.  *Prefetch*
/// transfers use spare bandwidth only: they queue behind everything and are
/// dropped outright once the backlog exceeds a few slots.  Without the
/// priority split, a stream-prefetch burst issued on one demand miss would
/// delay the *next* demand miss by the whole burst, serializing independent
/// misses hundreds of cycles apart and destroying the memory-level
/// parallelism the paper's mechanisms exist to exploit (one line every
/// 32 cycles against a 400-cycle latency ⇒ MLP ≈ 12, Section 5.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryBus {
    /// Memory latency to the first chunk.
    latency: u64,
    /// Cycles per additional chunk.
    chunk_latency: u64,
    /// Chunks per line.
    chunks_per_line: u64,
    /// Minimum spacing between transfer starts.
    line_interval: u64,
    /// Earliest cycle at which the bus can accept another transfer of any
    /// priority (the end of the full queue, prefetches included).
    next_free: Cycle,
    /// Earliest cycle at which another *demand* transfer can start (the end
    /// of the demand-only queue).
    demand_next_free: Cycle,
}

impl MemoryBus {
    /// Creates a bus/DRAM model.
    ///
    /// * `latency` — cycles from request acceptance to the first chunk;
    /// * `chunk_latency` — cycles per additional chunk;
    /// * `line_bytes` / `chunk_bytes` — determine chunks per line;
    /// * `line_interval` — minimum spacing between accepted transfers.
    pub fn new(
        latency: u64,
        chunk_latency: u64,
        line_bytes: u64,
        chunk_bytes: u64,
        line_interval: u64,
    ) -> Self {
        MemoryBus {
            latency,
            chunk_latency,
            chunks_per_line: (line_bytes / chunk_bytes).max(1),
            line_interval,
            next_free: 0,
            demand_next_free: 0,
        }
    }

    /// The earliest cycle at which a new transfer could be accepted.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Schedules a *demand* line transfer requested at `now`, returning its
    /// timing.  Demands wait for older demands plus at most one bus slot of
    /// prefetch occupancy (they preempt the rest of the prefetch queue; the
    /// already-estimated arrival times of displaced prefetches are left
    /// untouched, a deliberate approximation).
    pub fn schedule(&mut self, now: Cycle) -> Transfer {
        let preempt_floor = self.next_free.min(now + self.line_interval);
        let starts_at = now.max(self.demand_next_free).max(preempt_floor);
        self.demand_next_free = starts_at + self.line_interval;
        self.next_free = self.next_free.max(starts_at + self.line_interval);
        self.transfer_from(starts_at)
    }

    /// Schedules a *low-priority* line transfer (hardware prefetch) requested
    /// at `now`.  Prefetches use spare bandwidth only: they queue behind all
    /// scheduled transfers, and once the backlog exceeds a few slots they are
    /// dropped (returns `None`) instead of piling further delay onto the bus.
    pub fn schedule_prefetch(&mut self, now: Cycle) -> Option<Transfer> {
        let starts_at = now.max(self.next_free);
        if starts_at > now + 4 * self.line_interval {
            return None;
        }
        self.next_free = starts_at + self.line_interval;
        Some(self.transfer_from(starts_at))
    }

    fn transfer_from(&self, starts_at: Cycle) -> Transfer {
        let critical_chunk_at = starts_at + self.latency;
        let line_complete_at = critical_chunk_at + (self.chunks_per_line - 1) * self.chunk_latency;
        Transfer {
            starts_at,
            critical_chunk_at,
            line_complete_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_bus() -> MemoryBus {
        MemoryBus::new(400, 4, 128, 16, 32)
    }

    #[test]
    fn single_transfer_timing() {
        let mut bus = paper_bus();
        let t = bus.schedule(100);
        assert_eq!(t.starts_at, 100);
        assert_eq!(t.critical_chunk_at, 500);
        assert_eq!(t.line_complete_at, 500 + 7 * 4);
    }

    #[test]
    fn back_to_back_transfers_are_spaced_by_interval() {
        let mut bus = paper_bus();
        let a = bus.schedule(0);
        let b = bus.schedule(0);
        let c = bus.schedule(0);
        assert_eq!(a.starts_at, 0);
        assert_eq!(b.starts_at, 32);
        assert_eq!(c.starts_at, 64);
    }

    #[test]
    fn bus_idles_between_spaced_requests() {
        let mut bus = paper_bus();
        bus.schedule(0);
        let t = bus.schedule(1000);
        assert_eq!(t.starts_at, 1000);
    }

    #[test]
    fn mlp_bound_matches_paper_ratio() {
        // The paper: "our simulated processor can only practically exploit an
        // L2 MLP of 12, because of the ratio of memory latency (400 cycles) to
        // memory bus bandwidth (one L2 cache line every 32 cycles)".
        let bus = paper_bus();
        assert_eq!(bus.latency / bus.line_interval, 12);
    }

    #[test]
    fn demand_preempts_queued_prefetches() {
        let mut bus = paper_bus();
        bus.schedule(0); // demand, occupies 0..32
        // Four prefetches queue in spare bandwidth: 32, 64, 96, 128.
        for _ in 0..4 {
            assert!(bus.schedule_prefetch(0).is_some());
        }
        // A demand arriving at 10 waits at most one slot beyond its own
        // queue, not the whole prefetch backlog.
        let d = bus.schedule(10);
        assert_eq!(d.starts_at, 42, "demand must not queue behind prefetches");
    }

    #[test]
    fn prefetch_backlog_is_bounded() {
        let mut bus = paper_bus();
        let accepted: Vec<bool> = (0..8).map(|_| bus.schedule_prefetch(0).is_some()).collect();
        // Slots at 0, 32, 64, 96, 128 are within the 4-slot backlog bound;
        // the three requests past it are rejected.
        assert_eq!(accepted, [true, true, true, true, true, false, false, false]);
    }
}
