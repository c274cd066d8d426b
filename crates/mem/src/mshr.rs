//! Miss-status holding registers (MSHRs).
//!
//! The MSHR file tracks outstanding misses at cache-line granularity.  A new
//! miss to a line that already has an MSHR merges into it (a *secondary
//! reference*); a miss when all MSHRs are occupied must stall.  The iCFP core
//! also uses MSHR identities to assign poison-vector bits (Section 3.4 of the
//! paper: "Load misses to the same MSHR (i.e., cache line) are allocated the
//! same bit").

use icfp_isa::{Addr, Cycle};
use serde::{Deserialize, Serialize};

/// Identifier of an allocated MSHR entry.
///
/// The low [`MshrId::SLOT_BITS`] bits encode the *slot* the entry occupies in
/// the MSHR file; the remaining bits are a monotonically increasing
/// generation, so ids are never confused even after a slot is recycled.  The
/// slot encoding lets consumers (the memory hierarchy's per-miss outcome
/// table, poison allocators, ...) key flat fixed-size arrays by MSHR instead
/// of hash maps — the id *is* the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MshrId(pub u64);

impl MshrId {
    /// Number of low bits that encode the slot index (supports files of up to
    /// 65 536 entries — far above any realistic configuration).
    pub const SLOT_BITS: u32 = 16;

    /// The slot this entry occupies in its MSHR file.  Stable for the
    /// lifetime of the entry; reused (with a new generation) after retirement.
    pub fn slot(self) -> usize {
        (self.0 & ((1 << Self::SLOT_BITS) - 1)) as usize
    }

    /// The allocation generation (increases monotonically across a run).
    pub fn generation(self) -> u64 {
        self.0 >> Self::SLOT_BITS
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct MshrEntry {
    id: MshrId,
    line_addr: Addr,
    completes_at: Cycle,
    /// Whether this miss was initiated by a prefetch rather than a demand access.
    prefetch: bool,
}

/// A finite file of MSHRs with merge-on-same-line semantics.
///
/// Storage is *slot-indexed*: entry `k` lives in `slots[k]` for its entire
/// lifetime and its [`MshrId`] encodes `k`, so completion updates and
/// per-miss side tables are O(1) array accesses.  Lookups by line address
/// walk the (small, fixed) slot array once, and no method allocates after
/// [`MshrFile::new`] — part of the whole-run allocation budget that
/// `crates/sim/tests/steady_state_allocs.rs` enforces.
#[derive(Debug, Clone)]
pub struct MshrFile {
    slots: Vec<Option<MshrEntry>>,
    outstanding: usize,
    next_gen: u64,
    /// No outstanding miss completes before this cycle, so
    /// [`MshrFile::retire_completed`] for an earlier `now` has nothing to do
    /// and returns without touching the slots.  Derived from `slots`: not in
    /// the serialized form, recomputed on decode.
    next_completion: Cycle,
}

impl Serialize for MshrFile {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.slots.serialize(out);
        self.outstanding.serialize(out);
        self.next_gen.serialize(out);
    }
}

impl Deserialize for MshrFile {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let slots: Vec<Option<MshrEntry>> = Deserialize::deserialize(r)?;
        let outstanding: usize = Deserialize::deserialize(r)?;
        // The slot walks stop after `outstanding` occupied slots.
        if outstanding != slots.iter().flatten().count() {
            return Err(serde::Error::invalid("MSHR outstanding count", r.position()));
        }
        Ok(MshrFile {
            next_completion: earliest_completion(&slots),
            slots,
            outstanding,
            next_gen: Deserialize::deserialize(r)?,
        })
    }
}

/// The earliest completion cycle among the occupied `slots`
/// (`Cycle::MAX` when none is occupied).
fn earliest_completion(slots: &[Option<MshrEntry>]) -> Cycle {
    slots
        .iter()
        .flatten()
        .map(|e| e.completes_at)
        .min()
        .unwrap_or(Cycle::MAX)
}

/// What one walk over the slots found for a line address.
enum SlotProbe {
    /// The slot whose outstanding miss covers the line.
    Covers(usize),
    /// No miss covers the line; this is the first free slot.
    Free(usize),
    /// No miss covers the line and every slot is occupied.
    Full,
}

/// Result of requesting an MSHR for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrRequest {
    /// A new MSHR was allocated for this line.
    Allocated(MshrId),
    /// The line already had an outstanding miss; the request merged into it
    /// and will complete when that miss completes.
    Merged {
        /// The existing MSHR.
        id: MshrId,
        /// Completion cycle of the existing miss.
        completes_at: Cycle,
    },
    /// No MSHR is free; the earliest cycle at which one frees is given.
    Full {
        /// Cycle at which the earliest outstanding miss completes.
        retry_at: Cycle,
    },
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < (1 << MshrId::SLOT_BITS),
            "MSHR capacity exceeds slot encoding"
        );
        MshrFile {
            slots: vec![None; capacity],
            outstanding: 0,
            next_gen: 0,
            next_completion: Cycle::MAX,
        }
    }

    /// Number of slots (the configured capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True if no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.outstanding == 0
    }

    /// Retires every entry whose miss has completed by `now`.  Returns at
    /// once when no outstanding miss can have completed yet, so calling it on
    /// every access costs one compare.
    pub fn retire_completed(&mut self, now: Cycle) {
        if now < self.next_completion {
            return;
        }
        let mut next = Cycle::MAX;
        let mut unseen = self.outstanding;
        for s in &mut self.slots {
            if unseen == 0 {
                break;
            }
            if let Some(e) = s {
                unseen -= 1;
                if e.completes_at <= now {
                    *s = None;
                    self.outstanding -= 1;
                } else {
                    next = next.min(e.completes_at);
                }
            }
        }
        self.next_completion = next;
    }

    /// The one slot walk [`MshrFile::lookup`] and [`MshrFile::request`]
    /// share: the slot covering `line_addr`, else the first free one.  The
    /// walk ends at the last occupied slot — allocation takes the first free
    /// slot, so the occupied ones sit at the front of a mostly empty file.
    fn probe(&self, line_addr: Addr) -> SlotProbe {
        let mut free = None;
        let mut unseen = self.outstanding;
        for (k, s) in self.slots.iter().enumerate() {
            if unseen == 0 {
                // Every later slot is free.
                return SlotProbe::Free(free.unwrap_or(k));
            }
            match s {
                Some(e) if e.line_addr == line_addr => return SlotProbe::Covers(k),
                Some(_) => unseen -= 1,
                None => free = free.or(Some(k)),
            }
        }
        free.map_or(SlotProbe::Full, SlotProbe::Free)
    }

    /// Looks up an outstanding miss covering `line_addr`.
    pub fn lookup(&self, line_addr: Addr) -> Option<(MshrId, Cycle)> {
        match self.probe(line_addr) {
            SlotProbe::Covers(k) => self.slots[k].map(|e| (e.id, e.completes_at)),
            _ => None,
        }
    }

    /// Requests an MSHR for a miss to `line_addr` observed at `now`.
    ///
    /// The caller must call [`MshrFile::set_completion`] after an
    /// `Allocated` result once it has scheduled the memory access and knows
    /// the completion cycle.
    pub fn request(&mut self, line_addr: Addr, now: Cycle, prefetch: bool) -> MshrRequest {
        self.retire_completed(now);
        let slot = match self.probe(line_addr) {
            SlotProbe::Covers(k) => {
                let e = self.slots[k].as_mut().expect("probe found the slot occupied");
                // A demand reference upgrades a prefetch-initiated miss.
                if !prefetch {
                    e.prefetch = false;
                }
                return MshrRequest::Merged {
                    id: e.id,
                    completes_at: e.completes_at,
                };
            }
            SlotProbe::Full => {
                let retry_at = if self.slots.is_empty() {
                    now + 1
                } else {
                    earliest_completion(&self.slots)
                };
                return MshrRequest::Full { retry_at };
            }
            SlotProbe::Free(k) => k,
        };
        let id = MshrId((self.next_gen << MshrId::SLOT_BITS) | slot as u64);
        self.next_gen += 1;
        self.slots[slot] = Some(MshrEntry {
            id,
            line_addr,
            completes_at: Cycle::MAX,
            prefetch,
        });
        self.outstanding += 1;
        MshrRequest::Allocated(id)
    }

    /// Records the completion cycle of a previously allocated miss.  O(1):
    /// the id's slot encoding indexes the file directly.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an outstanding MSHR.
    pub fn set_completion(&mut self, id: MshrId, completes_at: Cycle) {
        let e = self.slots[id.slot()]
            .as_mut()
            .filter(|e| e.id == id)
            .expect("set_completion on unknown MSHR");
        e.completes_at = completes_at;
        self.next_completion = self.next_completion.min(completes_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_and_retire() {
        let mut f = MshrFile::new(2);
        let id = match f.request(0x1000, 0, false) {
            MshrRequest::Allocated(id) => id,
            other => panic!("expected allocation, got {other:?}"),
        };
        f.set_completion(id, 100);
        match f.request(0x1000, 5, false) {
            MshrRequest::Merged { id: mid, completes_at } => {
                assert_eq!(mid, id);
                assert_eq!(completes_at, 100);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(f.outstanding(), 1);
        f.retire_completed(100);
        assert_eq!(f.outstanding(), 0);
    }

    #[test]
    fn full_file_reports_retry_time() {
        let mut f = MshrFile::new(1);
        let id = match f.request(0x1000, 0, false) {
            MshrRequest::Allocated(id) => id,
            _ => unreachable!(),
        };
        f.set_completion(id, 50);
        match f.request(0x2000, 1, false) {
            MshrRequest::Full { retry_at } => assert_eq!(retry_at, 50),
            other => panic!("expected full, got {other:?}"),
        }
        // After completion, allocation succeeds again.
        assert!(matches!(
            f.request(0x2000, 51, false),
            MshrRequest::Allocated(_)
        ));
    }

    #[test]
    fn different_lines_get_different_mshrs() {
        let mut f = MshrFile::new(4);
        let a = f.request(0x1000, 0, false);
        let b = f.request(0x2000, 0, false);
        match (a, b) {
            (MshrRequest::Allocated(x), MshrRequest::Allocated(y)) => assert_ne!(x, y),
            other => panic!("expected two allocations, got {other:?}"),
        }
    }

    #[test]
    fn demand_upgrades_prefetch() {
        let mut f = MshrFile::new(2);
        let id = match f.request(0x1000, 0, true) {
            MshrRequest::Allocated(id) => id,
            _ => unreachable!(),
        };
        f.set_completion(id, 100);
        // A demand merge should succeed and keep the same completion.
        match f.request(0x1000, 1, false) {
            MshrRequest::Merged { completes_at, .. } => assert_eq!(completes_at, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ids_are_unique_across_reuse() {
        let mut f = MshrFile::new(1);
        let a = match f.request(0x1000, 0, false) {
            MshrRequest::Allocated(id) => id,
            _ => unreachable!(),
        };
        f.set_completion(a, 10);
        f.retire_completed(10);
        let b = match f.request(0x3000, 11, false) {
            MshrRequest::Allocated(id) => id,
            _ => unreachable!(),
        };
        assert_ne!(a, b);
    }
}
