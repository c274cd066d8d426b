//! Store-forwarding structures: the address-hash-chained store buffer (the
//! paper's design, Section 3.2), its idealised and limited alternatives
//! (Figure 8) and the Runahead cache used by Runahead/Multipass.
//!
//! ## Address-hash chaining
//!
//! Stores are named by *store sequence numbers* (SSNs).  The store buffer is
//! an indexed (non-associative) array; a small address-indexed *chain table*
//! maps a hash of the address to the SSN of the youngest store with that
//! hash, and every buffer entry carries an `SSNlink` pointing to the next
//! youngest store with the same hash.  A load forwards by walking the chain
//! rooted at its address's chain-table entry until it finds an address match,
//! reaches a store older than `SSNcomplete` (already drained to the cache —
//! a chain-terminating "null pointer"), or runs off the chain.  The first
//! probe is free (performed in parallel with the data-cache access); each
//! additional walk step is an *excess hop* that adds latency.

use crate::config::StoreBufferKind;
use icfp_isa::{Addr, InstSeq, Value};
use icfp_pipeline::PoisonMask;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A store sequence number (SSN): a monotonically increasing dynamic store
/// name.  SSNs start at 1 so that 0 can mean "no store".
pub type Ssn = u64;

/// One buffered store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreEntry {
    /// The store's SSN.
    pub ssn: Ssn,
    /// Dynamic sequence number of the store instruction in the trace.
    pub seq: InstSeq,
    /// Store address.
    pub addr: Addr,
    /// Store data (meaningful only when `poison` is clean).
    pub value: Value,
    /// Poison state of the store's *data* operand.
    pub poison: PoisonMask,
    /// SSN of the next-youngest store with the same address hash (0 = none).
    pub ssn_link: Ssn,
}

/// Result of a forwarding probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardResult {
    /// The matching store, if any (youngest older-than-the-load store to the
    /// same address still in the buffer).
    pub store: Option<StoreEntry>,
    /// Excess chain hops taken beyond the free first probe.
    pub excess_hops: u64,
    /// For [`StoreBufferKind::IndexedLimited`]: the probe hit the chain table
    /// but the indexed store's address did not match, so the pipeline must
    /// stall until that store drains.
    pub must_stall: bool,
}

/// Error returned when the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferFull;

impl std::fmt::Display for StoreBufferFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store buffer is full")
    }
}

impl std::error::Error for StoreBufferFull {}

/// The advance store buffer.  One implementation serves the three
/// organisations compared in Figure 8 (chained, idealised fully-associative,
/// indexed with limited forwarding); the organisation only changes how
/// forwarding probes behave, not what is buffered.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainedStoreBuffer {
    kind: StoreBufferKind,
    capacity: usize,
    /// Entries ordered by SSN (front = oldest still-buffered store).
    entries: VecDeque<StoreEntry>,
    /// Chain table: address hash → youngest SSN with that hash (0 = none).
    chain_table: Vec<Ssn>,
    /// SSN that will be assigned to the next store (SSNtail + 1).
    next_ssn: Ssn,
    /// Youngest SSN whose store has drained to the data cache (SSNcomplete).
    ssn_complete: Ssn,
}

impl ChainedStoreBuffer {
    /// Creates a store buffer of the given organisation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `chain_table_entries` is zero.
    pub fn new(kind: StoreBufferKind, capacity: usize, chain_table_entries: usize) -> Self {
        assert!(capacity > 0, "store buffer capacity must be positive");
        assert!(chain_table_entries > 0, "chain table must have entries");
        ChainedStoreBuffer {
            kind,
            capacity,
            entries: VecDeque::with_capacity(capacity),
            chain_table: vec![0; chain_table_entries],
            next_ssn: 1,
            ssn_complete: 0,
        }
    }

    /// The buffer organisation.
    pub fn kind(&self) -> StoreBufferKind {
        self.kind
    }

    /// Number of stores currently buffered (allocated and not yet drained).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the buffer cannot accept another store.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The SSN of the youngest allocated store (`SSNtail`); 0 if none ever.
    pub fn ssn_tail(&self) -> Ssn {
        self.next_ssn - 1
    }

    /// The SSN of the youngest store already written to the cache
    /// (`SSNcomplete`).
    pub fn ssn_complete(&self) -> Ssn {
        self.ssn_complete
    }

    fn hash(&self, addr: Addr) -> usize {
        ((addr >> 3) as usize) % self.chain_table.len()
    }

    /// Allocates a store, chaining it into its address-hash chain.  The data
    /// may be poisoned (unknown); the *address* must be known — stores with
    /// poisoned addresses cannot be chained and must stall the pipeline
    /// (Section 3.2), which the core models handle before calling this.
    ///
    /// # Errors
    ///
    /// Returns [`StoreBufferFull`] if the buffer has no free entry.
    pub fn push(
        &mut self,
        seq: InstSeq,
        addr: Addr,
        value: Value,
        poison: PoisonMask,
    ) -> Result<Ssn, StoreBufferFull> {
        if self.is_full() {
            return Err(StoreBufferFull);
        }
        let ssn = self.next_ssn;
        self.next_ssn += 1;
        let h = self.hash(addr);
        let link = self.chain_table[h];
        self.chain_table[h] = ssn;
        self.entries.push_back(StoreEntry {
            ssn,
            seq,
            addr,
            value,
            poison,
            ssn_link: link,
        });
        Ok(ssn)
    }

    fn entry_by_ssn(&self, ssn: Ssn) -> Option<&StoreEntry> {
        if ssn == 0 || ssn <= self.ssn_complete {
            return None;
        }
        let front_ssn = self.entries.front()?.ssn;
        if ssn < front_ssn {
            return None;
        }
        let idx = (ssn - front_ssn) as usize;
        self.entries.get(idx)
    }

    /// Forwarding probe for a load to `addr` whose *store colour* is
    /// `color` — the SSN of the youngest store older than the load in program
    /// order.  Stores younger than the colour are skipped (they are younger
    /// than the load; rallying loads simply walk past them, Section 3.2).
    pub fn forward(&self, addr: Addr, color: Ssn) -> ForwardResult {
        match self.kind {
            StoreBufferKind::FullyAssociative => {
                let store = self
                    .entries
                    .iter()
                    .rev()
                    .find(|e| e.ssn <= color && e.addr == addr)
                    .copied();
                ForwardResult {
                    store,
                    excess_hops: 0,
                    must_stall: false,
                }
            }
            StoreBufferKind::IndexedLimited => {
                // Only the chain-table root is examined.  If it points at an
                // in-buffer store with a different address, forwarding cannot
                // be ruled out and the pipeline must stall.
                let root = self.chain_table[self.hash(addr)];
                match self.entry_by_ssn(root) {
                    None => ForwardResult {
                        store: None,
                        excess_hops: 0,
                        must_stall: false,
                    },
                    Some(e) if e.addr == addr && e.ssn <= color => ForwardResult {
                        store: Some(*e),
                        excess_hops: 0,
                        must_stall: false,
                    },
                    Some(_) => ForwardResult {
                        store: None,
                        excess_hops: 0,
                        must_stall: true,
                    },
                }
            }
            StoreBufferKind::Chained => {
                let mut hops = 0u64;
                let mut first_probe = true;
                let mut ssn = self.chain_table[self.hash(addr)];
                let mut found = None;
                while let Some(e) = self.entry_by_ssn(ssn) {
                    if !first_probe {
                        hops += 1;
                    }
                    first_probe = false;
                    if e.ssn <= color && e.addr == addr {
                        found = Some(*e);
                        break;
                    }
                    ssn = e.ssn_link;
                }
                ForwardResult {
                    store: found,
                    excess_hops: hops,
                    must_stall: false,
                }
            }
        }
    }

    /// Updates the data of the store with dynamic sequence number `seq`
    /// (a rallying slice store whose value has just been computed), clearing
    /// its poison.  Returns true if the store was found.
    pub fn resolve_value(&mut self, seq: InstSeq, value: Value) -> bool {
        for e in self.entries.iter_mut() {
            if e.seq == seq {
                e.value = value;
                e.poison = PoisonMask::CLEAN;
                return true;
            }
        }
        false
    }

    /// Drains (in program order) every store whose dynamic sequence number is
    /// `< completed_seq` and whose data is not poisoned, stopping at the first
    /// store that cannot drain.  Appends the drained `(addr, value)` pairs to
    /// `out` (which the caller clears, reusing its capacity across cycles) so
    /// the caller can write them to the data cache / architectural memory.
    pub fn drain_completed_into(&mut self, completed_seq: InstSeq, out: &mut Vec<(Addr, Value)>) {
        while let Some(front) = self.entries.front() {
            if front.seq < completed_seq && front.poison.is_clean() {
                let e = self.entries.pop_front().expect("front exists");
                self.ssn_complete = e.ssn;
                // Clean up chain-table roots that point at drained stores.
                let h = self.hash(e.addr);
                if self.chain_table[h] == e.ssn {
                    self.chain_table[h] = 0;
                }
                out.push((e.addr, e.value));
            } else {
                break;
            }
        }
    }

    /// Drains everything unconditionally (end of a run, when all stores are
    /// known complete), appending to `out` (which the caller clears).
    /// Poisoned stores are dropped — architecturally dead by then.
    pub fn drain_all_into(&mut self, out: &mut Vec<(Addr, Value)>) {
        while let Some(e) = self.entries.pop_front() {
            self.ssn_complete = e.ssn;
            if e.poison.is_clean() {
                out.push((e.addr, e.value));
            }
        }
        for slot in &mut self.chain_table {
            *slot = 0;
        }
    }
}

/// The Runahead cache (R$): a small direct-mapped, best-effort structure that
/// advance stores write and advance loads read during Runahead/Multipass
/// episodes.  It is *not* architectural — evictions silently lose data, which
/// is acceptable because Runahead discards all advance results anyway.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunaheadCache {
    entries: Vec<Option<(Addr, Value, PoisonMask)>>,
}

impl RunaheadCache {
    /// Creates a runahead cache with `entries` direct-mapped word entries.
    pub fn new(entries: usize) -> Self {
        RunaheadCache {
            entries: vec![None; entries.max(1)],
        }
    }

    fn index(&self, addr: Addr) -> usize {
        ((addr >> 3) as usize) % self.entries.len()
    }

    /// Records an advance store.
    pub fn write(&mut self, addr: Addr, value: Value, poison: PoisonMask) {
        let i = self.index(addr);
        self.entries[i] = Some((addr & !7, value, poison));
    }

    /// Best-effort forwarding for an advance load.
    pub fn read(&self, addr: Addr) -> Option<(Value, PoisonMask)> {
        let i = self.index(addr);
        match self.entries[i] {
            Some((a, v, p)) if a == (addr & !7) => Some((v, p)),
            _ => None,
        }
    }

    /// Clears the cache (end of a runahead episode).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chained(cap: usize, ct: usize) -> ChainedStoreBuffer {
        ChainedStoreBuffer::new(StoreBufferKind::Chained, cap, ct)
    }

    #[test]
    fn push_forward_basic_match() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 111, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x48, 222, PoisonMask::CLEAN).unwrap();
        let f = sb.forward(0x40, sb.ssn_tail());
        assert_eq!(f.store.unwrap().value, 111);
        assert!(!f.must_stall);
        let miss = sb.forward(0x80, sb.ssn_tail());
        assert!(miss.store.is_none());
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x40, 2, PoisonMask::CLEAN).unwrap();
        sb.push(2, 0x40, 3, PoisonMask::CLEAN).unwrap();
        let f = sb.forward(0x40, sb.ssn_tail());
        assert_eq!(f.store.unwrap().value, 3);
    }

    #[test]
    fn store_colour_hides_younger_stores() {
        // Rallying loads follow the chain past stores younger than themselves.
        let mut sb = chained(8, 64);
        let s1 = sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        let _s2 = sb.push(5, 0x40, 2, PoisonMask::CLEAN).unwrap();
        let f = sb.forward(0x40, s1); // load older than the second store
        assert_eq!(f.store.unwrap().value, 1);
        assert_eq!(f.excess_hops, 1, "walking past the younger store costs a hop");
    }

    #[test]
    fn hash_collisions_cost_hops_but_still_forward() {
        // Chain table with a single entry: everything collides.
        let mut sb = chained(8, 1);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x80, 2, PoisonMask::CLEAN).unwrap();
        sb.push(2, 0xC0, 3, PoisonMask::CLEAN).unwrap();
        let f = sb.forward(0x40, sb.ssn_tail());
        assert_eq!(f.store.unwrap().value, 1);
        assert_eq!(f.excess_hops, 2);
    }

    #[test]
    fn poisoned_store_forwards_its_poison() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 0, PoisonMask::bit(2)).unwrap();
        let f = sb.forward(0x40, sb.ssn_tail());
        assert!(f.store.unwrap().poison.is_poisoned());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut sb = chained(2, 16);
        sb.push(0, 0x0, 0, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x8, 0, PoisonMask::CLEAN).unwrap();
        assert!(sb.is_full());
        assert_eq!(sb.push(2, 0x10, 0, PoisonMask::CLEAN), Err(StoreBufferFull));
    }

    #[test]
    fn drain_respects_program_order_and_poison() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x48, 2, PoisonMask::bit(0)).unwrap();
        sb.push(2, 0x50, 3, PoisonMask::CLEAN).unwrap();
        // Only the first store can drain: the second is poisoned and blocks
        // the third (program order).
        let mut drained = Vec::new();
        sb.drain_completed_into(10, &mut drained);
        assert_eq!(drained, vec![(0x40, 1)]);
        assert_eq!(sb.len(), 2);
        // Resolve the poisoned store; now both drain.
        assert!(sb.resolve_value(1, 22));
        drained.clear();
        sb.drain_completed_into(10, &mut drained);
        assert_eq!(drained, vec![(0x48, 22), (0x50, 3)]);
        assert!(sb.is_empty());
    }

    #[test]
    fn drain_stops_at_incomplete_seq() {
        let mut sb = chained(8, 64);
        sb.push(5, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(9, 0x48, 2, PoisonMask::CLEAN).unwrap();
        let mut drained = Vec::new();
        sb.drain_completed_into(9, &mut drained);
        assert_eq!(drained.len(), 1);
        assert_eq!(sb.len(), 1);
    }

    #[test]
    fn drain_scratch_capacity_is_reused_across_cycles() {
        // Steady-state guarantee for the simulation hot loop: after a warm-up
        // round, repeated push/drain cycles through the same scratch buffer
        // never grow it again — no per-cycle heap allocation.
        let mut sb = chained(32, 64);
        let mut scratch: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut round = |sb: &mut ChainedStoreBuffer, scratch: &mut Vec<(u64, u64)>| {
            for _ in 0..24u64 {
                sb.push(seq, 0x40 + (seq % 16) * 8, seq, PoisonMask::CLEAN)
                    .unwrap();
                seq += 1;
            }
            scratch.clear();
            sb.drain_completed_into(seq, scratch);
            assert_eq!(scratch.len(), 24);
        };
        round(&mut sb, &mut scratch);
        let warmed = scratch.capacity();
        for _ in 0..100 {
            round(&mut sb, &mut scratch);
            assert_eq!(
                scratch.capacity(),
                warmed,
                "drain scratch must not reallocate in steady state"
            );
        }
    }

    #[test]
    fn drained_stores_terminate_chains() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.drain_completed_into(1, &mut Vec::new());
        let f = sb.forward(0x40, sb.ssn_tail());
        assert!(f.store.is_none(), "drained store must act as a null pointer");
    }

    #[test]
    fn fully_associative_never_hops() {
        let mut sb = ChainedStoreBuffer::new(StoreBufferKind::FullyAssociative, 8, 1);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x80, 2, PoisonMask::CLEAN).unwrap();
        sb.push(2, 0xC0, 3, PoisonMask::CLEAN).unwrap();
        let f = sb.forward(0x40, sb.ssn_tail());
        assert_eq!(f.store.unwrap().value, 1);
        assert_eq!(f.excess_hops, 0);
    }

    #[test]
    fn limited_forwarding_stalls_on_root_mismatch() {
        let mut sb = ChainedStoreBuffer::new(StoreBufferKind::IndexedLimited, 8, 1);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x80, 2, PoisonMask::CLEAN).unwrap();
        // Root of the single chain-table entry is the store to 0x80; a load to
        // 0x40 sees a mismatching root and must stall.
        let f = sb.forward(0x40, sb.ssn_tail());
        assert!(f.must_stall);
        assert!(f.store.is_none());
        // A load to the root's own address forwards fine.
        let ok = sb.forward(0x80, sb.ssn_tail());
        assert_eq!(ok.store.unwrap().value, 2);
        assert!(!ok.must_stall);
    }

    #[test]
    fn drain_all_into_drops_poisoned_stores() {
        let mut sb = chained(8, 64);
        sb.push(0, 0x40, 1, PoisonMask::CLEAN).unwrap();
        sb.push(1, 0x48, 2, PoisonMask::bit(1)).unwrap();
        let mut drained = Vec::new();
        sb.drain_all_into(&mut drained);
        assert_eq!(drained, vec![(0x40, 1)], "poisoned store dropped on the final drain");
        assert!(sb.is_empty());
        assert_eq!(sb.forward(0x40, sb.ssn_tail()).store, None);
    }

    #[test]
    fn runahead_cache_best_effort() {
        let mut rc = RunaheadCache::new(4);
        rc.write(0x40, 7, PoisonMask::CLEAN);
        assert_eq!(rc.read(0x40), Some((7, PoisonMask::CLEAN)));
        assert_eq!(rc.read(0x48), None);
        // A colliding write silently evicts.
        rc.write(0x40 + 4 * 8, 9, PoisonMask::CLEAN);
        assert_eq!(rc.read(0x40), None);
        rc.clear();
        assert_eq!(rc.read(0x40 + 4 * 8), None);
    }

    #[test]
    fn runahead_cache_poison_propagates() {
        let mut rc = RunaheadCache::new(16);
        rc.write(0x100, 0, PoisonMask::bit(0));
        let (_, p) = rc.read(0x100).unwrap();
        assert!(p.is_poisoned());
    }
}
