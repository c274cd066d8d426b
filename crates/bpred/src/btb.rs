//! Branch target buffer.

use icfp_isa::Addr;
use serde::{Deserialize, Reader, Serialize};

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BtbEntry {
    valid: bool,
    tag: Addr,
    target: Addr,
    lru: u64,
}

/// A set-associative branch target buffer: one flat array of entries,
/// indexed `set * assoc + way`.
#[derive(Debug, Clone, Serialize)]
pub struct Btb {
    assoc: usize,
    num_sets: usize,
    tick: u64,
    entries: Vec<BtbEntry>,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero or `entries` is not a multiple of `assoc`.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(assoc > 0, "BTB associativity must be positive");
        assert!(
            entries.is_multiple_of(assoc) && entries > 0,
            "BTB entries must be a positive multiple of associativity"
        );
        let num_sets = (entries / assoc).next_power_of_two();
        Btb {
            assoc,
            num_sets,
            tick: 0,
            entries: vec![BtbEntry::default(); num_sets * assoc],
        }
    }

    /// The entries of the set `pc` maps to.
    fn set(&self, pc: Addr) -> std::ops::Range<usize> {
        let base = (((pc >> 2) as usize) & (self.num_sets - 1)) * self.assoc;
        base..base + self.assoc
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: Addr) -> Option<Addr> {
        self.entries[self.set(pc)]
            .iter()
            .find(|e| e.valid && e.tag == pc)
            .map(|e| e.target)
    }

    /// Inserts or updates the target for the (taken) branch at `pc`.
    pub fn insert(&mut self, pc: Addr, target: Addr) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set(pc);
        let set = &mut self.entries[set];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == pc) {
            e.target = target;
            e.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("associativity > 0");
        *victim = BtbEntry {
            valid: true,
            tag: pc,
            target,
            lru: tick,
        };
    }

    /// Number of valid entries currently stored.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

/// Refuses a geometry [`Btb::new`] cannot produce and a table that is not
/// sets × associativity entries.
impl Deserialize for Btb {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let assoc: usize = Deserialize::deserialize(r)?;
        let num_sets: usize = Deserialize::deserialize(r)?;
        let size = num_sets.checked_mul(assoc).filter(|_| assoc > 0 && num_sets.is_power_of_two());
        let size = size.ok_or(serde::Error::invalid("btb geometry", r.position()))?;
        Ok(Btb {
            assoc,
            num_sets,
            tick: Deserialize::deserialize(r)?,
            entries: serde::vec_of_len(r, size, "btb table size")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup() {
        let mut b = Btb::new(64, 4);
        assert_eq!(b.lookup(0x100), None);
        b.insert(0x100, 0x2000);
        assert_eq!(b.lookup(0x100), Some(0x2000));
    }

    #[test]
    fn update_overwrites_target() {
        let mut b = Btb::new(64, 4);
        b.insert(0x100, 0x2000);
        b.insert(0x100, 0x3000);
        assert_eq!(b.lookup(0x100), Some(0x3000));
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut b = Btb::new(8, 2); // 4 sets, 2 ways
        // PCs mapping to the same set: stride num_sets*4 = 16 bytes.
        b.insert(0x100, 1);
        b.insert(0x110, 2);
        b.lookup(0x100);
        b.insert(0x100, 1); // refresh 0x100
        b.insert(0x120, 3); // evicts 0x110
        assert_eq!(b.lookup(0x100), Some(1));
        assert_eq!(b.lookup(0x110), None);
        assert_eq!(b.lookup(0x120), Some(3));
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_panics() {
        let _ = Btb::new(8, 0);
    }
}
