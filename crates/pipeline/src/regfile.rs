//! Checkpointed register files with poison and last-writer tracking.
//!
//! The iCFP paper's enhanced register dependence tracking (Section 3.1)
//! associates with each architectural register not only a poison bit (as
//! Runahead does) but also a *last-writer sequence number*: the distance from
//! the checkpoint of the most recent instruction to write the register.  At
//! writeback every advance instruction — poisoned or not — stamps its
//! destination with its own sequence number; during rallies a slice
//! instruction updates the main register file only if the register's
//! last-writer stamp equals its own sequence number, which prevents
//! write-after-write violations without renaming.
//!
//! Poison is stored as a packed [`PoisonVec`] *plane* (four registers per
//! `u64` word) rather than per-entry bits, so whole-file operations —
//! "any register poisoned?", "clear this returning miss's bits everywhere",
//! episode-end scrubbing — are word operations over `NUM_ARCH_REGS / 4`
//! words instead of per-register loops.

use crate::poison::{PoisonMask, PoisonVec};
use icfp_isa::{Cycle, InstSeq, Reg, Value, NUM_ARCH_REGS};
use serde::{Deserialize, Serialize};

/// One architectural register's simulator state (value, scoreboard and
/// last-writer stamp; the poison plane lives in [`TimedRegFile`] as a packed
/// [`PoisonVec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegEntry {
    /// Architectural value.
    pub value: Value,
    /// Cycle at which the value becomes available to dependents (scoreboard).
    pub ready_at: Cycle,
    /// Sequence number (distance from the checkpoint) of the last writer, or
    /// `None` if the register has not been written since the checkpoint.
    pub last_writer: Option<InstSeq>,
}

impl RegEntry {
    fn new(value: Value) -> Self {
        RegEntry {
            value,
            ready_at: 0,
            last_writer: None,
        }
    }
}

/// The value buffer of the last consumed checkpoint, parked so the next
/// [`TimedRegFile::checkpoint`] (one per advance episode) reuses it instead
/// of allocating.  Capacity, not state: it serializes to nothing, decodes
/// empty and never makes two register files differ.
#[derive(Debug, Clone, Default)]
struct SpareValues(Vec<Value>);

impl PartialEq for SpareValues {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SpareValues {}

impl Serialize for SpareValues {
    fn serialize(&self, _: &mut Vec<u8>) {}
}

impl Deserialize for SpareValues {
    fn deserialize(_: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        Ok(SpareValues::default())
    }
}

/// A register file with values, readiness, a packed poison plane and
/// last-writer tracking, plus one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedRegFile {
    regs: Vec<RegEntry>,
    poison: PoisonVec,
    /// The register values at the checkpoint (shadow-bitcell model: one
    /// snapshot supporting create and restore, as Runahead and Multipass
    /// require).
    checkpoint: Option<Vec<Value>>,
    spare: SpareValues,
}

impl Default for TimedRegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl TimedRegFile {
    /// Creates a register file with all registers holding deterministic
    /// initial values (matching [`icfp_isa::ArchState::new`]) and ready at
    /// cycle 0.
    pub fn new() -> Self {
        TimedRegFile {
            regs: (0..NUM_ARCH_REGS as u64)
                .map(|i| RegEntry::new(icfp_isa::exec::background_value(i.wrapping_mul(0x1001))))
                .collect(),
            poison: PoisonVec::new(NUM_ARCH_REGS),
            checkpoint: None,
            spare: SpareValues::default(),
        }
    }

    /// Read access to a register entry.
    pub fn entry(&self, r: Reg) -> &RegEntry {
        &self.regs[r.index()]
    }

    /// The architectural value of `r`.
    #[inline]
    pub fn value(&self, r: Reg) -> Value {
        self.regs[r.index()].value
    }

    /// The cycle at which `r`'s value is available.
    #[inline]
    pub fn ready_at(&self, r: Reg) -> Cycle {
        self.regs[r.index()].ready_at
    }

    /// The poison mask of `r`.
    #[inline]
    pub fn poison(&self, r: Reg) -> PoisonMask {
        self.poison.get(r.index())
    }

    /// The value of operand `r` if it is present and clean — the
    /// miss-independent side input a slice entry captures (`None` for an
    /// absent or poisoned operand).
    #[inline]
    pub fn clean_value(&self, r: Option<Reg>) -> Option<Value> {
        r.filter(|&r| self.poison(r).is_clean()).map(|r| self.value(r))
    }

    /// The last-writer stamp of `r`.
    pub fn last_writer(&self, r: Reg) -> Option<InstSeq> {
        self.regs[r.index()].last_writer
    }

    /// The packed poison plane, four registers per word in index order.
    pub fn poison_words(&self) -> &[u64] {
        self.poison.words()
    }

    /// True if any register is poisoned.  One compare per packed word.
    pub fn any_poisoned(&self) -> bool {
        self.poison.any_poisoned()
    }

    /// Writes `r` as a normal (non-poisoned) result available at `ready_at`,
    /// stamping the last-writer sequence number.
    #[inline]
    pub fn write(&mut self, r: Reg, value: Value, ready_at: Cycle, seq: InstSeq) {
        self.regs[r.index()] = RegEntry {
            value,
            ready_at,
            last_writer: Some(seq),
        };
        self.poison.clear_lane(r.index());
    }

    /// Poisons `r` with `mask`, stamping the last-writer sequence number.  The
    /// old value is retained (it is architecturally stale but harmless: any
    /// reader sees the poison).
    #[inline]
    pub fn poison_write(&mut self, r: Reg, mask: PoisonMask, seq: InstSeq) {
        let e = &mut self.regs[r.index()];
        e.last_writer = Some(seq);
        e.ready_at = 0;
        self.poison.set(r.index(), mask);
    }

    /// Gated rally update (paper Section 3.1): writes `r` only if its
    /// last-writer stamp equals `seq`.  Returns true if the write was
    /// performed (and the register un-poisoned).
    pub fn rally_write(&mut self, r: Reg, value: Value, ready_at: Cycle, seq: InstSeq) -> bool {
        let e = &mut self.regs[r.index()];
        if e.last_writer == Some(seq) {
            e.value = value;
            e.ready_at = ready_at;
            self.poison.clear_lane(r.index());
            true
        } else {
            false
        }
    }

    /// Removes the given poison bits from every register (used when a miss
    /// returns under single-bit schemes that clear optimistically).  One AND
    /// per packed word.
    pub fn clear_poison_bits(&mut self, bits: PoisonMask) {
        self.poison.clear_bits(bits);
    }

    /// Creates the checkpoint (there is only one, as in the paper's
    /// shadow-bitcell design).  Overwrites any previous checkpoint.
    pub fn checkpoint(&mut self) {
        self.release_checkpoint();
        let mut values = std::mem::take(&mut self.spare.0);
        values.extend(self.regs.iter().map(|e| e.value));
        self.checkpoint = Some(values);
    }

    /// Restores register values from the checkpoint, clearing poison,
    /// last-writer and readiness state.  The checkpoint is consumed.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint exists.
    pub fn restore(&mut self, now: Cycle) {
        let ck = self
            .checkpoint
            .take()
            .expect("restore called without a checkpoint");
        for (e, v) in self.regs.iter_mut().zip(ck.iter()) {
            *e = RegEntry {
                value: *v,
                ready_at: now,
                last_writer: None,
            };
        }
        self.poison.clear_all();
        self.park(ck);
    }

    /// Keeps a consumed checkpoint's buffer for the next one.
    fn park(&mut self, mut values: Vec<Value>) {
        values.clear();
        self.spare.0 = values;
    }

    /// Discards the checkpoint without restoring (successful completion of an
    /// advance/rally episode).
    pub fn release_checkpoint(&mut self) {
        if let Some(ck) = self.checkpoint.take() {
            self.park(ck);
        }
    }

    /// Snapshot of all architectural values in flat register-index order.
    pub fn values_snapshot(&self) -> Vec<Value> {
        self.regs.iter().map(|e| e.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_values_match_arch_state() {
        let rf = TimedRegFile::new();
        let arch = icfp_isa::ArchState::new();
        for r in Reg::all() {
            assert_eq!(rf.value(r), arch.reg(r));
        }
    }

    #[test]
    fn write_updates_value_readiness_and_stamp() {
        let mut rf = TimedRegFile::new();
        rf.write(Reg::int(5), 99, 42, 7);
        assert_eq!(rf.value(Reg::int(5)), 99);
        assert_eq!(rf.ready_at(Reg::int(5)), 42);
        assert!(rf.poison(Reg::int(5)).is_clean());
        assert_eq!(rf.last_writer(Reg::int(5)), Some(7));
    }

    #[test]
    fn poison_write_marks_and_stamps() {
        let mut rf = TimedRegFile::new();
        rf.poison_write(Reg::int(4), PoisonMask::bit(2), 8);
        assert!(rf.poison(Reg::int(4)).is_poisoned());
        assert!(rf.any_poisoned());
        assert_eq!(rf.poison(Reg::int(4)), PoisonMask::bit(2));
        assert_eq!(rf.last_writer(Reg::int(4)), Some(8));
        // A slice entry captures clean operands only.
        assert_eq!(rf.clean_value(Some(Reg::int(4))), None);
        assert_eq!(rf.clean_value(Some(Reg::int(5))), Some(rf.value(Reg::int(5))));
        assert_eq!(rf.clean_value(None), None);
    }

    #[test]
    fn rally_write_is_gated_by_last_writer() {
        // This is the working example of paper Figure 3: rally instructions 0
        // and 2 must not write r3/r4 because younger instructions 6 and 8 have
        // overwritten them; rally instruction 8 must write r4.
        let mut rf = TimedRegFile::new();
        rf.poison_write(Reg::int(4), PoisonMask::bit(0), 8); // r4 last written by seq 8
        rf.write(Reg::int(3), 3, 0, 6); // r3 last written by seq 6
        assert!(!rf.rally_write(Reg::int(3), 9, 10, 0), "older writer must be suppressed");
        assert_eq!(rf.value(Reg::int(3)), 3);
        assert!(rf.rally_write(Reg::int(4), 12, 10, 8), "matching writer must update");
        assert_eq!(rf.value(Reg::int(4)), 12);
        assert!(rf.poison(Reg::int(4)).is_clean());
    }

    #[test]
    fn checkpoint_restore_round_trips_values() {
        let mut rf = TimedRegFile::new();
        rf.write(Reg::int(1), 111, 5, 0);
        rf.checkpoint();
        rf.write(Reg::int(1), 222, 20, 1);
        rf.poison_write(Reg::int(2), PoisonMask::bit(0), 2);
        rf.restore(100);
        assert_eq!(rf.value(Reg::int(1)), 111);
        assert!(!rf.any_poisoned());
        assert_eq!(rf.ready_at(Reg::int(1)), 100);
        assert_eq!(rf.checkpoint, None);
    }

    #[test]
    #[should_panic(expected = "without a checkpoint")]
    fn restore_without_checkpoint_panics() {
        let mut rf = TimedRegFile::new();
        rf.restore(0);
    }

    #[test]
    fn release_checkpoint_keeps_current_state() {
        let mut rf = TimedRegFile::new();
        rf.checkpoint();
        rf.write(Reg::int(1), 5, 1, 1);
        rf.release_checkpoint();
        assert_eq!(rf.value(Reg::int(1)), 5);
        assert_eq!(rf.checkpoint, None);
    }

    #[test]
    fn clear_poison_bits_only_clears_matching() {
        let mut rf = TimedRegFile::new();
        rf.poison_write(Reg::int(1), PoisonMask::bit(0), 1);
        rf.poison_write(Reg::int(2), PoisonMask::bit(1), 2);
        rf.poison_write(Reg::int(3), PoisonMask::bit(0) | PoisonMask::bit(1), 3);
        rf.clear_poison_bits(PoisonMask::bit(0));
        assert!(rf.poison(Reg::int(1)).is_clean());
        assert!(rf.poison(Reg::int(2)).is_poisoned());
        assert_eq!(rf.poison(Reg::int(3)), PoisonMask::bit(1));
    }

    #[test]
    fn values_snapshot_is_in_flat_register_order() {
        let mut rf = TimedRegFile::new();
        rf.write(Reg::int(7), 1234, 0, 0);
        let snap = rf.values_snapshot();
        assert_eq!(snap.len(), NUM_ARCH_REGS);
        assert_eq!(snap[Reg::int(7).index()], 1234);
    }

    #[test]
    fn word_ops_agree_with_per_register_loop() {
        // Poison a scattered set of registers and check the word-level
        // operations against a per-register re-derivation.
        let mut rf = TimedRegFile::new();
        let bits = [0u8, 3, 5, 7, 9, 11];
        for (k, &b) in bits.iter().enumerate() {
            rf.poison_write(Reg::int(1 + 5 * k), PoisonMask::bit(b), k as InstSeq);
        }
        rf.clear_poison_bits(PoisonMask::bit(3) | PoisonMask::bit(5));
        for r in Reg::all() {
            assert!(!rf.poison(r).intersects(PoisonMask::bit(3) | PoisonMask::bit(5)));
        }
        assert!(rf.any_poisoned());
    }
}
