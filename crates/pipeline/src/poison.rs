//! Poison bits and poison bitvectors.
//!
//! Runahead-style mechanisms mark the destination of a missing load as
//! *poisoned* and propagate that mark through data dependences so that
//! miss-dependent instructions can be identified.  The paper's Section 3.4
//! extends the single poison bit to a small *bitvector* (8 bits by default):
//! each outstanding miss (MSHR) is assigned one bit, so that when a particular
//! miss returns, a rally can skip slice-buffer entries whose poison does not
//! include that bit.  This module provides both, plus [`PoisonVec`]: a packed
//! *plane* of poison masks (four 16-bit lanes per `u64` word) covering a whole
//! register file or slice buffer, so bulk operations — union, clear-bits,
//! any-poisoned, rally selection — run as word operations instead of
//! per-entry bit loops.

use icfp_mem::MshrId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A poison bitvector of up to 16 bits (the paper uses 1 and 8).
///
/// The empty mask means "not poisoned".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoisonMask(u16);

impl PoisonMask {
    /// The non-poisoned mask.
    pub const CLEAN: PoisonMask = PoisonMask(0);

    /// Creates a mask with a single bit set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn bit(bit: u8) -> Self {
        assert!(bit < 16, "poison bit index {bit} out of range");
        PoisonMask(1 << bit)
    }

    /// The mask with every representable bit set (matches any poison).
    pub fn all_bits() -> Self {
        PoisonMask(u16::MAX)
    }

    /// True if no poison bit is set.
    pub fn is_clean(self) -> bool {
        self.0 == 0
    }

    /// True if any poison bit is set.
    pub fn is_poisoned(self) -> bool {
        self.0 != 0
    }

    /// Union of two masks (dependence merge).
    pub fn union(self, other: PoisonMask) -> PoisonMask {
        PoisonMask(self.0 | other.0)
    }

    /// Removes the bits of `other` from this mask (un-poisoning when a miss
    /// returns).
    pub fn without(self, other: PoisonMask) -> PoisonMask {
        PoisonMask(self.0 & !other.0)
    }

    /// True if this mask shares any bit with `other`.
    pub fn intersects(self, other: PoisonMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of set bits.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Raw bit representation.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs a mask from its raw bit representation.
    pub fn from_bits(bits: u16) -> Self {
        PoisonMask(bits)
    }

    /// This mask replicated into all four 16-bit lanes of a `u64` word — the
    /// comparand for word-granular [`PoisonVec`] scans (hoist it out of the
    /// scan loop).
    #[inline]
    pub fn broadcast(self) -> u64 {
        broadcast(self.0)
    }
}

impl fmt::Display for PoisonMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean")
        } else {
            write!(f, "poison[{:#06x}]", self.0)
        }
    }
}

impl std::ops::BitOr for PoisonMask {
    type Output = PoisonMask;
    fn bitor(self, rhs: Self) -> Self::Output {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for PoisonMask {
    fn bitor_assign(&mut self, rhs: Self) {
        *self = self.union(rhs);
    }
}

/// Assigns poison bits to outstanding misses.
///
/// With `width == 1` every miss maps to the same bit (the classic single
/// poison bit).  With larger widths, bits are assigned round-robin per MSHR,
/// and misses sharing an MSHR (same cache line) share a bit, exactly as
/// Section 3.4 prescribes ("Load misses to the same MSHR are allocated the
/// same bit ... a simple round-robin scheme is sufficient").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoisonAllocator {
    width: u8,
    next: u8,
    /// Recent MSHR→bit assignments (bounded; old entries are recycled).
    assignments: Vec<(MshrId, u8)>,
}

impl PoisonAllocator {
    /// Creates an allocator for poison vectors of `width` bits (1–16).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 16.
    pub fn new(width: u8) -> Self {
        assert!((1..=16).contains(&width), "poison width must be 1..=16");
        PoisonAllocator {
            width,
            next: 0,
            assignments: Vec::new(),
        }
    }

    /// Returns the poison bit for a miss held by `mshr`, allocating one
    /// round-robin if this MSHR has not been seen before.
    pub fn bit_for(&mut self, mshr: MshrId) -> PoisonMask {
        if let Some(&(_, b)) = self.assignments.iter().find(|(id, _)| *id == mshr) {
            return PoisonMask::bit(b);
        }
        let b = self.next % self.width;
        self.next = (self.next + 1) % self.width;
        if self.assignments.len() >= 4 * self.width as usize {
            self.assignments.remove(0);
        }
        self.assignments.push((mshr, b));
        PoisonMask::bit(b)
    }

    /// Forgets the assignment for `mshr` (after its rally pass completes).
    pub fn release(&mut self, mshr: MshrId) {
        self.assignments.retain(|(id, _)| *id != mshr);
    }

    /// Clears all assignments (end of an advance/rally episode).
    pub fn clear(&mut self) {
        self.assignments.clear();
        self.next = 0;
    }
}

/// Poison masks per lane packed into `u64` words.
pub const POISON_LANES_PER_WORD: usize = 4;

const LANE_BITS: usize = 16;
const LANE_ONES: u64 = 0xFFFF;

/// Replicates a 16-bit mask into all four lanes of a word.
#[inline]
fn broadcast(bits: u16) -> u64 {
    bits as u64 * 0x0001_0001_0001_0001
}

/// A packed plane of [`PoisonMask`]es: one 16-bit lane per entry, four lanes
/// per `u64` word.  This is the storage behind the register file's poison
/// state and the slice buffer's rally-selection index; whole-structure
/// operations (clear returning bits everywhere, "is anything poisoned",
/// "which entries intersect this mask") touch `len/4` words instead of
/// looping over `len` entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoisonVec {
    words: Vec<u64>,
    len: usize,
}

impl PoisonVec {
    /// Creates a plane of `len` clean lanes.
    pub fn new(len: usize) -> Self {
        PoisonVec {
            words: vec![0; len.div_ceil(POISON_LANES_PER_WORD)],
            len,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the plane has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mask in lane `i`.
    #[inline]
    pub fn get(&self, i: usize) -> PoisonMask {
        debug_assert!(i < self.len);
        let w = self.words[i / POISON_LANES_PER_WORD];
        PoisonMask::from_bits(((w >> ((i % POISON_LANES_PER_WORD) * LANE_BITS)) & LANE_ONES) as u16)
    }

    /// Overwrites lane `i` with `mask`.
    #[inline]
    pub fn set(&mut self, i: usize, mask: PoisonMask) {
        debug_assert!(i < self.len);
        let shift = (i % POISON_LANES_PER_WORD) * LANE_BITS;
        let w = &mut self.words[i / POISON_LANES_PER_WORD];
        *w = (*w & !(LANE_ONES << shift)) | ((mask.bits() as u64) << shift);
    }

    /// Sets to `mask` the lanes of word `w` that `lanes` covers (whole
    /// lanes, as [`lane_range_mask`] builds them): one store for up to four
    /// lanes.
    #[inline]
    pub fn fill_lanes(&mut self, w: usize, lanes: u64, mask: PoisonMask) {
        let word = &mut self.words[w];
        *word = (*word & !lanes) | (broadcast(mask.bits()) & lanes);
    }

    /// Clears lane `i`.
    #[inline]
    pub fn clear_lane(&mut self, i: usize) {
        self.set(i, PoisonMask::CLEAN);
    }

    /// True if any lane is poisoned.  One compare per word.
    pub fn any_poisoned(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Removes `mask`'s bits from every lane (a returning miss un-poisons the
    /// whole structure).  One AND per word.
    pub fn clear_bits(&mut self, mask: PoisonMask) {
        let keep = !broadcast(mask.bits());
        for w in &mut self.words {
            *w &= keep;
        }
    }

    /// Clears every lane.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// The raw packed words (read-only), for external word-granular scans
    /// such as the slice buffer's rally selection.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A word mask covering lanes `lane_lo..lane_hi` (for restricting a scan of
/// [`PoisonVec::words`] to a partial word at a segment edge).
#[inline]
pub fn lane_range_mask(lane_lo: usize, lane_hi: usize) -> u64 {
    debug_assert!(lane_lo <= lane_hi && lane_hi <= POISON_LANES_PER_WORD);
    let lo = if lane_lo >= POISON_LANES_PER_WORD {
        0
    } else {
        u64::MAX << (lane_lo * LANE_BITS)
    };
    let hi = if lane_hi >= POISON_LANES_PER_WORD {
        u64::MAX
    } else {
        !(u64::MAX << (lane_hi * LANE_BITS))
    };
    lo & hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_mask_properties() {
        let c = PoisonMask::CLEAN;
        assert!(c.is_clean());
        assert!(!c.is_poisoned());
        assert_eq!(c.count(), 0);
        assert_eq!(c.to_string(), "clean");
    }

    #[test]
    fn union_and_without() {
        let a = PoisonMask::bit(0);
        let b = PoisonMask::bit(3);
        let u = a | b;
        assert_eq!(u.count(), 2);
        assert!(u.intersects(a));
        assert!(u.intersects(b));
        assert_eq!(u.without(a), b);
        assert_eq!(u.without(u), PoisonMask::CLEAN);
    }

    #[test]
    fn bitor_assign_accumulates() {
        let mut m = PoisonMask::CLEAN;
        m |= PoisonMask::bit(1);
        m |= PoisonMask::bit(2);
        assert_eq!(m.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = PoisonMask::bit(16);
    }

    #[test]
    fn single_bit_allocator_always_returns_bit_zero() {
        let mut a = PoisonAllocator::new(1);
        assert_eq!(a.bit_for(MshrId(0)), PoisonMask::bit(0));
        assert_eq!(a.bit_for(MshrId(1)), PoisonMask::bit(0));
        assert_eq!(a.bit_for(MshrId(2)), PoisonMask::bit(0));
    }

    #[test]
    fn same_mshr_gets_same_bit() {
        let mut a = PoisonAllocator::new(8);
        let b0 = a.bit_for(MshrId(7));
        let b1 = a.bit_for(MshrId(8));
        assert_ne!(b0, b1);
        assert_eq!(a.bit_for(MshrId(7)), b0);
        assert_eq!(a.bit_for(MshrId(8)), b1);
    }

    #[test]
    fn round_robin_wraps() {
        let mut a = PoisonAllocator::new(2);
        let b0 = a.bit_for(MshrId(0));
        let b1 = a.bit_for(MshrId(1));
        let b2 = a.bit_for(MshrId(2));
        assert_eq!(b0, b2);
        assert_ne!(b0, b1);
    }

    #[test]
    fn release_and_clear() {
        let mut a = PoisonAllocator::new(4);
        assert_eq!(a.bit_for(MshrId(1)), PoisonMask::bit(0));
        a.release(MshrId(1));
        assert_eq!(a.bit_for(MshrId(1)), PoisonMask::bit(1), "a released MSHR draws a fresh bit");
        a.bit_for(MshrId(2));
        a.clear();
        assert_eq!(a.bit_for(MshrId(2)), PoisonMask::bit(0), "clear forgets every assignment");
    }

    #[test]
    #[should_panic(expected = "poison width")]
    fn zero_width_panics() {
        let _ = PoisonAllocator::new(0);
    }

    /// Tiny deterministic generator for the randomized equivalence tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 16
    }

    /// A naive per-entry model of what the packed plane must compute.
    struct NaivePlane(Vec<PoisonMask>);

    impl NaivePlane {
        fn any(&self) -> bool {
            self.0.iter().any(|m| m.is_poisoned())
        }
        fn clear_bits(&mut self, m: PoisonMask) {
            for e in &mut self.0 {
                *e = e.without(m);
            }
        }
        fn intersecting(&self, m: PoisonMask) -> Vec<usize> {
            (0..self.0.len()).filter(|&i| self.0[i].intersects(m)).collect()
        }
    }

    #[test]
    fn poison_vec_matches_bit_loop_on_randomized_masks() {
        let mut seed = 0x1CF9u64 ^ 0xA5A5_5A5A;
        for round in 0..50 {
            let len = 1 + (lcg(&mut seed) % 130) as usize;
            let mut vec = PoisonVec::new(len);
            let mut naive = NaivePlane(vec![PoisonMask::CLEAN; len]);
            // Random writes: set / clear_lane.
            for _ in 0..3 * len {
                let i = (lcg(&mut seed) % len as u64) as usize;
                let m = PoisonMask::from_bits(lcg(&mut seed) as u16);
                match lcg(&mut seed) % 3 {
                    0 | 1 => {
                        vec.set(i, m);
                        naive.0[i] = m;
                    }
                    _ => {
                        vec.clear_lane(i);
                        naive.0[i] = PoisonMask::CLEAN;
                    }
                }
            }
            // Whole-plane word ops must agree with the per-entry loop.
            assert_eq!(vec.any_poisoned(), naive.any(), "round {round}");
            for i in 0..len {
                assert_eq!(vec.get(i), naive.0[i], "round {round} lane {i}");
            }
            // Word-granular selection scan must find exactly the intersecting
            // lanes, in ascending order.
            let probe = PoisonMask::from_bits(lcg(&mut seed) as u16 | 1);
            let mut scanned = Vec::new();
            for w in 0..len.div_ceil(POISON_LANES_PER_WORD) {
                let hi = (len - w * POISON_LANES_PER_WORD).min(POISON_LANES_PER_WORD);
                let mut hits = vec.words()[w] & probe.broadcast() & lane_range_mask(0, hi);
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize / 16;
                    hits &= !(0xFFFFu64 << (lane * 16));
                    scanned.push(w * POISON_LANES_PER_WORD + lane);
                }
            }
            assert_eq!(scanned, naive.intersecting(probe), "round {round}");
            // Bulk clear of a random returning mask.
            let clear = PoisonMask::from_bits(lcg(&mut seed) as u16);
            vec.clear_bits(clear);
            naive.clear_bits(clear);
            for i in 0..len {
                assert_eq!(vec.get(i), naive.0[i], "round {round} post-clear lane {i}");
            }
        }
    }

    #[test]
    fn lane_range_mask_edges() {
        assert_eq!(lane_range_mask(0, 4), u64::MAX);
        assert_eq!(lane_range_mask(0, 1), 0xFFFF);
        assert_eq!(lane_range_mask(3, 4), 0xFFFF_0000_0000_0000);
        assert_eq!(lane_range_mask(2, 2), 0);
    }
}
