//! The slice buffer: a FIFO of deferred miss-dependent instructions together
//! with their miss-independent side inputs (paper Section 3.1).
//!
//! iCFP does not compact the buffer: rally passes mark entries un-poisoned
//! (retired) in place, and successive passes simply skip retired entries;
//! capacity is reclaimed incrementally from the head (Section 3.4, "Slice
//! buffer management").  That behaviour is reproduced here because it is what
//! bounds slice-buffer occupancy and triggers the simple-runahead fallback.
//!
//! Storage is a fixed-capacity ring with a packed side index: every slot's
//! poison mask is mirrored into a [`PoisonVec`] *plane* (four 16-bit lanes per
//! `u64` word, lanes of retired slots cleared), so rally selection — "which
//! active entries depend on this returning miss" — scans `capacity / 4` words
//! and only touches the entries that actually match, instead of testing every
//! entry's mask in a bit loop.
//!
//! The buffer also holds the slice *data storage*: a dense window of cells by
//! trace position, one per pushed entry, each holding the ring slot the entry
//! was pushed into and the result it rallied with.  A rally pass visits an
//! entry many times before it finally executes, and each visit asks "has my
//! producer rallied yet?"; [`SliceBuffer::producer`] answers with one indexed
//! read of the producer's cell — still waiting on these misses while the slot
//! holds it active, otherwise its value and ready cycle, or no value.  A
//! producer reclaimed from the head keeps its cell, so its consumers still
//! read it.  A new entry names only producers in the buffer, so nothing below
//! the oldest entry and the producers active entries name
//! ([`SliceBuffer::live_values`]) is read again; head reclamation drops that
//! prefix once the window has grown past twice what the last drop kept plus
//! `PRUNE_SLACK`, and an empty buffer holds no values at all.  The window
//! therefore spans about what the buffer covers, not the advance episode.
//!
//! A side array holds each slot's *shape*: which operands a rally must
//! resolve and the destination register, recorded at push from the
//! instruction.  With the plane and the window it is all a deferral reads, so
//! [`SliceBuffer::defer_run`] certifies and re-poisons the deferred tail of a
//! rally pass as one run, walking the plane words directly, without fetching
//! a single instruction.  The window and the shapes are not part of the
//! serialized ring: a checkpoint carries the live values beside it
//! ([`SliceBuffer::restore_values`]), and shapes are unknown after decode
//! (such an entry is only ever deferred by a visit).

use icfp_isa::{Cycle, DynInst, InstSeq, Reg, Value, NUM_ARCH_REGS};
use icfp_pipeline::{lane_range_mask, PoisonMask, PoisonVec, POISON_LANES_PER_WORD};
use serde::{Deserialize, Serialize};

/// A deferred (sliced-out) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceEntry {
    /// Index of the instruction in the trace.
    pub trace_idx: usize,
    /// Sequence number relative to the active checkpoint (the paper's
    /// dependence-ordering stamp).
    pub seq_from_ckpt: InstSeq,
    /// Captured value of the first source operand, if it was available
    /// (non-poisoned) when the instruction was sliced out.
    pub src1_value: Option<Value>,
    /// Captured value of the second source operand, if it was available.
    pub src2_value: Option<Value>,
    /// Trace index of the sliced instruction producing the first source
    /// operand (`usize::MAX` = captured or absent) — the paper's slice-buffer
    /// dependence pointer, carried in the entry so rallies resolve operands
    /// without a side table.
    pub src1_producer: usize,
    /// Producer of the second source operand (`usize::MAX` = captured/absent).
    pub src2_producer: usize,
    /// Store colour: SSN of the youngest older store at slice time, used by
    /// rallying loads to ignore younger stores when forwarding.
    pub store_color: u64,
    /// Current poison mask (which outstanding misses this entry waits on).
    pub poison: PoisonMask,
    /// Whether the entry still needs to be executed.  Retired entries stay in
    /// place and are skipped by later passes.
    pub active: bool,
}

impl SliceEntry {
    /// Placeholder for an unoccupied ring slot.
    pub(crate) fn vacant() -> Self {
        SliceEntry {
            trace_idx: usize::MAX,
            seq_from_ckpt: 0,
            src1_value: None,
            src2_value: None,
            src1_producer: usize::MAX,
            src2_producer: usize::MAX,
            store_color: 0,
            poison: PoisonMask::CLEAN,
            active: false,
        }
    }
}

/// What a deferral reads of an entry's instruction, recorded when the entry
/// is pushed ([`SliceBuffer::push_inst`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryShape {
    /// Per operand: present in the instruction and not captured at slice
    /// time, so a rally must resolve it through its producer.
    needs: [bool; 2],
    dst: Option<Reg>,
}

/// Error returned when the slice buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceBufferFull;

impl std::fmt::Display for SliceBufferFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice buffer is full")
    }
}

impl std::error::Error for SliceBufferFull {}

/// The slice buffer.
///
/// A fixed ring of `capacity` slots (`head` is the physical index of the
/// oldest occupied slot) plus a packed poison plane mirroring the *active*
/// slots' masks, kept in sync by push/retire/repoison/clear so that rally
/// selection runs at word granularity.
#[derive(Debug, Clone)]
pub struct SliceBuffer {
    slots: Vec<SliceEntry>,
    /// Packed per-slot poison; lanes of retired or vacant slots are clean.
    plane: PoisonVec,
    head: usize,
    len: usize,
    capacity: usize,
    /// Number of entries with `active == true` (kept in sync by
    /// push/retire/clear so occupancy queries are O(1) on the hot path).
    active: usize,
    /// Peak occupancy over the run (for diagnostics).
    peak: usize,
    /// Total entries ever inserted.
    inserted: u64,
    /// Per slot, the shape of the entry's instruction (`None` = unknown: the
    /// entry was pushed without its instruction or the buffer was decoded).
    shapes: Vec<Option<EntryShape>>,
    /// The slice data storage: `values[k]` is the cell of trace position
    /// `base + k`.  Empty whenever the buffer is.
    values: Vec<Cell>,
    base: usize,
    /// Positions the last prune kept.
    kept: usize,
}

/// One trace position of the slice data storage.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// The ring slot the entry at this position was pushed into; the slot
    /// still holds it exactly when the trace indices match.
    slot: u32,
    /// The result the entry rallied with.
    result: Option<(Value, Cycle)>,
}

impl Cell {
    /// A position no entry was pushed at.
    const EMPTY: Cell = Cell { slot: u32::MAX, result: None };
}

/// Positions the window may grow by beyond twice what its last prune kept
/// before head reclamation prunes it again.
const PRUNE_SLACK: usize = 512;

/// Width of one lane of the poison plane.
const LANE_BITS: usize = 16;

// A deferral run keeps one bit per register in a `u64`.
const _: () = assert!(NUM_ARCH_REGS <= 64);

/// The plane words covering physical slots `[lo, hi)`.
#[inline]
fn words_of(lo: usize, hi: usize) -> std::ops::Range<usize> {
    if lo >= hi {
        return 0..0;
    }
    lo / POISON_LANES_PER_WORD..(hi - 1) / POISON_LANES_PER_WORD + 1
}

/// The lanes of plane word `word` (its first slot `base`) that intersect
/// `comparand` (a broadcast mask) and lie in physical slots `[lo, hi)`, as
/// the top bit of each such lane.  A word with no intersecting lane costs a
/// single compare; only the edge words of a range pay for lane masking.
#[inline]
fn hit_lanes(word: u64, comparand: u64, base: usize, lo: usize, hi: usize) -> u64 {
    let mut hits = word & comparand;
    if hits == 0 {
        return 0;
    }
    if lo > base {
        hits &= lane_range_mask(lo - base, POISON_LANES_PER_WORD);
    }
    if hi < base + POISON_LANES_PER_WORD {
        hits &= lane_range_mask(0, hi - base);
    }
    // Collapse each non-zero 16-bit lane to its MSB (SWAR: adding 0x7FFF to
    // the low 15 bits carries into bit 15 iff any is set; OR-ing the original
    // covers lanes with only bit 15).  The extraction loop is then one ctz +
    // one clear per matching entry.
    const LANE_LOW: u64 = 0x7FFF_7FFF_7FFF_7FFF;
    const LANE_MSB: u64 = 0x8000_8000_8000_8000;
    ((hits & LANE_LOW).wrapping_add(LANE_LOW) | hits) & LANE_MSB
}

/// Calls `deferred(register, youngest[register])` for each register with a
/// bit in `written` ([`SliceBuffer::defer_run`]).
fn report_writers(
    mut written: u64,
    youngest: &[InstSeq; NUM_ARCH_REGS],
    mut deferred: impl FnMut(Reg, InstSeq),
) {
    while written != 0 {
        let r = written.trailing_zeros() as usize;
        written &= written - 1;
        deferred(Reg::from_index(r), youngest[r]);
    }
}

/// The serialized form is the ring alone: a decoded buffer holds no value
/// until it is given its live values again ([`SliceBuffer::restore_values`]).
/// Decoding refuses an entry at the vacant position `usize::MAX`.
impl Serialize for SliceBuffer {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.slots.serialize(out);
        self.plane.serialize(out);
        self.head.serialize(out);
        self.len.serialize(out);
        self.capacity.serialize(out);
        self.active.serialize(out);
        self.peak.serialize(out);
        self.inserted.serialize(out);
    }
}

impl Deserialize for SliceBuffer {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut sb = SliceBuffer {
            slots: Deserialize::deserialize(r)?,
            plane: Deserialize::deserialize(r)?,
            head: Deserialize::deserialize(r)?,
            len: Deserialize::deserialize(r)?,
            capacity: Deserialize::deserialize(r)?,
            active: Deserialize::deserialize(r)?,
            peak: Deserialize::deserialize(r)?,
            inserted: Deserialize::deserialize(r)?,
            shapes: Vec::new(),
            values: Vec::new(),
            base: 0,
            kept: 0,
        };
        if sb.slots.len() != sb.capacity || sb.head >= sb.capacity.max(1) || sb.len > sb.capacity {
            return Err(serde::Error::invalid("slice buffer ring geometry", r.position()));
        }
        sb.shapes = vec![None; sb.capacity];
        sb.restore_values(&[], usize::MAX).map_err(|what| serde::Error::invalid(what, r.position()))?;
        Ok(sb)
    }
}

impl SliceBuffer {
    /// Creates a slice buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slice buffer capacity must be positive");
        SliceBuffer {
            slots: vec![SliceEntry::vacant(); capacity],
            plane: PoisonVec::new(capacity),
            head: 0,
            len: 0,
            capacity,
            active: 0,
            peak: 0,
            inserted: 0,
            shapes: vec![None; capacity],
            values: Vec::new(),
            base: 0,
            kept: 0,
        }
    }

    /// Physical slot of the `logical`-th oldest entry.
    #[inline]
    fn phys(&self, logical: usize) -> usize {
        let p = self.head + logical;
        if p >= self.capacity {
            p - self.capacity
        } else {
            p
        }
    }

    /// Number of occupied slots (active or not yet reclaimed).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries still awaiting execution.  O(1).
    pub fn active_len(&self) -> usize {
        self.active
    }

    /// True if there is no active entry left.  O(1).
    pub fn no_active(&self) -> bool {
        self.active == 0
    }

    /// True if the buffer cannot accept another entry.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total number of entries ever inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Appends an entry at the tail.  Its instruction's shape stays unknown,
    /// so [`SliceBuffer::defer_run`] never takes it.
    ///
    /// # Errors
    ///
    /// Returns [`SliceBufferFull`] if no slot is free (after reclaiming
    /// retired entries from the head).
    pub fn push(&mut self, entry: SliceEntry) -> Result<(), SliceBufferFull> {
        self.insert(entry, None)
    }

    /// [`SliceBuffer::push`] for an entry made from `inst`, recording what a
    /// deferral reads of the instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SliceBufferFull`] as [`SliceBuffer::push`] does.
    pub fn push_inst(&mut self, entry: SliceEntry, inst: &DynInst) -> Result<(), SliceBufferFull> {
        let needs = [
            inst.src1.is_some() && entry.src1_value.is_none(),
            inst.src2.is_some() && entry.src2_value.is_none(),
        ];
        self.insert(entry, Some(EntryShape { needs, dst: inst.dst }))
    }

    fn insert(&mut self, entry: SliceEntry, shape: Option<EntryShape>) -> Result<(), SliceBufferFull> {
        if self.is_full() {
            self.reclaim_head();
        }
        if self.is_full() {
            return Err(SliceBufferFull);
        }
        let slot = self.phys(self.len);
        if self.values.is_empty() {
            self.base = entry.trace_idx;
        }
        // Entries come in trace order; one that does not has no cell.
        if let Some(k) = entry.trace_idx.checked_sub(self.base) {
            if k >= self.values.len() {
                self.values.resize(k + 1, Cell::EMPTY);
            }
            self.values[k] = Cell { slot: slot as u32, result: None };
        }
        self.shapes[slot] = shape;
        self.active += usize::from(entry.active);
        self.plane.set(
            slot,
            if entry.active { entry.poison } else { PoisonMask::CLEAN },
        );
        self.slots[slot] = entry;
        self.len += 1;
        self.inserted += 1;
        self.peak = self.peak.max(self.len);
        Ok(())
    }

    /// Reclaims retired entries from the head (the only form of compaction
    /// the paper's design performs), then drops the values no rally can read
    /// any more: all of them once the buffer is empty, otherwise, when the
    /// window is due, those below its live floor.
    pub fn reclaim_head(&mut self) {
        while self.len > 0 && !self.slots[self.head].active {
            // Retire already cleared the plane lane; vacate the slot.
            self.slots[self.head] = SliceEntry::vacant();
            self.head = if self.head + 1 == self.capacity {
                0
            } else {
                self.head + 1
            };
            self.len -= 1;
        }
        if self.len == 0 {
            self.head = 0;
            self.values.clear();
            self.kept = 0;
        } else if self.values.len() > 2 * self.kept + PRUNE_SLACK {
            self.prune(self.live_floor());
        }
    }

    /// The lowest trace position a rally can still read a value at: the
    /// oldest entry, or a producer that an active entry names below it.  A
    /// new entry names only producers in the buffer, so while the buffer
    /// holds an entry this never goes down.
    fn live_floor(&self) -> usize {
        let oldest = self.entries().next().map_or(usize::MAX, |e| e.trace_idx);
        self.active_entries()
            .flat_map(|e| [e.src1_producer, e.src2_producer])
            .fold(oldest, usize::min)
    }

    /// Drops the window's positions below `floor`: a drop costs a move of
    /// the kept span, O(1) per pushed position.
    fn prune(&mut self, floor: usize) {
        let cut = floor.saturating_sub(self.base).min(self.values.len());
        self.values.drain(..cut);
        self.base += cut;
        self.kept = self.values.len();
    }

    /// The value and ready cycle the entry at trace position `idx` rallied
    /// with, if the window still holds one.
    fn value_at(&self, idx: usize) -> Option<(Value, Cycle)> {
        self.values.get(idx.wrapping_sub(self.base))?.result
    }

    /// The values a rally can still read, by increasing trace position: the
    /// results of entries in the buffer and of the producers active entries
    /// name.  This is a checkpoint's form of the window, the same whenever
    /// the window was last pruned.
    pub fn live_values(&self) -> Vec<(usize, (Value, Cycle))> {
        let mut live: Vec<usize> = self
            .entries()
            .map(|e| e.trace_idx)
            .chain(self.active_entries().flat_map(|e| [e.src1_producer, e.src2_producer]))
            .collect();
        live.sort_unstable();
        live.dedup();
        live.into_iter().filter_map(|idx| Some((idx, self.value_at(idx)?))).collect()
    }

    /// Gives a decoded buffer its [`SliceBuffer::live_values`] again: a
    /// cell for each entry and the values `pairs`, none at all when the
    /// buffer is empty.
    ///
    /// # Errors
    ///
    /// The reason, if the positions of `pairs` or of the entries are not
    /// strictly increasing or reach `end` (the next trace position to
    /// process), or the window they span cannot be allocated.
    pub fn restore_values(&mut self, pairs: &[(usize, (Value, Cycle))], end: usize) -> Result<(), &'static str> {
        let increasing = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        if !increasing || pairs.last().is_some_and(|p| p.0 >= end) {
            return Err("slice value positions");
        }
        let positions = || self.entries().map(|e| e.trace_idx);
        if positions().zip(positions().skip(1)).any(|(a, b)| a >= b) || positions().any(|p| p >= end) {
            return Err("slice entry positions");
        }
        let (first, last) = (positions().next(), positions().last());
        self.values.clear();
        self.kept = 0;
        let (Some(first), Some(last)) = (first, last) else { return Ok(()) };
        let base = pairs.first().map_or(first, |p| p.0.min(first));
        let span = pairs.last().map_or(last, |p| p.0.max(last)) - base + 1;
        if self.values.try_reserve_exact(span).is_err() {
            return Err("slice value window");
        }
        self.values.resize(span, Cell::EMPTY);
        (self.base, self.kept) = (base, span);
        for &(idx, result) in pairs {
            self.values[idx - base].result = Some(result);
        }
        for l in 0..self.len {
            let slot = self.phys(l);
            self.values[self.slots[slot].trace_idx - base].slot = slot as u32;
        }
        Ok(())
    }

    /// Flips a bit of every value the window holds.
    #[cfg(test)]
    pub(crate) fn flip_values(&mut self) {
        self.values.iter_mut().filter_map(|c| c.result.as_mut()).for_each(|(v, _)| *v ^= 1);
    }

    /// Iterates over the occupied entries, active or retired, in program
    /// order.
    fn entries(&self) -> impl Iterator<Item = &SliceEntry> {
        (0..self.len).map(|l| &self.slots[self.phys(l)])
    }

    /// Iterates over the *active* entries in program order.
    pub fn active_entries(&self) -> impl Iterator<Item = &SliceEntry> {
        self.entries().filter(|e| e.active)
    }

    /// The first entry a rally pass for the returning misses `returning`
    /// must process (Section 3.4) at or after logical position `from` (0 =
    /// the oldest entry): the first active entry there whose poison
    /// intersects `returning`, as its physical slot and logical position.  A
    /// pass walks its selection in program order by asking again from one
    /// past the position returned, reading each entry in place
    /// ([`SliceBuffer::entry_at`]) and retiring or re-poisoning it by slot
    /// ([`SliceBuffer::retire_at`] / [`SliceBuffer::repoison_at`]); the
    /// walk sees the selection as it stood when the pass began, because a
    /// pass changes no entry ahead of its position.  Slots and positions stay
    /// valid until the next push or head reclamation.
    ///
    /// This is the word-level hot path: the packed poison plane is scanned
    /// four entries per `u64` word (`returning` broadcast into every lane), so
    /// words with no intersecting lane are skipped with a single compare.
    pub fn next_selected(&self, returning: PoisonMask, from: usize) -> Option<(usize, usize)> {
        let comparand = returning.broadcast();
        let mut at = from;
        while at < self.len {
            let lo = self.phys(at);
            // The physical slots from `lo` to the end of its word or of the
            // ring's contiguous run.
            let base = lo - lo % POISON_LANES_PER_WORD;
            let hi = (base + POISON_LANES_PER_WORD).min(lo + self.len - at).min(self.capacity);
            let word = self.plane.words()[base / POISON_LANES_PER_WORD];
            let lanes = hit_lanes(word, comparand, base, lo, hi);
            if lanes != 0 {
                let slot = base + lanes.trailing_zeros() as usize / LANE_BITS;
                return Some((slot, at + slot - lo));
            }
            at += hi - lo;
        }
        None
    }

    /// The whole selection of a rally pass for `returning`
    /// ([`SliceBuffer::next_selected`] from position 0 on), each entry by
    /// value beside its physical slot, appended to `out` (cleared first) in
    /// program order.
    pub fn rally_select_into(&self, returning: PoisonMask, out: &mut Vec<(u32, SliceEntry)>) {
        out.clear();
        let mut next = 0;
        while let Some((slot, at)) = self.next_selected(returning, next) {
            out.push((slot as u32, self.slots[slot]));
            next = at + 1;
        }
    }

    /// The entry in physical slot `slot` (vacant slots read as an inactive
    /// placeholder).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the capacity.
    #[inline]
    pub fn entry_at(&self, slot: usize) -> &SliceEntry {
        &self.slots[slot]
    }

    /// Logical position (distance from the head) of occupied slot `slot`.
    #[inline]
    fn logical(&self, slot: usize) -> usize {
        if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        }
    }

    /// The physical slot ranges holding logical positions `from..len`,
    /// oldest first: within a range, ascending slot order is program order,
    /// and the second range is empty unless the ring wraps.
    #[inline]
    fn segments(&self, from: usize) -> [(usize, usize); 2] {
        let (start, tail) = (self.head + from.min(self.len), self.head + self.len);
        if start >= self.capacity {
            [(start - self.capacity, tail - self.capacity), (0, 0)]
        } else {
            [(start, tail.min(self.capacity)), (0, tail.saturating_sub(self.capacity))]
        }
    }

    /// Borrowing iterator over the entries a rally for `returning` must
    /// process, in program order: the per-entry reference the word scan is
    /// tested against.
    #[cfg(test)]
    pub fn rally_iter(&self, returning: PoisonMask) -> impl Iterator<Item = SliceEntry> + '_ {
        (0..self.len)
            .map(|l| &self.slots[self.phys(l)])
            .filter(move |e| e.active && e.poison.intersects(returning))
            .copied()
    }

    /// Logical position of the entry for `trace_idx`.  Entries are appended in
    /// trace order and never reordered, so the buffer is sorted by
    /// `trace_idx` and lookups binary-search in O(log n).
    fn position_of(&self, trace_idx: usize) -> Option<usize> {
        let n = self.len;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.slots[self.phys(mid)].trace_idx < trace_idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < n && self.slots[self.phys(lo)].trace_idx == trace_idx).then_some(lo)
    }

    /// The current poison mask of the *active* entry for `trace_idx`, if any:
    /// the by-search reference the O(1) link lookup is tested against.
    #[cfg(test)]
    pub fn entry_poison(&self, trace_idx: usize) -> Option<PoisonMask> {
        self.position_of(trace_idx)
            .map(|l| &self.slots[self.phys(l)])
            .filter(|e| e.active)
            .map(|e| e.poison)
    }

    /// What the producer of operand `operand` (0 = `src1_producer`, 1 =
    /// `src2_producer`) of the entry in physical slot `slot` holds for it:
    /// `Err(Some(poison))` while the producer is active in the buffer,
    /// waiting on the misses `poison`; otherwise its rallied value and ready
    /// cycle, or `Err(None)` if it has none — captured or absent operand,
    /// no result, or dropped from the window.  One indexed read of the
    /// producer's cell: its slot still holds it exactly when the trace
    /// indices match (a reclaimed slot is vacant or reused by a younger
    /// instruction).
    #[inline]
    pub fn producer(&self, slot: usize, operand: usize) -> Result<(Value, Cycle), Option<PoisonMask>> {
        let e = &self.slots[slot];
        let idx = [e.src1_producer, e.src2_producer][operand];
        let cell = self.values.get(idx.wrapping_sub(self.base)).ok_or(None)?;
        match self.slots.get(cell.slot as usize) {
            Some(p) if p.trace_idx == idx && p.active => Err(Some(p.poison)),
            _ => cell.result.ok_or(None),
        }
    }

    /// Marks the entry for `trace_idx` as retired (executed successfully)
    /// without a result.
    pub fn retire(&mut self, trace_idx: usize) -> bool {
        self.position_of(trace_idx)
            .is_some_and(|l| self.retire_at(self.phys(l), None))
    }

    /// Retires the entry in physical slot `slot` (obtained from
    /// [`SliceBuffer::next_selected`]) with the value and ready cycle it
    /// rallied with, if it produced one, for its consumers to read
    /// ([`SliceBuffer::producer`]).
    pub fn retire_at(&mut self, slot: usize, result: Option<(Value, Cycle)>) -> bool {
        let e = &mut self.slots[slot];
        if !e.active {
            return false;
        }
        e.active = false;
        self.active -= 1;
        self.plane.clear_lane(slot);
        if let Some(cell) = self.values.get_mut(e.trace_idx.wrapping_sub(self.base)) {
            cell.result = result;
        }
        true
    }

    /// Re-poisons the entry in physical slot `slot` (obtained from
    /// [`SliceBuffer::next_selected`]) in place: it depends on a miss that
    /// is still outstanding, and stays active for a later pass.
    pub fn repoison_at(&mut self, slot: usize, poison: PoisonMask) -> bool {
        let e = &mut self.slots[slot];
        if e.active {
            e.poison = poison;
            self.plane.set(slot, poison);
            return true;
        }
        false
    }

    /// Defers, as one run, the selected entries from logical position `from`
    /// on that a rally visit would defer to `to`, and returns how many it
    /// took and the position of the first entry it left for the visit
    /// (`len` if none).  Position `from` must follow an entry that a pass
    /// for `select` has just deferred to `to` (non-empty, disjoint from
    /// `select`) while a rally is still pending; the run walks the pass's
    /// selection ([`SliceBuffer::next_selected`]) from there.
    ///
    /// An entry is taken exactly when the visit would defer it to `to`: its
    /// shape is known; its poison outside `select` lies inside `to`; at least
    /// one operand it must resolve has a producer still active; every such
    /// producer's poison outside `select` is exactly `to` (an entry taken
    /// earlier in the run already carries `to`); and every other operand it
    /// must resolve has a value ([`SliceBuffer::producer`]).  Each
    /// taken entry is re-poisoned with `to` in place (its plane lane with the
    /// rest of its word).  Then `deferred(dst, seq)` is called once per
    /// destination register of the run, with the youngest taken entry that
    /// writes it: the only one that can still be the register's last writer.
    /// Allocation-free.
    pub fn defer_run(
        &mut self,
        from: usize,
        select: PoisonMask,
        to: PoisonMask,
        deferred: impl FnMut(Reg, InstSeq),
    ) -> (usize, usize) {
        debug_assert!(to.is_poisoned() && !to.intersects(select));
        let comparand = select.broadcast();
        // Bits an entry's own poison may not carry.
        let outside = !select.union(to).broadcast();
        let mut taken = 0;
        // Per register, the youngest taken writer; `written` has a bit per
        // register with one.
        let (mut youngest, mut written) = ([0; NUM_ARCH_REGS], 0u64);
        for (lo, hi) in self.segments(from) {
            for w in words_of(lo, hi) {
                let word = self.plane.words()[w];
                let base = w * POISON_LANES_PER_WORD;
                let mut lanes = hit_lanes(word, comparand, base, lo, hi);
                let mut done = 0;
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize / LANE_BITS;
                    lanes &= lanes - 1;
                    let slot = base + lane;
                    let lane_bits = 0xFFFF << (lane * LANE_BITS);
                    let shape = match self.shapes[slot] {
                        Some(shape)
                            if word & lane_bits & outside == 0
                                && self.waits_on(slot, shape, select, to) =>
                        {
                            shape
                        }
                        _ => {
                            self.plane.fill_lanes(w, done, to);
                            report_writers(written, &youngest, deferred);
                            return (taken, self.logical(slot));
                        }
                    };
                    let e = &mut self.slots[slot];
                    e.poison = to;
                    if let Some(dst) = shape.dst {
                        let r = dst.index() % NUM_ARCH_REGS;
                        youngest[r] = e.trace_idx as InstSeq;
                        written |= 1 << r;
                    }
                    done |= lane_bits;
                    taken += 1;
                }
                self.plane.fill_lanes(w, done, to);
            }
        }
        report_writers(written, &youngest, deferred);
        (taken, self.len)
    }

    /// Whether the operands the entry in `slot` must resolve all either wait
    /// on a producer whose poison outside `select` is exactly `to` — at
    /// least one of them — or have a value ([`SliceBuffer::defer_run`]).
    #[inline]
    fn waits_on(&self, slot: usize, shape: EntryShape, select: PoisonMask, to: PoisonMask) -> bool {
        let mut waits = false;
        for operand in 0..2 {
            if shape.needs[operand] {
                match self.producer(slot, operand) {
                    Err(Some(poison)) if poison.without(select) == to => waits = true,
                    Ok(_) => {}
                    Err(_) => return false,
                }
            }
        }
        waits
    }

    /// Clears the buffer entirely (squash).
    pub fn clear(&mut self) {
        // Unoccupied slots are already vacant.
        for l in 0..self.len {
            let slot = self.phys(l);
            self.slots[slot] = SliceEntry::vacant();
        }
        self.plane.clear_all();
        self.head = 0;
        self.len = 0;
        self.active = 0;
        self.values.clear();
        self.kept = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries a rally for `returning` selects, by value.
    fn entries_for_rally(sb: &SliceBuffer, returning: PoisonMask) -> Vec<SliceEntry> {
        let mut selected = Vec::new();
        sb.rally_select_into(returning, &mut selected);
        selected.into_iter().map(|(_, e)| e).collect()
    }

    /// The physical slots a rally pass for `returning` walks, asking
    /// [`SliceBuffer::next_selected`] from one past each position it gets.
    fn walk(sb: &SliceBuffer, returning: PoisonMask) -> Vec<u32> {
        let (mut slots, mut next) = (Vec::new(), 0);
        while let Some((slot, at)) = sb.next_selected(returning, next) {
            slots.push(slot as u32);
            next = at + 1;
        }
        slots
    }

    fn entry(idx: usize, poison: PoisonMask) -> SliceEntry {
        SliceEntry {
            trace_idx: idx,
            seq_from_ckpt: idx as InstSeq,
            src1_value: Some(1),
            src2_value: None,
            src1_producer: usize::MAX,
            src2_producer: usize::MAX,
            store_color: 0,
            poison,
            active: true,
        }
    }

    #[test]
    fn push_and_rally_selection_by_poison_bit() {
        let mut sb = SliceBuffer::new(8);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(1))).unwrap();
        sb.push(entry(2, PoisonMask::bit(0) | PoisonMask::bit(1))).unwrap();
        let pass0 = entries_for_rally(&sb, PoisonMask::bit(0));
        assert_eq!(pass0.iter().map(|e| e.trace_idx).collect::<Vec<_>>(), vec![0, 2]);
        let pass1 = entries_for_rally(&sb, PoisonMask::bit(1));
        assert_eq!(pass1.iter().map(|e| e.trace_idx).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn retire_marks_in_place_and_skips_later() {
        let mut sb = SliceBuffer::new(8);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        assert!(sb.retire(0));
        assert!(!sb.retire(0), "already retired");
        assert_eq!(sb.active_len(), 1);
        assert_eq!(sb.len(), 2, "entries are not compacted");
        let pass = entries_for_rally(&sb, PoisonMask::bit(0));
        assert_eq!(pass.len(), 1);
        assert_eq!(pass[0].trace_idx, 1);
    }

    #[test]
    fn head_reclamation_frees_capacity() {
        let mut sb = SliceBuffer::new(2);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        assert!(sb.is_full());
        sb.retire(0);
        // Push succeeds because the retired head is reclaimed.
        sb.push(entry(2, PoisonMask::bit(0))).unwrap();
        assert_eq!(sb.len(), 2);
        // But a retired entry in the middle cannot be reclaimed.
        sb.retire(2);
        assert!(sb.push(entry(3, PoisonMask::bit(0))).is_err());
    }

    #[test]
    fn rally_selection_apis_are_equivalent() {
        // The position walk (word scan), the entry-carrying wrapper and the
        // iterator (per-entry) form must select exactly the same entries, and
        // a walk resumed from any position must select the rest of them.
        let mut sb = SliceBuffer::new(16);
        for k in 0..12usize {
            sb.push(entry(k, PoisonMask::bit((k % 3) as u8))).unwrap();
        }
        sb.retire(3);
        sb.retire(6);
        for bit in 0..3u8 {
            let select = PoisonMask::bit(bit);
            let iterated: Vec<SliceEntry> = sb.rally_iter(select).collect();
            assert_eq!(entries_for_rally(&sb, select), iterated);
            let in_place: Vec<SliceEntry> =
                walk(&sb, select).iter().map(|&s| *sb.entry_at(s as usize)).collect();
            assert_eq!(in_place, iterated);
            for from in 0..=sb.len() {
                let rest: Vec<usize> =
                    iterated.iter().map(|e| e.trace_idx).filter(|&idx| idx >= from).collect();
                let first = sb
                    .next_selected(select, from)
                    .map(|(slot, at)| (sb.entry_at(slot).trace_idx, at));
                assert_eq!(first, rest.first().map(|&idx| (idx, idx)), "bit {bit} from {from}");
            }
        }
    }

    #[test]
    fn word_scan_matches_bit_loop_on_randomized_ring_states() {
        // Drive the ring through randomized push/retire/repoison churn (so the
        // buffer wraps and fragments) and check the word-level selection
        // against the per-entry rally_iter reference on every step.
        let mut state = 0x5EEDu64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        };
        let mut sb = SliceBuffer::new(13); // odd capacity: exercises wrap lanes
        let mut next_idx = 0usize;
        for _ in 0..400 {
            match lcg() % 4 {
                0 | 1 => {
                    let mask = PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 1);
                    if sb.push(entry(next_idx, mask)).is_ok() {
                        next_idx += 1;
                    } else {
                        // Full of active entries: retire the head to make room.
                        let head_idx = sb.active_entries().next().unwrap().trace_idx;
                        sb.retire(head_idx);
                    }
                }
                2 => {
                    let slots = walk(&sb, PoisonMask::all_bits());
                    if let Some(&slot) = slots.last() {
                        sb.repoison_at(slot as usize, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 2));
                    }
                }
                _ => {
                    let actives: Vec<usize> =
                        sb.active_entries().map(|e| e.trace_idx).collect();
                    if !actives.is_empty() {
                        let pick = actives[(lcg() % actives.len() as u64) as usize];
                        sb.retire(pick);
                    }
                }
            }
            for bit in 0..16u8 {
                let select = PoisonMask::bit(bit);
                let reference: Vec<SliceEntry> = sb.rally_iter(select).collect();
                assert_eq!(
                    entries_for_rally(&sb, select),
                    reference,
                    "selection diverged for bit {bit}"
                );
            }
        }
        assert!(next_idx > 20, "churn should have inserted entries");
    }

    #[test]
    fn producer_lookup_matches_binary_search_on_randomized_ring_states() {
        // Seeded push / retire_at / repoison_at / reclaim_head / clear churn
        // over sparse positions, with every pushed entry naming up to two
        // active entries as producers (a sliced instruction's poisoned
        // operands name only those: a rallied register is clean).  After every
        // step, and across a serialize → decode of the buffer mid-sequence,
        // each active consumer's `producer` must answer exactly what the
        // binary search by trace index answers: the poison of an active
        // producer (`entry_poison`), otherwise the result it retired with
        // (a reference map), resident or reclaimed since; and the slot-only
        // selection must name the slots of `rally_iter`'s entries.
        for (seed, capacity) in [(0x11CFu64, 13usize), (0xBEEF, 8), (0x5EED, 32)] {
            let mut state = seed;
            let mut lcg = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 16
            };
            let mut sb = SliceBuffer::new(capacity);
            let mut recorded = std::collections::HashMap::new();
            let mut next_idx = 0usize;
            let (mut reclaimed, mut rallied, mut wraps, mut prunes) = (0usize, 0usize, 0usize, 0usize);
            for step in 0..4000 {
                let mut slots = walk(&sb, PoisonMask::all_bits());
                let before = (sb.len(), sb.base);
                match lcg() % 8 {
                    0..=3 => {
                        let waiting: Vec<usize> = sb.active_entries().map(|e| e.trace_idx).collect();
                        let mut producer = || match lcg() % 4 {
                            0 => usize::MAX,
                            _ if waiting.is_empty() => usize::MAX,
                            _ => waiting[(lcg() % waiting.len() as u64) as usize],
                        };
                        let e = SliceEntry {
                            src1_value: None,
                            src1_producer: producer(),
                            src2_producer: producer(),
                            ..entry(next_idx, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 1))
                        };
                        if sb.push(e).is_ok() {
                            // Sparse positions: not every instruction slices.
                            next_idx += 1 + (lcg() % 4) as usize;
                        } else {
                            sb.retire_at(slots[0] as usize, None);
                        }
                    }
                    4 | 5 if !slots.is_empty() => {
                        let pick = slots[(lcg() % slots.len() as u64) as usize] as usize;
                        let result = (lcg() % 4 != 0).then(|| (lcg(), lcg() % 1000));
                        if let Some(result) = result {
                            recorded.insert(sb.entry_at(pick).trace_idx, result);
                        }
                        sb.retire_at(pick, result);
                    }
                    6 if !slots.is_empty() => {
                        let pick = slots[(lcg() % slots.len() as u64) as usize] as usize;
                        sb.repoison_at(pick, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 2));
                    }
                    _ if lcg() % 256 == 0 => {
                        sb.clear();
                        recorded.clear();
                    }
                    _ => sb.reclaim_head(),
                }
                prunes += usize::from(before.0 > 0 && !sb.is_empty() && sb.base > before.1);
                if step % 997 == 41 {
                    let (bytes, live) = (serde::to_bytes(&sb), sb.live_values());
                    sb = serde::from_bytes(&bytes).expect("a serialized buffer decodes");
                    assert_eq!(serde::to_bytes(&sb), bytes, "decode must not change the bytes");
                    sb.restore_values(&live, next_idx).expect("live values restore");
                    assert_eq!(sb.live_values(), live, "restoring must not change the live values");
                }
                assert!(!sb.is_empty() || sb.values.is_empty(), "an empty buffer holds values");

                wraps += usize::from(sb.head + sb.len > sb.capacity);
                slots = walk(&sb, PoisonMask::all_bits());
                for &slot in &slots {
                    let slot = slot as usize;
                    let e = *sb.entry_at(slot);
                    for (n, producer) in [e.src1_producer, e.src2_producer].into_iter().enumerate() {
                        let searched = match sb.entry_poison(producer) {
                            Some(poison) => Err(Some(poison)),
                            None => recorded.get(&producer).copied().ok_or(None),
                        };
                        let consumer = e.trace_idx;
                        assert_eq!(sb.producer(slot, n), searched, "seed {seed:#x} step {step}: {consumer} {producer}");
                        let resident = sb.position_of(producer).is_some();
                        reclaimed += usize::from(!resident && searched.is_ok());
                        rallied += usize::from(resident && searched.is_ok());
                    }
                }
                for bit in 0..16u8 {
                    let select = PoisonMask::bit(bit);
                    slots = walk(&sb, select);
                    let by_slot: Vec<SliceEntry> =
                        slots.iter().map(|&s| *sb.entry_at(s as usize)).collect();
                    let reference: Vec<SliceEntry> = sb.rally_iter(select).collect();
                    assert_eq!(by_slot, reference, "seed {seed:#x} step {step} bit {bit}");
                }
            }
            assert!(next_idx > 4 * capacity, "churn should have cycled the ring");
            assert!(wraps > 0, "the ring never wrapped");
            assert!(reclaimed > 0, "no active consumer ever read a reclaimed producer's value");
            assert!(rallied > 0, "no active consumer ever read a resident result");
            assert!(prunes > 0, "head reclamation never pruned the window");
        }
    }

    #[test]
    fn a_pruned_window_keeps_every_position_from_its_floor() {
        // One active entry at 100 holds the head while entries every third
        // position up to 100 + 2 * PRUNE_SLACK rally; an active consumer at
        // the end names the one at `floor`.  Retiring the head lets
        // reclamation prune: every value from `floor` on stays.
        let mut sb = SliceBuffer::new(2 * PRUNE_SLACK);
        sb.push(entry(100, PoisonMask::bit(0))).unwrap();
        let top = 100 + 2 * PRUNE_SLACK;
        for idx in (103..top).step_by(3) {
            sb.push(entry(idx, PoisonMask::bit(0))).unwrap();
            let (slot, _) = sb.next_selected(PoisonMask::bit(0), sb.len() - 1).unwrap();
            sb.retire_at(slot, Some((idx as Value, idx as Cycle + 1)));
        }
        let floor = 100 + PRUNE_SLACK + 1;
        assert_eq!((floor - 100) % 3, 0, "the floor holds a value");
        sb.push(SliceEntry { src1_value: None, src1_producer: floor, ..entry(top, PoisonMask::bit(1)) }).unwrap();
        sb.retire(100);
        sb.reclaim_head();
        assert_eq!((sb.len(), sb.base), (1, floor), "reclaimed to the consumer, pruned to its producer");
        assert!(sb.values.len() <= 2 * sb.kept + PRUNE_SLACK, "due again only after the window doubles");
        for idx in 90..top + 10 {
            let want = (idx >= floor && idx < top && (idx - 100) % 3 == 0).then_some((idx as Value, idx as Cycle + 1));
            assert_eq!(sb.value_at(idx), want, "position {idx}");
        }
        assert_eq!(sb.producer(sb.head, 0), Ok((floor as Value, floor as Cycle + 1)));
        // Emptied, the buffer holds no value; its next entry starts the window.
        sb.retire(top);
        sb.reclaim_head();
        assert!(sb.values.is_empty());
        sb.push(entry(5_000, PoisonMask::bit(0))).unwrap();
        assert_eq!((sb.values.len(), sb.base), (1, 5_000));
    }

    #[test]
    fn a_standalone_buffer_holds_no_values_when_empty() {
        // Push until full, retire everything, reclaim, repeat — over sparse
        // increasing positions, the way a host-speed probe drives a buffer
        // with no machine around it: the window never outgrows what the
        // buffer spans, and an empty buffer holds no values.
        let mut sb = SliceBuffer::new(128);
        let (mut emptied, mut widest) = (0usize, 0usize);
        for k in 0..120_000usize {
            let idx = 7 * k + k % 5;
            if sb.push(entry(idx, PoisonMask::bit((k % 8) as u8))).is_err() {
                let live: Vec<usize> = sb.active_entries().map(|e| e.trace_idx).collect();
                live.into_iter().for_each(|idx| assert!(sb.retire(idx)));
                sb.reclaim_head();
                assert!(sb.is_empty() && sb.values.is_empty(), "an emptied buffer holds values");
                emptied += 1;
                sb.push(entry(idx, PoisonMask::bit(0))).expect("an emptied buffer has room");
            }
            widest = widest.max(sb.values.len());
        }
        assert!(emptied > 900, "the buffer emptied {emptied} times");
        assert!(widest <= 8 * 128, "the window spanned {widest} positions");
    }

    #[test]
    fn slot_carrying_selection_matches_and_slot_ops_are_equivalent() {
        // rally_select_into must pair every selected entry with a physical
        // slot on which retire_at/repoison_at act exactly like the by-index
        // forms — including across a ring wrap.
        let mut sb = SliceBuffer::new(8);
        for k in 0..6usize {
            sb.push(entry(k, PoisonMask::bit((k % 2) as u8))).unwrap();
        }
        sb.retire(0);
        sb.retire(1);
        sb.reclaim_head();
        sb.push(entry(6, PoisonMask::bit(0))).unwrap();
        sb.push(entry(7, PoisonMask::bit(0))).unwrap();
        sb.push(entry(8, PoisonMask::bit(0))).unwrap();
        sb.push(entry(9, PoisonMask::bit(0))).unwrap(); // wraps

        let mut with_slots = Vec::new();
        sb.rally_select_into(PoisonMask::bit(0), &mut with_slots);
        let reference: Vec<SliceEntry> = sb.rally_iter(PoisonMask::bit(0)).collect();
        let entries: Vec<SliceEntry> = with_slots.iter().map(|&(_, e)| e).collect();
        assert_eq!(entries, reference);

        for &(slot, e) in &with_slots {
            // The slot really addresses this entry.
            assert_eq!(sb.entry_poison(e.trace_idx), Some(e.poison));
            assert!(sb.repoison_at(slot as usize, PoisonMask::bit(5)));
            assert_eq!(sb.entry_poison(e.trace_idx), Some(PoisonMask::bit(5)));
            assert!(sb.retire_at(slot as usize, None));
            assert!(!sb.retire_at(slot as usize, None), "already retired");
            assert_eq!(sb.entry_poison(e.trace_idx), None);
        }
        assert!(entries_for_rally(&sb, PoisonMask::bit(0)).is_empty());
    }

    #[test]
    fn repoison_keeps_entry_active() {
        let mut sb = SliceBuffer::new(4);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        assert!(sb.repoison_at(0, PoisonMask::bit(3)));
        let pass = entries_for_rally(&sb, PoisonMask::bit(3));
        assert_eq!(pass.len(), 1);
        assert!(entries_for_rally(&sb, PoisonMask::bit(0)).is_empty());
    }

    #[test]
    fn peak_and_inserted_counters() {
        let mut sb = SliceBuffer::new(4);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        sb.retire(0);
        sb.reclaim_head();
        sb.push(entry(2, PoisonMask::bit(0))).unwrap();
        assert_eq!(sb.peak(), 2);
        assert_eq!(sb.inserted(), 3);
    }

    #[test]
    fn no_active_and_clear() {
        let mut sb = SliceBuffer::new(4);
        assert!(sb.no_active());
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        assert!(!sb.no_active());
        sb.clear();
        assert!(sb.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SliceBuffer::new(0);
    }
}
