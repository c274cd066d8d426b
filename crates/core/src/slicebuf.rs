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
//! A second side array holds each slot's producer *links*: the physical slots
//! of the (up to two) sliced instructions its operands wait on, resolved once
//! when the entry is pushed.  A rally pass visits an entry many times before
//! it finally executes, and each visit asks "has my producer rallied yet?";
//! through the link that is one indexed read ([`SliceBuffer::producer`])
//! instead of a search by trace index, and the same read hands over the
//! producer's rallied result while the producer is still resident.
//!
//! A third side array holds each slot's *shape*: which operands a rally must
//! resolve and the destination register, recorded at push from the
//! instruction.  With the plane and the links it is all a deferral reads, so
//! [`SliceBuffer::defer_run`] certifies and re-poisons the deferred tail of a
//! rally pass as one run, walking the plane words directly, without fetching
//! a single instruction.  Links, results and shapes are derived state — not
//! part of an entry, not serialized; links are rebuilt on decode, results by
//! [`SliceBuffer::restore_results`], and shapes are unknown after decode
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
    fn vacant() -> Self {
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
    /// Per slot, the physical slots that held the entry's two producers when
    /// it was pushed ([`NO_LINK`] = operand captured, absent, or its producer
    /// not resident).  A link may outlive its producer — the slot is
    /// reclaimed and reused — which [`SliceBuffer::producer`] detects by
    /// comparing trace indices.  Derived state: see the module docs.
    links: Vec<[u32; 2]>,
    /// Per slot, the result its entry produced when it rallied
    /// ([`SliceBuffer::record_result`]); meaningful while the slot holds that
    /// retired entry.  Derived state, like `links`.
    results: Vec<Option<(Value, Cycle)>>,
    /// Per slot, the shape of the entry's instruction (`None` = unknown: the
    /// entry was pushed without its instruction or the buffer was decoded).
    /// Derived state, like `links`.
    shapes: Vec<Option<EntryShape>>,
}

/// The link of an operand that has no resident producer.
const NO_LINK: u32 = u32::MAX;

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

/// What a consumer's producer link finds ([`SliceBuffer::producer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// The producer is still active in the buffer, waiting on these misses.
    Waiting(PoisonMask),
    /// The producer has rallied and still occupies its slot; its recorded
    /// result, if it produced one.
    Rallied(Option<(Value, Cycle)>),
    /// The producer is not in the buffer: reclaimed from the head, or never
    /// sliced.
    Gone,
}

/// The serialized form is the ring without its derived side arrays.
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
            links: Vec::new(),
            results: Vec::new(),
            shapes: Vec::new(),
        };
        if sb.slots.len() != sb.capacity || sb.head >= sb.capacity.max(1) || sb.len > sb.capacity {
            return Err(serde::Error::invalid("slice buffer ring geometry", r.position()));
        }
        sb.links = vec![[NO_LINK; 2]; sb.capacity];
        sb.results = vec![None; sb.capacity];
        sb.shapes = vec![None; sb.capacity];
        for l in 0..sb.len {
            let slot = sb.phys(l);
            sb.links[slot] = sb.links_for(&sb.slots[slot]);
        }
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
            links: vec![[NO_LINK; 2]; capacity],
            results: vec![None; capacity],
            shapes: vec![None; capacity],
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
        self.links[slot] = self.links_for(&entry);
        self.results[slot] = None;
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
    /// the paper's design performs).
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
        }
    }

    /// Iterates over the occupied entries, active or retired, in program
    /// order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &SliceEntry> {
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

    /// The physical slots currently holding `entry`'s two producers
    /// ([`NO_LINK`] where the operand has none in the buffer).
    fn links_for(&self, entry: &SliceEntry) -> [u32; 2] {
        [entry.src1_producer, entry.src2_producer].map(|producer| {
            if producer == usize::MAX {
                return NO_LINK;
            }
            self.position_of(producer)
                .map_or(NO_LINK, |l| self.phys(l) as u32)
        })
    }

    /// Where the producer of operand `operand` (0 = `src1_producer`, 1 =
    /// `src2_producer`) of the entry in physical slot `slot` stands — the O(1)
    /// form of a binary search for that producer.  The linked slot still
    /// holds the producer exactly when its trace index matches: a reclaimed
    /// slot is vacant or reused by a younger instruction.
    #[inline]
    pub fn producer(&self, slot: usize, operand: usize) -> Producer {
        let e = &self.slots[slot];
        let trace_idx = [e.src1_producer, e.src2_producer][operand];
        let link = self.links[slot][operand] as usize;
        match self.slots.get(link) {
            Some(p) if p.trace_idx == trace_idx => {
                if p.active {
                    Producer::Waiting(p.poison)
                } else {
                    Producer::Rallied(self.results[link])
                }
            }
            _ => Producer::Gone,
        }
    }

    /// Records the result the entry in physical slot `slot` produced, for
    /// its consumers to read through their links once it is retired.
    #[inline]
    pub fn record_result(&mut self, slot: usize, value: Value, ready: Cycle) {
        self.results[slot] = Some((value, ready));
    }

    /// Rebuilds the recorded results of a decoded buffer: `result_of` gives,
    /// by trace index, what [`SliceBuffer::record_result`] had been told.
    pub fn restore_results(&mut self, result_of: impl Fn(usize) -> Option<(Value, Cycle)>) {
        for l in 0..self.len {
            let slot = self.phys(l);
            let e = &self.slots[slot];
            self.results[slot] = if e.active { None } else { result_of(e.trace_idx) };
        }
    }

    /// Marks the entry for `trace_idx` as retired (executed successfully).
    pub fn retire(&mut self, trace_idx: usize) -> bool {
        if let Some(l) = self.position_of(trace_idx) {
            let slot = self.phys(l);
            let e = &mut self.slots[slot];
            if e.active {
                e.active = false;
                self.active -= 1;
                self.plane.clear_lane(slot);
                return true;
            }
        }
        false
    }

    /// O(1) form of [`SliceBuffer::retire`] for a physical slot obtained from
    /// [`SliceBuffer::next_selected`].
    pub fn retire_at(&mut self, slot: usize) -> bool {
        let e = &mut self.slots[slot];
        if e.active {
            e.active = false;
            self.active -= 1;
            self.plane.clear_lane(slot);
            return true;
        }
        false
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
    /// must resolve has a value — a producer's recorded result, or for a
    /// producer no longer in the buffer, `resolved(its trace index)`.  Each
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
        resolved: impl Fn(usize) -> bool,
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
                                && self.waits_on(slot, shape, select, to, &resolved) =>
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
    fn waits_on(
        &self,
        slot: usize,
        shape: EntryShape,
        select: PoisonMask,
        to: PoisonMask,
        resolved: &impl Fn(usize) -> bool,
    ) -> bool {
        let e = &self.slots[slot];
        let [l0, l1] = self.links[slot];
        let stands = |needed: bool, link: u32, producer: usize| -> Option<bool> {
            if !needed {
                return Some(false);
            }
            match self.slots.get(link as usize) {
                Some(p) if p.trace_idx == producer => {
                    if p.active {
                        (p.poison.without(select) == to).then_some(true)
                    } else {
                        self.results[link as usize].map(|_| false)
                    }
                }
                _ => resolved(producer).then_some(false),
            }
        };
        let Some(w0) = stands(shape.needs[0], l0, e.src1_producer) else { return false };
        let Some(w1) = stands(shape.needs[1], l1, e.src2_producer) else { return false };
        w0 | w1
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
    fn link_lookup_matches_binary_search_on_randomized_ring_states() {
        // Seeded push / retire_at / repoison_at / reclaim_head / clear churn
        // with every pushed entry naming up to two earlier instructions as
        // producers — resident, already reclaimed from the head, or never
        // sliced.  After every step, and across a serialize → decode of the
        // buffer mid-sequence, each active consumer's link must answer
        // exactly what the binary search by trace index answers (poison from
        // `entry_poison`, results from a reference map), and the slot-only
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
            let (mut gone, mut rallied, mut wraps) = (0usize, 0usize, 0usize);
            for step in 0..1500 {
                let mut slots = walk(&sb, PoisonMask::all_bits());
                match lcg() % 8 {
                    0..=3 => {
                        let mut producer = || match lcg() % 4 {
                            0 => usize::MAX,
                            _ => next_idx.checked_sub(1 + (lcg() % 24) as usize).unwrap_or(usize::MAX),
                        };
                        let e = SliceEntry {
                            src1_value: None,
                            src1_producer: producer(),
                            src2_producer: producer(),
                            ..entry(next_idx, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 1))
                        };
                        if sb.push(e).is_ok() {
                            next_idx += 1;
                        } else {
                            sb.retire_at(slots[0] as usize);
                        }
                    }
                    4 | 5 if !slots.is_empty() => {
                        let pick = slots[(lcg() % slots.len() as u64) as usize] as usize;
                        if lcg() % 4 != 0 {
                            let result = (lcg(), lcg() % 1000);
                            sb.record_result(pick, result.0, result.1);
                            recorded.insert(sb.entry_at(pick).trace_idx, result);
                        }
                        sb.retire_at(pick);
                    }
                    6 if !slots.is_empty() => {
                        let pick = slots[(lcg() % slots.len() as u64) as usize] as usize;
                        sb.repoison_at(pick, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 2));
                    }
                    _ if lcg() % 64 == 0 => {
                        sb.clear();
                        recorded.clear();
                    }
                    _ => sb.reclaim_head(),
                }
                if step % 97 == 41 {
                    let bytes = serde::to_bytes(&sb);
                    sb = serde::from_bytes(&bytes).expect("a serialized buffer decodes");
                    assert_eq!(serde::to_bytes(&sb), bytes, "decode must not change the bytes");
                    sb.restore_results(|idx| recorded.get(&idx).copied());
                }

                wraps += usize::from(sb.head + sb.len > sb.capacity);
                slots = walk(&sb, PoisonMask::all_bits());
                for &slot in &slots {
                    let slot = slot as usize;
                    let e = *sb.entry_at(slot);
                    for (n, producer) in [e.src1_producer, e.src2_producer].into_iter().enumerate() {
                        let searched = match sb.position_of(producer) {
                            None => Producer::Gone,
                            Some(l) if sb.slots[sb.phys(l)].active => {
                                Producer::Waiting(sb.entry_poison(producer).expect("active"))
                            }
                            Some(_) => Producer::Rallied(recorded.get(&producer).copied()),
                        };
                        assert_eq!(
                            sb.producer(slot, n),
                            searched,
                            "seed {seed:#x} step {step}: consumer {} producer {producer}",
                            e.trace_idx
                        );
                        gone += usize::from(producer != usize::MAX && searched == Producer::Gone);
                        rallied += usize::from(matches!(searched, Producer::Rallied(Some(_))));
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
            assert!(gone > 0, "no active consumer ever outlived its producer");
            assert!(rallied > 0, "no active consumer ever read a resident result");
        }
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
            assert!(sb.retire_at(slot as usize));
            assert!(!sb.retire_at(slot as usize), "already retired");
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
