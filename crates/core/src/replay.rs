//! Walk recordings: how a Runahead/Multipass advance walk replays what an
//! earlier walk already did instead of visiting it again.
//!
//! Re-execution restarts at every trigger, so consecutive advance walks
//! cover almost the same trace positions (on a pointer chase each committed
//! instruction is advance-visited about 166 times).  Most of those visits are
//! *inert*: their only effects are on the walk state below and on two
//! counters, `advance_instructions` and the fetch engine's `fetched`.  A
//! visit is inert if it is
//!
//! * poisoned and not a store — for Multipass also at or past `saved_end`,
//!   so that it cannot drop a saved result; or
//! * clean and not a load, store or branch, at a point where no result can
//!   be saved for the rest of the episode: always for Runahead; for Multipass
//!   once a store has been seen, or once the result buffer is full and the
//!   position is at or past `saved_end`.  Once true this stays true until the
//!   episode ends, so register *values* are dead: the restore at the
//!   episode's end overwrites them and no saved result can capture them.
//!
//! What an inert visit reads — the *walk state* — is, relative to `F`, the
//! next fetch-ready cycle: the whole poison plane; each register whose
//! `ready_at` exceeds `F`, with its offset (every other register is
//! equivalent, because issue never precedes `F` and the restore resets every
//! register); the issue schedule's live cycle and slot counters when that
//! cycle is at or past `F`; and the issue frontier when it exceeds `F`.  The
//! fetch engine's slots used within its cycle are not part of it: fetch and
//! issue share one width and an instruction never issues before its fetch
//! slot is ready, so once the issue phase is fixed the fetch slots never
//! decide an inert visit's issue cycle.  Two walks in equal walk states at
//! one trace position make the same inert visits, shifted by the difference
//! of their `F`s.
//!
//! So every walk leaves a recording: per position, the frontier after the
//! visit, the visit's completion and its kind; every 8th position, the walk
//! state before the visit, and per whole block of 8 a summary that lets a
//! follow take the block at once.  The last 8 recordings live in one ring,
//! allocated at the first episode and reused after it; a recording that
//! ends before the current walk's start is replaced first, since no later
//! walk can reach it.  A walk
//! that reaches a grid position whose walk state equals a recording's
//! (exactly — nothing is approximated) follows the recording instead of
//! visiting: straight to the position where the shifted frontier reaches the
//! trigger's return, because the register file is restored there anyway; or,
//! if the recording first reaches a visit that is not inert or its own end,
//! only to the last grid position before that point, where it installs the
//! recorded state, walks on for real and appends to that recording.

use crate::common::Engine;
use icfp_isa::{Cycle, DynInst, OpClass, Reg, NUM_ARCH_REGS};
use icfp_pipeline::{IssuePhase, PoisonMask, SlotUse, POISON_LANES_PER_WORD};

/// Walk states are recorded and compared at every `GRID`th trace position.
pub(crate) const GRID: usize = 8;
/// Recordings the ring keeps.
const SLOTS: usize = 8;
/// Blocks of [`GRID`] positions one recording holds.
const MAX_BLOCKS: usize = 128;
/// Walk-state words one recording holds (eight per block on average).
const MAX_WORDS: usize = 8 * MAX_BLOCKS;
/// The longest walk state: header, issue and frontier words, the poison
/// plane and one word per register.
const MAX_STATE: usize = 3 + NUM_ARCH_REGS / POISON_LANES_PER_WORD + NUM_ARCH_REGS;

// The registers that may be ready after `F` are one mask word.
const _: () = assert!(NUM_ARCH_REGS == 64);
// The ring, allocated once per engine, stays within 256 KiB.
const _: () = assert!(
    SLOTS
        * (MAX_BLOCKS * GRID * size_of::<Step>()
            + MAX_BLOCKS * (size_of::<Block>() + size_of::<Grid>())
            + MAX_WORDS * size_of::<u64>())
        <= 256 * 1024
);

/// Where inert visits begin for the rest of an episode: at or past
/// `poisoned` for poisoned non-stores, at or past `clean` for clean visits
/// that are not a load, store or branch (`usize::MAX`: not in this episode).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inert {
    pub(crate) poisoned: usize,
    pub(crate) clean: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Poisoned, not a store.
    Poisoned,
    /// Clean, not a load, store or branch.
    Clean,
    /// Anything else: never replayed.
    Other,
}

/// One recorded visit.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Issue frontier after the visit, in the recording's frame.
    frontier: u32,
    /// Issue slots taken in the frontier cycle after the visit.
    slots: SlotUse,
    /// Completion minus issue cycle (inert kinds only).
    done: u8,
    kind: Kind,
}

impl Step {
    fn inert(&self, p: usize, inert: Inert) -> bool {
        match self.kind {
            Kind::Poisoned => p >= inert.poisoned,
            Kind::Clean => p >= inert.clean,
            Kind::Other => false,
        }
    }
}

/// What [`follow`] needs of a whole recorded block: whether every step in it
/// is of an inert kind (from which offset on), and its latest completion.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Latest completion of its steps, in the recording's frame.
    top: Cycle,
    /// Offsets of its first poisoned and first clean step ([`GRID`]: none).
    first_poisoned: u8,
    first_clean: u8,
    /// It holds a step that is never replayed.
    other: bool,
}

impl Block {
    fn of(steps: &[Step]) -> Self {
        let first = |kind| steps.iter().position(|s| s.kind == kind).unwrap_or(GRID) as u8;
        Block {
            top: steps.iter().map(|s| s.frontier as Cycle + s.done as Cycle).max().unwrap_or(0),
            first_poisoned: first(Kind::Poisoned),
            first_clean: first(Kind::Clean),
            other: steps.iter().any(|s| s.kind == Kind::Other),
        }
    }

    /// Every step of the block starting at position `k` is inert.
    fn inert(&self, k: usize, inert: Inert) -> bool {
        !self.other
            && (self.first_poisoned as usize == GRID || k + self.first_poisoned as usize >= inert.poisoned)
            && (self.first_clean as usize == GRID || k + self.first_clean as usize >= inert.clean)
    }
}

/// The walk state recorded before a block's first position: that position's
/// `F` in the recording's frame, and where the state starts in `words`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    f: u32,
    at: u32,
}

/// One walk's recording: consecutive steps from a grid position on, and the
/// walk state before every block of [`GRID`] of them.  Cycles are stored in
/// the frame of the walk that started it; a walk that follows or extends it
/// converts with its own shift.
#[derive(Debug, Default)]
struct Recording {
    /// Trace position of the first step, a grid position.
    first: usize,
    steps: Vec<Step>,
    /// One per whole block of `steps`.
    blocks: Vec<Block>,
    grids: Vec<Grid>,
    words: Vec<u64>,
    /// The walk that last recorded into or followed it (among recordings a
    /// walk can still reach, the least recently used is replaced first).
    stamp: u64,
}

/// Walk-state word 0: whether an issue word follows (bit 0), which
/// poison-plane words are non-zero (bits 16..32) and how many ready-register
/// words end the state (bits 32..40).  Then the issue word, the frontier
/// word, the non-zero poison words and the ready registers in index order.
fn state_len(header: u64) -> usize {
    2 + (header & 1) as usize + ((header >> 16) as u16).count_ones() as usize + ((header >> 32) & 0xFF) as usize
}

impl Recording {
    fn with_capacity() -> Self {
        Recording {
            steps: Vec::with_capacity(MAX_BLOCKS * GRID),
            blocks: Vec::with_capacity(MAX_BLOCKS),
            grids: Vec::with_capacity(MAX_BLOCKS),
            words: Vec::with_capacity(MAX_WORDS),
            ..Recording::default()
        }
    }

    fn end(&self) -> usize {
        self.first + self.steps.len()
    }

    /// The walk state recorded before grid position `p`, with its `F`.
    fn state(&self, p: usize) -> Option<(u32, &[u64])> {
        let g = *self.grids.get(p.checked_sub(self.first)? / GRID)?;
        let at = g.at as usize;
        Some((g.f, &self.words[at..at + state_len(self.words[at])]))
    }

    fn restart(&mut self, first: usize) {
        self.first = first;
        self.steps.clear();
        self.blocks.clear();
        self.grids.clear();
        self.words.clear();
    }

    /// Forgets every step from grid position `p` on, keeping the state
    /// before it.
    fn truncate(&mut self, p: usize) {
        let b = (p - self.first) / GRID;
        self.steps.truncate(p - self.first);
        self.blocks.truncate(b);
        self.grids.truncate(b + 1);
        let at = self.grids[b].at as usize;
        self.words.truncate(at + state_len(self.words[at]));
    }

    /// Drops the whole blocks before position `live_from`, which no later
    /// walk reaches; false if there are none.
    fn trim(&mut self, live_from: usize) -> bool {
        let k = (live_from.saturating_sub(self.first) / GRID).min(self.grids.len().saturating_sub(1));
        if k == 0 {
            return false;
        }
        let at = self.grids[k].at;
        self.steps.drain(..(k * GRID).min(self.steps.len()));
        self.blocks.drain(..k.min(self.blocks.len()));
        self.grids.drain(..k);
        self.words.drain(..at as usize);
        for g in &mut self.grids {
            g.at -= at;
        }
        self.first += k * GRID;
        true
    }

    fn has_room(&self, state: usize) -> bool {
        self.grids.len() < MAX_BLOCKS && self.words.len() + state <= MAX_WORDS
    }
}

/// The last [`SLOTS`] walk recordings and the walk being made now.
#[derive(Debug, Default)]
pub(crate) struct WalkRing {
    slots: Vec<Recording>,
    /// The walk state being compared.
    state: Vec<u64>,
    /// Walks begun (the slots' replacement clock).
    clock: u64,
    /// Trigger position of the current walk: no later walk starts at or
    /// before it.
    trigger: usize,
    /// The recording the current walk appends to, and the shift from its
    /// frame to real cycles.
    cur: Option<(usize, Cycle)>,
    /// A superset of the registers whose readiness may exceed `F`.
    live: u64,
    /// Advance visits replayed instead of visited.
    #[cfg(test)]
    pub(crate) replayed: u64,
}

impl WalkRing {
    /// Starts the walk of the episode triggered at position `trigger`.
    pub(crate) fn begin(&mut self, trigger: usize) {
        if self.slots.is_empty() {
            self.slots = (0..SLOTS).map(|_| Recording::with_capacity()).collect();
            self.state = Vec::with_capacity(MAX_STATE);
        }
        self.clock += 1;
        self.trigger = trigger;
        self.cur = None;
        self.live = u64::MAX;
    }

    /// At grid position `j`, before its visit: if a recording holds the
    /// current walk state here, follows the one that reaches furthest and
    /// returns the position the walk goes on from (past `j`; the walk is
    /// over if the frontier has reached `trigger_return`).  Otherwise
    /// records the state and returns `j`.
    pub(crate) fn at_grid(
        &mut self,
        eng: &mut Engine,
        inert: Inert,
        j: usize,
        len: usize,
        trigger_return: Cycle,
    ) -> usize {
        let Some(f) = capture(eng, &mut self.live, &mut self.state) else {
            self.cur = None;
            return j;
        };
        let cur = self.cur.map(|(s, _)| s);
        let (mut best, mut reach) = (None, j);
        for (s, rec) in self.slots.iter().enumerate() {
            if Some(s) == cur || rec.end() <= reach {
                continue;
            }
            if let Some((f_rec, state)) = rec.state(j) {
                if state == self.state.as_slice() {
                    (best, reach) = (Some((s, f.wrapping_sub(f_rec as Cycle))), rec.end());
                }
            }
        }
        if let Some((s, shift)) = best {
            let rec = &mut self.slots[s];
            if let Some((to, over)) = follow(rec, shift, eng, inert, j, len, trigger_return, &mut self.live) {
                rec.stamp = self.clock;
                #[cfg(test)]
                {
                    self.replayed += (to - j) as u64;
                }
                if !over {
                    self.cur = Some((s, shift));
                }
                return to;
            }
        }
        self.push_state(j, f);
        j
    }

    /// Appends the captured state at grid position `j` to the current
    /// recording, starting one if there is none — in a slot no walk can reach
    /// any more if there is one, else in the least recently used — and ends
    /// the recording if it cannot take the state.
    fn push_state(&mut self, j: usize, f: Cycle) {
        let (s, shift) = match self.cur {
            Some(cur) => cur,
            None => {
                let live = |s: usize| self.slots[s].end() > self.trigger + 1;
                let s = (0..SLOTS).min_by_key(|&s| (live(s), self.slots[s].stamp)).expect("the ring has slots");
                self.slots[s].restart(j);
                self.cur = Some((s, f));
                (s, f)
            }
        };
        let rec = &mut self.slots[s];
        rec.stamp = self.clock;
        if rec.grids.len() * GRID > j - rec.first {
            // Installed here: the recording already holds this state.
            return;
        }
        debug_assert_eq!(rec.end(), j, "a recording is contiguous");
        let n = self.state.len();
        let frame_f = u32::try_from(f.wrapping_sub(shift)).ok();
        match frame_f.filter(|_| rec.has_room(n) || (rec.trim(self.trigger + 1) && rec.has_room(n))) {
            Some(f) => {
                rec.grids.push(Grid { f, at: rec.words.len() as u32 });
                rec.words.extend_from_slice(&self.state);
            }
            None => self.cur = None,
        }
    }

    /// Records the real visit just made at position `j`; `poisoned`: its
    /// sources were.
    #[inline]
    pub(crate) fn record(&mut self, eng: &Engine, j: usize, inst: &DynInst, poisoned: bool) {
        if let Some(d) = inst.dst {
            self.live |= 1 << d.index();
        }
        let Some((s, shift)) = self.cur else {
            return;
        };
        let Ok(frontier) = u32::try_from(eng.frontier.wrapping_sub(shift)) else {
            self.cur = None;
            return;
        };
        let (kind, done) = match (poisoned, inst.class()) {
            (true, OpClass::Store) | (false, OpClass::Load | OpClass::Store | OpClass::Branch) => (Kind::Other, 0),
            (true, _) => (Kind::Poisoned, 1),
            (false, _) => u8::try_from(inst.latency()).map_or((Kind::Other, 0), |l| (Kind::Clean, l)),
        };
        let rec = &mut self.slots[s];
        debug_assert_eq!(rec.end(), j, "a recording is contiguous");
        rec.steps.push(Step { frontier, slots: eng.issue.phase().used, done, kind });
        if rec.steps.len().is_multiple_of(GRID) {
            rec.blocks.push(Block::of(&rec.steps[rec.steps.len() - GRID..]));
        }
    }
}

/// Captures the walk state before the next visit into `out` and returns its
/// `F`; `None` if an offset does not fit its field.  Registers of `live` no
/// longer ready after `F` leave it.
fn capture(eng: &Engine, live: &mut u64, out: &mut Vec<u64>) -> Option<Cycle> {
    let f = eng.fetch.fetch_ready();
    out.clear();
    out.push(0);
    let mut header = 0;
    let issue = eng.issue.phase();
    if issue.cycle >= f {
        let SlotUse { total, int, mem_fp_br } = issue.used;
        let slots = total as u64 | (int as u64) << 8 | (mem_fp_br as u64) << 16;
        out.push(u32::try_from(issue.cycle - f).ok()? as u64 | slots << 32);
        header |= 1;
    }
    out.push(eng.frontier.saturating_sub(f));
    for (k, &w) in eng.rf.poison_words().iter().enumerate() {
        if w != 0 {
            header |= 1 << (16 + k);
            out.push(w);
        }
    }
    let mut ready = 0u64;
    let mut regs = *live;
    while regs != 0 {
        let r = regs.trailing_zeros() as usize;
        regs &= regs - 1;
        let at = eng.rf.ready_at(Reg::from_index(r));
        if at > f {
            out.push((r as u64) << 32 | u32::try_from(at - f).ok()? as u64);
            ready += 1;
        } else {
            *live &= !(1 << r);
        }
    }
    out[0] = header | ready << 32;
    Some(f)
}

/// Follows `rec` from grid position `g`, where its walk state equals the
/// engine's and `shift` takes its frame to real cycles, over the visits it
/// recorded as long as they are inert.  Returns where the walk goes on and
/// whether it is over, or `None` if not one block could be replayed.
#[allow(clippy::too_many_arguments)]
fn follow(
    rec: &mut Recording,
    shift: Cycle,
    eng: &mut Engine,
    inert: Inert,
    g: usize,
    len: usize,
    trigger_return: Cycle,
    live: &mut u64,
) -> Option<(usize, bool)> {
    // `top`: the latest completion of the whole blocks taken so far; `prev`:
    // the same before the last of them.
    let (mut k, mut top, mut prev) = (g, 0, 0);
    loop {
        if k > g && rec.state(k).is_none() {
            return land(rec, shift, eng, g, k - GRID, prev, live);
        }
        // A whole inert block the walk does not end in is taken at once.
        let b = (k - rec.first) / GRID;
        if let Some(summary) = rec.blocks.get(b) {
            let last = rec.steps[b * GRID + GRID - 1].frontier as Cycle;
            if summary.inert(k, inert) && last.wrapping_add(shift) < trigger_return && k + GRID < len {
                (prev, top) = (top, top.max(summary.top));
                k += GRID;
                continue;
            }
        }
        let mut block = top;
        for p in k..k + GRID {
            let step = match rec.steps.get(p - rec.first) {
                Some(s) if s.inert(p, inert) => *s,
                _ => return land(rec, shift, eng, g, k, top, live),
            };
            block = block.max(step.frontier as Cycle + step.done as Cycle);
            if (step.frontier as Cycle).wrapping_add(shift) >= trigger_return || p + 1 == len {
                replay(eng, p + 1 - g, step, shift, block);
                return Some((p + 1, true));
            }
        }
        (prev, top) = (top, block);
        k += GRID;
    }
}

/// Ends a follow that started at `g` at grid position `to`: replays the
/// visits before it and installs the state recorded there; the walk goes on
/// for real from `to`, appending to `rec`.
fn land(
    rec: &mut Recording,
    shift: Cycle,
    eng: &mut Engine,
    g: usize,
    to: usize,
    top: Cycle,
    live: &mut u64,
) -> Option<(usize, bool)> {
    if to == g {
        return None;
    }
    replay(eng, to - g, rec.steps[to - 1 - rec.first], shift, top);
    let (f, state) = rec.state(to).expect("a block's state precedes its steps");
    let f = (f as Cycle).wrapping_add(shift);
    debug_assert_eq!(eng.fetch.fetch_ready(), f, "the replayed fetch slots land on the recorded F");
    install(eng, state, f, live);
    rec.truncate(to);
    Some((to, false))
}

/// Applies `n` replayed visits, the last of which is `last`: the two
/// counters, the fetch slots, the issue phase, the frontier and the latest
/// completion `top` (frame cycles).
fn replay(eng: &mut Engine, n: usize, last: Step, shift: Cycle, top: Cycle) {
    eng.stats.advance_instructions += n as u64;
    eng.fetch.skip(n as u64);
    eng.frontier = (last.frontier as Cycle).wrapping_add(shift);
    eng.issue.set_phase(IssuePhase { cycle: eng.frontier, used: last.slots });
    eng.note_completion(top.wrapping_add(shift));
}

/// Installs a recorded walk state whose `F` is `f`: the poison plane and
/// every register's readiness.  Values stay as they are — dead for the rest
/// of the episode.
fn install(eng: &mut Engine, state: &[u64], f: Cycle, live: &mut u64) {
    let header = state[0];
    let rf = &mut eng.rf;
    let mut regs = *live;
    while regs != 0 {
        let r = Reg::from_index(regs.trailing_zeros() as usize);
        regs &= regs - 1;
        rf.write(r, rf.value(r), 0, 0);
    }
    rf.clear_poison_bits(PoisonMask::all_bits());
    let mut at = 2 + (header & 1) as usize;
    let mut words = (header >> 16) as u16;
    while words != 0 {
        let k = words.trailing_zeros() as usize;
        words &= words - 1;
        for lane in 0..POISON_LANES_PER_WORD {
            let mask = (state[at] >> (16 * lane)) as u16;
            if mask != 0 {
                rf.poison_write(Reg::from_index(k * POISON_LANES_PER_WORD + lane), PoisonMask::from_bits(mask), 0);
            }
        }
        at += 1;
    }
    *live = 0;
    for &w in &state[at..] {
        let r = Reg::from_index((w >> 32) as usize);
        debug_assert!(rf.poison(r).is_clean(), "a poisoned register is ready at cycle 0");
        rf.write(r, rf.value(r), f + (w as u32) as Cycle, 0);
        *live |= 1 << r.index();
    }
}
