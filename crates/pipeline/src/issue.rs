//! Issue-slot and port scheduling for the 2-way in-order pipeline.
//!
//! In-order issue means issue cycles are non-decreasing in program order, so
//! only a small window of per-cycle counters needs to be retained.  The
//! schedule enforces:
//!
//! * total issue width per cycle (2),
//! * integer-port occupancy (2 integer ALU/multiply slots),
//! * the shared fp/load/store/branch port (1 slot).
//!
//! Storage is a fixed ring of per-cycle slot counters sliding forward with
//! the requests (every caller asks for a cycle at or after the last one
//! granted, see [`IssueSchedule::issue`]), so allocation is O(1) per
//! instruction — this sits on the per-instruction hot path of every core
//! model and used to be a `BTreeMap` probe per issued instruction.

use icfp_isa::{Cycle, OpClass};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct SlotUse {
    total: u8,
    int: u8,
    mem_fp_br: u8,
}

/// Number of per-cycle counters retained.  Only cycles at or after the last
/// granted cycle can be probed again (issue is in order), so the window just
/// has to cover one grant's worth of forward probing — the ring slides as the
/// probe advances, and 64 cycles of lookbehind is far more than the zero the
/// contract requires.
const WINDOW: usize = 64;

/// Tracks issue-slot usage per cycle and finds the earliest legal issue cycle
/// for each instruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IssueSchedule {
    width: u8,
    int_ports: u8,
    mem_fp_br_ports: u8,
    /// Per-cycle counters for cycles `[base, base + WINDOW)`; slot
    /// `cycle % WINDOW`.  Cycles before `base` are frozen: in-order issue
    /// guarantees they are never probed again.
    ring: Vec<SlotUse>,
    base: Cycle,
}

impl IssueSchedule {
    /// Creates a schedule with the given width and port counts.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(width: usize, int_ports: usize, mem_fp_br_ports: usize) -> Self {
        assert!(width > 0 && int_ports > 0 && mem_fp_br_ports > 0);
        IssueSchedule {
            width: width as u8,
            int_ports: int_ports as u8,
            mem_fp_br_ports: mem_fp_br_ports as u8,
            ring: vec![SlotUse::default(); WINDOW],
            base: 0,
        }
    }

    /// Creates the paper's 2-wide / 2-int / 1-mem-fp-br schedule.
    pub fn paper_default() -> Self {
        Self::new(2, 2, 1)
    }

    #[inline]
    fn slot(&self, cycle: Cycle) -> &SlotUse {
        &self.ring[(cycle % WINDOW as u64) as usize]
    }

    /// Slides the window forward so `cycle` (past its end) is inside it,
    /// clearing the counters of the cycles that enter the window.
    #[cold]
    fn slide_to(&mut self, cycle: Cycle) {
        let end = self.base + WINDOW as u64;
        if cycle - end >= WINDOW as u64 {
            // Far jump: every retained counter falls out of the window.
            self.ring.iter_mut().for_each(|u| *u = SlotUse::default());
        } else {
            // Slide incrementally, vacating the slots that wrap around.
            for c in end..=cycle {
                self.ring[(c % WINDOW as u64) as usize] = SlotUse::default();
            }
        }
        self.base = cycle - (WINDOW as u64 - 1);
    }

    /// Reserves an issue slot for an instruction of class `class` at the
    /// earliest cycle `>= earliest` with room, and returns that cycle.
    ///
    /// In-order contract: `earliest` must be at or after the previously
    /// granted cycle (every core routes requests through a monotonic issue
    /// frontier).  Requests below the retained window are clamped to it.
    #[inline]
    pub fn issue(&mut self, earliest: Cycle, class: OpClass) -> Cycle {
        let int = class.uses_int_port();
        let mut cycle = earliest.max(self.base);
        loop {
            let ahead = cycle - self.base;
            if ahead > WINDOW as u64 {
                self.slide_to(cycle);
            }
            let u = &mut self.ring[(cycle % WINDOW as u64) as usize];
            if ahead == WINDOW as u64 {
                // A dense stream steps past the window's end one cycle at a
                // time: vacate the one slot that wraps around.
                *u = SlotUse::default();
                self.base += 1;
            }
            let port = if int { &mut u.int } else { &mut u.mem_fp_br };
            let ports = if int { self.int_ports } else { self.mem_fp_br_ports };
            if u.total < self.width && *port < ports {
                *port += 1;
                u.total += 1;
                return cycle;
            }
            cycle += 1;
        }
    }

    /// Number of instructions issued at `cycle`, if it is still inside the
    /// retained window (cycles that slid out report zero).
    pub fn issued_at(&self, cycle: Cycle) -> usize {
        if cycle >= self.base && cycle < self.base + WINDOW as u64 {
            self.slot(cycle).total as usize
        } else {
            0
        }
    }

    /// Resets the schedule (between runs).
    pub fn reset(&mut self) {
        self.ring.iter_mut().for_each(|u| *u = SlotUse::default());
        self.base = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_wide_issue_packs_two_per_cycle() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        // Third integer op in the same cycle must slip.
        assert_eq!(s.issue(0, OpClass::IntAlu), 1);
    }

    #[test]
    fn single_mem_port_serializes_loads() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::Load), 0);
        assert_eq!(s.issue(0, OpClass::Load), 1);
        assert_eq!(s.issue(0, OpClass::Store), 2);
        assert_eq!(s.issue(0, OpClass::Branch), 3);
    }

    #[test]
    fn int_and_mem_share_total_width() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::Load), 0);
        // Width 2 exhausted even though an int port remains.
        assert_eq!(s.issue(0, OpClass::IntAlu), 1);
    }

    #[test]
    fn earliest_constraint_is_respected() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(10, OpClass::IntAlu), 10);
        assert_eq!(s.issued_at(10), 1);
        assert_eq!(s.issued_at(9), 0);
    }

    #[test]
    fn scalar_schedule_is_one_per_cycle() {
        let mut s = IssueSchedule::new(1, 1, 1);
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::Load), 1);
        assert_eq!(s.issue(0, OpClass::IntAlu), 2);
    }

    #[test]
    fn pruning_does_not_lose_future_slots() {
        let mut s = IssueSchedule::paper_default();
        for i in 0..10_000u64 {
            s.issue(i, OpClass::IntAlu);
        }
        // Still works after the window has slid many times over.
        let c = s.issue(10_000, OpClass::IntAlu);
        assert!(c >= 10_000);
    }

    #[test]
    fn far_jumps_land_in_a_clean_window() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        // Jump far past the window (several multiples of it): the target
        // cycle's counters must be vacated, not stale from a previous lap.
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_004);
    }

    #[test]
    fn monotonic_dense_stream_matches_width() {
        // 2-wide: 1000 int ops from a monotonic frontier occupy exactly 500
        // cycles regardless of where the window slides.
        let mut s = IssueSchedule::paper_default();
        let mut frontier = 0;
        for _ in 0..1000 {
            frontier = s.issue(frontier, OpClass::IntAlu);
        }
        assert_eq!(frontier, 499);
    }

    #[test]
    fn random_monotonic_requests_match_a_per_cycle_reference() {
        // The reference keeps every cycle's counters for ever and probes
        // cycle by cycle; requests obey the in-order contract (at or after
        // the last grant), mostly dense, sometimes past the window (a
        // single-step slide, an incremental one, a far jump).
        const CLASSES: [OpClass; 6] =
            [OpClass::IntAlu, OpClass::IntMul, OpClass::FpAdd, OpClass::Load, OpClass::Store, OpClass::Branch];
        for (seed, (width, int_ports, mem_ports)) in [(1u64, (2u8, 2u8, 1u8)), (2, (1, 1, 1)), (3, (4, 2, 2))] {
            let mut s = IssueSchedule::new(width as usize, int_ports as usize, mem_ports as usize);
            let mut used: std::collections::HashMap<Cycle, SlotUse> = Default::default();
            let (mut state, mut last) = (seed, 0u64);
            for k in 0..20_000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 33;
                let class = CLASSES[(r % 6) as usize];
                let earliest = last + match (r >> 8) % 64 {
                    0 => 64 + (r >> 16) % 200,
                    1..=8 => (r >> 16) % 4,
                    _ => 0,
                };
                let mut want = earliest;
                loop {
                    let u = used.entry(want).or_default();
                    let (port, ports) = if class.uses_int_port() { (&mut u.int, int_ports) } else { (&mut u.mem_fp_br, mem_ports) };
                    if u.total < width && *port < ports {
                        *port += 1;
                        u.total += 1;
                        break;
                    }
                    want += 1;
                }
                last = s.issue(earliest, class);
                assert_eq!(last, want, "seed {seed} request {k}: {class:?} at {earliest}");
                assert_eq!(s.issued_at(last), used[&last].total as usize);
            }
        }
    }

    #[test]
    fn reset_clears_usage() {
        let mut s = IssueSchedule::paper_default();
        s.issue(0, OpClass::IntAlu);
        s.reset();
        assert_eq!(s.issued_at(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        let _ = IssueSchedule::new(0, 1, 1);
    }
}
