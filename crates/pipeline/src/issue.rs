//! Issue-slot and port scheduling for the 2-way in-order pipeline.
//!
//! The schedule enforces:
//!
//! * total issue width per cycle (2),
//! * integer-port occupancy (2 integer ALU/multiply slots),
//! * the shared fp/load/store/branch port (1 slot).
//!
//! Issue is in order: every caller asks for a cycle at or after the last one
//! granted (see [`IssueSchedule::issue`]), so only the last granted cycle can
//! hold taken slots and the whole schedule is that cycle and its three
//! counters — O(1) per instruction with nothing to slide or clear, on the
//! per-instruction hot path of every core model.

use icfp_isa::{Cycle, OpClass};
use serde::{Deserialize, Serialize};

/// Issue slots taken in one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotUse {
    /// Slots of any kind.
    pub total: u8,
    /// Integer-port slots.
    pub int: u8,
    /// Shared fp/load/store/branch-port slots.
    pub mem_fp_br: u8,
}

/// The schedule's whole state (see [`IssueSchedule::phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuePhase {
    /// The last cycle granted a slot.
    pub cycle: Cycle,
    /// Slots taken at `cycle`.
    pub used: SlotUse,
}

/// Tracks issue-slot usage and finds the earliest legal issue cycle for each
/// instruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IssueSchedule {
    width: u8,
    int_ports: u8,
    mem_fp_br_ports: u8,
    /// The last cycle granted a slot (0 before the first grant).  Every later
    /// cycle is empty.
    cycle: Cycle,
    /// Slots taken at `cycle`.
    used: SlotUse,
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
            cycle: 0,
            used: SlotUse::default(),
        }
    }

    /// Creates the paper's 2-wide / 2-int / 1-mem-fp-br schedule.
    pub fn paper_default() -> Self {
        Self::new(2, 2, 1)
    }

    /// Reserves an issue slot for an instruction of class `class` at the
    /// earliest cycle `>= earliest` with room, and returns that cycle: the
    /// requested cycle if it is past the last grant or the last granted cycle
    /// still has a slot for `class`, else a fresh cycle one later.
    ///
    /// In-order contract: `earliest` must be at or after the previously
    /// granted cycle (every core routes requests through a monotonic issue
    /// frontier).
    #[inline]
    pub fn issue(&mut self, earliest: Cycle, class: OpClass) -> Cycle {
        debug_assert!(
            earliest >= self.cycle,
            "in-order issue: a request for cycle {earliest} after a grant at {}",
            self.cycle
        );
        if earliest > self.cycle {
            (self.cycle, self.used) = (earliest, SlotUse::default());
        }
        let int = class.uses_int_port();
        let port_full = if int {
            self.used.int >= self.int_ports
        } else {
            self.used.mem_fp_br >= self.mem_fp_br_ports
        };
        if port_full || self.used.total >= self.width {
            (self.cycle, self.used) = (self.cycle + 1, SlotUse::default());
        }
        self.used.total += 1;
        if int {
            self.used.int += 1;
        } else {
            self.used.mem_fp_br += 1;
        }
        self.cycle
    }

    /// The live cycle and the slots taken in it.
    pub fn phase(&self) -> IssuePhase {
        IssuePhase { cycle: self.cycle, used: self.used }
    }

    /// Moves the schedule to `phase`, as if its last grant had left it there.
    pub fn set_phase(&mut self, phase: IssuePhase) {
        (self.cycle, self.used) = (phase.cycle, phase.used);
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
        assert_eq!(s.issue(1, OpClass::Store), 2);
        assert_eq!(s.issue(2, OpClass::Branch), 3);
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
        assert_eq!((s.cycle, s.used.total), (10, 1));
    }

    #[test]
    fn scalar_schedule_is_one_per_cycle() {
        let mut s = IssueSchedule::new(1, 1, 1);
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::Load), 1);
        assert_eq!(s.issue(1, OpClass::IntAlu), 2);
    }

    #[test]
    fn pruning_does_not_lose_future_slots() {
        let mut s = IssueSchedule::paper_default();
        for i in 0..10_000u64 {
            s.issue(i, OpClass::IntAlu);
        }
        // Still works after ten thousand fresh cycles.
        let c = s.issue(10_000, OpClass::IntAlu);
        assert!(c >= 10_000);
    }

    #[test]
    fn far_jumps_land_in_a_clean_window() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        // Jump far past the last grant: the target cycle starts empty.
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_004);
    }

    #[test]
    fn monotonic_dense_stream_matches_width() {
        // 2-wide: 1000 int ops from a monotonic frontier occupy exactly 500
        // cycles.
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
        // the last grant), mostly dense, sometimes a few cycles past it,
        // sometimes far past it.
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
                assert_eq!(s.used, used[&last], "seed {seed} request {k}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        let _ = IssueSchedule::new(0, 1, 1);
    }
}
