//! Per-run statistics reported by every core model.

use icfp_isa::Value;
use serde::{Deserialize, Serialize};

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total cycles to retire the trace.
    pub cycles: u64,
    /// Architectural (committed) instructions.
    pub instructions: u64,
    /// Dynamic instructions processed during advance modes (committed or not).
    pub advance_instructions: u64,
    /// Instructions re-executed during rallies (iCFP/SLTP) or re-processed
    /// after a Runahead/Multipass squash.
    pub rally_instructions: u64,
    /// Number of advance episodes entered (checkpoints created).
    pub advance_episodes: u64,
    /// Number of rally passes performed.
    pub rally_passes: u64,
    /// Instructions diverted into a slice buffer.
    pub sliced_instructions: u64,
    /// Times the design fell back to "simple runahead" (resource exhaustion or
    /// a poisoned store address).
    pub simple_runahead_entries: u64,
    /// Branch mis-predictions paid.
    pub branch_mispredicts: u64,
    /// Loads that forwarded from a store buffer.
    pub store_forwards: u64,
    /// Excess store-buffer hops taken by chained forwarding (beyond the first
    /// free probe; paper Section 3.2 reports hops per load).
    pub chain_hops: u64,
    /// Loads issued to the memory hierarchy (demand, from this core).
    pub demand_loads: u64,
    /// Cycles spent stalled because a structural resource (slice buffer,
    /// store buffer, MSHRs) was full.
    pub resource_stall_cycles: u64,
    /// Peak slice-buffer occupancy over the run (iCFP/SLTP; 0 otherwise).
    pub slice_peak: u64,
    /// Demand loads issued to the memory hierarchy (copied from `MemStats`).
    pub mem_loads: u64,
    /// Demand stores issued to the memory hierarchy (copied from `MemStats`).
    pub mem_stores: u64,
    /// L1 data-cache misses (copied from `MemStats` at the end of the run).
    pub l1d_misses: u64,
    /// L2 misses (copied from `MemStats` at the end of the run).
    pub l2_misses: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1 data-cache misses per 1000 committed instructions.
    pub fn l1d_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1d_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L2 misses per 1000 committed instructions.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// The result of simulating one trace on one core model.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Core model name (e.g. `"in-order"`, `"icfp"`).
    pub core: String,
    /// Workload / trace name.
    pub workload: String,
    /// Timing and event counters.
    pub stats: RunStats,
    /// Final architectural register values (flat register-index order), used
    /// to check timing models against the golden functional model.
    pub final_regs: Vec<Value>,
    /// Final architectural memory image as sorted `(word address, value)`
    /// pairs, for the same purpose.
    pub final_mem: Vec<(u64, Value)>,
}

impl RunResult {
    /// True if the final architectural state (registers + memory) matches
    /// another run's — the cross-model correctness check.
    pub fn state_matches(&self, other: &RunResult) -> bool {
        self.final_regs == other.final_regs && self.final_mem == other.final_mem
    }

    /// FNV-1a digest of the final architectural state (registers + memory),
    /// for cheap determinism / cross-model equivalence checks.
    pub fn state_digest(&self) -> u64 {
        let mut h = icfp_isa::Fnv1a::new();
        for &v in &self.final_regs {
            h.write_u64(v);
        }
        for &(a, v) in &self.final_mem {
            h.write_u64(a);
            h.write_u64(v);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, instructions: u64) -> RunResult {
        RunResult {
            core: "x".into(),
            workload: "w".into(),
            stats: RunStats {
                cycles,
                instructions,
                ..RunStats::default()
            },
            final_regs: vec![],
            final_mem: vec![],
        }
    }

    #[test]
    fn ipc_and_mpki_divide_by_the_right_counts() {
        let s = RunStats {
            cycles: 200,
            instructions: 100,
            l1d_misses: 5,
            l2_misses: 2,
            ..RunStats::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.l1d_mpki() - 50.0).abs() < 1e-12);
        assert!((s.l2_mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l1d_mpki(), 0.0);
        assert_eq!(s.l2_mpki(), 0.0);
    }

    #[test]
    fn state_matches_compares_regs_and_mem() {
        let mut a = result(1, 1);
        let mut b = result(2, 1);
        a.final_regs = vec![1, 2, 3];
        b.final_regs = vec![1, 2, 3];
        a.final_mem = vec![(8, 9)];
        b.final_mem = vec![(8, 9)];
        assert!(a.state_matches(&b));
        b.final_mem = vec![(8, 10)];
        assert!(!a.state_matches(&b));
    }
}
