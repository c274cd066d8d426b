//! Memory-system statistics: the demand-access and miss counts the cores
//! report.

use serde::{Deserialize, Serialize};

/// Aggregate memory-hierarchy statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// Demand loads issued to the hierarchy.
    pub loads: u64,
    /// Demand stores issued to the hierarchy.
    pub stores: u64,
    /// Demand accesses that missed in the L1 data cache.
    pub l1d_misses: u64,
    /// Demand accesses that missed in the L2.
    pub l2_misses: u64,
}

impl MemStats {
    /// L1 data-cache misses per 1000 demand accesses... per 1000 *instructions*
    /// requires the instruction count, which the caller supplies.
    pub fn l1d_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.l1d_misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// L2 misses per 1000 instructions.
    pub fn l2_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_helpers() {
        let s = MemStats {
            l1d_misses: 23,
            l2_misses: 5,
            ..MemStats::default()
        };
        assert!((s.l1d_mpki(1000) - 23.0).abs() < 1e-12);
        assert!((s.l2_mpki(1000) - 5.0).abs() < 1e-12);
        assert_eq!(s.l1d_mpki(0), 0.0);
    }
}
