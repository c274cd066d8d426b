//! Pipeline-level configuration shared by all core models.

use serde::{Deserialize, Serialize};

/// Front-end / issue configuration of the simulated 2-way in-order pipeline
/// (paper Table 1: "10 stages: 3 I$, 1 decode, 1 reg-read, 1 ALU, 3 D$,
/// 1 reg-write.  2-way superscalar, 2 integer, 1 fp/load/store/branch").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Fetch/issue width (instructions per cycle).
    pub width: usize,
    /// Number of integer issue ports.
    pub int_ports: usize,
    /// Number of shared fp/load/store/branch issue ports.
    pub mem_fp_br_ports: usize,
    /// Cycles from a resolved mis-predicted branch to the first correct-path
    /// instruction issuing (front-end refill: 3 I$ + decode + reg-read).
    pub branch_redirect_penalty: u64,
    /// Number of front-end stages before execute; used as the restart penalty
    /// when an advance mode ends and fetch resumes from a checkpoint.
    pub frontend_depth: u64,
    /// Capacity of the baseline associative store buffer (Table 1:
    /// "32-entry associative store buffer").
    pub baseline_store_buffer: usize,
}

impl PipelineConfig {
    /// The paper's Table 1 pipeline configuration.
    pub fn paper_default() -> Self {
        PipelineConfig {
            width: 2,
            int_ports: 2,
            mem_fp_br_ports: 1,
            branch_redirect_penalty: 6,
            frontend_depth: 5,
            baseline_store_buffer: 32,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_two_way() {
        let c = PipelineConfig::paper_default();
        assert_eq!(c.width, 2);
        assert_eq!(c.int_ports, 2);
        assert_eq!(c.mem_fp_br_ports, 1);
        assert!(c.branch_redirect_penalty >= c.frontend_depth);
    }
}
