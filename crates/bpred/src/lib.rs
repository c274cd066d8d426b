//! # icfp-bpred — branch prediction substrate
//!
//! The paper's front end uses a "24 Kbyte 3-table PPM direction predictor
//! \[14\], 2K-entry target buffer, 32-entry RAS" (Table 1).  This crate
//! provides:
//!
//! * [`PpmPredictor`] — a PPM-like, tag-based direction predictor with a
//!   bimodal base table and multiple tagged history tables (the structure of
//!   Michaud's PPM predictor, the ancestor of TAGE);
//! * [`Btb`] — a set-associative branch target buffer;
//! * [`BranchPredictor`] — the combined front-end predictor used by the cores.
//!
//! Table 1's return-address stack is not modelled: the simulated ISA has no
//! call or return instruction (`icfp_isa::Op` has only conditional branches
//! and jumps), so no trace could ever push or pop one.
//!
//! The simulator is trace-driven, so predictions are only used to decide
//! whether a branch pays the mis-prediction redirect penalty; wrong-path
//! instructions are not simulated (they would be squashed in any case).
//!
//! ```
//! use icfp_bpred::{BranchPredictor, PredictorConfig};
//!
//! let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
//! // A heavily-biased branch quickly becomes predictable.
//! let mut correct = 0;
//! for _ in 0..1000 {
//!     let p = bp.predict(0x1000);
//!     if p.taken { correct += 1; }
//!     bp.update(0x1000, true, 0x2000);
//! }
//! assert!(correct > 900);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod ppm;

pub use btb::Btb;
pub use ppm::{PpmConfig, PpmPredictor};

use icfp_isa::Addr;
use serde::{Deserialize, Serialize};

/// A combined direction + target prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the BTB had an entry.
    pub target: Option<Addr>,
}

/// Configuration of the combined front-end predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Direction-predictor configuration.
    pub ppm: PpmConfig,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_assoc: usize,
}

impl PredictorConfig {
    /// The configuration from Table 1 of the paper.
    pub fn paper_default() -> Self {
        PredictorConfig {
            ppm: PpmConfig::paper_default(),
            btb_entries: 2048,
            btb_assoc: 4,
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-run branch prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BpredStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Direction mis-predictions.
    pub direction_mispredicts: u64,
}

impl BpredStats {
    /// Direction mis-prediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.direction_mispredicts as f64 / self.predictions as f64
        }
    }
}

/// The combined front-end branch predictor: PPM direction predictor + BTB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BranchPredictor {
    ppm: PpmPredictor,
    btb: Btb,
    stats: BpredStats,
}

impl BranchPredictor {
    /// Creates a predictor from a configuration.
    pub fn new(config: PredictorConfig) -> Self {
        BranchPredictor {
            ppm: PpmPredictor::new(config.ppm),
            btb: Btb::new(config.btb_entries, config.btb_assoc),
            stats: BpredStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BpredStats {
        &self.stats
    }

    /// Predicts the direction and target of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: Addr) -> Prediction {
        Prediction {
            taken: self.ppm.predict(pc),
            target: self.btb.lookup(pc),
        }
    }

    /// Updates predictor state with the resolved outcome of the branch at
    /// `pc`, and reports whether the prediction made *now* (before the update)
    /// would have been correct.  Returns `true` if the branch was
    /// mis-predicted (direction or, for taken branches, target).
    pub fn update(&mut self, pc: Addr, taken: bool, target: Addr) -> bool {
        self.stats.predictions += 1;
        // `PpmPredictor::update` reports the direction it would have
        // predicted before training, so resolving a branch costs one table
        // walk instead of a separate predict + update pass.
        let target_pred = self.btb.lookup(pc);
        let dir_pred = self.ppm.update(pc, taken);
        let dir_wrong = dir_pred != taken;
        if dir_wrong {
            self.stats.direction_mispredicts += 1;
        }
        let target_wrong = taken && target_pred != Some(target);
        if taken {
            self.btb.insert(pc, target);
        }
        dir_wrong || target_wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_becomes_predictable() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
        let mut wrong = 0;
        for i in 0..2000u64 {
            let taken = true;
            if bp.update(0x4000, taken, 0x5000) {
                wrong += 1;
            }
            let _ = i;
        }
        assert!(wrong < 20, "biased branch mis-predicted {wrong} times");
    }

    #[test]
    fn alternating_pattern_is_learned_by_history_tables() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let mis = bp.update(0x4000, taken, 0x5000);
            if i > 2000 && mis {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 200,
            "alternating branch should be learned, {wrong_late} late mispredicts"
        );
    }

    #[test]
    fn random_pattern_mispredicts_about_half() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
        // Deterministic pseudo-random direction stream.
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        let n = 4000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            if bp.update(0x4000, taken, 0x5000) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / n as f64;
        assert!(rate > 0.3 && rate < 0.7, "random branch rate {rate}");
    }

    #[test]
    fn stats_track_predictions() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
        for _ in 0..10 {
            bp.update(0x100, true, 0x200);
        }
        assert_eq!(bp.stats().predictions, 10);
        assert!(bp.stats().mispredict_rate() <= 1.0);
    }
}
