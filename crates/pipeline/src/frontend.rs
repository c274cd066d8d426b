//! Fetch-bandwidth and branch-redirect modelling.
//!
//! The fetch engine dispenses fetch slots in program order at the configured
//! width and folds in the front-end pipeline depth (an instruction fetched in
//! cycle `F` cannot issue before `F + frontend_depth`).  Mis-predicted
//! branches redirect the front end: the next correct-path instruction becomes
//! available only `branch_redirect_penalty` cycles after the branch resolves.
//! Advance-mode restarts (Runahead squashes, iCFP simple-runahead exits) use
//! the same mechanism via [`FetchEngine::redirect`].

use crate::config::PipelineConfig;
use icfp_bpred::{BranchPredictor, PredictorConfig};
use icfp_isa::{Cycle, DynInst};
use serde::{Deserialize, Serialize};

/// The front end: fetch bandwidth, front-end depth, branch prediction and
/// redirect handling.
#[derive(Debug, Serialize, Deserialize)]
pub struct FetchEngine {
    width: usize,
    frontend_depth: u64,
    redirect_penalty: u64,
    predictor: BranchPredictor,
    /// Cycle whose fetch slots are currently being handed out.
    current_cycle: Cycle,
    /// Slots already handed out in `current_cycle`.
    used: usize,
}

impl FetchEngine {
    /// Creates a fetch engine for the given pipeline and predictor
    /// configurations.
    pub fn new(pipeline: &PipelineConfig, predictor: PredictorConfig) -> Self {
        FetchEngine {
            width: pipeline.width,
            frontend_depth: pipeline.frontend_depth,
            redirect_penalty: pipeline.branch_redirect_penalty,
            predictor: BranchPredictor::new(predictor),
            current_cycle: 0,
            used: 0,
        }
    }

    /// Hands out the next fetch slot in program order and returns the earliest
    /// cycle at which that instruction can issue (fetch cycle plus front-end
    /// depth).
    #[inline]
    pub fn next_issue_ready(&mut self) -> Cycle {
        if self.used >= self.width {
            self.current_cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.current_cycle + self.frontend_depth
    }

    /// Issue-readiness of the fetch cycle whose slots are being handed out
    /// (fetch cycle plus front-end depth): no later slot is ready earlier.
    pub fn fetch_ready(&self) -> Cycle {
        self.current_cycle + self.frontend_depth
    }

    /// Hands out `slots` fetch slots at once: the state
    /// [`FetchEngine::next_issue_ready`] called `slots` times would leave.
    pub fn skip(&mut self, slots: u64) {
        if slots == 0 {
            return;
        }
        let through = self.used as u64 + slots - 1;
        self.current_cycle += through / self.width as u64;
        self.used = (through % self.width as u64) as usize + 1;
    }

    /// Applies a front-end redirect: no further instruction can issue before
    /// `resolve_cycle + branch_redirect_penalty`.
    pub fn redirect(&mut self, resolve_cycle: Cycle) {
        let resume_fetch = resolve_cycle + self.redirect_penalty - self.frontend_depth.min(self.redirect_penalty);
        if resume_fetch > self.current_cycle {
            self.current_cycle = resume_fetch;
            self.used = 0;
        }
    }

    /// Stalls the front end so that no instruction issues before `cycle`
    /// (used when a mode transition freezes fetch without a mis-prediction).
    pub fn stall_until(&mut self, cycle: Cycle) {
        let fetch_cycle = cycle.saturating_sub(self.frontend_depth);
        if fetch_cycle > self.current_cycle {
            self.current_cycle = fetch_cycle;
            self.used = 0;
        }
    }

    /// Resolves a branch against the predictor, returning `true` if it was
    /// mis-predicted.  Non-branches return `false` without touching predictor
    /// state.
    pub fn resolve_branch(&mut self, inst: &DynInst) -> bool {
        match inst.branch {
            Some(info) => self.predictor.update(inst.pc, info.taken, info.target),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::Reg;

    fn engine() -> FetchEngine {
        FetchEngine::new(&PipelineConfig::paper_default(), PredictorConfig::paper_default())
    }

    #[test]
    fn fetch_width_paces_issue_readiness() {
        let mut f = engine();
        let d = PipelineConfig::paper_default().frontend_depth;
        assert_eq!(f.next_issue_ready(), d);
        assert_eq!(f.next_issue_ready(), d);
        assert_eq!(f.next_issue_ready(), d + 1);
        assert_eq!(f.next_issue_ready(), d + 1);
        assert_eq!(f.next_issue_ready(), d + 2);
    }

    #[test]
    fn skip_equals_handing_out_the_slots_one_by_one() {
        for width in [1usize, 2, 3, 4] {
            let cfg = PipelineConfig { width, ..PipelineConfig::paper_default() };
            let fresh = || {
                let mut f = FetchEngine::new(&cfg, PredictorConfig::paper_default());
                f.redirect(10);
                f
            };
            for start in 0..2 * width {
                for slots in 0..3 * width as u64 {
                    let (mut a, mut b) = (fresh(), fresh());
                    for _ in 0..start {
                        a.next_issue_ready();
                        b.next_issue_ready();
                    }
                    a.skip(slots);
                    for _ in 0..slots {
                        b.next_issue_ready();
                    }
                    // The next width + 1 slots cross a fetch-cycle boundary
                    // wherever the slots already used put it.
                    let next = |f: &mut FetchEngine| (0..=width).map(|_| f.next_issue_ready()).collect::<Vec<_>>();
                    assert_eq!(next(&mut a), next(&mut b), "width {width} start {start} skip {slots}");
                }
            }
        }
    }

    #[test]
    fn redirect_delays_subsequent_fetches() {
        let mut f = engine();
        let _ = f.next_issue_ready();
        f.redirect(100);
        let next = f.next_issue_ready();
        assert_eq!(
            next,
            100 + PipelineConfig::paper_default().branch_redirect_penalty
        );
    }

    #[test]
    fn redirect_in_the_past_is_ignored() {
        let mut f = engine();
        for _ in 0..100 {
            f.next_issue_ready();
        }
        let before = f.next_issue_ready();
        f.redirect(0);
        let after = f.next_issue_ready();
        assert!(after >= before);
    }

    #[test]
    fn stall_until_freezes_issue_readiness() {
        let mut f = engine();
        f.stall_until(500);
        assert!(f.next_issue_ready() >= 500);
    }

    #[test]
    fn branch_resolution_uses_predictor() {
        let mut f = engine();
        let br = DynInst::branch(Reg::int(1), true, 0x2000, 1.0).with_pc(0x100);
        // Train.
        for _ in 0..50 {
            f.resolve_branch(&br);
        }
        assert!(!f.resolve_branch(&br), "trained branch should predict correctly");
        let non_branch = DynInst::nop();
        assert!(!f.resolve_branch(&non_branch));
    }
}
