//! # icfp-pipeline — shared in-order pipeline substrate
//!
//! Everything the five core models (`icfp-core`) have in common lives here:
//!
//! * [`PoisonMask`] / [`PoisonAllocator`] / [`PoisonVec`] — the per-register /
//!   per-entry poison *bitvectors* of paper Section 3.4 (including the
//!   degenerate 1-bit case used by the baseline mechanisms) and the packed
//!   word-level poison plane bulk operations run on;
//! * [`TimedRegFile`] — a register file whose entries carry a value, a
//!   ready-cycle (scoreboard), a poison mask and a *last-writer sequence
//!   number* (the enhanced dependence-tracking scheme of Section 3.1), plus a
//!   single shadow-bitcell style checkpoint;
//! * [`IssueSchedule`] — 2-way superscalar issue-slot and port accounting
//!   (2 integer ports, 1 shared fp/load/store/branch port, Table 1);
//! * [`FetchEngine`] — fetch-bandwidth and branch-redirect modelling on top of
//!   the `icfp-bpred` predictors;
//! * [`RunStats`] / [`RunResult`] — the statistics every core reports.
//!
//! The pipeline model is *issue-time analytic*: instructions are processed in
//! program order and each is assigned an issue cycle that respects fetch
//! bandwidth, in-order issue, issue width, port conflicts, operand readiness
//! and memory timing.  For in-order machines (which never reorder issue) this
//! is cycle-accurate up to the fidelity of the latency model, and it keeps the
//! advance/rally mechanisms — the object of study — easy to express.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod frontend;
pub mod issue;
pub mod poison;
pub mod regfile;
pub mod stats;

pub use config::PipelineConfig;
pub use frontend::FetchEngine;
pub use issue::{IssuePhase, IssueSchedule, SlotUse};
pub use poison::{lane_range_mask, PoisonAllocator, PoisonMask, PoisonVec, POISON_LANES_PER_WORD};
pub use regfile::{RegEntry, TimedRegFile};
pub use stats::{RunResult, RunStats};
