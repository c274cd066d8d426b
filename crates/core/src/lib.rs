//! # icfp-core — the iCFP mechanism and the designs it is compared against
//!
//! This crate contains cycle-level models of the five back ends evaluated in
//! the paper, all built on the shared substrate crates (`icfp-mem`,
//! `icfp-bpred`, `icfp-pipeline`):
//!
//! | Model | Module | Paper role |
//! |---|---|---|
//! | Vanilla in-order | [`inorder`] | baseline; stalls at the first miss-dependent instruction |
//! | Runahead execution | [`runahead`] | non-blocking advance, discards and re-executes everything |
//! | Multipass pipelining | [`multipass`] | Runahead + saved miss-independent results to accelerate re-execution |
//! | SLTP | [`icfp`] | iCFP's machine at the first Figure 7 step: SRL memory system, single *blocking* rally, 1-bit poison |
//! | iCFP | [`icfp`] | commits miss-independent work, chained store buffer, multiple non-blocking multithreaded rallies |
//!
//! Supporting structures that the paper introduces or relies on are their own
//! modules: the address-hash-chained store buffer ([`storebuf`]), the slice
//! buffer ([`slicebuf`]), and the runahead cache (also in [`storebuf`]).
//!
//! Every model reads a trace through an [`icfp_isa::TraceCursor`] — so the
//! same code path serves in-memory arenas (the cursor's zero-cost fast path)
//! and block-streamed sources whose traces never fully materialize — and
//! produces an [`icfp_pipeline::RunResult`] whose final architectural state
//! is checked against the functional golden model in the integration tests.
//!
//! There is one way to run a model: [`CoreModel::engine`] — the registry in
//! [`engine`] — hands a driver an object-safe [`CoreEngine`] with a single
//! stepping method, [`CoreEngine::advance`], and a consuming
//! [`CoreEngine::finish`]; [`run_model`] is that, to completion.
//!
//! ```
//! use icfp_core::{run_model, CoreConfig, CoreModel};
//! use icfp_isa::{DynInst, Op, Reg, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("tiny");
//! b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x4000));
//! b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
//! let trace = b.build();
//!
//! let cfg = CoreConfig::paper_default();
//! let base = run_model(CoreModel::InOrder, &cfg, &trace);
//! let icfp = run_model(CoreModel::Icfp, &cfg, &trace);
//! assert_eq!(base.final_regs, icfp.final_regs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod config;
pub mod engine;
pub use icfp_isa::fxmap;
pub mod icfp;
pub mod inorder;
pub mod multipass;
pub mod replay;
pub mod runahead;
pub mod slicebuf;
pub mod storebuf;

#[cfg(test)]
mod liveness;

/// The block-fetch counting source wrapper `icfp-sim`'s tests use.
#[cfg(test)]
#[path = "../../sim/tests/common/tap.rs"]
mod tap;

pub use common::Engine;
pub use config::{AdvancePolicy, CoreConfig, IcfpFeatures, StoreBufferKind};
pub use engine::{run_model, CoreEngine, CoreModel, EngineSnapshot};
pub use icfp::IcfpMachine;
pub use slicebuf::{SliceBuffer, SliceEntry};
pub use storebuf::{ChainedStoreBuffer, RunaheadCache};
