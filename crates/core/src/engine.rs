//! The unified core-engine abstraction and model registry.
//!
//! Every driver in the workspace — the simulator (`icfp-sim`), the benchmark
//! harness (`icfp-bench`), the sweep executor (`icfp-sweep`) — used to carry
//! its own five-way `match` over the core models.  [`CoreModel::engine`] is
//! now the single dispatch point: it returns an object-safe [`CoreEngine`]
//! that any driver steps, drains and digests uniformly.
//!
//! The iCFP model steps incrementally (one instruction or rally pass per
//! [`CoreEngine::step`]); the four whole-trace comparison models are adapted
//! by [`WholeTraceEngine`], which simulates to completion on the first step.
//! Either way the trait contract is the same: call `step` until it returns
//! `false`, then `drain` exactly once for the [`RunResult`].

use crate::config::CoreConfig;
use crate::icfp::IcfpMachine;
use crate::inorder::InOrderCore;
use crate::multipass::MultipassCore;
use crate::runahead::RunaheadCore;
use crate::sltp::SltpCore;
use crate::Core;
use icfp_isa::{exec::ArchState, Cycle, DynInst, Trace, TraceCursor};
use icfp_pipeline::{RunResult, RunStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which core model a driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreModel {
    /// Vanilla in-order baseline.
    InOrder,
    /// Runahead execution.
    Runahead,
    /// Multipass pipelining.
    Multipass,
    /// SLTP.
    Sltp,
    /// iCFP (the paper's mechanism; supports incremental stepping).
    Icfp,
}

impl CoreModel {
    /// All models, in the paper's presentation order.
    pub const ALL: [CoreModel; 5] = [
        CoreModel::InOrder,
        CoreModel::Runahead,
        CoreModel::Multipass,
        CoreModel::Sltp,
        CoreModel::Icfp,
    ];

    /// The model's short name (matches `RunResult::core`).
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::InOrder => "in-order",
            CoreModel::Runahead => "runahead",
            CoreModel::Multipass => "multipass",
            CoreModel::Sltp => "sltp",
            CoreModel::Icfp => "icfp",
        }
    }

    /// Parses a model name (accepts the short names above).
    pub fn parse(s: &str) -> Option<CoreModel> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The valid model names, comma-separated — for error messages when
    /// [`CoreModel::parse`] fails.
    pub fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The paper's per-design default configuration for this model.
    pub fn default_config(self) -> CoreConfig {
        match self {
            CoreModel::InOrder | CoreModel::Icfp => CoreConfig::paper_default(),
            CoreModel::Runahead => CoreConfig::runahead_default(),
            CoreModel::Multipass => CoreConfig::multipass_default(),
            CoreModel::Sltp => CoreConfig::sltp_default(),
        }
    }

    /// Builds an engine for this model — the workspace's single model
    /// dispatch point (the registry).
    pub fn engine(self, cfg: &CoreConfig) -> Box<dyn CoreEngine> {
        match self {
            CoreModel::Icfp => Box::new(IcfpEngine::new(cfg)),
            CoreModel::InOrder => {
                WholeTraceEngine::boxed(self, Box::new(InOrderCore::new(cfg.clone())))
            }
            CoreModel::Runahead => {
                WholeTraceEngine::boxed(self, Box::new(RunaheadCore::new(cfg.clone())))
            }
            CoreModel::Multipass => {
                WholeTraceEngine::boxed(self, Box::new(MultipassCore::new(cfg.clone())))
            }
            CoreModel::Sltp => WholeTraceEngine::boxed(self, Box::new(SltpCore::new(cfg.clone()))),
        }
    }

    /// True if the model supports genuinely incremental stepping (others run
    /// whole-trace on the first [`CoreEngine::step`] call).
    pub fn steps_incrementally(self) -> bool {
        matches!(self, CoreModel::Icfp)
    }

    /// True if the model's timing depends on the slice-buffer configuration
    /// axis (`CoreConfig::slice_buffer_entries` / `chain_table_entries`).
    /// Only the slice-based designs (iCFP, SLTP) construct a slice buffer;
    /// for the other models the axis is inert, which lets the sweep executor
    /// run cells that differ only along it once and share the figures
    /// without changing any deterministic output.
    pub fn reads_slice_buffer(self) -> bool {
        matches!(self, CoreModel::Icfp | CoreModel::Sltp)
    }
}

impl fmt::Display for CoreModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A serialized engine state: everything needed to resume the run on a fresh
/// engine of the same model, produced by [`CoreEngine::save`] and consumed by
/// [`CoreEngine::restore`].
///
/// `bytes` is the model-specific state in the vendored-serde binary format
/// (for the incremental iCFP model, the whole [`IcfpMachine`] including its
/// register file, poison planes, slice/store buffers, caches, MSHRs, bus and
/// prefetcher; for the whole-trace comparison models, the not-yet-drained run
/// result, if any).  `cycle` and `processed` are duplicated outside the blob
/// so drivers can label checkpoints without decoding them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Model that produced the snapshot.
    pub model: CoreModel,
    /// Simulated cycle at capture time.
    pub cycle: Cycle,
    /// Dynamic instructions whose first pass had been processed at capture.
    pub processed: u64,
    /// Model-specific serialized state.
    pub bytes: Vec<u8>,
}

/// An object-safe, `Send` core engine: the uniform surface every driver
/// (simulator, bench harness, sweep pool) programs against.
///
/// Lifecycle: [`CoreEngine::step`] until it returns `false`, then
/// [`CoreEngine::drain`] exactly once.
pub trait CoreEngine: Send {
    /// Which model this engine runs.
    fn model(&self) -> CoreModel;

    /// Advances the engine by one unit of work (an instruction or a rally
    /// pass for incremental models; the whole trace for the others).
    /// Returns `false` once the trace is fully retired.
    ///
    /// The trace arrives as a [`TraceCursor`], so the engine serves arena
    /// and block-streamed sources through the identical code path.
    ///
    /// # Panics
    ///
    /// Panics if called after [`CoreEngine::drain`].
    fn step(&mut self, trace: &TraceCursor<'_>) -> bool;

    /// Advances the engine through a prefetched block of instructions:
    /// `insts[k]` is the dynamic instruction at trace position `first + k`,
    /// and the slice must start at (or before) the engine's next unprocessed
    /// instruction.  An empty slice is valid once the first pass has moved
    /// past `first` — the engine then drains pending work one unit at a time.
    ///
    /// Steps until the slice is consumed, the cycle budget `until` is
    /// reached, or the run completes; returns `false` once the trace is
    /// fully retired (same contract as [`CoreEngine::step`]).
    ///
    /// The default implementation loops [`CoreEngine::step`]; incremental
    /// models override it to skip the per-instruction virtual call and
    /// cursor dispatch — the batched-stepping fast path `icfp-sim` drives.
    ///
    /// # Panics
    ///
    /// Panics if called after [`CoreEngine::drain`].
    fn step_block(
        &mut self,
        trace: &TraceCursor<'_>,
        insts: &[DynInst],
        first: usize,
        until: Cycle,
    ) -> bool {
        let end = first + insts.len();
        while self.cycle() < until {
            if !self.step(trace) {
                return false;
            }
            if self.processed() >= end {
                break;
            }
        }
        true
    }

    /// Installs the outcome of a functional fast-forward into a *fresh*
    /// engine: architectural registers and memory as of trace position
    /// `warm.instructions`, every timing structure cold, the timed run
    /// starting there.  The final architectural state (and therefore
    /// [`CoreEngine::digest`]) of the seeded run equals the cold full run's;
    /// cycle counts cover only the timed region — that is the point.
    ///
    /// # Errors
    ///
    /// Fails if the engine has already stepped, been drained, or been
    /// seeded/restored — a seed replaces the initial state only.
    fn seed(&mut self, warm: &ArchState) -> Result<(), String>;

    /// The current simulated cycle (final cycle count once finished).
    fn cycle(&self) -> Cycle;

    /// Dynamic instructions whose first pass has been processed.
    fn processed(&self) -> usize;

    /// Live statistics, if the model exposes them before completion
    /// (whole-trace models report `None` until they have run).
    fn stats(&self) -> Option<&RunStats>;

    /// Finalises the run (completing it first if necessary) and returns the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    fn drain(&mut self, trace: &TraceCursor<'_>) -> RunResult;

    /// Digest of a result's final architectural state — identical across
    /// models and drivers so sweeps can compare cells cheaply.
    fn digest(&self, result: &RunResult) -> u64 {
        result.state_digest()
    }

    /// Serializes the engine's complete simulation state.  Restoring the
    /// snapshot into a fresh engine of the same model and continuing the run
    /// is bit-identical (cycles, statistics, architectural state) to never
    /// having paused.
    ///
    /// # Errors
    ///
    /// Fails after [`CoreEngine::drain`] — a drained engine no longer holds
    /// resumable state.
    fn save(&self) -> Result<EngineSnapshot, String>;

    /// Replaces this engine's state with a snapshot from [`CoreEngine::save`].
    ///
    /// The engine must have been built for the same model *and
    /// configuration* as the one that produced the snapshot (the snapshot
    /// carries its own configuration; restoring onto a mismatched engine
    /// replaces the configuration wholesale for the incremental models).
    ///
    /// # Errors
    ///
    /// Fails on a model mismatch or an undecodable snapshot.
    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), String>;
}

/// [`CoreEngine`] adapter for the incremental [`IcfpMachine`].
struct IcfpEngine {
    machine: Option<IcfpMachine>,
    /// Cycle/instruction counts cached at drain time so the accessors stay
    /// valid afterwards.
    final_cycle: Cycle,
    final_processed: usize,
}

impl IcfpEngine {
    fn new(cfg: &CoreConfig) -> Self {
        IcfpEngine {
            machine: Some(IcfpMachine::new(cfg)),
            final_cycle: 0,
            final_processed: 0,
        }
    }
}

impl CoreEngine for IcfpEngine {
    fn model(&self) -> CoreModel {
        CoreModel::Icfp
    }

    fn step(&mut self, trace: &TraceCursor<'_>) -> bool {
        self.machine
            .as_mut()
            .expect("CoreEngine::step after drain")
            .step(trace)
    }

    fn step_block(
        &mut self,
        trace: &TraceCursor<'_>,
        insts: &[DynInst],
        first: usize,
        until: Cycle,
    ) -> bool {
        self.machine
            .as_mut()
            .expect("CoreEngine::step_block after drain")
            .step_slice(trace, insts, first, until)
    }

    fn seed(&mut self, warm: &ArchState) -> Result<(), String> {
        self.machine
            .as_mut()
            .ok_or("cannot seed a drained engine")?
            .seed(warm)
    }

    fn cycle(&self) -> Cycle {
        self.machine
            .as_ref()
            .map_or(self.final_cycle, |m| m.cycle())
    }

    fn processed(&self) -> usize {
        self.machine
            .as_ref()
            .map_or(self.final_processed, |m| m.processed())
    }

    fn stats(&self) -> Option<&RunStats> {
        self.machine.as_ref().map(|m| &m.engine().stats)
    }

    fn drain(&mut self, trace: &TraceCursor<'_>) -> RunResult {
        let mut machine = self.machine.take().expect("CoreEngine::drain called twice");
        while machine.step(trace) {}
        self.final_cycle = machine.cycle();
        self.final_processed = machine.processed();
        let result = machine.finish(trace);
        self.final_cycle = self.final_cycle.max(result.stats.cycles);
        result
    }

    fn save(&self) -> Result<EngineSnapshot, String> {
        let machine = self
            .machine
            .as_ref()
            .ok_or("cannot save a drained engine")?;
        Ok(EngineSnapshot {
            model: CoreModel::Icfp,
            cycle: machine.cycle(),
            processed: machine.processed() as u64,
            bytes: serde::to_bytes(machine),
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), String> {
        if snapshot.model != CoreModel::Icfp {
            return Err(format!(
                "snapshot is for model {}, engine runs icfp",
                snapshot.model
            ));
        }
        let machine: IcfpMachine = serde::from_bytes(&snapshot.bytes)
            .map_err(|e| format!("decoding icfp snapshot: {e}"))?;
        self.machine = Some(machine);
        self.final_cycle = 0;
        self.final_processed = 0;
        Ok(())
    }
}

/// [`CoreEngine`] adapter for the whole-trace comparison models: the first
/// [`CoreEngine::step`] simulates the trace to completion.
struct WholeTraceEngine {
    model: CoreModel,
    core: Box<dyn Core + Send>,
    result: Option<RunResult>,
    /// Functional fast-forward state installed before the run, if any; the
    /// run's first step hands it to [`Core::run_cursor_from`].
    seed: Option<ArchState>,
    drained: bool,
    /// Cycle/instruction counts cached at drain time so the accessors stay
    /// valid afterwards (same contract as `IcfpEngine`).
    final_cycle: Cycle,
    final_processed: usize,
}

impl WholeTraceEngine {
    fn boxed(model: CoreModel, core: Box<dyn Core + Send>) -> Box<dyn CoreEngine> {
        Box::new(WholeTraceEngine {
            model,
            core,
            result: None,
            seed: None,
            drained: false,
            final_cycle: 0,
            final_processed: 0,
        })
    }

    fn run_once(&mut self, trace: &TraceCursor<'_>) {
        if self.result.is_none() {
            self.result = Some(self.core.run_cursor_from(trace, self.seed.as_ref()));
        }
    }
}

impl CoreEngine for WholeTraceEngine {
    fn model(&self) -> CoreModel {
        self.model
    }

    fn step(&mut self, trace: &TraceCursor<'_>) -> bool {
        assert!(!self.drained, "CoreEngine::step after drain");
        self.run_once(trace);
        false
    }

    fn seed(&mut self, warm: &ArchState) -> Result<(), String> {
        if self.drained || self.result.is_some() || self.seed.is_some() {
            return Err("functional fast-forward requires a fresh engine".into());
        }
        self.seed = Some(warm.clone());
        Ok(())
    }

    fn cycle(&self) -> Cycle {
        self.result
            .as_ref()
            .map_or(self.final_cycle, |r| r.stats.cycles)
    }

    fn processed(&self) -> usize {
        if let Some(r) = &self.result {
            return r.stats.instructions as usize;
        }
        if self.drained {
            return self.final_processed;
        }
        // Seeded but not yet run: the first pass stands at the seed's trace
        // position (checkpoints taken here resume there).
        self.seed
            .as_ref()
            .map_or(self.final_processed, |s| s.instructions as usize)
    }

    fn stats(&self) -> Option<&RunStats> {
        self.result.as_ref().map(|r| &r.stats)
    }

    fn drain(&mut self, trace: &TraceCursor<'_>) -> RunResult {
        assert!(!self.drained, "CoreEngine::drain called twice");
        self.run_once(trace);
        self.drained = true;
        let result = self.result.take().expect("result just computed");
        self.final_cycle = result.stats.cycles;
        self.final_processed = result.stats.instructions as usize;
        result
    }

    fn save(&self) -> Result<EngineSnapshot, String> {
        if self.drained {
            return Err("cannot save a drained engine".into());
        }
        // Whole-trace models have exactly three resumable states: not
        // started (the core itself is stateless until `run`), seeded by a
        // functional fast-forward but not yet run, and finished-but-not-
        // drained.  All are captured by the optional result + optional seed.
        Ok(EngineSnapshot {
            model: self.model,
            cycle: self.cycle(),
            processed: self.processed() as u64,
            bytes: serde::to_bytes(&(self.result.clone(), self.seed.clone())),
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), String> {
        if snapshot.model != self.model {
            return Err(format!(
                "snapshot is for model {}, engine runs {}",
                snapshot.model, self.model
            ));
        }
        let (result, seed): (Option<RunResult>, Option<ArchState>) =
            serde::from_bytes(&snapshot.bytes)
                .map_err(|e| format!("decoding {} snapshot: {e}", self.model))?;
        self.result = result;
        self.seed = seed;
        self.drained = false;
        self.final_cycle = 0;
        self.final_processed = 0;
        Ok(())
    }
}

/// Runs the trace behind `trace` to completion on `model` under `cfg`
/// through the registry — the uniform entry point for any backing (arena or
/// streamed).
pub fn run_model_cursor(model: CoreModel, cfg: &CoreConfig, trace: &TraceCursor<'_>) -> RunResult {
    let mut engine = model.engine(cfg);
    while engine.step(trace) {}
    engine.drain(trace)
}

/// [`run_model_cursor`] over an in-memory trace — the convenience entry
/// point shared by drivers and tests that do not need stepping.
pub fn run_model(model: CoreModel, cfg: &CoreConfig, trace: &Trace) -> RunResult {
    run_model_cursor(model, cfg, &TraceCursor::from_trace(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::{DynInst, Op, Reg, TraceBuilder};

    fn cur(t: &Trace) -> TraceCursor<'_> {
        TraceCursor::from_trace(t)
    }

    fn trace() -> Trace {
        let mut b = TraceBuilder::new("engine-test");
        for k in 0..12u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), k));
        }
        b.build()
    }

    #[test]
    fn registry_covers_every_model_and_matches_direct_runs() {
        let t = trace();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            let via_registry = run_model(m, &cfg, &t);
            let direct: RunResult = match m {
                CoreModel::InOrder => InOrderCore::new(cfg.clone()).run(&t),
                CoreModel::Runahead => RunaheadCore::new(cfg.clone()).run(&t),
                CoreModel::Multipass => MultipassCore::new(cfg.clone()).run(&t),
                CoreModel::Sltp => SltpCore::new(cfg.clone()).run(&t),
                CoreModel::Icfp => crate::icfp::IcfpCore::new(cfg.clone()).run(&t),
            };
            assert_eq!(via_registry.core, m.name());
            assert_eq!(via_registry.stats.cycles, direct.stats.cycles, "{m}");
            assert_eq!(via_registry.final_regs, direct.final_regs, "{m}");
            assert_eq!(via_registry.final_mem, direct.final_mem, "{m}");
        }
    }

    #[test]
    fn icfp_engine_steps_incrementally_and_exposes_live_stats() {
        let t = trace();
        let cfg = CoreModel::Icfp.default_config();
        let mut e = CoreModel::Icfp.engine(&cfg);
        assert!(CoreModel::Icfp.steps_incrementally());
        let mut steps = 0usize;
        let c = cur(&t);
        while e.step(&c) {
            steps += 1;
            assert!(steps < 1_000_000, "engine did not terminate");
        }
        assert!(steps > 1, "icfp must take many steps");
        assert!(e.stats().is_some(), "live stats before drain");
        let r = e.drain(&c);
        assert_eq!(r.stats.instructions, t.len() as u64);
        assert_eq!(e.cycle(), r.stats.cycles, "cycle cached after drain");
        assert_eq!(e.processed(), t.len());
    }

    #[test]
    fn whole_trace_engines_finish_on_first_step() {
        let t = trace();
        let cfg = CoreModel::InOrder.default_config();
        let mut e = CoreModel::InOrder.engine(&cfg);
        assert!(!CoreModel::InOrder.steps_incrementally());
        let c = cur(&t);
        assert_eq!(e.cycle(), 0, "no work before the first step");
        assert!(!e.step(&c), "whole-trace models complete on the first step");
        assert!(e.cycle() > 0);
        assert!(e.stats().is_some());
        let r = e.drain(&c);
        assert_eq!(r.core, "in-order");
        assert_eq!(e.cycle(), r.stats.cycles, "cycle cached after drain");
        assert_eq!(e.processed(), r.stats.instructions as usize);
    }

    #[test]
    fn drain_without_step_runs_the_trace() {
        let t = trace();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            let mut e = m.engine(&cfg);
            let r = e.drain(&cur(&t));
            assert_eq!(r.stats.instructions, t.len() as u64, "{m}");
        }
    }

    #[test]
    #[should_panic(expected = "drain called twice")]
    fn double_drain_panics() {
        let t = trace();
        let cfg = CoreModel::InOrder.default_config();
        let mut e = CoreModel::InOrder.engine(&cfg);
        let _ = e.drain(&cur(&t));
        let _ = e.drain(&cur(&t));
    }

    #[test]
    fn digest_is_stable_across_models() {
        let t = trace();
        let mut digests = Vec::new();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            let mut e = m.engine(&cfg);
            let r = e.drain(&cur(&t));
            digests.push(e.digest(&r));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "all models must agree on final state: {digests:?}"
        );
    }

    /// Longer trace with misses so the iCFP model has mid-episode state to
    /// checkpoint (slice entries, pending rallies, poisoned registers).
    fn missy_trace() -> Trace {
        let mut b = TraceBuilder::new("engine-ckpt-test");
        for k in 0..40u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(1), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(2), Reg::int(1), 1));
            b.push(DynInst::store(Reg::int(2), Reg::int(3), 0x8000 + k * 8));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), k));
        }
        b.build()
    }

    #[test]
    fn save_restore_mid_run_is_bit_identical_for_every_model() {
        let t = missy_trace();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            // Uninterrupted reference run.
            let reference = run_model(m, &cfg, &t);

            // Interrupted run: step some work, snapshot, restore into a
            // *fresh* engine, and finish there.
            let c = cur(&t);
            let mut first = m.engine(&cfg);
            for _ in 0..25 {
                if !first.step(&c) {
                    break;
                }
            }
            let snap = first.save().expect("save before drain");
            assert_eq!(snap.model, m);
            assert_eq!(snap.cycle, first.cycle());

            let mut second = m.engine(&cfg);
            second.restore(&snap).expect("restore");
            assert_eq!(second.cycle(), first.cycle(), "{m}");
            assert_eq!(second.processed(), first.processed(), "{m}");
            let resumed = second.drain(&c);

            assert_eq!(resumed.stats, reference.stats, "{m} stats diverged");
            assert_eq!(resumed.final_regs, reference.final_regs, "{m}");
            assert_eq!(resumed.final_mem, reference.final_mem, "{m}");
            assert_eq!(
                resumed.state_digest(),
                reference.state_digest(),
                "{m} digest diverged"
            );
        }
    }

    #[test]
    fn icfp_mid_episode_snapshot_resumes_exactly() {
        // Checkpoint while an advance episode is active (slice entries live,
        // rallies pending) — the hardest state to capture.
        let t = missy_trace();
        let cfg = CoreModel::Icfp.default_config();
        let reference = run_model(CoreModel::Icfp, &cfg, &t);

        let c = cur(&t);
        let mut machine = crate::icfp::IcfpMachine::new(&cfg);
        let mut snapped: Option<Vec<u8>> = None;
        while machine.step(&c) {
            if snapped.is_none() && machine.in_episode() {
                // A few more steps so slice entries exist beyond the trigger.
                for _ in 0..5 {
                    if !machine.step(&c) {
                        break;
                    }
                }
                assert!(machine.in_episode(), "still mid-episode");
                snapped = Some(serde::to_bytes(&machine));
            }
        }
        let bytes = snapped.expect("the trace must enter an episode");
        let resumed_machine: crate::icfp::IcfpMachine =
            serde::from_bytes(&bytes).expect("decode mid-episode snapshot");
        let mut m2 = resumed_machine;
        while m2.step(&c) {}
        let resumed = m2.finish(&c);
        assert_eq!(resumed.stats, reference.stats);
        assert_eq!(resumed.final_regs, reference.final_regs);
        assert_eq!(resumed.final_mem, reference.final_mem);
    }

    #[test]
    fn step_block_matches_per_step_stepping_for_every_model() {
        // Feed deliberately tiny (7-inst) slices so batched runs cross slice
        // boundaries mid-episode; results must be bit-identical to the
        // per-step reference for all models (whole-trace models ignore the
        // slice and finish on the first call).
        let t = missy_trace();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            let reference = run_model(m, &cfg, &t);
            let c = cur(&t);
            let s = c.arena_slice().expect("arena-backed cursor");
            let mut e = m.engine(&cfg);
            loop {
                let i = e.processed();
                let end = (i + 7).min(s.len());
                let alive = if i >= s.len() {
                    e.step_block(&c, &[], i, Cycle::MAX)
                } else {
                    e.step_block(&c, &s[i..end], i, Cycle::MAX)
                };
                if !alive {
                    break;
                }
            }
            let r = e.drain(&c);
            assert_eq!(r.stats, reference.stats, "{m} stats diverged");
            assert_eq!(
                r.state_digest(),
                reference.state_digest(),
                "{m} digest diverged"
            );
        }
    }

    #[test]
    fn step_block_honours_the_cycle_budget() {
        let t = missy_trace();
        let cfg = CoreModel::Icfp.default_config();
        let c = cur(&t);
        let s = c.arena_slice().expect("arena-backed cursor");
        let mut e = CoreModel::Icfp.engine(&cfg);
        let alive = e.step_block(&c, s, 0, 50);
        assert!(alive, "a 50-cycle budget cannot finish this trace");
        assert!(e.cycle() >= 50, "budget reached");
        assert!(e.processed() < s.len(), "run must be mid-trace");
        // Lifting the budget finishes the run.
        while e.step_block(&c, &s[e.processed().min(s.len())..], e.processed(), Cycle::MAX) {}
        let r = e.drain(&c);
        assert_eq!(r.stats.instructions, t.len() as u64);
    }

    #[test]
    fn save_after_drain_and_model_mismatch_are_errors() {
        let t = trace();
        let cfg = CoreModel::Icfp.default_config();
        let mut e = CoreModel::Icfp.engine(&cfg);
        let snap = e.save().expect("fresh engine saves");
        let _ = e.drain(&cur(&t));
        assert!(e.save().is_err(), "drained engine must not save");

        let mut other = CoreModel::InOrder.engine(&CoreModel::InOrder.default_config());
        let err = other.restore(&snap).unwrap_err();
        assert!(err.contains("icfp"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_bytes_are_rejected() {
        let cfg = CoreModel::Icfp.default_config();
        let e = CoreModel::Icfp.engine(&cfg);
        let mut snap = e.save().unwrap();
        snap.bytes.truncate(snap.bytes.len() / 2);
        let mut e2 = CoreModel::Icfp.engine(&cfg);
        assert!(e2.restore(&snap).is_err());
    }

    #[test]
    fn model_parsing_round_trips_and_lists_names() {
        for m in CoreModel::ALL {
            assert_eq!(CoreModel::parse(m.name()), Some(m));
        }
        assert_eq!(CoreModel::parse("bogus"), None);
        let names = CoreModel::valid_names();
        for m in CoreModel::ALL {
            assert!(names.contains(m.name()), "{names}");
        }
    }
}
