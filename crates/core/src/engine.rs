//! The core-engine seam and model registry.
//!
//! Every driver in the workspace — the simulator (`icfp-sim`), the benchmark
//! harness (`icfp-bench`), the sweep executor (`icfp-sweep`) — runs a model
//! through one object-safe trait: [`CoreModel::engine`] is the single
//! dispatch point, and the [`CoreEngine`] it returns has one stepping method,
//! [`CoreEngine::advance`], bounded by one budget: an instruction position.
//! [`CoreEngine::finish`] consumes the engine, so a finished engine cannot be
//! stepped, saved or finished again.
//!
//! Every model is a resumable machine that holds its whole run in its
//! fields, and there are two machines: [`IcfpMachine`], which is also the
//! SLTP core (the first step of the Figure 7 build), and the Runahead
//! machine (`runahead::Machine`), which is also the in-order and the
//! Multipass core.  Each carries its [`CoreModel`].  Their `save`, `restore`
//! and `seed` share one body each (`machine_bodies!`).
//! [`run_model`] / [`run_model_cursor`] are the workspace's only "run to
//! completion" entry points.

use crate::config::CoreConfig;
use crate::icfp::IcfpMachine;
use crate::runahead;
use icfp_isa::{exec::ArchState, Trace, TraceCursor};
use icfp_pipeline::RunResult;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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
    /// iCFP (the paper's mechanism).
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
    /// dispatch point (the registry).  iCFP and SLTP run [`IcfpMachine`]
    /// (SLTP's configuration is the first Figure 7 step); in-order, Runahead
    /// and Multipass run the Runahead machine.
    pub fn engine(self, cfg: &CoreConfig) -> Box<dyn CoreEngine> {
        match self {
            CoreModel::Icfp | CoreModel::Sltp => Box::new(IcfpMachine::new(self, cfg)),
            _ => Box::new(runahead::Machine::new(self, cfg)),
        }
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
/// `bytes` is the model's machine in the vendored-serde binary format: its
/// register file, poison planes, buffers, caches, MSHRs, bus, prefetcher,
/// statistics and trace position.  Nothing is duplicated outside the blob: a
/// driver that needs the run's position asks the engine
/// ([`CoreEngine::processed`]) before saving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Model that produced the snapshot.
    pub model: CoreModel,
    /// Model-specific serialized state.
    pub bytes: Vec<u8>,
}

/// An object-safe, `Send` core engine: the uniform surface every driver
/// (simulator, bench harness, sweep pool) programs against.
///
/// Lifecycle: [`CoreEngine::advance`] as often as the driver likes, then
/// [`CoreEngine::finish`], which consumes the engine.
pub trait CoreEngine: Send {
    /// Which model this engine runs.
    fn model(&self) -> CoreModel;

    /// Simulates until `inst_limit` dynamic instructions have had their
    /// first pass or the trace is fully retired, whichever comes first.
    /// Returns `false` once the trace is fully retired, `true` if the limit
    /// stopped it.
    ///
    /// The engine reads the trace through the [`TraceCursor`] block by block
    /// (the whole arena for in-memory sources), so arena and block-streamed
    /// sources take the identical code path.  Granularity is the machine's:
    /// in-order stops at any instruction, iCFP and SLTP too (after the rally
    /// passes due by then); Runahead and Multipass stop between units of
    /// work, an advance walk and its squash being one.
    fn advance(&mut self, trace: &TraceCursor<'_>, inst_limit: usize) -> bool;

    /// Installs the outcome of a functional fast-forward into a *fresh*
    /// engine: architectural registers and memory as of trace position
    /// `warm.instructions`, every timing structure cold, the timed run
    /// starting there.  The final architectural state of the seeded run
    /// equals the cold full run's — architectural execution is
    /// timing-independent; cycle counts cover only the timed region — that
    /// is the point.  The state is shared (every run over a source seeds
    /// from the same one): the memory image is copied exactly once, into
    /// the engine that will mutate it.
    ///
    /// # Errors
    ///
    /// Fails if the engine has already advanced or been seeded/restored — a
    /// seed replaces the initial state only.
    fn seed(&mut self, warm: &Arc<ArchState>) -> Result<(), String>;

    /// Dynamic instructions whose first pass has been processed.
    fn processed(&self) -> usize;

    /// Completes the run if [`CoreEngine::advance`] has not already, and
    /// returns the result.
    fn finish(self: Box<Self>, trace: &TraceCursor<'_>) -> RunResult;

    /// Serializes the engine's complete simulation state: the model and one
    /// opaque blob.  Restoring the snapshot into a fresh engine of the same
    /// model and continuing the run is bit-identical (cycles, statistics,
    /// architectural state) to never having paused.
    fn save(&self) -> EngineSnapshot;

    /// Replaces this engine's state with a snapshot from [`CoreEngine::save`].
    ///
    /// The engine must have been built for the same model as the one that
    /// produced the snapshot; the snapshot carries its own configuration,
    /// which replaces the engine's wholesale.
    ///
    /// # Errors
    ///
    /// Fails on a model mismatch or an undecodable snapshot.
    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), String>;
}

/// The `seed`, `processed`, `save` and `restore` bodies of every model's
/// [`CoreEngine`] impl, written once: a machine holds its `Engine` in
/// `eng` and its next trace position in `i`, and its bytes are the snapshot.
/// A seed is refused once the machine has left position 0 or cycle 0; a
/// snapshot is refused if another model took it (by its label or by the
/// model its bytes carry) or its configuration could not build the machine.
macro_rules! machine_bodies {
    () => {
        fn seed(&mut self, warm: &std::sync::Arc<icfp_isa::exec::ArchState>) -> Result<(), String> {
            if self.i != 0 || self.eng.frontier != 0 {
                return Err("functional fast-forward requires a fresh machine".into());
            }
            self.eng.seed_arch(warm);
            self.i = warm.instructions as usize;
            Ok(())
        }

        fn processed(&self) -> usize {
            self.i
        }

        fn save(&self) -> $crate::engine::EngineSnapshot {
            $crate::engine::EngineSnapshot { model: self.model(), bytes: serde::to_bytes(self) }
        }

        fn restore(&mut self, snapshot: &$crate::engine::EngineSnapshot) -> Result<(), String> {
            let model = self.model();
            if snapshot.model != model {
                return Err(format!("snapshot is for model {}, engine runs {model}", snapshot.model));
            }
            let machine: Self = serde::from_bytes(&snapshot.bytes).map_err(|e| format!("decoding {model} snapshot: {e}"))?;
            if machine.model() != model {
                return Err(format!("{model} snapshot holds a machine for {}", machine.model()));
            }
            // The bytes are outside input: their sizes must build a machine.
            machine.eng.cfg.validate().map_err(|e| format!("{model} snapshot configuration: {e}"))?;
            *self = machine;
            Ok(())
        }
    };
}
pub(crate) use machine_bodies;

/// Runs the trace behind `trace` to completion on `model` under `cfg`
/// through the registry — the uniform entry point for any backing (arena or
/// streamed).
pub fn run_model_cursor(model: CoreModel, cfg: &CoreConfig, trace: &TraceCursor<'_>) -> RunResult {
    model.engine(cfg).finish(trace)
}

/// [`run_model_cursor`] over an in-memory trace — the convenience entry
/// point shared by drivers and tests that do not need stepping.
pub fn run_model(model: CoreModel, cfg: &CoreConfig, trace: &Trace) -> RunResult {
    run_model_cursor(model, cfg, &TraceCursor::from_trace(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::Tap;
    use icfp_isa::{ArenaSource, DynInst, Op, Reg, TraceBuilder};

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
    fn icfp_engine_steps_incrementally_and_exposes_live_stats() {
        let t = trace();
        let cfg = CoreModel::Icfp.default_config();
        let mut e = CoreModel::Icfp.engine(&cfg);
        let mut steps = 0usize;
        let c = cur(&t);
        while e.advance(&c, e.processed() + 1) {
            steps += 1;
            assert_eq!(e.processed(), steps, "one instruction per step");
        }
        assert_eq!(steps, t.len() - 1, "the last step retires the trace");
        assert_eq!(e.processed(), t.len());
        let r = e.finish(&c);
        assert_eq!(r.stats.instructions, t.len() as u64);
    }

    #[test]
    fn drain_without_step_runs_the_trace() {
        let t = trace();
        for m in CoreModel::ALL {
            let r = m.engine(&m.default_config()).finish(&cur(&t));
            assert_eq!(r.core, m.name());
            assert_eq!(r.stats.instructions, t.len() as u64, "{m}");
        }
    }

    #[test]
    fn digest_is_stable_across_models() {
        let t = trace();
        let digests: Vec<u64> = CoreModel::ALL
            .into_iter()
            .map(|m| run_model(m, &m.default_config(), &t).state_digest())
            .collect();
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

    /// True if `snap` was taken inside an advance episode of iCFP or SLTP;
    /// always true for the models whose episodes never span a pause.
    fn mid_episode(snap: &EngineSnapshot) -> bool {
        match snap.model {
            CoreModel::Icfp | CoreModel::Sltp => serde::from_bytes::<IcfpMachine>(&snap.bytes).expect("decodes").in_episode(),
            _ => true,
        }
    }

    #[test]
    fn save_restore_mid_run_is_bit_identical_for_every_model() {
        let t = missy_trace();
        for m in CoreModel::ALL {
            let cfg = m.default_config();
            // Uninterrupted reference run.
            let reference = run_model(m, &cfg, &t);

            // Interrupted run: do some work, snapshot, restore into a
            // *fresh* engine, and finish there.
            let c = cur(&t);
            let mut first = m.engine(&cfg);
            first.advance(&c, 25);
            let snap = first.save();
            assert_eq!(snap.model, m);
            assert!(mid_episode(&snap), "{m}: paused outside an episode");

            let mut second = m.engine(&cfg);
            second.restore(&snap).expect("restore");
            assert_eq!(second.processed(), first.processed(), "{m}");
            let resumed = second.finish(&c);

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
        let mut machine = IcfpMachine::new(CoreModel::Icfp, &cfg);
        while !machine.in_episode() {
            assert!(
                machine.advance(&c, machine.processed() + 1),
                "the trace must enter an episode"
            );
        }
        // A few more instructions so slice entries exist beyond the trigger.
        machine.advance(&c, machine.processed() + 5);
        assert!(machine.in_episode(), "still mid-episode");
        let bytes = serde::to_bytes(&machine);
        let resumed_machine: IcfpMachine =
            serde::from_bytes(&bytes).expect("decode mid-episode snapshot");
        let resumed = Box::new(resumed_machine).finish(&c);
        assert_eq!(resumed.stats, reference.stats);
        assert_eq!(resumed.final_regs, reference.final_regs);
        assert_eq!(resumed.final_mem, reference.final_mem);
    }

    /// Runs `m` over `c` in chunks of 7 instructions and, at the first chunk
    /// boundary that falls mid-run (for iCFP and SLTP: mid-episode), moves
    /// the run into a fresh engine through `save` → `restore`.
    fn chunked(m: CoreModel, c: &TraceCursor<'_>, warm: Option<&Arc<ArchState>>) -> RunResult {
        let cfg = m.default_config();
        let mut e = m.engine(&cfg);
        if let Some(w) = warm {
            e.seed(w).expect("a fresh engine accepts a seed");
        }
        let mut moved = false;
        let mut chunks = 0usize;
        while e.advance(c, e.processed() + 7) {
            chunks += 1;
            let snap = e.save();
            if !moved && mid_episode(&snap) {
                e = m.engine(&cfg);
                e.restore(&snap).expect("restore");
                moved = true;
            }
        }
        assert!(chunks > 1, "{m} must stop at chunk boundaries");
        assert!(moved, "{m}: no chunk boundary fell mid-episode");
        e.finish(c)
    }

    #[test]
    fn chunked_advance_equals_one_unbounded_advance_for_every_model() {
        let t = missy_trace();
        let inner = ArenaSource::with_block_size(t.clone(), 16);
        let blocks = Tap { inner, on_block: |_: usize| {} };
        let arena = cur(&t);
        let streamed = TraceCursor::new(&blocks);
        assert!(streamed.arena_slice().is_none(), "must take the block path");
        let mut warm = ArchState::new();
        for inst in &t.as_slice()[..37] {
            warm.exec(inst);
        }
        let warm = Arc::new(warm);

        for m in CoreModel::ALL {
            for (what, warm) in [("cold", None), ("seeded", Some(&warm))] {
                let mut whole = m.engine(&m.default_config());
                if let Some(w) = warm {
                    whole.seed(w).expect("a fresh engine accepts a seed");
                }
                assert!(!whole.advance(&arena, usize::MAX));
                let reference = whole.finish(&arena);
                if warm.is_none() {
                    assert_eq!(reference.stats, run_model(m, &m.default_config(), &t).stats);
                }

                for (how, r) in [
                    ("arena", chunked(m, &arena, warm)),
                    ("16-inst blocks", chunked(m, &streamed, warm)),
                ] {
                    assert_eq!(r.stats, reference.stats, "{m} {what} {how}: stats diverged");
                    assert_eq!(
                        r.state_digest(),
                        reference.state_digest(),
                        "{m} {what} {how}: digest diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn runahead_squashes_rewind_across_pinned_blocks() {
        // A pointer chase: every load's address comes from the previous
        // load, so each L2 miss poisons everything after it and an advance
        // episode walks hundreds of instructions before the squash rewinds
        // to the checkpoint — dozens of 16-instruction blocks back.
        let mut b = TraceBuilder::new("chase");
        for k in 0..600u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(1), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(2), Reg::int(1), 1));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), k));
            b.push(DynInst::store(Reg::int(4), Reg::int(3), 0x8000 + (k % 64) * 8));
            b.push(DynInst::load(Reg::int(5), Reg::int(3), 0x8000 + (k % 64) * 8));
        }
        let t = b.build();
        let inner = ArenaSource::with_block_size(t.clone(), 16);
        let blocks = Tap { inner, on_block: |_: usize| {} };
        let streamed = TraceCursor::new(&blocks);
        assert!(streamed.arena_slice().is_none(), "must take the block path");
        for m in [CoreModel::Runahead, CoreModel::Multipass] {
            let cfg = m.default_config();
            let arena = run_model(m, &cfg, &t);
            let s = &arena.stats;
            assert!(
                s.advance_instructions > 200 * s.advance_episodes && s.advance_episodes > 100,
                "{m}: {} advance instructions over {} episodes",
                s.advance_instructions,
                s.advance_episodes
            );
            let blocked = run_model_cursor(m, &cfg, &streamed);
            assert_eq!(blocked.stats, arena.stats, "{m}: stats diverged");
            assert_eq!(blocked.state_digest(), arena.state_digest(), "{m}: digest diverged");
        }
    }

    #[test]
    fn save_after_drain_and_model_mismatch_are_errors() {
        // `finish` consumes the engine, so saving a finished engine no longer
        // compiles; what is left to refuse at run time is a foreign snapshot.
        let t = trace();
        let cfg = CoreModel::Icfp.default_config();
        let e = CoreModel::Icfp.engine(&cfg);
        let snap = e.save();
        let _ = e.finish(&cur(&t));
        // SLTP runs the same machine: the model its bytes carry must match.
        let relabelled = EngineSnapshot { model: CoreModel::Sltp, ..snap.clone() };
        let err = CoreModel::Sltp.engine(&cfg).restore(&relabelled).unwrap_err();
        assert!(err.contains("sltp snapshot holds a machine for icfp"), "{err}");

        for m in CoreModel::ALL.into_iter().filter(|&m| m != CoreModel::Icfp) {
            let mut other = m.engine(&m.default_config());
            let err = other.restore(&snap).unwrap_err();
            assert!(err.contains("icfp") && err.contains(m.name()), "{err}");
            let err = CoreModel::Icfp.engine(&cfg).restore(&other.save()).unwrap_err();
            assert!(err.contains("icfp") && err.contains(m.name()), "{err}");
        }
    }

    #[test]
    fn a_snapshot_whose_configuration_cannot_build_its_machine_is_refused() {
        // A zero-entry baseline store queue would panic at the first store.
        let mut cfg = CoreConfig::paper_default();
        cfg.pipeline.baseline_store_buffer = 0;
        for m in CoreModel::ALL {
            let snap = m.engine(&cfg).save();
            assert!(m.engine(&m.default_config()).restore(&snap).is_err(), "{m}");
        }
    }

    #[test]
    fn corrupt_snapshot_bytes_are_rejected() {
        let cfg = CoreModel::Icfp.default_config();
        let e = CoreModel::Icfp.engine(&cfg);
        let mut snap = e.save();
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
