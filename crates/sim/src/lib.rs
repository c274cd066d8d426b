//! # icfp-sim — the cycle-driven simulation engine
//!
//! [`Simulator`] is the top-level driver the rest of the workspace (the
//! benchmark harness, the sweep executor, the quickstart example) talks to.
//! It owns a [`icfp_core::CoreEngine`] obtained from the model registry
//! ([`CoreModel::engine`]) — there is no per-model dispatch here, and every
//! method below is a [`CoreEngine::advance`] call with a different
//! instruction limit:
//!
//! * [`Simulator::run`] — simulate a whole trace, returning a [`SimReport`]
//!   with timing statistics *and* simulation-throughput figures (host
//!   seconds, simulated MIPS);
//! * [`Simulator::load`] + [`Simulator::advance_to_inst`] — a run paused at
//!   instruction positions, for checkpoints ([`Simulator::checkpoint`]) and
//!   for interleaving simulation with other work (progress reporting,
//!   multi-config round-robin, cancellation); [`Simulator::finish_loaded`]
//!   completes it.
//!
//! ## Throughput
//!
//! The engine's inner loop reuses its storage: the iCFP machine keeps its
//! rally/drain scratch buffers, the MSHR file and its outcome table are flat
//! slot-indexed arrays, a demand miss hands its prefetch burst over by value,
//! poison state is packed into word-level planes, and the trace is decoded
//! once into a contiguous arena (`Vec<DynInst>` inside [`icfp_isa::Trace`])
//! that every pass replays by reference.  `tests/steady_state_allocs.rs`
//! holds it to a number: after the first 10 % of a trace, in-order and iCFP
//! on pointer-chase and dcache-thrash make fewer than 2 heap-allocation calls
//! per 1000 simulated instructions.
//! `icfp-ladder` (`benchmark/`) measures the resulting
//! simulated-instructions-per-host-second (`sim_mips`, `core.*_mips`), and CI
//! compares it against the checked-in baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;

pub use ckpt::{CkptError, SimCheckpoint};
pub use icfp_core::{CoreEngine, CoreModel, EngineSnapshot};

use icfp_core::CoreConfig;
use icfp_isa::{exec::ArchState, Trace, TraceCursor, TraceSource};
use icfp_pipeline::RunResult;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`Simulator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core model to drive.
    pub core: CoreModel,
    /// Microarchitectural configuration.
    pub cfg: CoreConfig,
}

impl SimConfig {
    /// The paper-default configuration for `core`.
    pub fn new(core: CoreModel) -> Self {
        SimConfig {
            cfg: core.default_config(),
            core,
        }
    }

    /// A configuration with an explicit microarchitecture (sweep cells).
    pub fn with_config(core: CoreModel, cfg: CoreConfig) -> Self {
        SimConfig { core, cfg }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(CoreModel::Icfp)
    }
}

/// The result of simulating one trace, including simulation-throughput
/// figures for the benchmark harness.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Core model name.
    pub core: String,
    /// Workload name.
    pub workload: String,
    /// Committed instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions per simulated cycle.
    pub ipc: f64,
    /// L1 data-cache misses per 1000 instructions.
    pub l1d_mpki: f64,
    /// L2 misses per 1000 instructions.
    pub l2_mpki: f64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
    /// Loads forwarded from a store buffer.
    pub store_forwards: u64,
    /// Advance episodes entered.
    pub advance_episodes: u64,
    /// Rally passes performed.
    pub rally_passes: u64,
    /// Peak slice-buffer occupancy (iCFP/SLTP).
    pub slice_peak: u64,
    /// Host wall-clock seconds spent simulating (excludes trace generation).
    pub host_seconds: f64,
    /// Simulated instructions per host second, in millions.
    pub mips: f64,
    /// FNV-1a digest of the final architectural state (registers + memory),
    /// for cheap determinism / cross-model equivalence checks.
    pub state_digest: u64,
    /// The full run result (final state, all counters).
    pub result: RunResult,
}

/// The per-cell figures of one finished run, in serializable form — the
/// payload the sweep result cache persists (`icfp-cache/v1`) and the wire
/// protocol streams, shared here so every consumer of a cell result encodes
/// it identically.  Everything except `host_seconds`/`mips` is deterministic;
/// the host figures record the measurement the figures were produced by, so
/// replaying a cached cell reproduces the original report byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellFigures {
    /// Committed instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions per simulated cycle.
    pub ipc: f64,
    /// L1 data-cache misses per 1000 instructions.
    pub l1d_mpki: f64,
    /// L2 misses per 1000 instructions.
    pub l2_mpki: f64,
    /// Host wall-clock seconds of the run that produced the figures.  Of a
    /// fast-forwarded cell they cover the functional walk only in the run
    /// that performed it: the source keeps the state for every later one.
    pub host_seconds: f64,
    /// Simulated MIPS of that run.
    pub mips: f64,
    /// FNV-1a digest of the final architectural state.
    pub state_digest: u64,
}

impl SimReport {
    /// This run's figures in the shared serializable form.
    pub fn figures(&self) -> CellFigures {
        CellFigures {
            instructions: self.instructions,
            cycles: self.cycles,
            ipc: self.ipc,
            l1d_mpki: self.l1d_mpki,
            l2_mpki: self.l2_mpki,
            host_seconds: self.host_seconds,
            mips: self.mips,
            state_digest: self.state_digest,
        }
    }

    fn from_result(result: RunResult, host_seconds: f64) -> Self {
        let s = &result.stats;
        SimReport {
            core: result.core.clone(),
            workload: result.workload.clone(),
            instructions: s.instructions,
            cycles: s.cycles,
            ipc: s.ipc(),
            l1d_mpki: s.l1d_mpki(),
            l2_mpki: s.l2_mpki(),
            branch_mispredicts: s.branch_mispredicts,
            store_forwards: s.store_forwards,
            advance_episodes: s.advance_episodes,
            rally_passes: s.rally_passes,
            slice_peak: s.slice_peak,
            host_seconds,
            mips: if host_seconds > 0.0 {
                s.instructions as f64 / host_seconds / 1.0e6
            } else {
                0.0
            },
            state_digest: result.state_digest(),
            result,
        }
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<14} {:<10} {:>9} inst {:>10} cyc  ipc {:>5.2}  l1d-mpki {:>6.1}  l2-mpki {:>5.1}  {:>8.2} MIPS",
            self.workload,
            self.core,
            self.instructions,
            self.cycles,
            self.ipc,
            self.l1d_mpki,
            self.l2_mpki,
            self.mips
        )
    }
}

/// The condition a sweep puts on a fast-forward depth, column by column,
/// before handing it to [`Simulator::run_source_ff`]: it must leave a timed
/// region.
///
/// # Errors
///
/// Describes the two figures when `ff` swallows all `insts` instructions.
pub fn check_timed_region(ff: usize, insts: usize) -> Result<(), String> {
    if ff >= insts {
        return Err(format!(
            "fast-forward ({ff}) must leave a timed region (insts = {insts})"
        ));
    }
    Ok(())
}

/// Functionally executes the first `n` instructions of the trace behind the
/// cursor — architectural registers and memory only, no timing model — and
/// returns the warmed [`ArchState`].  This is pure computation over decoded
/// blocks (no caches, predictors or issue scheduling), so it proceeds at
/// functional-simulation speed: two orders of magnitude above timed
/// simulation.  A pure, uncached walk from instruction 0 on every call; the
/// simulator's fast-forwards share one through the source's
/// [`icfp_isa::WarmStore`], whose only producer this walk is.
pub fn functional_warmup(trace: &TraceCursor<'_>, n: usize) -> ArchState {
    walk_to(trace, ArchState::new(), n.min(trace.len()))
}

/// Executes instructions `[st.instructions, n)` of the trace on `st`.
fn walk_to(trace: &TraceCursor<'_>, mut st: ArchState, n: usize) -> ArchState {
    trace.for_each_block_from(st.instructions as usize, |first, insts| {
        let take = (n - first).min(insts.len());
        for inst in &insts[..take] {
            st.exec(inst);
        }
        first + take < n
    });
    st
}

/// The one way the simulator fast-forwards: the state after the first `n`
/// instructions, from the source's [`icfp_isa::WarmStore`] — walked once per
/// source and depth, single-flight, resumed from a shallower held state —
/// or, for a cursor over a bare [`Trace`] (no source, no store), walked here.
fn warm_state(trace: &TraceCursor<'_>, n: usize) -> Arc<ArchState> {
    let n = n.min(trace.len());
    match trace.warm() {
        Some(store) => store.state_at(n, |from| walk_to(trace, from, n)),
        None => Arc::new(functional_warmup(trace, n)),
    }
}

enum Backend {
    Idle,
    /// An engine from the registry plus the loaded trace source and
    /// accumulated host simulation time.  The source is reference-counted so
    /// sweep columns share one backing (decoded arena, open trace file,
    /// generator) across many concurrent simulators; per-call cursors read
    /// through it, and streamed backings keep their decoded-block caches
    /// across the calls of a paused run.
    Loaded {
        engine: Box<dyn CoreEngine>,
        source: Arc<dyn TraceSource>,
        host_seconds: f64,
    },
}

/// The top-level simulation driver.  See the crate docs for the two usage
/// modes.
pub struct Simulator {
    config: SimConfig,
    backend: Backend,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            config,
            backend: Backend::Idle,
        }
    }

    /// Simulates `trace` to completion and reports timing plus throughput.
    pub fn run(&mut self, trace: &Trace) -> SimReport {
        self.run_cursor_ff(&TraceCursor::from_trace(trace), 0)
    }

    /// [`Simulator::run`] with a functional fast-forward prefix (see
    /// [`Simulator::run_source_ff`]).
    pub fn run_ff(&mut self, trace: &Trace, ff: usize) -> SimReport {
        self.run_cursor_ff(&TraceCursor::from_trace(trace), ff)
    }

    /// Simulates the trace behind any block-based source to completion —
    /// arena-backed sources take the cursor's zero-cost fast path; streamed
    /// sources (trace files, generators) stay bounded to a handful of
    /// resident blocks however long the trace is.
    pub fn run_source(&mut self, source: &dyn TraceSource) -> SimReport {
        self.run_cursor_ff(&TraceCursor::new(source), 0)
    }

    /// [`Simulator::run_source`] with a functional fast-forward prefix: the
    /// first `ff` instructions execute architecturally only (registers and
    /// memory, no timing model); the remainder runs under the timing model
    /// from a cold microarchitectural state.  The report's final
    /// architectural state and `state_digest` equal the cold full run's by
    /// construction; `cycles` covers only the timed region — that asymmetry
    /// is the fast-forward methodology, not an accident.  The prefix is
    /// walked once per source ([`icfp_isa::WarmStore`]): `host_seconds`
    /// covers the walk only in the run that performed it.
    pub fn run_source_ff(&mut self, source: &dyn TraceSource, ff: usize) -> SimReport {
        self.run_cursor_ff(&TraceCursor::new(source), ff)
    }

    fn run_cursor_ff(&mut self, trace: &TraceCursor<'_>, ff: usize) -> SimReport {
        let t0 = Instant::now();
        let mut engine = self.config.core.engine(&self.config.cfg);
        if ff > 0 {
            engine
                .seed(&warm_state(trace, ff))
                .expect("a just-built engine accepts a seed");
        }
        let result = engine.finish(trace);
        SimReport::from_result(result, t0.elapsed().as_secs_f64())
    }

    /// Loads a trace for a run paused at instruction positions:
    /// [`Simulator::advance_to_inst`] moves it forward,
    /// [`Simulator::checkpoint`] captures it and [`Simulator::finish_loaded`]
    /// completes it.  The iCFP model stops at any instruction; the other
    /// models — whole-trace designs — simulate to completion on the first
    /// advance that has budget left.
    ///
    /// Accepts anything convertible to a shared [`TraceSource`]: an owned
    /// [`Trace`] (wrapped in an arena source), an
    /// [`icfp_isa::ArenaSource`], an open [`icfp_isa::TraceFile`], a
    /// generator-backed `icfp_workloads::WorkloadSource`, or an
    /// `Arc<dyn TraceSource>` already shared across simulators (sweep
    /// columns).
    pub fn load(&mut self, source: impl Into<Arc<dyn TraceSource>>) {
        self.backend = Backend::Loaded {
            engine: self.config.core.engine(&self.config.cfg),
            source: source.into(),
            host_seconds: 0.0,
        };
    }

    /// Functionally fast-forwards the loaded run: executes the first `n`
    /// instructions architecturally (registers and memory only, no timing
    /// model) and seeds the engine with the warmed state, leaving every
    /// timing structure — caches, MSHRs, slice buffer — cold.  The run then
    /// continues under the timing model from instruction `n`, and a
    /// [`Simulator::checkpoint`] afterwards mints an ordinary
    /// `icfp-ckpt/v5` checkpoint at that position, so a resumed run
    /// inherits the fast-forwarded state for free.  Returns the number of
    /// instructions skipped (clamped to the trace length).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::NotLoaded`] if no trace is loaded, and
    /// [`CkptError::Engine`] if the engine has already done work —
    /// fast-forward replaces the *initial* state only.
    pub fn fast_forward(&mut self, n: usize) -> Result<u64, CkptError> {
        let Backend::Loaded {
            engine,
            source,
            host_seconds,
        } = &mut self.backend
        else {
            return Err(CkptError::NotLoaded);
        };
        let trace = TraceCursor::new(&**source);
        let t0 = Instant::now();
        let warm = warm_state(&trace, n);
        engine.seed(&warm).map_err(CkptError::Engine)?;
        *host_seconds += t0.elapsed().as_secs_f64();
        Ok(warm.instructions)
    }

    /// Advances the loaded run until at least `target` dynamic instructions
    /// have been processed (first pass), or the engine has fully stepped the
    /// trace, whichever comes first.  This never finishes the engine, so a
    /// [`Simulator::checkpoint`] can follow.
    ///
    /// Returns `Ok(true)` while the engine still has work (more instructions
    /// or pending rallies), `Ok(false)` once fully stepped (still loaded).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::NotLoaded`] if no trace is loaded (call
    /// [`Simulator::load`] first) — never panics.
    pub fn advance_to_inst(&mut self, target: usize) -> Result<bool, CkptError> {
        let Backend::Loaded {
            engine,
            source,
            host_seconds,
        } = &mut self.backend
        else {
            return Err(CkptError::NotLoaded);
        };
        let trace = TraceCursor::new(&**source);
        let t0 = Instant::now();
        let alive = engine.advance(&trace, target);
        *host_seconds += t0.elapsed().as_secs_f64();
        Ok(alive)
    }

    /// Captures the loaded run as a [`SimCheckpoint`]: the engine's complete
    /// serialized state plus the identity (name, length, digest) of the trace
    /// it was simulating and the block coordinates of the resume point (block
    /// geometry, resume block index, that block's digest), so a resume can
    /// validate and seek *directly* to the right block of a streamed source
    /// without touching anything before it.  The simulator keeps running —
    /// checkpointing is non-destructive.
    ///
    /// # Errors
    ///
    /// Fails if no trace is loaded or the source cannot produce the resume
    /// block's digest.
    pub fn checkpoint(&self) -> Result<SimCheckpoint, CkptError> {
        let Backend::Loaded { engine, source, .. } = &self.backend else {
            return Err(CkptError::NotLoaded);
        };
        let snapshot = engine.save();
        let block_size = source.block_size().max(1) as u64;
        let (resume_block, resume_block_digest) = if source.is_empty() {
            (0, 0)
        } else {
            let blk = (engine.processed() / block_size as usize)
                .min(source.block_count() - 1);
            let digest = source
                .block_digest(blk)
                .map_err(|e| CkptError::Source(e.to_string()))?;
            (blk as u64, digest)
        };
        Ok(SimCheckpoint {
            config: self.config.clone(),
            workload: source.name().to_string(),
            trace_len: source.len() as u64,
            trace_digest: source.digest(),
            block_size,
            resume_block,
            resume_block_digest,
            snapshot,
        })
    }

    /// Reconstructs a loaded simulator from a checkpoint and the trace it was
    /// taken against.  Continuing the run (via [`Simulator::advance_to_inst`]
    /// / [`Simulator::finish_loaded`]) produces cycle counts, statistics and
    /// state digests bit-identical to the uninterrupted run.
    ///
    /// Validation is two-level: the trace identity (name, length,
    /// whole-trace digest — O(1) for arenas with a cached digest and for
    /// trace files, whose header records it), and, when the source's block
    /// geometry matches the checkpoint's, the *resume block's* digest.  The
    /// resume block is then fetched, which seeks a streamed source directly
    /// to the right offset — nothing before it is read, let alone decoded.
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint's configuration is not one the models can be
    /// built from ([`CoreConfig::validate`]), the trace's identity or
    /// resume-block digest do not match what the checkpoint recorded, or the
    /// snapshot cannot be restored.
    pub fn resume(
        ckpt: &SimCheckpoint,
        source: impl Into<Arc<dyn TraceSource>>,
    ) -> Result<Simulator, CkptError> {
        // A checkpoint is outside input: its sizes reach the allocator.
        ckpt.config.cfg.validate().map_err(CkptError::Config)?;
        let source: Arc<dyn TraceSource> = source.into();
        if source.name() != ckpt.workload
            || source.len() as u64 != ckpt.trace_len
            || source.digest() != ckpt.trace_digest
        {
            return Err(CkptError::TraceMismatch {
                expected: format!("{} ({} insts, {:#018x})", ckpt.workload, ckpt.trace_len, ckpt.trace_digest),
                found: format!("{} ({} insts, {:#018x})", source.name(), source.len(), source.digest()),
            });
        }
        if !source.is_empty() && source.block_size() as u64 == ckpt.block_size {
            let blk = ckpt.resume_block as usize;
            let found = source
                .block_digest(blk)
                .map_err(|e| CkptError::Source(e.to_string()))?;
            if found != ckpt.resume_block_digest {
                return Err(CkptError::BlockMismatch {
                    block: ckpt.resume_block,
                    expected: ckpt.resume_block_digest,
                    found,
                });
            }
            if source.as_arena().is_none() {
                // Seek: pull the resume block into the streamed source's
                // cache so the first step after resume pays no fault.
                source
                    .block(blk)
                    .map_err(|e| CkptError::Source(e.to_string()))?;
            }
        }
        let mut engine = ckpt.config.core.engine(&ckpt.config.cfg);
        engine.restore(&ckpt.snapshot).map_err(CkptError::Engine)?;
        Ok(Simulator {
            config: ckpt.config.clone(),
            backend: Backend::Loaded {
                engine,
                source,
                host_seconds: 0.0,
            },
        })
    }

    /// Runs the loaded trace to completion, returns the final report and
    /// leaves the simulator unloaded.  `host_seconds` covers every call of
    /// the run since [`Simulator::load`] (or [`Simulator::resume`]).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::NotLoaded`] if no trace is loaded:
    /// [`Simulator::load`] was never called, or an earlier `finish_loaded`
    /// already completed the run.
    pub fn finish_loaded(&mut self) -> Result<SimReport, CkptError> {
        let Backend::Loaded {
            engine,
            source,
            host_seconds,
        } = std::mem::replace(&mut self.backend, Backend::Idle)
        else {
            return Err(CkptError::NotLoaded);
        };
        let t0 = Instant::now();
        let result = engine.finish(&TraceCursor::new(&*source));
        Ok(SimReport::from_result(result, host_seconds + t0.elapsed().as_secs_f64()))
    }

    /// True if a paused run is loaded.
    pub fn is_loaded(&self) -> bool {
        !matches!(self.backend, Backend::Idle)
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("core", &self.config.core)
            .field("loaded", &self.is_loaded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::{DynInst, Op, Reg, TraceBuilder};

    fn small_trace() -> Trace {
        trace_of(20)
    }

    /// `iters` times: a miss, its dependant, a store and five independent adds.
    fn trace_of(iters: u64) -> Trace {
        let mut b = TraceBuilder::new("sim-test");
        for k in 0..iters {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            b.push(DynInst::store(Reg::int(3), Reg::int(4), 0x8000 + k * 8));
            for j in 0..5u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), j));
            }
        }
        b.build()
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut sim = Simulator::new(SimConfig::default());
        let r = sim.run(&small_trace());
        assert_eq!(r.core, "icfp");
        assert_eq!(r.instructions, small_trace().len() as u64);
        assert!(r.cycles > 0);
        assert!(r.ipc > 0.0);
        assert!(r.host_seconds >= 0.0);
    }

    #[test]
    fn all_models_agree_on_final_state() {
        let t = small_trace();
        let digests: Vec<(_, _)> = CoreModel::ALL
            .into_iter()
            .map(|m| {
                let mut sim = Simulator::new(SimConfig::new(m));
                (m.name(), sim.run(&t).state_digest)
            })
            .collect();
        for w in digests.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "{} and {} disagree on final state",
                w[0].0, w[1].0
            );
        }
    }

    /// Steps a loaded run `n` instructions at a time with `advance_to_inst`
    /// until the trace is exhausted, then finishes it. Returns the number
    /// of pauses and the report.
    fn step_n_then_finish(sim: &mut Simulator, n: usize) -> (usize, SimReport) {
        let mut pauses = 0;
        while sim.advance_to_inst(n * (pauses + 1)).expect("loaded") {
            pauses += 1;
        }
        assert!(sim.is_loaded(), "a fully stepped run stays loaded until finished");
        let report = sim.finish_loaded().expect("loaded");
        assert!(!sim.is_loaded(), "finishing unloads the run");
        (pauses, report)
    }

    #[test]
    fn step_n_reaches_the_same_result_as_run() {
        let t = trace_of(60);
        for m in CoreModel::ALL {
            let full = Simulator::new(SimConfig::new(m)).run(&t);
            let mut sim = Simulator::new(SimConfig::new(m));
            sim.load(t.clone());
            let (pauses, report) = step_n_then_finish(&mut sim, 100);
            if m == CoreModel::Icfp {
                assert_eq!(pauses, 4, "100-instruction steps pause a 480-instruction run");
            }
            assert_eq!(report.cycles, full.cycles, "{m}");
            assert_eq!(report.state_digest, full.state_digest, "{m}");
        }
    }

    #[test]
    fn step_n_over_a_streamed_source_matches_the_arena_run() {
        // Small blocks force the paused run across many block boundaries;
        // the result must be bit-identical to the whole arena run.
        let t = trace_of(60);
        for m in CoreModel::ALL {
            let full = Simulator::new(SimConfig::new(m)).run(&t);
            let mut sim = Simulator::new(SimConfig::new(m));
            sim.load(icfp_isa::ArenaSource::with_block_size(t.clone(), 16));
            let (_, report) = step_n_then_finish(&mut sim, 100);
            assert_eq!(report.cycles, full.cycles, "{m}");
            assert_eq!(report.state_digest, full.state_digest, "{m}");
        }
    }

    #[test]
    fn stepping_without_a_loaded_trace_is_a_typed_status_not_a_panic() {
        let mut sim = Simulator::new(SimConfig::default());
        assert!(matches!(sim.finish_loaded(), Err(CkptError::NotLoaded)));
        assert!(matches!(sim.advance_to_inst(10), Err(CkptError::NotLoaded)));
        // A finished run unloads the simulator; a second finish reports it.
        sim.load(small_trace());
        sim.finish_loaded().expect("a loaded run finishes");
        assert!(matches!(sim.finish_loaded(), Err(CkptError::NotLoaded)));
        assert!(matches!(sim.advance_to_inst(10), Err(CkptError::NotLoaded)));
    }

    #[test]
    fn model_parsing_round_trips() {
        for m in CoreModel::ALL {
            assert_eq!(CoreModel::parse(m.name()), Some(m));
        }
        assert_eq!(CoreModel::parse("bogus"), None);
    }

    #[test]
    fn explicit_config_overrides_are_honoured() {
        let t = small_trace();
        let mut cfg = CoreModel::Icfp.default_config();
        cfg.mem.l2_hit_latency = 40;
        let slow = Simulator::new(SimConfig::with_config(CoreModel::Icfp, cfg)).run(&t);
        let fast = Simulator::new(SimConfig::new(CoreModel::Icfp)).run(&t);
        assert_eq!(slow.state_digest, fast.state_digest);
        assert!(
            slow.cycles >= fast.cycles,
            "higher L2 latency cannot be faster: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }
}
