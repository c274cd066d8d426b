//! The six end-to-end workloads.
//!
//! Each is built from the seed alone (`setup`, timed as `setup_s`), runs a
//! fixed body any number of times (`body`, the timed part, preceded by an
//! untimed `prepare`), and checks the body's outputs afterwards (`verify`,
//! untimed).  The bodies call the simulator and the sweep service only
//! through their public entry points, each call wrapped in a tracer span.
//!
//! Why these six: the two single-run workloads put the same two models on
//! opposite sides of the advance/rally machinery (`icfp-miss` lives in it,
//! `icfp-compute` never enters it); `file-ff` is the only one that touches
//! the on-disk codec and the functional fast-forward; the three sweep
//! workloads run one grid through the executor three ways — computing
//! (`sweep-cold`), serving from cache over the wire (`sweep-warm`), and
//! computing on two workers (`sweep-dist`) — so the service layers can be
//! told apart from the timing models.

use crate::span::Tracer;
use crate::stats::geomean;
use icfp_core::CoreModel;
use icfp_isa::{
    ArenaSource, Trace, TraceCursor, TraceFile, TraceFileWriter, TraceFormat, TraceSource,
    DEFAULT_BLOCK_INSTS,
};
use icfp_pipeline::{RunResult, RunStats};
use icfp_sim::{functional_warmup, SimConfig, SimReport, Simulator};
use icfp_sweep::wire::ServeOptions;
use icfp_sweep::{
    column_source, run_sweep, run_sweep_streamed, schema, serve, submit_with, AcceptOptions,
    ExecBackend, ExecOptions, RemoteBackend, ResultCache, RetryPolicy, ServeSummary, SweepReport,
    SweepSpec,
};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 6] = [
    "icfp-miss",
    "icfp-compute",
    "file-ff",
    "sweep-cold",
    "sweep-warm",
    "sweep-dist",
];

/// The two models every single-run workload compares.
const PAIR: [CoreModel; 2] = [CoreModel::InOrder, CoreModel::Icfp];

/// Instruction budgets of the single-run workloads' traces.
/// Sized, like every fixed body here, to take about a second on the
/// reference host, so a ten-second run holds eight or more repetitions.
const MISS_TRACES: [(&str, usize); 2] = [("pointer-chase", 130_000), ("dcache-thrash", 800_000)];
const COMPUTE_TRACES: [(&str, usize); 2] = [("branchy", 3_000_000), ("streaming", 2_000_000)];

/// `file-ff`: container length, timed tail, and the re-encoded prefix.
const FILE_INSTS: usize = 4_000_000;
const FILE_TIMED_TAIL: usize = 200_000;
const FILE_REENCODE_INSTS: usize = 1_000_000;

/// The sweep grid: 5 models × slice {64,128} × L2 {10,20} × 4 workloads.
const GRID_INSTS: usize = 30_000;
/// Pool threads / worker processes: the sandbox has two cores.
pub const THREADS: usize = 2;

/// Target duration of a calibrated body (`sweep-warm` sizes its submission
/// count to it); the fixed-size bodies were sized to land near it too.
const BODY_TARGET_S: f64 = 1.0;

/// Instructions per trace handed to the per-layer probes.
pub const PROBE_INSTS: usize = 60_000;
/// Instruction budget of the probe grid's columns.
pub const PROBE_GRID_INSTS: usize = 6_000;

/// What checking a body's outputs found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations checked: simulator runs, cells, digest comparisons.
    pub attempted: u64,
    /// Of those, how many failed or were wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// In-order cycles ÷ iCFP cycles, one per trace column × configuration.
    pub speedups: Vec<f64>,
}

impl Verdict {
    /// Counts one checked operation, recording `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds a later verdict's counts and failures; its speed-ups (the same
    /// for every repetition of a seed) replace the earlier ones.
    pub fn absorb(&mut self, later: Verdict) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.failures.extend(later.failures);
        if !later.speedups.is_empty() {
            self.speedups = later.speedups;
        }
    }

    /// Geomean of the recorded speed-ups.
    pub fn icfp_speedup(&self) -> f64 {
        geomean(&self.speedups)
    }
}

/// One trace for the per-layer probes, with the generator seed that
/// reproduces it.
pub struct ProbeTrace {
    /// A prefix of one of the workload's own traces.
    pub trace: Trace,
    /// Seed that regenerates it through the workload registry.
    pub seed: u64,
}

/// The workload's own inputs, cut down to probe size.
pub struct ProbeInputs {
    /// Trace prefixes.
    pub traces: Vec<ProbeTrace>,
    /// The grid the sweep-layer probes run.
    pub spec: SweepSpec,
}

/// One end-to-end workload.
pub trait Workload {
    /// Untimed work before a body: emptying caches, sizing the body.
    fn prepare(&mut self) {}

    /// The timed body.  Returns the simulated instructions whose results
    /// were delivered to the caller.
    fn body(&mut self, tr: &Tracer) -> u64;

    /// Checks the outputs of the last body.
    fn verify(&mut self) -> Verdict;

    /// Inputs for the per-layer probes.
    fn probe_inputs(&self) -> ProbeInputs;

    /// Stops what set-up started and removes what it wrote.
    fn finish(self: Box<Self>) {}
}

/// Builds workload `name` from `seed`, using `dir` for any files.
///
/// # Errors
///
/// An unknown name, or a set-up step that failed.
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(match name {
        "icfp-miss" => Box::new(SingleRun::setup(&MISS_TRACES, seed)),
        "icfp-compute" => Box::new(SingleRun::setup(&COMPUTE_TRACES, seed)),
        "file-ff" => Box::new(FileFf::setup(seed, dir)?),
        "sweep-cold" => Box::new(SweepCold::setup(seed, dir)),
        "sweep-warm" => Box::new(SweepWarm::setup(seed, dir)?),
        "sweep-dist" => Box::new(SweepDist::setup(seed, dir)?),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

// ---------------------------------------------------------------------------
// Golden model
// ---------------------------------------------------------------------------

/// Final registers and memory according to `ArchState`, in `RunResult` form.
struct Golden {
    state: RunResult,
    digest: u64,
}

fn golden(source: &dyn TraceSource) -> Golden {
    let cursor = TraceCursor::new(source);
    let st = functional_warmup(&cursor, cursor.len());
    let mut final_mem: Vec<(u64, u64)> = st.mem.iter().map(|(a, v)| (*a, *v)).collect();
    final_mem.sort_unstable();
    let state = RunResult {
        core: "golden".into(),
        workload: source.name().into(),
        stats: RunStats::default(),
        final_regs: st.reg_snapshot(),
        final_mem,
    };
    let digest = state.state_digest();
    Golden { state, digest }
}

fn generate(name: &str, insts: usize, seed: u64) -> Trace {
    icfp_workloads::spec_by_name(name)
        .expect("workload names in this file are registry names")
        .trace(insts, seed)
}

/// The same content as [`generate`], as a resumable block producer: no arena,
/// so a cursor walks blocks the way a file backing would.
fn generate_streamed(name: &str, insts: usize, seed: u64) -> icfp_workloads::WorkloadSource {
    icfp_workloads::spec_by_name(name)
        .expect("workload names in this file are registry names")
        .source(insts, seed, DEFAULT_BLOCK_INSTS)
}

fn prefix(trace: &Trace, insts: usize) -> Trace {
    Trace::new(
        trace.name(),
        trace.as_slice()[..insts.min(trace.len())].to_vec(),
    )
}

fn pair_spec(workloads: Vec<String>, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new(PAIR.to_vec(), workloads, PROBE_GRID_INSTS, seed);
    spec.slice_buffer_entries = vec![64, 128];
    spec
}

// ---------------------------------------------------------------------------
// icfp-miss / icfp-compute
// ---------------------------------------------------------------------------

/// In-order and iCFP over arena traces through `Simulator::run_source`.
struct SingleRun {
    seed: u64,
    /// Name and instruction budget of each trace, as generated.
    traces: &'static [(&'static str, usize)],
    sources: Vec<ArenaSource>,
    golden: Option<Vec<Golden>>,
    last: Vec<SimReport>,
}

impl SingleRun {
    fn setup(traces: &'static [(&'static str, usize)], seed: u64) -> Self {
        SingleRun {
            seed,
            traces,
            sources: traces
                .iter()
                .map(|&(name, insts)| ArenaSource::new(generate(name, insts, seed)))
                .collect(),
            golden: None,
            last: Vec::new(),
        }
    }
}

impl Workload for SingleRun {
    fn body(&mut self, tr: &Tracer) -> u64 {
        self.last.clear();
        for source in &self.sources {
            for model in PAIR {
                let report = tr.span("sim.run_source", &[model.name(), source.name()], || {
                    let r = Simulator::new(SimConfig::new(model)).run_source(source);
                    tr.count("instructions", r.instructions as f64);
                    tr.count("cycles", r.cycles as f64);
                    tr.count("rally_passes", r.rally_passes as f64);
                    r
                });
                self.last.push(report);
            }
        }
        self.last.iter().map(|r| r.instructions).sum()
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let first_time = self.golden.is_none();
        let sources = &self.sources;
        let golden_states = self
            .golden
            .get_or_insert_with(|| sources.iter().map(|s| golden(s)).collect());
        for (k, source) in self.sources.iter().enumerate() {
            let pair = &self.last[2 * k..2 * k + 2];
            for report in pair {
                v.check(report.result.state_matches(&golden_states[k].state), || {
                    format!(
                        "{} on {}: final state differs from ArchState",
                        report.core, report.workload
                    )
                });
            }
            v.speedups
                .push(pair[0].cycles as f64 / pair[1].cycles as f64);
            // The workload's design: branchy never misses, so iCFP must
            // never leave the in-order path on it.
            if source.name() == "branchy" {
                v.check(pair[1].rally_passes == 0, || {
                    format!("iCFP rallied {} times on branchy", pair[1].rally_passes)
                });
            }
        }
        if first_time {
            // Arena ≡ block-streamed ≡ fast-forwarded, once per run, on the
            // first trace with the cheap model.
            let trace = Arc::clone(self.sources[0].trace());
            let want = golden_states[0].digest;
            let config = SimConfig::new(CoreModel::InOrder);
            let (name, insts) = self.traces[0];
            let blocks = generate_streamed(name, insts, self.seed);
            let streamed = Simulator::new(config.clone()).run_source(&blocks);
            let ffwd = Simulator::new(config).run_ff(&trace, trace.len() / 2);
            v.check(self.last[0].state_digest == want, || {
                "arena run digest".into()
            });
            v.check(streamed.state_digest == want, || {
                "block-streamed run digest".into()
            });
            v.check(ffwd.state_digest == want, || {
                "fast-forwarded run digest".into()
            });
        }
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            traces: self
                .sources
                .iter()
                .map(|s| ProbeTrace {
                    trace: prefix(s.trace(), PROBE_INSTS),
                    seed: self.seed,
                })
                .collect(),
            spec: pair_spec(
                self.sources.iter().map(|s| s.name().to_string()).collect(),
                self.seed,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// file-ff
// ---------------------------------------------------------------------------

/// An on-disk `icfp-trace/v2` container: open, fast-forward, time the tail
/// on both models, re-encode a prefix.
struct FileFf {
    seed: u64,
    path: PathBuf,
    rewrite_path: PathBuf,
    digest: u64,
    insts: usize,
    golden_digest: Option<u64>,
    last: Option<FileFfOut>,
}

struct FileFfOut {
    reports: Vec<SimReport>,
    rewritten: icfp_isa::trace_file::TraceFileSummary,
}

impl FileFf {
    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let path = dir.join("input.trace");
        let source = generate_streamed("dcache-thrash", FILE_INSTS, seed);
        let summary =
            TraceFileWriter::write_source_as(&path, &source, DEFAULT_BLOCK_INSTS, TraceFormat::V2)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(FileFf {
            seed,
            path,
            rewrite_path: dir.join("rewrite.trace"),
            digest: summary.digest,
            insts: summary.instructions as usize,
            golden_digest: None,
            last: None,
        })
    }
}

impl Workload for FileFf {
    fn body(&mut self, tr: &Tracer) -> u64 {
        let file = tr
            .span("isa.open_validated", &[], || {
                TraceFile::open_validated(&self.path, self.digest)
            })
            .expect("the container set-up wrote opens");
        let ff = self.insts.saturating_sub(FILE_TIMED_TAIL);
        let reports: Vec<SimReport> = PAIR
            .iter()
            .map(|&model| {
                tr.span("sim.run_source_ff", &[model.name(), file.name()], || {
                    let r = Simulator::new(SimConfig::new(model)).run_source_ff(&file, ff);
                    tr.count("instructions", r.instructions as f64);
                    tr.count("cycles", r.cycles as f64);
                    r
                })
            })
            .collect();
        let take = FILE_REENCODE_INSTS.min(self.insts);
        let rewritten = tr
            .span("isa.reencode_v2", &[], || {
                let mut w = TraceFileWriter::create_as(
                    &self.rewrite_path,
                    file.name(),
                    DEFAULT_BLOCK_INSTS,
                    TraceFormat::V2,
                )?;
                let mut failed = None;
                TraceCursor::new(&file).for_each_block_from(0, |first, insts| {
                    for inst in &insts[..insts.len().min(take - first)] {
                        if let Err(e) = w.push_raw(*inst) {
                            failed = Some(e);
                            return false;
                        }
                    }
                    first + insts.len() < take
                });
                match failed {
                    Some(e) => Err(e),
                    None => w.finish(),
                }
            })
            .expect("re-encoding into the benchmark's own directory succeeds");
        let delivered =
            reports.iter().map(|r| r.instructions).sum::<u64>() + rewritten.instructions;
        self.last = Some(FileFfOut { reports, rewritten });
        delivered
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let out = self.last.as_ref().expect("verify follows a body");
        let first_time = self.golden_digest.is_none();
        let (seed, insts) = (self.seed, self.insts);
        // The golden state comes from the *generator*, never the file, so a
        // codec that corrupts content cannot agree with itself.
        let want = *self
            .golden_digest
            .get_or_insert_with(|| golden(&generate_streamed("dcache-thrash", insts, seed)).digest);
        for r in &out.reports {
            v.check(r.state_digest == want, || {
                format!(
                    "{} from file with fast-forward: final state differs",
                    r.core
                )
            });
            v.check(r.instructions == insts as u64, || {
                format!(
                    "{} delivered {} of {insts} instructions",
                    r.core, r.instructions
                )
            });
        }
        v.speedups
            .push(out.reports[0].cycles as f64 / out.reports[1].cycles as f64);
        v.check(
            out.rewritten.instructions as usize == FILE_REENCODE_INSTS.min(insts),
            || format!("re-encoded {} instructions", out.rewritten.instructions),
        );
        if first_time {
            // The re-encoded prefix must read back, block for block, as the
            // input's content.
            let same = (|| -> Result<bool, icfp_isa::TraceSourceError> {
                let input = TraceFile::open_sync(&self.path)?;
                let copy = TraceFile::open_validated(&self.rewrite_path, out.rewritten.digest)?;
                copy.verify()?;
                for k in 0..copy.block_count().saturating_sub(1) {
                    if copy.block_digest(k)? != input.block_digest(k)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })();
            v.check(matches!(same, Ok(true)), || {
                format!("re-encoded container does not match its input: {same:?}")
            });
        }
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let file = TraceFile::open_sync(&self.path).expect("set-up wrote the container");
        let mut insts = Vec::with_capacity(PROBE_INSTS);
        TraceCursor::new(&file).for_each_block_from(0, |_, block| {
            insts.extend_from_slice(&block[..block.len().min(PROBE_INSTS - insts.len())]);
            insts.len() < PROBE_INSTS
        });
        ProbeInputs {
            traces: vec![ProbeTrace {
                trace: Trace::new(file.name(), insts),
                seed: self.seed,
            }],
            spec: pair_spec(vec![file.name().to_string()], self.seed),
        }
    }

    fn finish(self: Box<Self>) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(&self.rewrite_path);
    }
}

// ---------------------------------------------------------------------------
// The sweep grid
// ---------------------------------------------------------------------------

/// The sweep workloads' inputs: the grid, and the golden final state of
/// each of its trace columns (building them is these workloads' set-up).
struct Grid {
    spec: SweepSpec,
    /// `ArchState`'s final-state digest per workload column.
    column_golden: HashMap<String, u64>,
    /// Digest of a serial in-process run — what every other way of running
    /// the grid must reproduce.  Computed by the first check, outside set-up
    /// and outside the timed bodies.
    serial_digest: Option<u64>,
}

impl Grid {
    fn build(seed: u64) -> Self {
        let mut spec = SweepSpec::new(
            CoreModel::ALL.to_vec(),
            icfp_workloads::STANDARD_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            GRID_INSTS,
            seed,
        );
        spec.slice_buffer_entries = vec![64, 128];
        spec.l2_hit_latencies = vec![10, 20];
        spec.validate().expect("the grid is a valid spec");
        let column_golden = spec
            .workloads
            .iter()
            .map(|w| {
                let source = column_source(&spec, w).expect("registry workload");
                (w.clone(), golden(&*source).digest)
            })
            .collect();
        Grid {
            spec,
            column_golden,
            serial_digest: None,
        }
    }

    fn serial_digest(&mut self) -> u64 {
        let spec = &self.spec;
        *self.serial_digest.get_or_insert_with(|| {
            run_sweep(spec, 1)
                .expect("the grid is a valid spec")
                .digest()
        })
    }

    /// Checks one report: its digest equals the serial run's, and every cell
    /// was computed (no typed failure) and ended in the golden final state.
    fn check(&mut self, how: &str, report: &SweepReport, v: &mut Verdict) {
        let serial = self.serial_digest();
        v.check(report.digest() == serial, || {
            format!("{how}: report digest differs from the serial run's")
        });
        for c in &report.cells {
            v.check(
                c.failed.is_none() && self.column_golden.get(&c.workload) == Some(&c.state_digest),
                || {
                    format!(
                        "{how}: cell {} on {} (sb={}, l2={}): {}",
                        c.model,
                        c.workload,
                        c.slice_buffer_entries,
                        c.l2_hit_latency,
                        c.failed
                            .as_deref()
                            .unwrap_or("final state differs from ArchState")
                    )
                },
            );
        }
    }
}

/// In-order ÷ iCFP cycles for every (configuration, workload) of a report.
fn report_speedups(report: &SweepReport) -> Vec<f64> {
    let base = CoreModel::InOrder.name();
    report
        .cells
        .iter()
        .filter(|c| c.model == CoreModel::Icfp.name())
        .filter_map(|c| {
            let b = report.cells.iter().find(|b| {
                b.model == base
                    && b.workload == c.workload
                    && b.slice_buffer_entries == c.slice_buffer_entries
                    && b.mshr_count == c.mshr_count
                    && b.l2_hit_latency == c.l2_hit_latency
            })?;
            (c.cycles > 0).then(|| b.cycles as f64 / c.cycles as f64)
        })
        .collect()
}

fn report_instructions(report: &SweepReport) -> u64 {
    report.cells.iter().map(|c| c.instructions).sum()
}

fn sweep_probe_inputs(spec: &SweepSpec) -> ProbeInputs {
    let mut probe = spec.clone();
    probe.insts = PROBE_GRID_INSTS;
    ProbeInputs {
        traces: spec
            .workloads
            .iter()
            .map(|w| {
                let source = column_source(spec, w).expect("registry workload");
                let trace = source
                    .as_arena()
                    .expect("30k-instruction columns are arenas");
                ProbeTrace {
                    trace: prefix(trace, PROBE_INSTS),
                    seed: spec.workload_seed(w),
                }
            })
            .collect(),
        spec: probe,
    }
}

fn cell_instant(tr: &Tracer, cached: bool, cell: &icfp_sweep::SweepCell) {
    tr.instant(
        "core.cell",
        &[&cell.model, &cell.workload],
        &[
            ("host_s", cell.host_seconds),
            ("cached", f64::from(u8::from(cached))),
        ],
    );
}

/// Removes every entry of a result-cache directory.
pub fn empty_cache_dir(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

// ---------------------------------------------------------------------------
// sweep-cold
// ---------------------------------------------------------------------------

/// The grid on the local pool with an empty result cache, then the report
/// document.
struct SweepCold {
    grid: Grid,
    cache_dir: PathBuf,
    last: Option<(SweepReport, icfp_sweep::CacheStats, String)>,
}

impl SweepCold {
    fn setup(seed: u64, dir: &Path) -> Self {
        SweepCold {
            grid: Grid::build(seed),
            cache_dir: dir.join("cache"),
            last: None,
        }
    }
}

impl Workload for SweepCold {
    fn prepare(&mut self) {
        empty_cache_dir(&self.cache_dir);
    }

    fn body(&mut self, tr: &Tracer) -> u64 {
        let outcome = tr.span(
            "sweep.run_sweep_streamed",
            &["2 threads, empty cache"],
            || {
                let cache = ResultCache::open(&self.cache_dir).expect("cache directory");
                let outcome = run_sweep_streamed(
                    &self.grid.spec,
                    &ExecOptions {
                        threads: THREADS,
                        cache: Some(&cache),
                        ..ExecOptions::default()
                    },
                    |e| cell_instant(tr, e.cached, e.cell),
                )
                .expect("the grid is a valid spec");
                tr.count("cache_hits", outcome.cache.hits as f64);
                tr.count("cache_misses", outcome.cache.misses as f64);
                tr.count("cache_stored", outcome.cache.stored as f64);
                outcome
            },
        );
        let doc = tr.span("sweep.schema_to_json", &[], || {
            schema::to_json(&outcome.report)
        });
        let delivered = report_instructions(&outcome.report);
        self.last = Some((outcome.report, outcome.cache, doc));
        delivered
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let (report, cache, doc) = self.last.as_ref().expect("verify follows a body");
        self.grid.check("2-thread cold", report, &mut v);
        let serial = self.grid.serial_digest();
        v.check(cache.hits == 0, || {
            format!("{} cells hit a cache that was emptied", cache.hits)
        });
        let parsed = schema::parse(doc);
        v.check(parsed.as_ref().is_ok_and(|p| p.digest() == serial), || {
            format!("report document does not parse back: {:?}", parsed.err())
        });
        v.speedups = report_speedups(report);
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        sweep_probe_inputs(&self.grid.spec)
    }

    fn finish(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

// ---------------------------------------------------------------------------
// In-process daemons
// ---------------------------------------------------------------------------

/// One `serve()` loop on an ephemeral loopback port — the loop `icfp-sweepd`
/// runs — stopped through its shutdown flag.
pub struct Daemon {
    /// `host:port` to connect to.
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<ServeSummary>,
}

impl Daemon {
    /// Starts a daemon serving `threads` pool threads over `cache_dir`.
    ///
    /// # Errors
    ///
    /// The loopback bind failing.
    pub fn start(threads: usize, cache_dir: &Path, worker: bool) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            threads,
            cache_dir: Some(cache_dir.to_path_buf()),
            io_timeout: Some(Duration::from_secs(30)),
            worker,
            ..ServeOptions::default()
        };
        let accept = AcceptOptions {
            max_inflight: THREADS,
            max_submissions: None,
            shutdown: Some(Arc::clone(&shutdown)),
        };
        let handle = std::thread::spawn(move || serve(listener, opts, accept, |_| {}));
        Ok(Daemon {
            addr,
            shutdown,
            handle,
        })
    }

    /// Stops the daemon and waits for its threads.
    pub fn stop(self) {
        // The accept loop's watcher thread polls this flag; SeqCst so the
        // store is not reordered after the join below on any platform.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

/// One attempt, no retries: a loopback peer that fails is a failure.
pub fn policy() -> RetryPolicy {
    RetryPolicy {
        retries: 0,
        ..RetryPolicy::default()
    }
}

// ---------------------------------------------------------------------------
// sweep-warm
// ---------------------------------------------------------------------------

/// Sequential submissions to a daemon whose cache already holds the grid.
struct SweepWarm {
    grid: Grid,
    cache_dir: PathBuf,
    daemon: Option<Daemon>,
    submissions: usize,
    last: Vec<icfp_sweep::SubmitOutcome>,
}

impl SweepWarm {
    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let grid = Grid::build(seed);
        let cache_dir = dir.join("cache");
        empty_cache_dir(&cache_dir);
        let cache = ResultCache::open(&cache_dir).map_err(|e| format!("cache: {e}"))?;
        run_sweep_streamed(
            &grid.spec,
            &ExecOptions {
                threads: THREADS,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
            |_| {},
        )?;
        let daemon = Daemon::start(THREADS, &cache_dir, false)?;
        Ok(SweepWarm {
            grid,
            cache_dir,
            daemon: Some(daemon),
            submissions: 0,
            last: Vec::new(),
        })
    }

    fn submit(&self, tr: &Tracer) -> icfp_sweep::SubmitOutcome {
        let addr = &self.daemon.as_ref().expect("daemon runs until finish").addr;
        tr.span("sweep.submit_with", &[], || {
            let outcome = submit_with(
                addr,
                &self.grid.spec,
                THREADS,
                &policy(),
                |_, cached, cell| cell_instant(tr, cached, cell),
            )
            .expect("a loopback daemon with a warm cache answers");
            tr.count("cache_hits", outcome.hits as f64);
            tr.count("cache_misses", outcome.misses as f64);
            outcome
        })
    }
}

impl Workload for SweepWarm {
    fn prepare(&mut self) {
        if self.submissions == 0 {
            // Size the body once: enough submissions to fill the target.
            let off = Tracer::new(false);
            let one = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    self.submit(&off);
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            self.submissions = ((BODY_TARGET_S / one).round() as usize).clamp(4, 1024);
        }
    }

    fn body(&mut self, tr: &Tracer) -> u64 {
        self.last = (0..self.submissions).map(|_| self.submit(tr)).collect();
        self.last
            .iter()
            .map(|o| report_instructions(&o.report))
            .sum()
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let cells = self.grid.spec.cell_count() as u64;
        for o in &self.last {
            self.grid.check("warm submission", &o.report, &mut v);
            // The workload's design: no simulation work in the body.
            v.check(o.hits == cells && o.misses == 0, || {
                format!(
                    "warm submission computed {} cells ({} hits)",
                    o.misses, o.hits
                )
            });
        }
        v.speedups = report_speedups(&self.last[0].report);
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        sweep_probe_inputs(&self.grid.spec)
    }

    fn finish(mut self: Box<Self>) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

// ---------------------------------------------------------------------------
// sweep-dist
// ---------------------------------------------------------------------------

/// The grid in two shards on two single-thread loopback workers.
struct SweepDist {
    grid: Grid,
    workers: Vec<Daemon>,
    cache_dirs: Vec<PathBuf>,
    last: Option<(SweepReport, String)>,
}

impl SweepDist {
    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let cache_dirs: Vec<PathBuf> = (0..THREADS)
            .map(|k| dir.join(format!("worker-{k}")))
            .collect();
        let workers = cache_dirs
            .iter()
            .map(|d| Daemon::start(1, d, true))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepDist {
            grid: Grid::build(seed),
            workers,
            cache_dirs,
            last: None,
        })
    }
}

impl Workload for SweepDist {
    fn prepare(&mut self) {
        for d in &self.cache_dirs {
            empty_cache_dir(d);
        }
    }

    fn body(&mut self, tr: &Tracer) -> u64 {
        let backend = RemoteBackend {
            workers: self.workers.iter().map(|w| w.addr.clone()).collect(),
            shards: THREADS,
            threads: 1,
            policy: policy(),
        };
        let outcome = tr.span(
            "sweep.remote_run_streamed",
            &["2 shards, 2 workers"],
            || {
                let outcome = backend
                    .run_streamed(&self.grid.spec, &mut |e| cell_instant(tr, e.cached, e.cell))
                    .expect("two loopback workers complete the grid");
                tr.count("cache_hits", outcome.cache.hits as f64);
                tr.count("cache_misses", outcome.cache.misses as f64);
                outcome
            },
        );
        let doc = tr.span("sweep.schema_to_json", &[], || {
            schema::to_json(&outcome.report)
        });
        let delivered = report_instructions(&outcome.report);
        self.last = Some((outcome.report, doc));
        delivered
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let (report, doc) = self.last.as_ref().expect("verify follows a body");
        self.grid.check("2-shard", report, &mut v);
        v.check(!doc.is_empty(), || "empty report document".into());
        v.speedups = report_speedups(report);
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        sweep_probe_inputs(&self.grid.spec)
    }

    fn finish(self: Box<Self>) {
        for w in self.workers {
            w.stop();
        }
        for d in &self.cache_dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
