//! The sweep executor: one preparation per sweep (columns resolved, jobs,
//! fork groups — the jobs of one column that share a cache key — in
//! column-major order), then a `std::thread` pool pulling those groups from an
//! atomic counter — each computed once, optionally through a persistent
//! result cache — streaming cells to a callback as they finish.  A result
//! cache keys a group under its column's trace digest, which for a registry
//! column the cache remembers from an earlier sweep; a column's trace is built
//! only when a group needs it — to learn that digest, or to compute a cell the
//! cache lacks — and released when its last group has finished, so a pool of
//! T threads holds at most T columns and a fully cached grid builds none.

use crate::cache::{ColumnId, ResultCache};
use crate::fault::FaultPlan;
use crate::job::SweepJob;
use crate::plan::{merge_cells, SweepShard};
use crate::report::{SweepCell, SweepReport};
use crate::spec::{SweepSpec, STREAM_COLUMN_THRESHOLD};
use icfp_isa::{ArenaSource, TraceFile, TraceSource, DEFAULT_BLOCK_INSTS};
use icfp_workloads::WorkloadSpec;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};

/// How many times a panicking cell is retried before being recorded as a
/// typed failed cell (so one latent bug on one grid point costs that point,
/// not the sweep).
const PANIC_RETRIES: u32 = 2;

/// Executor options beyond the spec itself.
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Worker threads (0 = 1; the pool never outnumbers the fork groups).
    pub threads: usize,
    /// Persistent result cache to serve and populate, if any.
    pub cache: Option<&'a ResultCache>,
    /// Deterministic fault-injection plan (tests only; `None` in
    /// production).
    pub fault: Option<&'a FaultPlan>,
    /// Cooperative cancellation: when set, workers stop pulling new groups
    /// and the sweep returns a "cancelled" error instead of a report.  Used
    /// by the server's graceful-drain path; in-flight cells still finish
    /// (and land in the cache).
    pub cancel: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("threads", &self.threads)
            .field("cache", &self.cache.is_some())
            .field("fault", &self.fault.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

/// What a column name resolves to, before anything is built.
pub(crate) enum Column {
    /// A row of the workload registry, generated when the column is built.
    Registry(&'static WorkloadSpec),
    /// An `icfp-trace/v1|v2` container, structurally validated (header and
    /// index read, no block decoded).
    Container(Arc<dyn TraceSource>),
}

/// The resolution half of [`column_source`], which is all that
/// [`SweepSpec::validate`] needs: nothing is generated or decoded.
pub(crate) fn resolve_column(spec: &SweepSpec, workload: &str) -> Result<Column, String> {
    let (column, len) = match icfp_workloads::spec_by_name(workload) {
        Some(row) => (Column::Registry(row), spec.insts),
        None => {
            let file = TraceFile::open(workload).map_err(|e| {
                format!(
                    "unknown workload {workload:?}; valid workloads: {}, or the path of an \
                     icfp-trace container ({e})",
                    icfp_workloads::STANDARD_NAMES.join(", ")
                )
            })?;
            let len = file.len();
            (Column::Container(Arc::new(file)), len)
        }
    };
    icfp_sim::check_timed_region(spec.fast_forward, len).map_err(|e| format!("{workload}: {e}"))?;
    Ok(column)
}

/// Resolves a column name — the one place it is done — and builds the
/// column's shared trace source.  A name is a registry workload first,
/// otherwise the path of an `icfp-trace/v1|v2` container, which must be
/// readable under that path wherever the spec is validated, planned or
/// executed.  A container streams block by block; a registry workload is
/// generated at the spec's budget and per-column seed, as a materialized
/// arena below [`STREAM_COLUMN_THRESHOLD`] instructions and a resumable
/// streaming generator (bounded residency) from there up.  Deterministic
/// outputs — the trace digest above all — are identical across backings, so
/// the shard planner, the worker and the local executor all derive the same
/// column identity from the same spec.
///
/// # Errors
///
/// The name is neither (the message lists the registry), or the spec's
/// fast-forward leaves no timed region: a registry column is held to the
/// instruction budget, a container to its own length.
pub fn column_source(spec: &SweepSpec, workload: &str) -> Result<Arc<dyn TraceSource>, String> {
    Ok(build_column(spec, workload, &resolve_column(spec, workload)?))
}

/// The build half of [`column_source`]: the only place a registry column is
/// generated.
fn build_column(spec: &SweepSpec, workload: &str, column: &Column) -> Arc<dyn TraceSource> {
    let seed = spec.workload_seed(workload);
    match column {
        Column::Container(file) => Arc::clone(file),
        Column::Registry(row) if spec.insts >= STREAM_COLUMN_THRESHOLD => {
            Arc::new(row.source(spec.insts, seed, DEFAULT_BLOCK_INSTS))
        }
        Column::Registry(row) => Arc::new(ArenaSource::new(row.trace(spec.insts, seed))),
    }
}

/// Renders a `catch_unwind` payload as the panic message it carries.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Counters describing how a sweep's cells were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the on-disk cache.
    pub hits: u64,
    /// Cells computed (cache absent, cold, or entry damaged).
    pub misses: u64,
    /// Damaged entries encountered and treated as misses.
    pub invalid: u64,
    /// Entries newly written to the cache.
    pub stored: u64,
}

impl CacheStats {
    /// Percentage of cells served from cache (0 when no cells ran).
    pub fn hit_percent(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }

    /// One-line human summary, e.g. `"32 hits, 0 misses (100% cache hits)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} hits, {} misses ({:.0}% cache hits)",
            self.hits,
            self.misses,
            self.hit_percent()
        )
    }
}

/// A sweep's full outcome: the report plus how it was produced.  The cache
/// counters live *beside* the report, never inside it — a fully cached rerun
/// must reproduce the cold report (and its JSON document) byte-for-byte.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The assembled report, cells in [`SweepSpec::expand`] order.
    pub report: SweepReport,
    /// Cache counters for this execution.
    pub cache: CacheStats,
}

/// One finished cell, streamed to the [`run_sweep_streamed`] callback (on
/// the calling thread) as it completes — completion order, not index order.
#[derive(Debug)]
pub struct CellEvent<'a> {
    /// The cell's position in [`SweepSpec::expand`] order.
    pub index: usize,
    /// Whether the cell was served from the result cache.
    pub cached: bool,
    /// The finished cell.
    pub cell: &'a SweepCell,
}

/// Per-execution cache counters, shared across the worker pool.
#[derive(Default)]
struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    stored: AtomicU64,
}

impl Tallies {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
        }
    }
}

/// Executes a sweep on a pool of `threads` worker threads (at least one;
/// the calling thread collects).  Each workload column's trace is generated
/// once and shared via `Arc` across every job, and cells with identical
/// deterministic inputs are simulated once.  The report's cells are in
/// [`SweepSpec::expand`] order and its digest is independent of `threads`.
///
/// # Errors
///
/// Returns the [`SweepSpec::validate`] error without running anything.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, String> {
    let opts = ExecOptions {
        threads,
        ..ExecOptions::default()
    };
    run_sweep_streamed(spec, &opts, |_| {}).map(|outcome| outcome.report)
}

/// Executes a sweep, streaming each finished cell to `on_cell` (invoked on
/// the calling thread, in completion order — carry the event's index to
/// reassemble).  With [`ExecOptions::cache`] set, groups of cells with
/// identical deterministic inputs are served from, and populate, the
/// persistent result cache; the returned [`SweepOutcome::cache`] counters
/// say how many cells hit.  The report — cells, digest, JSON document — is
/// byte-identical across thread counts, cache states and transports.
///
/// # Errors
///
/// Returns the [`SweepSpec::validate`] error without running anything.
pub fn run_sweep_streamed(
    spec: &SweepSpec,
    opts: &ExecOptions<'_>,
    on_cell: impl FnMut(CellEvent<'_>),
) -> Result<SweepOutcome, String> {
    // `whole` names every cell, so the count must be bounded first.
    spec.validate_axes()?;
    Prepared::new(&SweepShard::whole(spec), opts)?.run(on_cell)
}

/// Partitions an expanded grid into its *fork groups*: the jobs of one column
/// (workload is the innermost expand axis: job `i` runs on column
/// `i % columns`) that share a cache key ([`SweepJob::cache_key`] — the one
/// identity a cell has), as expand indices, leader first (ascending).  Members
/// differ only along axes their model never reads, so one simulation serves
/// them all.  The order is column-major — column 0's groups in leader order,
/// then column 1's — and a pure function of the grid: the executor runs them
/// in it (a column's groups are consecutive, which bounds the columns alive at
/// once) and the shard planner deals them in it ([`crate::plan_shards`]).
///
/// Every key of a column folds in the same trace digest, so its jobs share
/// `cache_key(digest)` exactly when they share `cache_key(0)`: no column is
/// digested to group (an arena's digest costs four times its generation), and
/// a group's real key is derived by the worker that looks it up.
pub(crate) fn fork_groups(jobs: &[SweepJob], columns: usize) -> Vec<Vec<usize>> {
    let mut by_key: HashMap<(usize, u64), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for job in jobs {
        let at = *by_key
            .entry((job.index % columns, job.cache_key(0)))
            .or_insert(groups.len());
        if at == groups.len() {
            groups.push(Vec::new());
        }
        groups[at].push(job.index);
    }
    groups.sort_by_key(|g| g[0] % columns);
    groups
}

/// Where a column's trace is in its life.
enum ColumnState {
    /// Resolved; nothing generated or decoded yet.
    Resolved(Column),
    /// Built and, where a digest was supplied, checked: some group needs it yet.
    Live(Arc<dyn TraceSource>),
    /// Every group of the column has finished or failed, or none runs here.
    Released,
}

/// One workload column of a prepared sweep.
struct ColumnSlot {
    state: Mutex<ColumnState>,
    /// Groups yet to finish or fail; the last one out releases the trace.
    remaining: AtomicUsize,
    /// The submission's content digest, which the built trace must match.
    expect: Option<u64>,
}

/// One finished group: served from the cache?, and its cells by expand index.
type Batch = (bool, Vec<(usize, SweepCell)>);

/// A sweep's execution state, built exactly once per sweep: the local
/// executor prepares and runs in one call ([`run_sweep_streamed`]); the
/// daemon prepares before its `Accepted` frame — which states
/// [`Prepared::cells`] and [`Prepared::workers`] — and then runs the same
/// value.  Preparing resolves every column and builds none.
pub(crate) struct Prepared<'a> {
    spec: &'a SweepSpec,
    opts: ExecOptions<'a>,
    /// The grid in [`SweepSpec::expand`] order.
    jobs: Vec<SweepJob>,
    /// One slot per workload column, in spec order.
    columns: Vec<ColumnSlot>,
    /// The groups this sweep runs, in [`fork_groups`] order: the whole grid's,
    /// or a shard's.  The plan — and every deterministic output — is
    /// independent of thread count and scheduling.
    groups: Vec<Vec<usize>>,
    /// Columns built by this sweep.
    #[cfg(test)]
    built: AtomicUsize,
}

impl<'a> Prepared<'a> {
    /// Prepares the cells `work` names — the whole grid
    /// ([`SweepShard::whole`]) or one shard of it — its columns held to
    /// whatever digests it carries.  Validates the axes, expands the grid,
    /// checks the cell list into fork groups, and resolves each column some
    /// group runs on ([`resolve_column`]): an unknown column is refused here,
    /// nothing is generated.
    ///
    /// # Errors
    ///
    /// The [`SweepSpec::validate`] or [`SweepShard::validate`] error.
    pub(crate) fn new(work: &'a SweepShard, opts: &ExecOptions<'a>) -> Result<Self, String> {
        let spec = &work.spec;
        spec.validate_axes()?;
        let jobs = spec.expand();
        let w = spec.workloads.len();
        let groups = work.groups(&jobs)?;
        let slot = |(c, name): (usize, &String)| {
            let remaining = groups.iter().filter(|g| g[0] % w == c).count();
            let state = match remaining {
                0 => ColumnState::Released,
                _ => ColumnState::Resolved(resolve_column(spec, name)?),
            };
            let planned = work.columns.iter().find(|col| col.workload == *name);
            Ok(ColumnSlot {
                state: Mutex::new(state),
                remaining: AtomicUsize::new(remaining),
                expect: planned.map(|col| col.trace_digest),
            })
        };
        let columns = spec.workloads.iter().enumerate().map(slot).collect::<Result<_, String>>()?;
        Ok(Prepared {
            spec,
            opts: *opts,
            jobs,
            columns,
            groups,
            #[cfg(test)]
            built: AtomicUsize::new(0),
        })
    }

    /// How many cells this sweep produces: the grid's, or the shard's.
    pub(crate) fn cells(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// The worker count this sweep runs on: [`ExecOptions::threads`], except
    /// that the pool never outnumbers the fork groups (a validated spec or
    /// shard has at least one).  The report header records this figure.
    pub(crate) fn workers(&self) -> usize {
        self.opts.threads.clamp(1, self.groups.len())
    }

    /// The registry identity of column `c` ([`ResultCache::column_digest`]),
    /// if it is a registry column.
    fn registry_id(&self, c: usize, column: &Column) -> Option<ColumnId> {
        let Column::Registry(row) = column else { return None };
        Some((row.name, self.spec.insts, self.spec.workload_seed(&self.spec.workloads[c])))
    }

    /// Refuses column `c` unless `digest` is the one the submission planned
    /// for it, if any.
    fn hold(&self, c: usize, digest: u64) -> Result<(), String> {
        match self.columns[c].expect {
            Some(planned) if planned != digest => Err(format!(
                "shard column {:?}: trace digest {digest:#018x} does not match the planner's \
                 {planned:#018x}",
                self.spec.workloads[c]
            )),
            _ => Ok(()),
        }
    }

    /// Column `c`'s trace digest, which a result cache keys its groups under:
    /// the one the cache remembers for a registry column — nothing is built —
    /// or else the built trace's ([`Prepared::column`]).  Either is held to
    /// the submission's digest before any cell of the column is computed,
    /// cached or streamed.
    fn digest(&self, c: usize, cache: &ResultCache) -> Result<u64, String> {
        let state = self.columns[c].state.lock().unwrap_or_else(PoisonError::into_inner);
        let remembered = match &*state {
            ColumnState::Live(source) => return Ok(source.digest()),
            ColumnState::Resolved(column) => self.registry_id(c, column).and_then(|id| cache.column_digest(id)),
            ColumnState::Released => None,
        };
        drop(state);
        match remembered {
            Some(digest) => self.hold(c, digest).map(|()| digest),
            None => Ok(self.column(c)?.digest()),
        }
    }

    /// Column `c`'s trace, built by whichever of its groups asks first (the
    /// others wait on the slot) and — where the submission supplied one —
    /// held to its digest before any cell of the column is computed, cached or
    /// streamed: a mismatch drops the trace again and ends the sweep.  A built
    /// registry column's digest is remembered by the result cache, if any; a
    /// sweep with neither a cache nor a planned digest never digests a column.
    fn column(&self, c: usize) -> Result<Arc<dyn TraceSource>, String> {
        let (slot, workload) = (&self.columns[c], &self.spec.workloads[c]);
        // Every update of the state is one assignment made once a source
        // exists, so a generator that panicked under the lock left it valid.
        let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        let column = match &*state {
            ColumnState::Live(source) => return Ok(Arc::clone(source)),
            ColumnState::Resolved(column) => column,
            ColumnState::Released => return Err(format!("column {workload:?} is not held")),
        };
        let source = build_column(self.spec, workload, column);
        #[cfg(test)]
        self.built.fetch_add(1, Ordering::Relaxed);
        if slot.expect.is_some() || self.opts.cache.is_some() {
            let digest = source.digest();
            if let Err(e) = self.hold(c, digest) {
                *state = ColumnState::Released;
                return Err(e);
            }
            if let (Some(cache), Some(id)) = (self.opts.cache, self.registry_id(c, column)) {
                cache.remember_column(id, digest);
            }
        }
        *state = ColumnState::Live(Arc::clone(&source));
        Ok(source)
    }

    /// Counts one group of column `c` as finished or failed; the column's
    /// last group releases its trace.
    fn group_done(&self, c: usize) {
        let slot = &self.columns[c];
        if slot.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            *slot.state.lock().unwrap_or_else(PoisonError::into_inner) = ColumnState::Released;
        }
    }

    /// Executes group `k`: the figures under the leader's cache key are
    /// looked up in the cache (when there is one) or computed by one
    /// simulation of the leader ([`SweepJob::figures`]), stored
    /// first-write-wins, and replayed into every cell of the group — sharing
    /// the leader's host figures is what makes a later fully-cached rerun
    /// reproduce this report byte-for-byte.  A damaged entry is counted and
    /// treated as a miss.  Only a miss needs the column's trace.
    ///
    /// # Errors
    ///
    /// The group's column was refused ([`Prepared::digest`],
    /// [`Prepared::column`]).
    fn run_group(&self, k: usize, tallies: &Tallies) -> Result<Batch, String> {
        let group = &self.groups[k];
        // Executor fault seam: an armed job panics here, inside the caller's
        // catch_unwind scope — indistinguishable from a latent timing-model
        // bug tripping on this grid point.
        if let Some(plan) = self.opts.fault {
            for &j in group {
                if let Some(msg) = plan.injected_panic(j) {
                    panic!("{msg}");
                }
            }
        }
        let members = group.len() as u64;
        let leader = &self.jobs[group[0]];
        let c = group[0] % self.columns.len();
        let keyed = match self.opts.cache {
            Some(cache) => Some((cache, leader.cache_key(self.digest(c, cache)?))),
            None => None,
        };
        let found = keyed.and_then(|(cache, key)| match cache.load(key) {
            Ok(found) => found,
            Err(_) => {
                // Damaged entry: count it, evict it so the recompute's store
                // can land, and fall through to the miss path.
                tallies.invalid.fetch_add(1, Ordering::Relaxed);
                let _ = cache.remove(key);
                None
            }
        });
        let cached = found.is_some();
        let figures = match found {
            Some(figures) => {
                tallies.hits.fetch_add(members, Ordering::Relaxed);
                figures
            }
            None => {
                let figures = leader.figures(&*self.column(c)?);
                // Tally the miss only after the compute succeeds: a panicking
                // attempt unwinds past this point, so a retry never
                // double-counts and hits + misses always total the cell count.
                tallies.misses.fetch_add(members, Ordering::Relaxed);
                if let Some((cache, key)) = keyed {
                    if let Ok(true) = cache.store(key, &figures) {
                        tallies.stored.fetch_add(1, Ordering::Relaxed);
                    }
                }
                figures
            }
        };
        let cells = group
            .iter()
            .map(|&j| (j, self.jobs[j].cell_from_figures(&figures)))
            .collect();
        Ok((cached, cells))
    }

    /// Runs the prepared sweep; see [`run_sweep_streamed`].  A shard's report
    /// holds its own cells only, in expand order.
    ///
    /// # Errors
    ///
    /// A column was refused ([`Prepared::column`]), or the sweep was cancelled
    /// ([`ExecOptions::cancel`]).
    pub(crate) fn run(&self, mut on_cell: impl FnMut(CellEvent<'_>)) -> Result<SweepOutcome, String> {
        let want = self.cells();
        let workers = self.workers();
        let mut cells: Vec<Option<SweepCell>> = vec![None; self.jobs.len()];
        let tallies = Tallies::default();
        // The first refused column: the workers stop, the sweep returns it.
        let refused: OnceLock<String> = OnceLock::new();

        // Crash-safe wrapper: a panicking group is retried up to
        // `PANIC_RETRIES` times, then recorded as typed *failed cells* — the
        // sweep completes and reports the hole instead of unwinding a worker
        // and poisoning the whole run.
        let run_group_safely = |k: usize| -> Result<Batch, String> {
            let mut reason = String::new();
            for _ in 0..=PANIC_RETRIES {
                match catch_unwind(AssertUnwindSafe(|| self.run_group(k, &tallies))) {
                    Ok(done) => return done,
                    Err(payload) => reason = panic_reason(payload),
                }
            }
            let group = &self.groups[k];
            // Failed cells were still *computed attempts*, not cache hits.
            tallies
                .misses
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            let cells = group
                .iter()
                .map(|&j| (j, self.jobs[j].failed_cell(&reason)))
                .collect();
            Ok((false, cells))
        };

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Batch>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (tx, next, this, run_safely) = (tx.clone(), &next, self, &run_group_safely);
                let refused = &refused;
                scope.spawn(move || loop {
                    let cancelled = this.opts.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if cancelled || refused.get().is_some() || k >= this.groups.len() {
                        break;
                    }
                    // The column is released before the group's cells are
                    // posted: whoever sees a column's last cell sees it gone.
                    let done = run_safely(k);
                    this.group_done(this.groups[k][0] % this.columns.len());
                    // A send only fails if the receiver is gone (sweep
                    // abandoned): stop pulling work.
                    match done.map(|batch| tx.send(batch)) {
                        Ok(Ok(())) => {}
                        Ok(Err(_)) => break,
                        Err(e) => {
                            let _ = refused.set(e);
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (cached, batch) in rx {
                for (index, cell) in batch {
                    on_cell(CellEvent {
                        index,
                        cached,
                        cell: &cell,
                    });
                    cells[index] = Some(cell);
                }
            }
        });
        if let Some(e) = refused.into_inner() {
            return Err(e);
        }

        // A cancelled sweep leaves holes: report the cancellation as a typed
        // error instead of panicking on them.  (Absent cancellation every
        // group posts exactly one batch, failed or not, so the report is
        // complete.)
        let done: Vec<Option<SweepCell>> = cells.into_iter().filter(Option::is_some).collect();
        if done.len() < want {
            return Err(format!("sweep cancelled after {}/{want} cells", done.len()));
        }

        Ok(SweepOutcome {
            report: merge_cells(self.spec, workers, done)?,
            cache: tallies.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PanicJob;
    use crate::testutil::tiny_spec;
    use icfp_core::CoreModel;
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn same_spec_twice_gives_identical_digests() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, 1).unwrap();
        let b = run_sweep(&spec, 1).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.cycles, cb.cycles);
            assert_eq!(ca.state_digest, cb.state_digest);
        }
    }

    #[test]
    fn serial_and_eight_thread_pools_agree_byte_for_byte() {
        // The acceptance grid: 2 models × 4 configs × 4 workloads.
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1).unwrap();
        let pooled = run_sweep(&spec, 8).unwrap();
        assert_eq!(serial.digest(), pooled.digest());
        assert_eq!(serial.cells.len(), pooled.cells.len());
        for (cs, cp) in serial.cells.iter().zip(&pooled.cells) {
            assert_eq!(cs.model, cp.model);
            assert_eq!(cs.workload, cp.workload);
            assert_eq!(cs.cycles, cp.cycles, "{} {}", cs.model, cs.workload);
            assert_eq!(cs.ipc, cp.ipc);
            assert_eq!(cs.state_digest, cp.state_digest);
        }
    }

    #[test]
    fn streamed_columns_are_digest_identical_and_share_the_cache() {
        // Swapping every column's backing (materialized arena -> resumable
        // streamed source) does not touch what is simulated, so reports and
        // cache keys must be identical.
        let spec = tiny_spec();
        let opts = |threads, cache| ExecOptions { threads, cache, ..ExecOptions::default() };
        let run_streamed = |opts: &ExecOptions<'_>| {
            let work = SweepShard::whole(&spec);
            let prepared = Prepared::new(&work, opts).unwrap();
            for (slot, w) in prepared.columns.iter().zip(&spec.workloads) {
                let seed = spec.workload_seed(w);
                let src = icfp_workloads::source_by_name(w, spec.insts, seed, DEFAULT_BLOCK_INSTS);
                let streamed = Column::Container(Arc::new(src.unwrap()));
                *slot.state.lock().unwrap() = ColumnState::Resolved(streamed);
            }
            prepared.run(|_| {}).unwrap()
        };
        let a = run_sweep(&spec, 2).unwrap();
        assert_eq!(a.digest(), run_streamed(&opts(2, None)).report.digest());

        // Cache interop: a streamed run against a cache an arena run wrote
        // is served entirely from disk (the trace digest, and therefore the
        // cache key, is backing-independent).
        let dir = tmp_cache("streamed");
        let cache = ResultCache::open(&dir).unwrap();
        let cold = run_sweep_streamed(&spec, &opts(1, Some(&cache)), |_| {}).unwrap();
        let warm = run_streamed(&opts(1, Some(&cache)));
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.hits, spec.cell_count() as u64);
        assert_eq!(warm.report.digest(), cold.report.digest());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Per-cell deterministic fields (everything in the digest) must match.
    fn assert_deterministically_equal(a: &SweepReport, b: &SweepReport) {
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.model, cb.model);
            assert_eq!(ca.workload, cb.workload);
            assert_eq!(ca.slice_buffer_entries, cb.slice_buffer_entries);
            assert_eq!(ca.mshr_count, cb.mshr_count);
            assert_eq!(ca.l2_hit_latency, cb.l2_hit_latency);
            assert_eq!(ca.seed, cb.seed);
            assert_eq!(ca.instructions, cb.instructions);
            assert_eq!(ca.cycles, cb.cycles, "{} {}", ca.model, ca.workload);
            assert_eq!(ca.ipc, cb.ipc);
            assert_eq!(ca.l1d_mpki, cb.l1d_mpki);
            assert_eq!(ca.l2_mpki, cb.l2_mpki);
            assert_eq!(ca.state_digest, cb.state_digest);
        }
    }

    #[test]
    fn fork_groups_collect_cells_along_inert_axes_only() {
        let spec = tiny_spec();
        let work = SweepShard::whole(&spec);
        let Prepared { jobs, groups, .. } = Prepared::new(&work, &ExecOptions::default()).unwrap();
        // icfp reads the slice axis: its 4 configs × 4 workloads stay
        // singleton groups (16).  in-order ignores it: {sb 64, sb 128}
        // collapse per (l2 latency, workload) — 2 × 4 = 8 groups of two.
        assert_eq!(jobs.len(), 32);
        assert_eq!(groups.len(), 16 + 8, "grouping changed unexpectedly");
        let pairs = groups.iter().filter(|g| g.len() == 2).count();
        assert_eq!(pairs, 8);
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "leader is lowest index");
            let leader = &jobs[g[0]];
            for &m in &g[1..] {
                assert_eq!(jobs[m].model, leader.model);
                assert_eq!(jobs[m].workload, leader.workload);
                assert!(!jobs[m].model.reads_slice_buffer());
            }
        }
    }

    #[test]
    fn grouped_cells_equal_the_same_job_run_standalone() {
        // Every multi-member group a valid spec can form: the inert slice
        // axis (three models without a slice buffer, three members each);
        // iCFP reads that axis, so its cells stand alone.
        let mut spec = tiny_spec();
        spec.models = vec![
            CoreModel::InOrder,
            CoreModel::Runahead,
            CoreModel::Multipass,
            CoreModel::Icfp,
        ];
        spec.slice_buffer_entries = vec![64, 128, 256];
        spec.l2_hit_latencies = vec![20];
        spec.workloads.truncate(2);
        let work = SweepShard::whole(&spec);
        let Prepared { jobs, groups, .. } = Prepared::new(&work, &ExecOptions::default()).unwrap();
        assert!(groups.len() < jobs.len());
        let standalone = SweepReport {
            threads: 1,
            insts: spec.insts,
            seed: spec.seed,
            workloads: spec.workloads.clone(),
            cells: jobs
                .iter()
                .map(|j| (j, column_source(&spec, &j.workload).unwrap()))
                .map(|(j, source)| j.cell_from_figures(&j.figures(&*source)))
                .collect(),
        };
        let dir = tmp_cache("standalone");
        let cache = ResultCache::open(&dir).unwrap();
        for cache in [None, Some(&cache)] {
            for threads in [1, 8] {
                let opts = ExecOptions {
                    threads,
                    cache,
                    ..ExecOptions::default()
                };
                let grouped = run_sweep_streamed(&spec, &opts, |_| {}).unwrap().report;
                assert_deterministically_equal(&standalone, &grouped);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fast_forward_sweeps_keep_digests_shrink_cycles_and_key_separately() {
        let base_spec = tiny_spec();
        let ff_spec = {
            let mut s = tiny_spec();
            s.fast_forward = 300; // half of the 600-inst budget
            s
        };
        let base = run_sweep(&base_spec, 1).unwrap();
        let ff = run_sweep(&ff_spec, 1).unwrap();
        assert_eq!(base.cells.len(), ff.cells.len());
        for (b, f) in base.cells.iter().zip(&ff.cells) {
            // Architectural execution is timing-independent: skipping the
            // timing model for the first half must not move the final state.
            assert_eq!(b.state_digest, f.state_digest, "{} {}", b.model, b.workload);
            assert_eq!(b.instructions, f.instructions);
            // The timed region shrank; cycles cannot grow.
            assert!(f.cycles <= b.cycles, "{} {}", f.model, f.workload);
        }
        // Fast-forward is part of the cell identity: different depths never
        // share a fork group or a result-cache entry.
        let j0 = base_spec.expand();
        let j1 = ff_spec.expand();
        assert_ne!(j0[0].cache_key(0xD1CE), j1[0].cache_key(0xD1CE));

        // A fast-forward that leaves no timed region is rejected up front.
        let mut bad = tiny_spec();
        bad.fast_forward = bad.insts;
        assert!(bad.validate().unwrap_err().contains("timed region"));
    }

    /// Runs `work` holding every column it touches past the sweep's end, and
    /// returns the outcome with each held column's functional-walk count.
    fn run_counting_walks(work: &SweepShard, opts: &ExecOptions<'_>) -> (SweepOutcome, Vec<usize>) {
        let prepared = Prepared::new(work, opts).unwrap();
        let held: Vec<_> = (0..work.spec.workloads.len())
            .filter_map(|c| prepared.column(c).ok())
            .collect();
        let outcome = prepared.run(|_| {}).unwrap();
        let walks = held.iter().map(|s| s.warm().expect("columns keep a store").walks());
        (outcome, walks.collect())
    }

    #[test]
    fn a_fast_forwarded_column_is_walked_once_per_sweep() {
        let path = tmp_cache("ff-walks.trace");
        let chase = icfp_workloads::by_name("pointer-chase", 600, 7).unwrap();
        icfp_isa::TraceFileWriter::write_trace_as(&path, &chase, 64, icfp_isa::TraceFormat::V2)
            .unwrap();
        let registry = {
            let columns = vec!["dcache-thrash".to_string(), "streaming".to_string()];
            let mut s = SweepSpec::new(CoreModel::ALL.to_vec(), columns, 600, 0xC0DE);
            s.slice_buffer_entries = vec![64, 128];
            s.fast_forward = 300;
            s
        };
        let mut with_container = registry.clone();
        with_container.workloads.push(path.to_str().unwrap().to_string());
        // What the build before the warm-state store prints for `registry`
        // (`--insts 600 --seed 0xC0DE --workload dcache-thrash,streaming
        // --sweep-slice 64,128 --fast-forward 300`), with its two SLTP
        // dcache-thrash cells re-recorded when SLTP became iCFP's machine
        // (`0xce6a2d5d7995a9c3` before); a container's path is part of its
        // cells, so that grid is held to itself.
        let pinned = [(&registry, Some(0xc36afa8ef895643e)), (&with_container, None)];
        fn opts(threads: usize, cache: Option<&ResultCache>) -> ExecOptions<'_> {
            ExecOptions { threads, cache, ..ExecOptions::default() }
        }
        for (spec, parent_digest) in pinned {
            let whole = SweepShard::whole(spec);
            let dir = tmp_cache("ff-walks");
            let cache = ResultCache::open(&dir).unwrap();
            let once = vec![1; spec.workloads.len()];
            // 5 models per column: one walk, on any pool, with or without a
            // cache to fill ...
            let (serial, walks) = run_counting_walks(&whole, &opts(1, None));
            assert_eq!(walks, once);
            let (pooled, walks) = run_counting_walks(&whole, &opts(4, Some(&cache)));
            assert_eq!(walks, once);
            // ... none when every cell is a hit ...
            let (warm, walks) = run_counting_walks(&whole, &opts(1, Some(&cache)));
            assert_eq!((warm.cache.misses, walks), (0, vec![0; spec.workloads.len()]));
            // ... and one per worker under `RemoteBackend`: a worker runs a
            // shard, and both shards hold groups of every column.
            for shard in crate::plan_shards(spec, 2).unwrap() {
                assert_eq!(run_counting_walks(&shard, &opts(1, None)).1, once);
            }
            let digest = serial.report.digest();
            assert_eq!((pooled.report.digest(), warm.report.digest()), (digest, digest));
            assert_eq!(digest, parent_digest.unwrap_or(digest));
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_computed_fork_group_runs_its_model_once() {
        // in-order never reads the slice buffer: two slice sizes are two
        // cells, one fork group, one simulation — one fetch of block 0.
        let mut spec = SweepSpec::new(vec![CoreModel::InOrder], vec!["branchy".into()], 600, 0xC0DE);
        spec.slice_buffer_entries = vec![64, 128];
        let work = SweepShard::whole(&spec);
        let prepared = Prepared::new(&work, &ExecOptions::default()).unwrap();
        assert_eq!(prepared.groups.len(), 1);
        let fetched = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&fetched);
        let inner = ArenaSource::new(icfp_workloads::by_name("branchy", 600, 1).unwrap());
        let on_block = move |k: usize| _ = count.fetch_add(usize::from(k == 0), Ordering::SeqCst);
        *prepared.columns[0].state.lock().unwrap() =
            ColumnState::Resolved(Column::Container(Arc::new(crate::tap::Tap { inner, on_block })));
        let outcome = prepared.run(|_| {}).unwrap();
        assert_eq!((outcome.cache.misses, outcome.report.cells.len()), (2, 2));
        assert_eq!(fetched.load(Ordering::SeqCst), 1, "the model ran once");
    }

    #[test]
    fn l2_latency_axis_moves_cycles_monotonically() {
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![128];
        spec.workloads = vec!["pointer-chase".into()];
        spec.l2_hit_latencies = vec![10, 40];
        let r = run_sweep(&spec, 2).unwrap();
        assert_eq!(r.cells.len(), 2);
        assert!(
            r.cells[0].cycles <= r.cells[1].cycles,
            "higher L2 latency cannot be faster: {} vs {}",
            r.cells[0].cycles,
            r.cells[1].cycles
        );
        // Same trace either way.
        assert_eq!(r.cells[0].state_digest, r.cells[1].state_digest);
    }

    fn tmp_cache(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "icfp-sweep-exec-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn cold_then_cached_runs_reproduce_the_report_byte_for_byte() {
        let dir = tmp_cache("cold-warm");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = tiny_spec();
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };

        let mut events = 0usize;
        let cold = run_sweep_streamed(&spec, &opts, |e| {
            assert!(!e.cached, "fresh cache cannot hit");
            events += 1;
        })
        .unwrap();
        assert_eq!(events, 32);
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 32);
        assert!(cold.cache.stored > 0);

        // Second submission: everything served from disk, report identical
        // to the last byte of the JSON document.
        let mut seen = [false; 32];
        let warm = run_sweep_streamed(&spec, &opts, |e| {
            assert!(e.cached, "warm cache must hit");
            assert!(!seen[e.index], "cell streamed twice");
            seen[e.index] = true;
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(warm.cache.hits, 32);
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.stored, 0);
        assert_eq!(warm.report, cold.report);
        assert_eq!(warm.report.to_json(), cold.report.to_json());

        // Threaded cached run: digest-identical too (host figures replay).
        let warm8 = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 8,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(warm8.cache.hits, 32);
        assert_deterministically_equal(&cold.report, &warm8.report);
        // Only the advisory thread count differs.
        assert_eq!(warm8.report.cells, cold.report.cells);

        // And cached runs agree with an uncached cold run on every
        // deterministic field.
        let uncached = run_sweep(&spec, 1).unwrap();
        assert_deterministically_equal(&uncached, &warm.report);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Prepares and runs `work`, returning the outcome and how many columns
    /// the sweep built.
    fn run_counting_builds(work: &SweepShard, opts: &ExecOptions<'_>) -> (SweepOutcome, usize) {
        let prepared = Prepared::new(work, opts).unwrap();
        (prepared.run(|_| {}).unwrap(), prepared.built.load(Ordering::Relaxed))
    }

    #[test]
    fn a_fully_cached_rerun_builds_no_registry_column() {
        let dir = tmp_cache("remembered");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = tiny_spec();
        let run = |spec: &SweepSpec, cache: &ResultCache, threads| {
            let opts = ExecOptions { threads, cache: Some(cache), ..ExecOptions::default() };
            run_counting_builds(&SweepShard::whole(spec), &opts)
        };
        let (cold, built) = run(&spec, &cache, 2);
        assert_eq!((cold.cache.misses, built), (32, 4));
        // The handle — and every clone of it — keys each column from the
        // digest it remembers: every cell a hit, no column built, the report
        // byte for byte the cold one.
        for (handle, threads) in [(&cache, 1), (&cache.clone(), 8)] {
            let (warm, built) = run(&spec, handle, threads);
            assert_eq!((warm.cache.hits, warm.cache.misses, built), (32, 0, 0));
            assert_eq!(warm.report.cells, cold.report.cells);
        }
        let (warm, _) = run(&spec, &cache, 2);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
        // The memory is the handle's, not the directory's: a new handle on
        // the same entries hits every cell but builds each column once.
        let reopened = ResultCache::open(&dir).unwrap();
        let (warm, built) = run(&spec, &reopened, 2);
        assert_eq!((warm.cache.hits, built), (32, 4));
        // The same workloads at another budget or seed are other columns.
        for other in [SweepSpec { insts: 700, ..spec.clone() }, SweepSpec { seed: 0xC0DF, ..spec.clone() }] {
            let (outcome, built) = run(&other, &cache, 2);
            assert_eq!((outcome.cache.hits, outcome.cache.misses, built), (0, 32, 4));
            assert_eq!(run(&other, &cache, 2).1, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_planned_digest_that_disagrees_with_a_remembered_column_is_refused() {
        let dir = tmp_cache("remembered-shard");
        let cache = ResultCache::open(&dir).unwrap();
        let opts = ExecOptions { threads: 1, cache: Some(&cache), ..ExecOptions::default() };
        let spec = tiny_spec();
        run_counting_builds(&SweepShard::whole(&spec), &opts);
        for shard in crate::plan_shards(&spec, 2).unwrap() {
            // As planned: every cell a hit, nothing built.
            let (outcome, built) = run_counting_builds(&shard, &opts);
            assert_eq!((outcome.cache.misses, built), (0, 0));
            // One digest off: refused before any cell of the column streams,
            // still without building it.
            let mut forged = shard.clone();
            forged.columns[1].trace_digest ^= 1;
            let prepared = Prepared::new(&forged, &opts).unwrap();
            let mut streamed = Vec::new();
            let err = prepared.run(|e| streamed.push(e.index % 4)).unwrap_err();
            assert!(err.contains("does not match the planner's"), "{err}");
            assert!(err.contains(&forged.columns[1].workload), "{err}");
            assert_eq!(prepared.built.load(Ordering::Relaxed), 0);
            let column = spec.workloads.iter().position(|w| *w == forged.columns[1].workload);
            assert!(!streamed.contains(&column.unwrap()), "a refused column streamed a cell");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_axis_cells_share_one_cache_entry() {
        let dir = tmp_cache("inert");
        let cache = ResultCache::open(&dir).unwrap();
        // in-order never reads the slice buffer: two slice sizes, one of
        // everything else ⇒ 2 cells, 1 fork group, 1 cache entry.
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![64, 128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["pointer-chase".into()];
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(cold.report.cells.len(), 2);
        assert_eq!(cold.cache.misses, 2);
        assert_eq!(cold.cache.stored, 1, "one entry for the whole group");
        assert_eq!(cache.entry_count().unwrap(), 1);
        // Both cells carry their own axis labels but identical figures.
        let [a, b] = &cold.report.cells[..] else {
            panic!("two cells")
        };
        assert_ne!(a.slice_buffer_entries, b.slice_buffer_entries);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.host_seconds, b.host_seconds, "members replay figures");

        let warm = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(warm.cache.hits, 2);
        assert_eq!(warm.report, cold.report);

        // The icfp model *reads* the slice axis: same grid stores two
        // entries and never collapses cells.
        let mut icfp_spec = spec.clone();
        icfp_spec.models = vec![CoreModel::Icfp];
        let icfp = run_sweep_streamed(&icfp_spec, &opts, |_| {}).unwrap();
        assert_eq!(icfp.cache.misses, 2, "no grouping for a live axis");
        assert_eq!(icfp.cache.stored, 2, "one entry per distinct key");
        assert_eq!(cache.entry_count().unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_entries_are_recomputed_not_trusted() {
        let dir = tmp_cache("damaged");
        let cache = ResultCache::open(&dir).unwrap();
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::Icfp];
        spec.slice_buffer_entries = vec![128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["branchy".into()];
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(cold.cache.stored, 1);

        // Truncate the single entry on disk.
        let entry = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "cell"))
            .expect("one entry");
        let bytes = fs::read(&entry).unwrap();
        fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

        let redo = run_sweep_streamed(&spec, &opts, |e| assert!(!e.cached)).unwrap();
        assert_eq!(redo.cache.hits, 0);
        assert_eq!(redo.cache.invalid, 1, "damage is counted");
        assert_eq!(redo.cache.misses, 1);
        assert_eq!(redo.cache.stored, 1, "the evicted entry is re-stored");
        assert_deterministically_equal(&cold.report, &redo.report);

        // The recompute evicted and replaced the damaged entry, so the cache
        // self-heals: a third run is fully served from disk again.
        let third = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(third.cache.hits, 1);
        assert_eq!(third.report, redo.report);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A 2-cell grid small enough for fault tests.
    fn two_cell_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["branchy".into(), "pointer-chase".into()];
        spec
    }

    #[test]
    fn a_panicking_cell_is_retried_and_the_report_matches_fault_free() {
        let spec = two_cell_spec();
        let clean = run_sweep(&spec, 1).unwrap();
        // Job 1 panics twice; the default retry budget absorbs both.
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 1,
            attempts: 2,
        });
        let faulted = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 1,
                fault: Some(&plan),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(plan.panics_raised(), 2);
        assert!(faulted.report.cells.iter().all(|c| c.failed.is_none()));
        // Digest equality covers every deterministic field; the advisory
        // host-time figures legitimately differ between runs.
        assert_eq!(faulted.report.digest(), clean.digest());
        assert_eq!(
            faulted.cache.hits + faulted.cache.misses,
            clean.cells.len() as u64,
            "retries must not double-count tallies"
        );
    }

    #[test]
    fn an_exhausted_panicking_cell_is_recorded_as_failed_not_fatal() {
        let spec = two_cell_spec();
        let clean = run_sweep(&spec, 1).unwrap();
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 0,
            attempts: u32::MAX,
        });
        let outcome = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 1,
                fault: Some(&plan),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        let [failed, ok] = &outcome.report.cells[..] else {
            panic!("two cells")
        };
        let reason = failed.failed.as_deref().expect("job 0 exhausted retries");
        assert!(reason.contains("injected fault"), "{reason:?}");
        assert_eq!(failed.cycles, 0);
        assert_eq!(failed.state_digest, 0);
        assert!(ok.failed.is_none(), "other cells unaffected");
        assert_eq!(ok.cycles, clean.cells[1].cycles);
        // The failure is digested — a holed report can't impersonate a
        // complete one — and survives the JSON round trip.
        assert_ne!(outcome.report.digest(), clean.digest());
        let json = outcome.report.to_json();
        assert!(json.contains("\"failed\": \"injected fault"), "{json}");
        let back = crate::schema::parse(&json).expect("parse");
        assert_eq!(back.cells[0].failed, outcome.report.cells[0].failed);
        assert_eq!(crate::schema::to_json(&back), json);
        // The matrix shows the hole.
        assert!(outcome.report.render_matrix().unwrap().contains("fail"));
        // Accounting stays whole: the failed cell counts as a miss.
        assert_eq!(
            outcome.cache.hits + outcome.cache.misses,
            outcome.report.cells.len() as u64
        );
    }

    #[test]
    fn a_pool_of_t_threads_holds_at_most_t_columns_from_first_group_to_last() {
        // Cells 20 and 28 are in-order's inert-slice pair on column 0 and that
        // column's last group: it fails on every attempt, and must release
        // the column all the same.
        let (job_index, attempts) = (28, u32::MAX);
        let plan = FaultPlan::new().with_panic_job(PanicJob { job_index, attempts });
        let mut spec = tiny_spec();
        spec.insts = 5_000;
        for threads in [1, 2] {
            let opts = ExecOptions { threads, fault: Some(&plan), ..ExecOptions::default() };
            let work = SweepShard::whole(&spec);
            let prepared = Prepared::new(&work, &opts).unwrap();
            let is = |c: usize, want: fn(&ColumnState) -> bool| {
                want(&prepared.columns[c].state.lock().unwrap())
            };
            let alive = || (0..4).filter(|&c| is(c, |s| matches!(s, ColumnState::Live(_)))).count();
            assert_eq!(alive(), 0, "preparing builds nothing");
            let mut events = 0usize;
            let outcome = prepared.run(|_| {
                // The serial pool has three columns' groups to run before it
                // touches the last one.
                let last_unbuilt = is(3, |s| matches!(s, ColumnState::Resolved(_)));
                assert!(last_unbuilt || (threads, events) != (1, 0), "first cell comes first");
                events += 1;
                assert!(alive() <= threads, "{threads} threads hold {} columns", alive());
            });
            assert_eq!(events, spec.cell_count());
            let failed: Vec<bool> = outcome.unwrap().report.cells.iter().map(|c| c.failed.is_some()).collect();
            assert_eq!(failed.iter().filter(|&&f| f).count(), 2);
            assert!(failed[20] && failed[28]);
            assert!((0..4).all(|c| is(c, |s| matches!(s, ColumnState::Released))));
        }
    }

    #[test]
    fn a_cancelled_sweep_is_a_typed_error_not_a_panic() {
        let flag = AtomicBool::new(true);
        for threads in [1, 4] {
            let err = run_sweep_streamed(
                &tiny_spec(),
                &ExecOptions {
                    threads,
                    cancel: Some(&flag),
                    ..ExecOptions::default()
                },
                |_| {},
            )
            .expect_err("pre-cancelled sweep cannot complete");
            assert!(err.contains("cancelled"), "{err}");
            assert!(err.contains("0/32"), "{err}");
        }
    }
}
