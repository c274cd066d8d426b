//! Execution backends: *where* a sweep runs, behind one seam.
//!
//! [`ExecBackend`] abstracts sweep execution so every front end — the
//! `icfp-bench` CLI, the service, tests — drives grids the same way whether
//! the cells run on this process's thread pool ([`LocalBackend`]), on one
//! `icfp-sweepd` ([`ServerBackend`]) or across a fleet of
//! `icfp-sweepd --worker` processes ([`RemoteBackend`]).  All produce the
//! same artifact: a [`crate::SweepReport`] whose deterministic content is
//! byte-identical to a serial in-process run of the same spec — the
//! executor's thread-count invariance, lifted to N processes.
//!
//! The remote backend composes the rest of this crate: the shard planner
//! ([`crate::plan::plan_shards`]) deals the grid's fork groups — the unit of
//! distribution — evenly across the shards, each shard travels as the spec,
//! its cells and per-column trace *digests* (never trace bytes; see
//! [`crate::plan`]) in the same request and conversation a whole spec does
//! ([`submit_shard`]), workers stream cells back under full-grid indices, and
//! a deterministic merge
//! ([`crate::plan::merge_report`]) reassembles them in expand order — so
//! shard count, worker count and completion order are all invisible in the
//! result.  A worker that dies mid-shard (disconnect, missed deadline) has
//! its shard *reassigned* to the next worker in the pool under the
//! [`RetryPolicy`]'s deterministic backoff; cells the dead worker already
//! computed landed in its persistent cache, so reassignment after a restart
//! is cheap, and a shard's cells only enter the merge once its worker's
//! digest has verified — a half-streamed attempt contributes nothing.

use crate::executor::{run_sweep_streamed, CacheStats, CellEvent, ExecOptions, SweepOutcome};
use crate::plan::{merge_report, plan_shards};
use crate::report::SweepCell;
use crate::spec::SweepSpec;
use crate::wire::{submit_shard, submit_with, with_retries, RetryPolicy, WireError};
use crate::ResultCache;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc;

/// Why a backend produced no report.
#[derive(Debug)]
pub enum SweepError {
    /// The spec (or the local set-up: an unusable cache directory, an empty
    /// worker pool) was refused before any cell ran.
    Spec(String),
    /// The conversation with the server failed — or never started, for a
    /// spec the client refused ([`WireError::Spec`]) — retriable failures
    /// ([`WireError::is_retriable`]) only after every retry.
    Wire(WireError),
    /// These shards failed on every worker they were offered to: each with
    /// its position in the plan (what `sweep plan` prints), ascending, never
    /// empty.
    Shards(Vec<(u64, WireError)>),
}

impl SweepError {
    /// The wire failure behind this error — the first failed shard's for a
    /// distributed run, `None` for a spec refused locally.
    pub fn wire(&self) -> Option<&WireError> {
        match self {
            SweepError::Spec(_) => None,
            SweepError::Wire(e) => Some(e),
            SweepError::Shards(failed) => failed.first().map(|(_, e)| e),
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Wire(e) => write!(f, "{e}"),
            SweepError::Shards(failed) => {
                write!(f, "distributed sweep failed:")?;
                for (shard, e) in failed {
                    write!(f, " shard {shard}: {e};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One place a sweep can execute.  Implementations must uphold the crate's
/// core contract: for a given spec, the returned report's deterministic
/// content (cells, digest, JSON document) is byte-identical across
/// backends, thread counts and scheduling.
pub trait ExecBackend {
    /// Human-readable description of where cells run (for logs and CLIs).
    fn label(&self) -> String;

    /// Executes the sweep, streaming each finished cell to `on_cell` (on
    /// the calling thread; carry the event's index to reassemble).
    ///
    /// # Errors
    ///
    /// A [`SweepError`]: the spec was refused, or the wire failed (after
    /// every retry and reassignment the backend's policy allows).
    fn run_streamed(
        &self,
        spec: &SweepSpec,
        on_cell: &mut dyn FnMut(CellEvent<'_>),
    ) -> Result<SweepOutcome, SweepError>;

    /// Executes the sweep without observing the stream.
    ///
    /// # Errors
    ///
    /// As [`ExecBackend::run_streamed`].
    fn run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        self.run_streamed(spec, &mut |_| {})
    }
}

/// The in-process backend: the `std::thread` pool executor this crate has
/// always had, now behind the seam.
#[derive(Debug, Clone, Default)]
pub struct LocalBackend {
    /// Worker threads (0 = 1).
    pub threads: usize,
    /// Persistent result cache directory, if caching is enabled.
    pub cache_dir: Option<PathBuf>,
}

impl ExecBackend for LocalBackend {
    fn label(&self) -> String {
        format!("local ({} threads)", self.threads.max(1))
    }

    fn run_streamed(
        &self,
        spec: &SweepSpec,
        on_cell: &mut dyn FnMut(CellEvent<'_>),
    ) -> Result<SweepOutcome, SweepError> {
        let cache = match &self.cache_dir {
            Some(dir) => Some(
                ResultCache::open(dir)
                    .map_err(|e| SweepError::Spec(format!("result cache: {e}")))?,
            ),
            None => None,
        };
        run_sweep_streamed(
            spec,
            &ExecOptions {
                threads: self.threads,
                cache: cache.as_ref(),
                ..ExecOptions::default()
            },
            on_cell,
        )
        .map_err(SweepError::Spec)
    }
}

/// One `icfp-sweepd`, the whole spec in one submission ([`submit_with`]).
#[derive(Debug, Clone)]
pub struct ServerBackend {
    /// The server's address (`host:port`).
    pub addr: String,
    /// Requested server-side worker threads (0 = server default).
    pub threads: usize,
    /// Reconnect-and-resubmit policy and per-stream I/O deadline.
    pub policy: RetryPolicy,
}

impl ExecBackend for ServerBackend {
    fn label(&self) -> String {
        format!("server {}", self.addr)
    }

    fn run_streamed(
        &self,
        spec: &SweepSpec,
        on_cell: &mut dyn FnMut(CellEvent<'_>),
    ) -> Result<SweepOutcome, SweepError> {
        let done = submit_with(&self.addr, spec, self.threads, &self.policy, |index, cached, cell| {
            on_cell(CellEvent {
                index,
                cached,
                cell,
            })
        })
        .map_err(SweepError::Wire)?;
        Ok(SweepOutcome {
            report: done.report,
            cache: CacheStats {
                hits: done.hits,
                misses: done.misses,
                ..CacheStats::default()
            },
        })
    }
}

/// The distributed backend: a pool of `icfp-sweepd --worker` addresses, an
/// equal share of every column's fork groups per shard, deterministic merge,
/// reassignment on worker death.
#[derive(Debug, Clone)]
pub struct RemoteBackend {
    /// Worker addresses (`host:port`), e.g. two `icfp-sweepd --worker`
    /// processes on loopback.  Shard `k` is first offered to worker
    /// `k % workers`; each reassignment rotates to the next address.
    pub workers: Vec<String>,
    /// Shards to plan (0 = one per worker; always clamped to the fork-group
    /// count — groups are the unit of distribution).
    pub shards: usize,
    /// Requested worker-side threads per shard (0 = worker default).
    pub threads: usize,
    /// Reassignment policy: attempts per shard, deterministic backoff
    /// between them, per-stream I/O deadline (the "worker died" detector —
    /// a disconnect surfaces immediately, a hang at the deadline).
    pub policy: RetryPolicy,
}

impl ExecBackend for RemoteBackend {
    fn label(&self) -> String {
        format!("distributed ({} workers)", self.workers.len())
    }

    fn run_streamed(
        &self,
        spec: &SweepSpec,
        on_cell: &mut dyn FnMut(CellEvent<'_>),
    ) -> Result<SweepOutcome, SweepError> {
        if self.workers.is_empty() {
            return Err(SweepError::Spec(
                "remote backend has no worker addresses".to_string(),
            ));
        }
        let shard_count = if self.shards == 0 {
            self.workers.len()
        } else {
            self.shards
        };
        let shards = plan_shards(spec, shard_count).map_err(SweepError::Spec)?;
        let n = spec.cell_count();
        let mut slots: Vec<Option<SweepCell>> = vec![None; n];
        let mut stats = CacheStats::default();
        let mut failed: Vec<(u64, WireError)> = Vec::new();

        // One driver thread per shard; the calling thread runs the merge
        // loop (and the caller's stream callback).  An attempt's cells are
        // collected as they stream and cross the channel only after
        // submit_shard verified the worker's digest, so a worker that died
        // mid-stream — whose attempt is being retried elsewhere — never
        // contributes half a shard.
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for (home, shard) in shards.iter().enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    // Rotate through the pool: the first attempt lands on
                    // this shard's home worker, each retry moves to the next
                    // — that rotation *is* reassignment when a worker is
                    // gone.
                    let result = with_retries(&self.policy, |attempt| {
                        let addr = &self.workers[(home + attempt as usize) % self.workers.len()];
                        let mut cells = Vec::with_capacity(shard.cell_count());
                        let mut collect = |index, cached, cell: &SweepCell| {
                            cells.push((index, cached, cell.clone()));
                        };
                        let timeout = self.policy.io_timeout();
                        submit_shard(addr, shard, self.threads, timeout, &mut collect)
                            .map(|done| (cells, done.hits, done.misses))
                    });
                    let _ = tx.send((home as u64, result));
                });
            }
            drop(tx);
            for (shard, result) in rx {
                match result {
                    Ok((cells, hits, misses)) => {
                        stats.hits += hits;
                        stats.misses += misses;
                        for (index, cached, cell) in cells {
                            // Shards partition the grid and each commits
                            // once, so every slot fills exactly once.
                            debug_assert!(slots[index].is_none());
                            on_cell(CellEvent {
                                index,
                                cached,
                                cell: &cell,
                            });
                            slots[index] = Some(cell);
                        }
                    }
                    Err(e) => failed.push((shard, e)),
                }
            }
        });

        if !failed.is_empty() {
            failed.sort_by_key(|(shard, _)| *shard);
            return Err(SweepError::Shards(failed));
        }
        let report = merge_report(spec, self.workers.len(), slots)
            .map_err(|e| SweepError::Wire(WireError::Protocol(e)))?;
        Ok(SweepOutcome {
            report,
            cache: stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_spec;

    #[test]
    fn local_backend_matches_the_bare_executor() {
        let spec = tiny_spec();
        let bare = crate::run_sweep(&spec, 2).unwrap();
        let backend = LocalBackend {
            threads: 2,
            ..LocalBackend::default()
        };
        assert!(backend.label().contains("local"));
        let mut streamed = 0usize;
        let outcome = backend
            .run_streamed(&spec, &mut |_| streamed += 1)
            .unwrap();
        assert_eq!(streamed, spec.cell_count());
        assert_eq!(outcome.report.digest(), bare.digest());
        assert_eq!(outcome.report.cells.len(), bare.cells.len());
    }

    #[test]
    fn remote_backend_refuses_an_empty_pool() {
        let empty = RemoteBackend {
            workers: Vec::new(),
            shards: 0,
            threads: 0,
            policy: RetryPolicy::default(),
        };
        let err = empty.run(&tiny_spec()).unwrap_err();
        assert!(matches!(err, SweepError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("no worker addresses"), "{err}");
    }
}
