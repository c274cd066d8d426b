//! # icfp-sweep — parallel multi-configuration sweep orchestration
//!
//! The paper's headline results (the Figure 6/7-style comparisons) come from
//! running one binary's timing models across *many* machine configurations.
//! This crate is the subsystem that does that at scale, layered bottom-up:
//!
//! * [`spec`] — [`SweepSpec`]: a cartesian grid over [`icfp_core::CoreConfig`]
//!   axes (slice-buffer capacity, MSHR count, L2 hit latency) crossed with
//!   core models and columns — each column named by a registry workload or
//!   by the path of an `icfp-trace/v1|v2` container, resolved in one place,
//!   [`column_source`] — expanded ([`SweepSpec::expand`]) into an ordered
//!   job list with *deterministic per-job seeds* (a pure function of the
//!   spec seed and the column name, so every cell of a column simulates the
//!   identical trace and cells are comparable);
//! * [`job`] — [`SweepJob`]: one grid point, its one way to run, and its one
//!   identity (the content-addressed cache key);
//! * [`executor`] — [`run_sweep`] / [`run_sweep_streamed`]: one preparation
//!   per sweep (columns resolved, jobs, groups), then a `std::thread` pool
//!   pulling fork groups (the jobs of one column that share a cache key,
//!   simulated once) column by column from an atomic counter and posting
//!   results back by job index, so the assembled report is byte-identical
//!   regardless of thread count or scheduling; cells stream to a callback as
//!   they finish;
//! * [`cache`] — [`ResultCache`]: the persistent `icfp-cache/v1` store
//!   between executor and report — each cell keyed by a digest of its
//!   deterministic inputs, so repeated and overlapping grids are served from
//!   disk and a cache-hit report is digest-identical to a cold one;
//! * [`report`] — [`SweepReport`]: one [`SweepCell`] per grid point (IPC,
//!   MPKI, MIPS, state digest) with a deterministic [`SweepReport::digest`]
//!   and an aligned text matrix renderer;
//! * [`schema`] — the one `BENCH_sweep.json` (`icfp-sweep/v3`) emitter and
//!   parser, shared by the CLI, the server and the figure renderer;
//! * [`wire`] — the `icfp-wire/v4` protocol: submit a [`SweepShard`] — a
//!   whole grid, or one planned shard of it, the same request — to a running
//!   `icfp-sweepd`, stream cells back as they finish, reassemble a report
//!   byte-identical to a local run;
//! * [`plan`] — [`SweepShard`], the one work description (the spec, the cells
//!   to run, and per-column trace *digests* — never trace bytes, and none or
//!   all: the worker resolves each column by the same name, a container
//!   column by its path, and refuses a digest mismatch), [`plan_shards`],
//!   which deals a grid's fork groups evenly to shards, and [`merge_report`],
//!   the deterministic merge back into one report;
//! * [`backend`] — [`ExecBackend`]: one seam over *where* cells run —
//!   [`LocalBackend`] (this process's pool), [`ServerBackend`] (one
//!   `icfp-sweepd`) or [`RemoteBackend`] (a fleet of `icfp-sweepd --worker`
//!   processes, with shard reassignment when a worker dies).
//!
//! Every front end runs a sweep the same way: build a [`SweepSpec`], pick a
//! backend, watch the cell stream, keep the [`SweepReport`].
//!
//! ## Shared sources and fork groups
//!
//! Every cell of a column simulates the identical trace, so the executor
//! builds each column's trace **once** ([`column_source`]) as an
//! `Arc<dyn TraceSource>` shared by all of that column's jobs — large grids
//! never pay per-job trace generation or hold per-job copies.  The backing
//! follows from what the column is: a container streams block by block, a
//! registry workload is an arena below [`STREAM_COLUMN_THRESHOLD`]
//! instructions and a resumable generator from there up; a streamed column
//! shares one bounded block cache across the whole pool.
//!
//! Jobs whose deterministic inputs are provably identical — same model,
//! same workload trace, and configurations that differ only along axes the
//! model never reads (see [`icfp_core::CoreModel::reads_slice_buffer`]) —
//! have the same [`SweepJob::cache_key`], and the jobs of one column that
//! share a key run as one *fork group*: the group leader computes once (or
//! its figures are found in the result cache under that key) and every
//! member replays the leader's figures under its own labels.
//!
//! `icfp-bench` is the local CLI front end (every run it makes is a sweep);
//! `icfp-sweepd` serves sweeps over TCP and `icfp-bench sweep submit --server
//! ADDR` (or `--workers A,B`) is its client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod executor;
pub mod fault;
pub mod job;
pub mod plan;
pub mod report;
pub mod schema;
pub mod spec;
pub mod wire;

pub use backend::{ExecBackend, LocalBackend, RemoteBackend, ServerBackend, SweepError};
pub use cache::{CacheError, ResultCache};
pub use executor::{
    column_source, run_sweep, run_sweep_streamed, CacheStats, CellEvent, ExecOptions,
    SweepOutcome,
};
pub use fault::{CacheTear, FaultPlan, FrameAction, FrameFault, PanicJob};
pub use job::SweepJob;
pub use plan::{merge_report, plan_shards, ColumnSpec, SweepShard};
pub use report::{ReportError, SweepCell, SweepReport};
pub use schema::SchemaError;
pub use spec::{SweepSpec, MAX_GRID_CELLS, STREAM_COLUMN_THRESHOLD};
pub use wire::{
    backoff_delay, serve, submit_shard, submit_with, AcceptOptions, RetryPolicy, ServeOptions,
    ServeSummary, SubmitOutcome, WireError,
};

/// The block-fetch counting source wrapper `icfp-sim`'s tests use.
#[cfg(test)]
#[path = "../../sim/tests/common/tap.rs"]
mod tap;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::SweepSpec;
    use icfp_core::CoreModel;

    /// The acceptance grid shared across module tests: 2 models ×
    /// (2 slice × 1 mshr × 2 l2 = 4 configs) × 4 workloads = 32 cells,
    /// small instruction budget to keep tests fast.
    pub(crate) fn tiny_spec() -> SweepSpec {
        let mut s = SweepSpec::new(
            vec![CoreModel::Icfp, CoreModel::InOrder],
            icfp_workloads::STANDARD_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            600,
            0xC0DE,
        );
        s.slice_buffer_entries = vec![64, 128];
        s.l2_hit_latencies = vec![10, 20];
        s
    }

    /// A grid whose true cell count (2^65) wraps to 0 in unchecked
    /// arithmetic, in a spec that still fits one wire frame.
    pub(crate) fn overflowing_spec() -> SweepSpec {
        let mut s = tiny_spec();
        s.models = vec![CoreModel::InOrder; 1 << 13];
        s.slice_buffer_entries = vec![64; 1 << 13];
        s.mshr_counts = vec![64; 1 << 13];
        s.l2_hit_latencies = vec![20; 1 << 13];
        s.workloads = vec!["branchy".into(); 1 << 13];
        s
    }
}
