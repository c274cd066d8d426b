//! The sweep service wire protocol (`icfp-wire/v2`).
//!
//! A client submits a whole [`crate::SweepSpec`] to a running `icfp-sweepd`; the
//! server expands, validates and executes it (through the shared executor
//! and result cache) and streams each cell back *as it finishes*, closing
//! with the report digest and cache counters.  The client reassembles the
//! streamed cells — by index, so arrival order is irrelevant — into a
//! [`crate::SweepReport`] byte-identical to a local [`crate::run_sweep`] of the
//! same spec, and verifies its digest against the server's.
//!
//! ## Transport
//!
//! Messages are vendored-serde payloads in length-prefixed frames
//! ([`serde::frame`]: `u32` LE length + payload, 16 MiB ceiling).  The
//! conversation:
//!
//! ```text
//! client                          server
//! ──────────────────────────────────────────────────────────
//! Hello2{version, features} ──▶
//!                         ◀──    Hello2{version, features}
//! Submit{spec, threads}   ──▶
//!                         ◀──    Accepted{cells, threads}
//!                         ◀──    Cell{index, cached, cell}   (× cells)
//!                         ◀──    Done{report_digest, hits, misses}
//! (next Submit / ShardSubmit, or close)
//! ```
//!
//! ## Capability negotiation and shard submissions
//!
//! The v2 handshake carries a feature list besides the version string
//! ([`base_features`]; workers add `"worker"`), so peers can tell *what* a
//! server speaks before submitting.  Version skew in either direction is a
//! typed [`WireError::UnsupportedVersion`], never a decode failure: the v1
//! `Hello` variant is retained in the [`Request`] enum (vendored-serde
//! enum encoding is append-only, so v1 frames still decode) and answered
//! with an `Error` frame naming both versions; a v2 client recognizes a v1
//! server's `Hello`/`Error` reply the same way.
//!
//! Besides whole-spec submissions, a v2 peer with the [`SHARD_FEATURE`]
//! capability accepts [`crate::plan::SweepShard`]s — the full spec plus the
//! cells of whole fork groups (`ShardSubmit` → `Accepted` → `ShardCell` ×
//! the shard's cells → `ShardDone`) — the distributed execution path
//! ([`crate::backend::RemoteBackend`]).  A shard ships per-column trace
//! *digests*, never trace bytes; the worker resolves each column by its name
//! ([`crate::column_source`]: a registry workload is regenerated, a container
//! column is named by its path and opened there) and, as it builds one,
//! refuses the shard on a digest mismatch before any cell of that column is
//! computed, cached or streamed.  Every cell of either request kind travels
//! under its index in the full grid, so the coordinator merges streams from
//! any number of workers without per-shard bookkeeping.
//!
//! Anything unexpected — an undecodable frame, a version mismatch, an
//! invalid or oversized spec — is answered with an `Error` frame where
//! possible and is always a typed [`WireError`] on both sides, never a
//! panic: a hostile peer cannot take the server down.
//!
//! The messages, [`WireError`] and the framed send/receive live in
//! `protocol`; `client` holds the one conversation loop behind
//! [`submit_with`] and [`submit_shard`]; `server` holds [`serve`], the only
//! way in.

mod client;
mod protocol;
mod server;

pub(crate) use client::with_retries;
pub use client::{
    backoff_delay, submit_shard, submit_with, RetryPolicy, ShardOutcome, SubmitOutcome,
};
pub use protocol::{
    base_features, Request, Response, WireError, MAX_WIRE_FRAME, SHARD_FEATURE, WIRE_VERSION,
    WIRE_VERSION_V1,
};
pub use server::{serve, AcceptOptions, ServeOptions, ServeSummary};

#[cfg(test)]
mod tests;
