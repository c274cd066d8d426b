//! The sweep service wire protocol (`icfp-wire/v4`).
//!
//! A client submits a [`crate::plan::SweepShard`] — the full
//! [`crate::SweepSpec`] plus the cells to run, all of them
//! ([`crate::plan::SweepShard::whole`]) or the whole fork groups one planned
//! shard holds — to a running `icfp-sweepd`; the server validates, expands and
//! executes it (through the shared executor and result cache) and streams each
//! cell back *as it finishes*, closing with the digest of those cells and the
//! cache counters.  The client reassembles the streamed cells — by index, so
//! arrival order is irrelevant — and verifies their digest against the
//! server's; for a whole spec the result is a [`crate::SweepReport`]
//! byte-identical to a local [`crate::run_sweep`] of it.
//!
//! ## Transport
//!
//! Messages are vendored-serde payloads in length-prefixed frames
//! ([`serde::frame`]: `u32` LE length + payload, 16 MiB ceiling).  The one
//! conversation:
//!
//! ```text
//! client                          server
//! ──────────────────────────────────────────────────────────
//! Hello2{version, features} ──▶
//!                         ◀──    Hello2{version, features}
//! Submit{work, threads}   ──▶
//!                         ◀──    Accepted{cells, threads}
//!                         ◀──    Cell{index, cached, cell}   (× cells)
//!                         ◀──    Done{report_digest, hits, misses}
//! (next Submit, or close)
//! ```
//!
//! Every cell travels under its index in the *full* grid, whatever part was
//! submitted, so a coordinator ([`crate::backend::RemoteBackend`]) merges
//! streams from any number of workers without per-shard bookkeeping; a reply
//! is bound to the one outstanding request of its connection by index
//! membership and by the closing digest.
//!
//! ## Digests: none, or all
//!
//! A submission ships per-column trace *digests*, never trace bytes — none,
//! or one for every column its cells touch ([`crate::plan`] says who sends
//! which).  The worker resolves each column by its name
//! ([`crate::column_source`]) and refuses the submission on a mismatch as it
//! first keys that column — from the digest its result cache remembers, or by
//! building it — before any cell of it is computed, cached or streamed;
//! a list that covers only some of the touched columns is refused before
//! `Accepted`.
//!
//! ## Versions and capabilities
//!
//! The handshake carries a feature list besides the version string
//! ([`base_features`]: `"sweep"`; workers add the advisory `"worker"`).
//! Version skew in either direction is a typed
//! [`WireError::UnsupportedVersion`], never a decode failure: the v1 `Hello`
//! and the `Hello2` of v2 keep their places in the [`Request`] enum
//! (vendored-serde enum encoding is positional), so an older client's opening
//! frame still decodes and is answered with an `Error` frame naming both
//! versions; a client recognizes an older or newer server's `Hello` /
//! `Hello2` / `Error` reply the same way.  No compatibility reader exists.
//!
//! Anything unexpected — an undecodable frame, a version mismatch, an
//! invalid or oversized spec, a hostile cell list — is answered with an
//! `Error` frame where possible and is always a typed [`WireError`] on both
//! sides, never a panic: a hostile peer cannot take the server down.
//!
//! The messages, [`WireError`] and the framed send/receive live in
//! `protocol`; `client` holds the one conversation, one attempt at it
//! ([`submit_shard`]) and the retry loop around it ([`submit_with`]); `server`
//! holds [`serve`], the only way in.

mod client;
mod protocol;
mod server;

pub(crate) use client::with_retries;
pub use client::{backoff_delay, submit_shard, submit_with, RetryPolicy, SubmitOutcome};
pub use protocol::{
    base_features, Request, Response, WireError, MAX_WIRE_FRAME, WIRE_VERSION, WIRE_VERSION_V1,
};
pub use server::{serve, AcceptOptions, ServeOptions, ServeSummary};

#[cfg(test)]
mod tests;
