//! The client side of `icfp-wire/v4`: one conversation, which
//! [`submit_shard`] makes one attempt at for one [`SweepShard`] and
//! [`submit_with`] retries for a whole spec.  A whole spec is the shard that
//! holds every cell and carries no digest ([`SweepShard::whole`]): its client
//! has built no trace column, so it has none to ship and asks for no check; a
//! planner, which has built them all, ships them all.

use super::protocol::{
    base_features, recv_expected, send, Request, Response, WireError, WIRE_VERSION,
};
use crate::plan::{merge_cells, SweepShard};
use crate::report::{SweepCell, SweepReport};
use crate::spec::SweepSpec;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// Client retry policy: deterministic exponential backoff between
/// reconnect-and-resubmit attempts, plus the per-stream I/O deadline.
///
/// The delay before retry *k* (0-based) is `base_delay_ms << k`, capped at
/// `max_delay_ms` — a pure function of the policy and the attempt number,
/// so the schedule is reproducible ([`backoff_delay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Read/write deadline on the client's stream, in milliseconds
    /// (0 = no deadline).  A server that stalls mid-frame longer than this
    /// surfaces as a retriable [`serde::frame::FrameError::TimedOut`].
    pub io_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 4,
            base_delay_ms: 100,
            max_delay_ms: 2_000,
            io_timeout_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The stream deadline as a `Duration` (`None` when disabled).
    pub fn io_timeout(&self) -> Option<Duration> {
        (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms))
    }
}

/// The deterministic backoff delay before 0-based retry `attempt`:
/// `base_delay_ms << attempt`, capped at `max_delay_ms`.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
    let exp = policy
        .base_delay_ms
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX).max(1));
    Duration::from_millis(exp.min(policy.max_delay_ms))
}

/// Runs `attempt(k)` for `k = 0, 1, …` until it succeeds, fails with a
/// non-retriable error ([`WireError::is_retriable`]), or `policy.retries`
/// retries are spent, sleeping the policy's deterministic backoff
/// ([`backoff_delay`]) before each retry.
///
/// # Errors
///
/// The last retriable [`WireError`] once the retries are exhausted, or the
/// first non-retriable one.
pub(crate) fn with_retries<T>(
    policy: &RetryPolicy,
    mut attempt: impl FnMut(u32) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut last = None;
    for k in 0..=policy.retries {
        if k > 0 {
            std::thread::sleep(backoff_delay(policy, k - 1));
        }
        match attempt(k) {
            Ok(done) => return Ok(done),
            Err(e) if e.is_retriable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// The result of one client submission.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The reassembled report of the submitted cells, in expand order — for
    /// a whole spec, byte-identical to a local run of it.
    pub report: SweepReport,
    /// Cells the server served from its result cache.
    pub hits: u64,
    /// Cells the server computed.
    pub misses: u64,
}

/// Submits a sweep to a running `icfp-sweepd` at `addr` (e.g.
/// `127.0.0.1:7400`), reassembling the streamed cells into a report.
/// `threads` is the requested server-side worker count (0 = server
/// default).  On a retriable failure (I/O error, torn or timed-out frame,
/// peer vanished mid-stream) the client waits the policy's deterministic
/// backoff, reconnects, and re-submits the whole spec.  Cells the server
/// already computed come back as cache hits, so the reassembled report of
/// the successful attempt is byte-identical to an uninterrupted run.
/// Non-retriable failures (invalid spec, server-reported errors, protocol
/// violations) return immediately.
///
/// `on_cell` sees each cell as it arrives (completion order) on every
/// attempt, so an interrupted attempt's cells may be seen twice;
/// reassembly uses only the successful attempt.
///
/// # Errors
///
/// Any [`WireError`]: the last retriable one once `policy.retries` is
/// exhausted, or the first non-retriable one.  The reassembled report's
/// digest is verified against the server's `Done` digest, so a successful
/// return is a report identical to the server's — and, by the executor's
/// determinism, to a local run.
pub fn submit_with(
    addr: &str,
    spec: &SweepSpec,
    threads: usize,
    policy: &RetryPolicy,
    mut on_cell: impl FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    spec.validate().map_err(WireError::Spec)?;
    // Every cell of a validated spec: a cell list that is valid as built.
    let work = SweepShard::whole(spec);
    with_retries(policy, |_| converse(addr, &work, threads, policy.io_timeout(), &mut on_cell))
}

/// Opens a framed connection to `addr` under the given I/O deadline.
pub(super) fn connect_framed(
    addr: &str,
    io_timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    stream.set_read_timeout(io_timeout).map_err(WireError::Io)?;
    stream.set_write_timeout(io_timeout).map_err(WireError::Io)?;
    let reader = BufReader::new(stream.try_clone().map_err(WireError::Io)?);
    Ok((reader, BufWriter::new(stream)))
}

/// Performs the client side of the handshake (the capabilities a server
/// grants are labels; nothing is conditional on them).  A server of another
/// version — which answers with its own version in a `Hello2`, with a v1
/// `Hello`, or with an `Error` frame naming both versions — is a typed
/// [`WireError::UnsupportedVersion`], never a decode failure.
pub(super) fn client_handshake(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<(), WireError> {
    send(
        writer,
        &Request::Hello2 {
            version: WIRE_VERSION.to_string(),
            features: base_features(),
        },
    )?;
    match recv_expected::<Response>(reader)? {
        Response::Hello2 { version, .. } if version == WIRE_VERSION => Ok(()),
        Response::Hello2 { version, .. } | Response::Hello { version } => {
            Err(WireError::UnsupportedVersion {
                ours: WIRE_VERSION.to_string(),
                theirs: version,
            })
        }
        // A peer that refuses the handshake outright is a version mismatch
        // by definition — its Error text (which names both versions) is the
        // best version description it gave us.
        Response::Error { message } => Err(WireError::UnsupportedVersion {
            ours: WIRE_VERSION.to_string(),
            theirs: format!("unstated ({message})"),
        }),
        other => Err(WireError::Protocol(format!(
            "expected Hello2, got {other:?}"
        ))),
    }
}

/// One attempt at one planned shard — or any [`SweepShard`]: the one
/// conversation [`submit_with`] retries around, after the check both ends
/// make of a cell list.  `threads` is the requested server-side thread count
/// (0 = server default); `on_cell` sees each cell, under its *full-grid*
/// index, as it arrives.  The returned report holds the shard's own cells,
/// in expand order, and is returned only once its digest equals the peer's —
/// a caller that must not act on a half-streamed or corrupted attempt
/// collects in `on_cell` and commits on `Ok`.
///
/// # Errors
///
/// [`WireError::Spec`] for a shard that fails [`SweepShard::validate`], before
/// anything is sent; otherwise any [`WireError`].  Transport-level failures
/// (including a worker that died mid-shard) are retriable
/// ([`WireError::is_retriable`]) — a coordinator's cue to reassign the shard
/// to another worker.
pub fn submit_shard(
    addr: &str,
    shard: &SweepShard,
    threads: usize,
    io_timeout: Option<Duration>,
    on_cell: &mut dyn FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    shard.validate().map_err(WireError::Spec)?;
    converse(addr, shard, threads, io_timeout, on_cell)
}

/// One conversation over one fresh connection: handshake → `Submit` →
/// `Accepted` (count check) → the cell stream (every index in `shard.cells`,
/// exactly once) → `Done` → reassembly in expand order → digest verification.
fn converse(
    addr: &str,
    shard: &SweepShard,
    threads: usize,
    io_timeout: Option<Duration>,
    on_cell: &mut dyn FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    let (mut reader, mut writer) = connect_framed(addr, io_timeout)?;
    client_handshake(&mut reader, &mut writer)?;

    let request = Request::Submit { work: shard.clone(), threads: threads as u64 };
    send(&mut writer, &request)?;
    let n = shard.cell_count();
    let threads = match recv_expected::<Response>(&mut reader)? {
        Response::Accepted { cells, threads } if cells == n as u64 => threads as usize,
        Response::Accepted { cells, .. } => {
            return Err(WireError::Protocol(format!(
                "peer accepted {cells} cells for a {n}-cell submission"
            )))
        }
        Response::Error { message } => return Err(WireError::Server(message)),
        other => {
            return Err(WireError::Protocol(format!(
                "expected Accepted, got {other:?}"
            )))
        }
    };

    let mut slots: Vec<Option<SweepCell>> = vec![None; n];
    loop {
        match recv_expected::<Response>(&mut reader)? {
            Response::Cell { index, cached, cell } => {
                let at = shard.cells.binary_search(&index).map_err(|_| {
                    WireError::Protocol(format!("cell index {index} is not in this submission"))
                })?;
                if slots[at].is_some() {
                    return Err(WireError::Protocol(format!("cell {index} streamed twice")));
                }
                on_cell(index as usize, cached, &cell);
                slots[at] = Some(cell);
            }
            Response::Done { report_digest, hits, misses } => {
                // A cell the peer never streamed is the merge's error; the
                // header thread count is the one the peer said it would use.
                let report =
                    merge_cells(&shard.spec, threads, slots).map_err(WireError::Protocol)?;
                let digest = report.digest();
                if digest != report_digest {
                    return Err(WireError::Protocol(format!(
                        "reassembled report digest {digest:#018x} does not match the \
                         peer's {report_digest:#018x}"
                    )));
                }
                return Ok(SubmitOutcome { report, hits, misses });
            }
            Response::Error { message } => return Err(WireError::Server(message)),
            other => {
                return Err(WireError::Protocol(format!(
                    "expected a cell or Done, got {other:?}"
                )))
            }
        }
    }
}
