//! The server side of `icfp-wire/v4`: [`serve`], a concurrent accept loop
//! over one shared executor and result cache, and the per-connection
//! conversation it runs on each accepted stream.  A submission — a whole grid
//! or one shard of it, the same request — is prepared exactly once (grid
//! expanded and grouped, the cell list checked, columns resolved — none
//! built) *before* its `Accepted` frame, which reads the cell count and the
//! pool size off that preparation; the same value then runs, keying each
//! column's groups under the digest the result cache remembers for it or
//! else building the column as its first group starts, and holding that
//! digest to the one the submission carries for the column, if it carries
//! any.  A column is built only where its digest is not remembered or a cell
//! of it must be computed.

use super::protocol::{base_features, recv, send, Request, Response, WireError, WIRE_VERSION};
use crate::executor::{ExecOptions, Prepared};
use crate::fault::{FaultPlan, FrameAction};
use crate::ResultCache;
use serde::frame::write_frame;
use serde::Serialize;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server-side send through the outbound-frame fault seam: an armed
/// [`FaultPlan`] can drop or truncate exactly one frame, after which the
/// injected transport error propagates like a real mid-stream crash and the
/// connection is severed.
fn send_srv<T: Serialize>(
    w: &mut impl std::io::Write,
    msg: &T,
    fault: Option<&FaultPlan>,
) -> Result<(), WireError> {
    match fault.map_or(FrameAction::Pass, |p| p.next_frame_action()) {
        FrameAction::Pass => send(w, msg),
        FrameAction::Drop => Err(WireError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected fault: outbound frame dropped, connection severed",
        ))),
        FrameAction::Truncate(k) => {
            let mut framed = Vec::new();
            write_frame(&mut framed, &serde::to_bytes(msg))?;
            let keep = k.min(framed.len().saturating_sub(1)).max(1);
            w.write_all(&framed[..keep]).map_err(WireError::Io)?;
            w.flush().map_err(WireError::Io)?;
            Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected fault: outbound frame truncated, connection severed",
            )))
        }
    }
}

/// Server-side options, shared by every connection [`serve`] accepts.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Default worker threads for submissions that request 0.
    pub threads: usize,
    /// Result cache directory, if caching is enabled: [`serve`] opens it
    /// once and every connection shares the one store.
    pub cache_dir: Option<PathBuf>,
    /// Read/write deadline on each accepted stream (`None` = no deadline).
    /// A peer that stalls mid-frame longer than this gets a typed
    /// [`serde::frame::FrameError::TimedOut`] and its connection reaped — a
    /// slow-loris client can never hang a server thread.
    pub io_timeout: Option<Duration>,
    /// Deterministic fault-injection plan for the outbound-frame and
    /// executor seams (tests only; `None` in production).
    pub fault: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation for in-flight sweeps (graceful drain):
    /// when set, executors stop pulling new cell groups, in-flight cells
    /// finish and land in the cache, and the submission ends in a typed
    /// error frame.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Worker mode (`icfp-sweepd --worker`): advertise the `"worker"`
    /// capability in the handshake.  Advisory — the served message set is
    /// identical; coordinators use it to label their worker pools.
    pub worker: bool,
}

/// Per-connection summary returned by [`handle_conn`].
#[derive(Default)]
struct ConnSummary {
    /// Sweeps executed on this connection.
    submits: u64,
    /// Total cells served from the result cache across them.
    hits: u64,
    /// Total cells computed across them.
    misses: u64,
}

/// Serves one client connection: handshake, then any number of submissions,
/// until the client closes.  Every failure path answers with an `Error`
/// frame when the stream still works and returns a typed [`WireError`] —
/// a hostile or confused peer never panics the server.  `cache` is the one
/// store [`serve`] opened; `served` counts submissions answered with their
/// closing frame, so the submission ceiling counts real service, never
/// failed handshakes.
///
/// # Errors
///
/// Any [`WireError`]; [`serve`] logs it and moves on to the next connection.
fn handle_conn(
    stream: TcpStream,
    opts: &ServeOptions,
    cache: Option<&ResultCache>,
    served: &AtomicU64,
) -> Result<ConnSummary, WireError> {
    stream
        .set_read_timeout(opts.io_timeout)
        .map_err(WireError::Io)?;
    stream
        .set_write_timeout(opts.io_timeout)
        .map_err(WireError::Io)?;
    let fault = opts.fault.as_deref();
    let mut reader = BufReader::new(stream.try_clone().map_err(WireError::Io)?);
    let mut writer = BufWriter::new(stream);
    let mut summary = ConnSummary::default();

    // Handshake.  An undecodable first frame still gets an Error reply.
    let hello = match recv::<Request>(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(summary),
        Err(e) => {
            let _ = send(
                &mut writer,
                &Response::Error {
                    message: format!("bad handshake: {e}"),
                },
            );
            return Err(e);
        }
    };
    match hello {
        Request::Hello2 { ref version, .. } if version == WIRE_VERSION => {}
        // Version skew — a v1 `Hello`, or a `Hello2` with a version we don't
        // speak, older or newer — gets a typed refusal naming both versions,
        // never a decode failure or a confusing protocol error.
        Request::Hello { version } | Request::Hello2 { version, .. } => {
            let message =
                format!("server speaks {WIRE_VERSION:?}, client sent {version:?}");
            let _ = send(&mut writer, &Response::Error { message: message.clone() });
            return Err(WireError::UnsupportedVersion {
                ours: WIRE_VERSION.to_string(),
                theirs: version,
            });
        }
        other => {
            let message = format!("expected Hello2 first, got {other:?}");
            let _ = send(&mut writer, &Response::Error { message: message.clone() });
            return Err(WireError::Protocol(message));
        }
    }
    let mut features = base_features();
    if opts.worker {
        features.push("worker".to_string());
    }
    send_srv(
        &mut writer,
        &Response::Hello2 {
            version: WIRE_VERSION.to_string(),
            features,
        },
        fault,
    )?;

    // Submission loop: a whole grid is the shard that names every cell, so
    // there is one request; its cells run and stream under full-grid indices,
    // against columns held to whatever digests it carries.
    loop {
        let req = match recv::<Request>(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(summary),
            Err(e) => {
                let _ = send(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                );
                return Err(e);
            }
        };
        let Request::Submit { work, threads } = &req else {
            let message = format!("expected Submit, got {req:?}");
            let _ = send(&mut writer, &Response::Error { message: message.clone() });
            return Err(WireError::Protocol(message));
        };
        // The one preparation of this submission.  One that cannot be
        // prepared — bad axes, a malformed cell list, an unknown column, no
        // timed region — fails the submission, not the connection.
        let exec = ExecOptions {
            threads: match *threads {
                0 => opts.threads.max(1),
                n => n as usize,
            },
            cache,
            fault,
            cancel: opts.cancel.as_deref(),
        };
        let prepared = match Prepared::new(work, &exec) {
            Ok(prepared) => prepared,
            Err(e) => {
                send(&mut writer, &Response::Error { message: e })?;
                continue;
            }
        };

        // The Accepted message states the cells this submission will stream
        // and the worker count the report will record (the client copies it
        // into its reassembled report header).
        send_srv(
            &mut writer,
            &Response::Accepted {
                cells: prepared.cells() as u64,
                threads: prepared.workers() as u64,
            },
            fault,
        )?;

        // Stream cells as the executor completes them.  A send failure mid-
        // sweep is recorded and surfaced after the executor returns (the
        // callback itself must not unwind through the thread pool) — the
        // sweep still completes into the cache, so the client's re-submit
        // after reconnecting is served as hits.
        let mut send_err: Option<WireError> = None;
        let outcome = prepared.run(|event| {
            if send_err.is_none() {
                let resp = Response::Cell {
                    index: event.index as u64,
                    cached: event.cached,
                    cell: event.cell.clone(),
                };
                if let Err(e) = send_srv(&mut writer, &resp, fault) {
                    send_err = Some(e);
                }
            }
        });
        if let Some(e) = send_err {
            return Err(e);
        }
        // The executor failures left after a preparation: a column that does
        // not reproduce the digest supplied for it fails the submission with
        // a typed Error frame; a graceful-drain cancellation also ends the
        // connection.
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                send(&mut writer, &Response::Error { message: e.clone() })?;
                if exec.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    return Err(WireError::Protocol(e));
                }
                continue;
            }
        };
        let finish = Response::Done {
            report_digest: outcome.report.digest(),
            hits: outcome.cache.hits,
            misses: outcome.cache.misses,
        };
        send_srv(&mut writer, &finish, fault)?;
        summary.submits += 1;
        summary.hits += outcome.cache.hits;
        summary.misses += outcome.cache.misses;
        served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Options for the concurrent [`serve`] accept loop.
#[derive(Debug, Clone)]
pub struct AcceptOptions {
    /// Ceiling on simultaneously served connections; further connections
    /// queue in the OS accept backlog until a slot frees, so a cache-hit
    /// submission never waits behind a cold sweep as long as a slot is
    /// open.
    pub max_inflight: usize,
    /// Stop after this many *successfully served submissions* (`None` =
    /// serve forever).  Connections that fail the handshake or never
    /// complete a sweep don't count.
    pub max_submissions: Option<u64>,
    /// Graceful-shutdown flag (e.g. set by a SIGINT handler): when it goes
    /// true the loop stops accepting, in-flight connections drain, and
    /// [`serve`] returns.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for AcceptOptions {
    fn default() -> Self {
        AcceptOptions {
            max_inflight: 4,
            max_submissions: None,
            shutdown: None,
        }
    }
}

/// What [`serve`] did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted and handed to a handler thread.
    pub connections: u64,
    /// Successfully served submissions across all of them.
    pub submissions: u64,
    /// Connections that ended in a typed error (failed handshakes, hostile
    /// frames, stalled peers, injected faults).
    pub failed: u64,
}

/// The concurrent accept loop: thread-per-connection over one shared
/// executor and result cache, bounded by [`AcceptOptions::max_inflight`].
///
/// Each accepted stream gets [`ServeOptions::io_timeout`] deadlines and its
/// own [`handle_conn`] thread; the loop itself never blocks on a
/// conversation, so a quick cache-hit submission runs beside a cold sweep.
/// The loop exits when [`AcceptOptions::max_submissions`] submissions have
/// been served or [`AcceptOptions::shutdown`] goes true, then *drains*:
/// every in-flight connection finishes (in-flight cells complete and land
/// in the cache) before [`serve`] returns.  A blocked `accept` is woken by
/// a loopback self-connection, so neither exit condition waits for a new
/// client.
///
/// `on_event` receives one human-readable line per lifecycle event (from
/// handler threads too, hence `Sync`).
pub fn serve(
    listener: TcpListener,
    opts: ServeOptions,
    accept: AcceptOptions,
    on_event: impl Fn(String) + Send + Sync,
) -> ServeSummary {
    // Open the cache once; every connection shares it.
    let cache = opts.cache_dir.as_ref().and_then(|dir| {
        match ResultCache::open(dir) {
            // Arm the cache-write fault seam on the shared store.
            Ok(c) => Some(match &opts.fault {
                Some(plan) => c.with_fault(Arc::clone(plan)),
                None => c,
            }),
            Err(e) => {
                on_event(format!("result cache unavailable, serving uncached: {e}"));
                None
            }
        }
    });
    let served = AtomicU64::new(0);

    let connections = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let inflight = Mutex::new(0usize);
    let slot_freed = Condvar::new();
    let local = listener.local_addr().ok();
    let stop_waker = AtomicBool::new(false);

    let done = || {
        accept
            .shutdown
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
            || accept
                .max_submissions
                .is_some_and(|n| served.load(Ordering::Relaxed) >= n)
    };
    // Wakes a blocked `accept` by self-connecting; the dummy connection is
    // recognized and dropped by the `done()` re-check after accept.
    let wake = || {
        if let Some(addr) = local {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    };

    std::thread::scope(|scope| {
        // The shutdown watcher: `accept` cannot observe a flag flipped by a
        // signal handler (glibc installs SA_RESTART semantics), so poll the
        // exit conditions and break the accept loop with a self-connection.
        if accept.shutdown.is_some() {
            scope.spawn(|| loop {
                if stop_waker.load(Ordering::Relaxed) {
                    return;
                }
                if done() {
                    wake();
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            });
        }
        loop {
            if done() {
                break;
            }
            {
                let mut n = inflight.lock().expect("inflight lock");
                while *n >= accept.max_inflight.max(1) {
                    n = slot_freed.wait(n).expect("inflight lock");
                }
            }
            if done() {
                break;
            }
            let (stream, peer) = match listener.accept() {
                Ok(x) => x,
                Err(e) => {
                    on_event(format!("accept failed: {e}"));
                    continue;
                }
            };
            if done() {
                // The waker's (or a late client's) connection arriving after
                // an exit condition: drop it and stop accepting.
                drop(stream);
                break;
            }
            connections.fetch_add(1, Ordering::Relaxed);
            *inflight.lock().expect("inflight lock") += 1;
            on_event(format!("connection from {peer}"));
            scope.spawn(|| {
                match handle_conn(stream, &opts, cache.as_ref(), &served) {
                    Ok(summary) => on_event(format!(
                        "connection closed ({} sweeps, {} cache hits, {} computed)",
                        summary.submits, summary.hits, summary.misses
                    )),
                    Err(e) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                        on_event(format!("connection failed: {e}"));
                    }
                }
                *inflight.lock().expect("inflight lock") -= 1;
                slot_freed.notify_one();
                // This connection may have pushed the served count to the
                // ceiling while the accept loop is blocked: wake it.
                if done() {
                    wake();
                }
            });
        }
        stop_waker.store(true, Ordering::Relaxed);
        // Leaving the scope joins every handler thread: the drain.
    });

    ServeSummary {
        connections: connections.load(Ordering::Relaxed),
        submissions: served.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
    }
}
