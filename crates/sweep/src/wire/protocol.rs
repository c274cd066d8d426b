//! The `icfp-wire/v4` messages, the typed errors of both sides, and the
//! framed send/receive every conversation goes through.

use crate::plan::SweepShard;
use crate::report::SweepCell;
use serde::frame::{read_frame, write_frame, FrameError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol version string exchanged in the handshake.
pub const WIRE_VERSION: &str = "icfp-wire/v4";

/// The first protocol version: a bare `Hello`, no feature negotiation.
/// Retained so skewed peers are *recognized* (and refused with a typed
/// error) rather than mis-decoded.
pub const WIRE_VERSION_V1: &str = "icfp-wire/v1";

/// The capability set a client advertises and a plain server grants:
/// `"sweep"`, the one submission there is.  Worker-mode servers
/// ([`super::ServeOptions::worker`]) additionally advertise `"worker"` — an
/// advisory label; the message set is identical.
pub fn base_features() -> Vec<String> {
    vec!["sweep".to_string()]
}

/// Frame ceiling for this protocol (the transport default).
pub const MAX_WIRE_FRAME: usize = serde::MAX_FRAME_LEN;

/// Client → server messages.
///
/// Variant order is the wire encoding (vendored serde is positional): the
/// two handshakes never move, so an older peer's opening frame keeps decoding
/// into the variant it meant — version skew must surface as a typed refusal,
/// not a decode failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// The v1 handshake.  This server decodes it and answers with a typed
    /// "unsupported version" `Error` frame naming both versions.
    Hello {
        /// The client's version string.
        version: String,
    },
    /// Run these cells of a grid — all of them ([`SweepShard::whole`]) or
    /// one planned shard's — and stream them back under full-grid indices.
    Submit {
        /// The full spec, the cells to run, and per-column trace digests:
        /// none, or one for every column those cells touch.
        work: SweepShard,
        /// Requested worker threads (0 = server default).
        threads: u64,
    },
    /// The handshake since v2; must be the first message on a connection.
    Hello2 {
        /// The client's [`WIRE_VERSION`].
        version: String,
        /// Capabilities the client intends to use ([`base_features`]).
        features: Vec<String>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Hello {
        /// The server's [`WIRE_VERSION`].
        version: String,
    },
    /// The submission was prepared; cells will stream next.
    Accepted {
        /// Number of cells that will stream: the submission's own.
        cells: u64,
        /// Worker threads the server will actually use.
        threads: u64,
    },
    /// One finished cell (streamed in completion order).
    Cell {
        /// The cell's position in the **full** grid's
        /// [`crate::SweepSpec::expand`] order, whatever part was submitted.
        index: u64,
        /// Whether it was served from the server's result cache.
        cached: bool,
        /// The cell itself.
        cell: SweepCell,
    },
    /// The submission finished; no more cells follow for it.
    Done {
        /// Digest of the submission's own report ([`crate::SweepReport::digest`]
        /// over its cells alone, in expand order), so the client can verify
        /// them before anything is committed to a merge.
        report_digest: u64,
        /// Cells served from the server's result cache.
        hits: u64,
        /// Cells the server computed.
        misses: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The reply to a [`Request::Hello2`].
    Hello2 {
        /// The server's [`WIRE_VERSION`].
        version: String,
        /// Capabilities this server grants ([`base_features`], plus
        /// `"worker"` in worker mode).
        features: Vec<String>,
    },
}

/// Typed failures on either side of the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The transport layer rejected a frame (hostile length, truncation).
    Frame(FrameError),
    /// A frame arrived but its payload would not decode.
    Decode(String),
    /// The peer violated the protocol (wrong message, wrong version, bad
    /// index, missing cells).
    Protocol(String),
    /// The server answered with an `Error` frame.
    Server(String),
    /// The spec failed validation before anything was sent.
    Spec(String),
    /// The peer closed the connection cleanly in the middle of a
    /// conversation — a crashed or restarting server.  Retriable: a fresh
    /// reconnect + re-submit usually succeeds (and already-computed cells
    /// come back as cache hits).
    Disconnected,
    /// The peers speak different protocol versions — detected at the
    /// handshake, in either direction, before any submission.  Not
    /// retriable: the same peer will refuse again.
    UnsupportedVersion {
        /// The version this side speaks.
        ours: String,
        /// The version the peer announced (best-effort for a peer that
        /// refused the handshake: its `Error` text, which names both).
        theirs: String,
    },
}

impl WireError {
    /// Whether a fresh reconnect + re-submit may succeed: transport-level
    /// failures (I/O errors, torn or timed-out frames, a peer that vanished
    /// mid-conversation) are retriable; semantic rejections (invalid spec,
    /// server-reported errors, protocol violations, undecodable payloads)
    /// are not — retrying would deterministically fail again.
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Frame(_) | WireError::Disconnected
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Frame(e) => write!(f, "wire framing: {e}"),
            WireError::Decode(e) => write!(f, "wire payload would not decode: {e}"),
            WireError::Protocol(e) => write!(f, "protocol violation: {e}"),
            WireError::Server(e) => write!(f, "server error: {e}"),
            WireError::Spec(e) => write!(f, "invalid sweep spec: {e}"),
            WireError::Disconnected => write!(f, "peer closed mid-conversation"),
            WireError::UnsupportedVersion { ours, theirs } => {
                write!(f, "unsupported protocol version: we speak {ours:?}, peer speaks {theirs:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => WireError::Io(io),
            other => WireError::Frame(other),
        }
    }
}

/// Writes one message as a frame.
pub(super) fn send<T: Serialize>(w: &mut impl std::io::Write, msg: &T) -> Result<(), WireError> {
    write_frame(w, &serde::to_bytes(msg))?;
    w.flush().map_err(WireError::Io)
}

/// Reads one message frame; `Ok(None)` is a clean peer close.
pub(super) fn recv<T: Deserialize>(r: &mut impl std::io::Read) -> Result<Option<T>, WireError> {
    match read_frame(r, MAX_WIRE_FRAME)? {
        None => Ok(None),
        Some(bytes) => serde::from_bytes(&bytes)
            .map(Some)
            .map_err(|e| WireError::Decode(e.to_string())),
    }
}

/// Reads one message frame, treating peer close as [`WireError::Disconnected`]
/// (used where the conversation is mid-flight and a message is owed — the
/// retriable signature of a crashed or restarting peer).
pub(super) fn recv_expected<T: Deserialize>(r: &mut impl std::io::Read) -> Result<T, WireError> {
    recv(r)?.ok_or(WireError::Disconnected)
}
