//! The `icfp-ckpt/v8` checkpoint format.
//!
//! A [`SimCheckpoint`] captures a running [`Simulator`](crate::Simulator) —
//! the core engine's complete serialized state (register file and poison
//! planes, slice and store buffers, caches, MSHRs, bus, prefetcher,
//! statistics) plus the identity of the trace it was simulating — so long
//! runs can pause/resume and sweeps can fork many configurations from one
//! warmed column.  Resuming and finishing a checkpointed run is bit-identical
//! (cycles, statistics, state digest) to never having paused.
//!
//! ## On-disk container
//!
//! ```text
//! offset  size  field
//! 0       12    magic: the ASCII bytes "icfp-ckpt/v8"
//! 12      8     payload length (u64 LE)
//! 20      n     payload: SimCheckpoint in the vendored-serde binary format
//! 20+n    8     FNV-1a digest of the payload (u64 LE)
//! ```
//!
//! The digest is validated on load, the magic pins the format version, and
//! the payload itself embeds the trace's name/length/digest — so a resume
//! against corrupt bytes, a future incompatible format, or the wrong trace
//! all fail loudly instead of silently diverging.
//!
//! v2 (the block-streaming release) extends the payload with the resume
//! point's *block coordinates* — block size, resume block index and that
//! block's content digest — so resuming against a block-based source
//! ([`icfp_isa::TraceSource`]) validates and seeks directly to the resume
//! block instead of re-reading the trace from the start.
//!
//! v3 (the flat-table release) changes only the engine bytes: the issue
//! schedule is one live cycle instead of a 64-slot ring, and every cache,
//! stream-buffer, BTB and PPM table is one flat array per field, each
//! decoded against its geometry (a length that disagrees is a decode error,
//! never a panic).
//!
//! v4 keeps only state something reads.  The per-structure counters that
//! no model, report or digest read leave the engine bytes — cache, bus,
//! prefetcher, MSHR and fetch counters, the memory hierarchy's MLP trackers,
//! the store buffer's probe and hop totals, the predictor's
//! target-mispredict count — with the return-address stack (the ISA has no
//! call or return), the configuration's signature size and return-stack
//! depth, the register checkpoint iCFP and SLTP created every episode and
//! never restored, and the `cycle` / `processed` labels
//! [`EngineSnapshot`] carried outside its blob.  The four golden mid-run
//! iCFP checkpoints (20k-instruction stock runs, checkpointed halfway) shrink
//! from 511,707 / 362,833 / 353,405 / 356,839 bytes (pointer-chase,
//! dcache-thrash, branchy, streaming) to 510,543 / 361,609 / 352,789 /
//! 356,223; no simulated figure moves.
//!
//! v5 drops two facts the machine can derive.  iCFP's advance-episode flag
//! leaves the bytes: an episode lasts while a rally is pending or a slice
//! entry is active, which the decoded pending rallies and slice buffer
//! already say.  Each outstanding MSHR loses its prefetch flag: the
//! hierarchy allocates MSHRs for demand misses only, so the flag was always
//! `false` and nothing read it.  The four
//! golden mid-run checkpoints shrink from 510,543 / 361,609 / 352,789 /
//! 356,223 bytes to 510,541 / 361,602 / 352,788 / 356,222; no simulated
//! figure moves.
//!
//! v6 makes every model a resumable machine.  The in-order, Runahead,
//! Multipass and SLTP payloads were one of three states — not started,
//! seeded by a fast-forward (the whole warmed state), finished (the whole
//! run result) — and are now the machine itself, as iCFP's always was: its
//! engine, buffers and trace position, plus, for the Runahead machine, the
//! position its last squash restarted at.  iCFP's bytes do not change: its
//! four golden mid-run checkpoints keep their sizes, and the golden table
//! now pins a mid-run checkpoint of every model.
//!
//! v7 has one SLTP: [`CoreModel::Sltp`](icfp_core::CoreModel::Sltp) runs
//! iCFP's machine at the first step of the Figure 7 build, so an SLTP
//! payload is that machine's (slice buffer, store buffer, pending rallies,
//! slice values) in place of the retired SLTP machine's store redo log,
//! episode and committed-store map.  iCFP's machine now leads its bytes
//! with the model it runs, as the Runahead machine always did, so each
//! iCFP payload grows by that tag; nothing else in a non-SLTP payload
//! moves.
//!
//! v8 holds only what the run can still read.  iCFP's (and SLTP's)
//! slice-value window is written as the values a rally can still read —
//! results of entries in the slice buffer and of the producers active
//! entries name — not every value the episode recorded.  A stream buffer's
//! empty slots no longer carry a ready time.  The Runahead machine's
//! runahead cache, store-seen flag and squash restart leave the bytes: a
//! machine pauses only between walks, where the first is empty and the other
//! two are never read again.  The golden mid-run checkpoint of iCFP on
//! pointer-chase goes from 510,545 to 352,889 bytes, and a checkpoint taken
//! 130k instructions into that run from 2,434,529 to 352,905; no simulated
//! figure moves.  Older containers are refused by magic, with an error
//! naming both versions.

use crate::SimConfig;
use icfp_core::EngineSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Magic prefix of the on-disk container (also the format version).
pub const CKPT_MAGIC: &[u8; 12] = b"icfp-ckpt/v8";

/// A captured simulation: engine snapshot plus trace identity.  Produced by
/// [`Simulator::checkpoint`](crate::Simulator::checkpoint), consumed by
/// [`Simulator::resume`](crate::Simulator::resume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// The simulator configuration (model + microarchitecture) of the run.
    pub config: SimConfig,
    /// Name of the trace the run was simulating.
    pub workload: String,
    /// Length of that trace in dynamic instructions.
    pub trace_len: u64,
    /// [`Trace::digest`](icfp_isa::Trace::digest) of that trace (equal to
    /// [`icfp_isa::TraceSource::digest`] of any backing with this content).
    pub trace_digest: u64,
    /// Block size of the source the checkpoint was taken against
    /// (instructions per block).
    pub block_size: u64,
    /// Index of the block holding the next unprocessed instruction — where
    /// resume seeks to.
    pub resume_block: u64,
    /// [`icfp_isa::block_digest_of`] the resume block, validated on resume
    /// when the source's block geometry matches.
    pub resume_block_digest: u64,
    /// The engine's serialized state.
    pub snapshot: EngineSnapshot,
}

/// Errors from checkpoint capture, encoding and resume.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// `checkpoint()` was called on a simulator with no loaded trace.
    NotLoaded,
    /// The engine refused to seed/restore (e.g. already advanced, model
    /// mismatch, undecodable snapshot bytes).
    Engine(String),
    /// The checkpoint's core configuration is not one the models can be
    /// built from (a structure size of zero or past the ceiling; see
    /// `CoreConfig::validate`).
    Config(String),
    /// The container does not start with [`CKPT_MAGIC`]: another kind of
    /// file, or a checkpoint of another format version.
    BadMagic {
        /// The leading bytes found where the magic belongs (lossy UTF-8).
        found: String,
    },
    /// The container is not the size its header/length field promises:
    /// shorter, or followed by bytes that are not part of it.
    Truncated,
    /// The payload digest does not match — the bytes were corrupted.
    DigestMismatch {
        /// Digest recorded in the container.
        expected: u64,
        /// Digest of the payload actually present.
        found: u64,
    },
    /// The payload digest matched but the payload did not decode (internal
    /// inconsistency or a hand-edited file).
    Decode(String),
    /// `resume()` was handed a trace that is not the one the checkpoint was
    /// taken against.
    TraceMismatch {
        /// Trace identity recorded in the checkpoint.
        expected: String,
        /// Identity of the trace supplied to `resume`.
        found: String,
    },
    /// The resume block's content digest does not match the checkpoint
    /// (same trace identity but different block content — a damaged or
    /// inconsistent source).
    BlockMismatch {
        /// The resume block index.
        block: u64,
        /// Digest recorded in the checkpoint.
        expected: u64,
        /// Digest the source reports.
        found: u64,
    },
    /// The trace source failed while producing resume-point block data
    /// (I/O error, container corruption).
    Source(String),
    /// Filesystem error while reading/writing a checkpoint file.
    Io(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::NotLoaded => write!(f, "no trace loaded; nothing to checkpoint"),
            CkptError::Engine(e) => write!(f, "engine snapshot: {e}"),
            CkptError::Config(e) => write!(f, "checkpoint configuration: {e}"),
            CkptError::BadMagic { found } => write!(
                f,
                "not an {} container: found {found:?} (bad magic)",
                String::from_utf8_lossy(CKPT_MAGIC)
            ),
            CkptError::Truncated => write!(f, "checkpoint container is truncated"),
            CkptError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint payload digest mismatch (recorded {expected:#018x}, found {found:#018x})"
            ),
            CkptError::Decode(e) => write!(f, "checkpoint payload does not decode: {e}"),
            CkptError::TraceMismatch { expected, found } => write!(
                f,
                "checkpoint was taken against trace {expected}, resume got {found}"
            ),
            CkptError::BlockMismatch {
                block,
                expected,
                found,
            } => write!(
                f,
                "resume block {block} digest mismatch (checkpoint {expected:#018x}, source {found:#018x})"
            ),
            CkptError::Source(e) => write!(f, "trace source: {e}"),
            CkptError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

use icfp_isa::fnv1a;

impl SimCheckpoint {
    /// Encodes the checkpoint as an `icfp-ckpt/v8` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = serde::to_bytes(self);
        let mut out = Vec::with_capacity(CKPT_MAGIC.len() + 16 + payload.len());
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let digest = fnv1a(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Decodes an `icfp-ckpt/v8` container, validating magic, length and
    /// payload digest.
    ///
    /// # Errors
    ///
    /// See [`CkptError`] — every malformation is distinguished.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let magic = &bytes[..bytes.len().min(CKPT_MAGIC.len())];
        if !CKPT_MAGIC.starts_with(magic) {
            let found = String::from_utf8_lossy(magic).into_owned();
            return Err(CkptError::BadMagic { found });
        }
        if bytes.len() < CKPT_MAGIC.len() + 8 {
            return Err(CkptError::Truncated);
        }
        let rest = &bytes[CKPT_MAGIC.len()..];
        let (len_bytes, rest) = rest.split_at(8);
        let payload_len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes"));
        // Compare in u64 without adding to the (possibly hostile, near-MAX)
        // recorded length — `payload_len + 8` could overflow.
        if (rest.len() as u64) < 8 || (rest.len() as u64) - 8 < payload_len {
            return Err(CkptError::Truncated);
        }
        let payload_len = payload_len as usize;
        let (payload, tail) = rest.split_at(payload_len);
        if tail.len() != 8 {
            // Bytes after the digest (two containers concatenated, a longer
            // file partly overwritten) are as suspect as truncation.
            return Err(CkptError::Truncated);
        }
        let expected = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let found = fnv1a(payload);
        if found != expected {
            return Err(CkptError::DigestMismatch { expected, found });
        }
        serde::from_bytes(payload).map_err(|e| CkptError::Decode(e.to_string()))
    }

    /// Writes the container to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] on filesystem failure.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), CkptError> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| CkptError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Reads and validates a container from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] on filesystem failure, or any
    /// [`SimCheckpoint::from_bytes`] validation error.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| CkptError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreModel, SimConfig, Simulator};
    use icfp_isa::{DynInst, Op, Reg, TraceBuilder};

    fn trace() -> icfp_isa::Trace {
        let mut b = TraceBuilder::new("ckpt-test");
        for k in 0..30u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000 + k * 0x4000));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            b.push(DynInst::store(Reg::int(3), Reg::int(4), 0x8000 + k * 8));
        }
        b.build()
    }

    fn checkpoint_mid_run() -> (SimCheckpoint, icfp_isa::Trace) {
        let t = trace();
        let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
        sim.load(t.clone());
        assert!(sim.advance_to_inst(t.len() / 2).expect("loaded"));
        (sim.checkpoint().expect("mid-run checkpoint"), t)
    }

    #[test]
    fn container_round_trips() {
        let (ck, _) = checkpoint_mid_run();
        let bytes = ck.to_bytes();
        assert!(bytes.starts_with(CKPT_MAGIC));
        let back = SimCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(back, ck);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (ck, _) = checkpoint_mid_run();
        let mut bytes = ck.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(SimCheckpoint::from_bytes(&bytes), Err(CkptError::BadMagic { .. })));
        let found = String::from("xx");
        assert_eq!(SimCheckpoint::from_bytes(b"xx"), Err(CkptError::BadMagic { found }));
        // A container of an earlier version is refused by name, not decoded
        // into the current layout: the error names both versions.  (A v6
        // SLTP payload is another machine's bytes; a v7 iCFP payload carries
        // slice values a rally can no longer read.)
        for old in ["icfp-ckpt/v2", "icfp-ckpt/v3", "icfp-ckpt/v4", "icfp-ckpt/v5", "icfp-ckpt/v6", "icfp-ckpt/v7"] {
            bytes[..CKPT_MAGIC.len()].copy_from_slice(old.as_bytes());
            let err = SimCheckpoint::from_bytes(&bytes).unwrap_err();
            assert_eq!(err, CkptError::BadMagic { found: old.into() });
            let message = err.to_string();
            assert!(message.contains(old) && message.contains("icfp-ckpt/v8"), "{message}");
        }
    }

    #[test]
    fn corruption_is_caught_by_the_payload_digest() {
        let (ck, _) = checkpoint_mid_run();
        let mut bytes = ck.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match SimCheckpoint::from_bytes(&bytes) {
            Err(CkptError::DigestMismatch { .. }) => {}
            other => panic!("expected digest mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (ck, _) = checkpoint_mid_run();
        let bytes = ck.to_bytes();
        for cut in [CKPT_MAGIC.len(), bytes.len() - 1, bytes.len() - 9] {
            assert_eq!(
                SimCheckpoint::from_bytes(&bytes[..cut]),
                Err(CkptError::Truncated),
                "cut at {cut}"
            );
        }
        // Bytes after the digest — a stray one, a second container — are the
        // same error: the container is not the size its length field says.
        for trailing in [&[0u8][..], &bytes[..]] {
            let longer = [&bytes[..], trailing].concat();
            assert_eq!(SimCheckpoint::from_bytes(&longer), Err(CkptError::Truncated));
        }
    }

    #[test]
    fn hostile_length_field_is_an_error_not_a_panic() {
        // magic + length u64::MAX + some tail: `len + 8` must not overflow.
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(SimCheckpoint::from_bytes(&bytes), Err(CkptError::Truncated));
        // A merely-too-large (non-overflowing) length is also truncation.
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.extend_from_slice(&1_000_000u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        assert_eq!(SimCheckpoint::from_bytes(&bytes), Err(CkptError::Truncated));
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let (ck, _) = checkpoint_mid_run();
        let path = std::env::temp_dir().join(format!(
            "icfp-ckpt-test-{}.ckpt",
            std::process::id()
        ));
        ck.write_file(&path).expect("write");
        let back = SimCheckpoint::read_file(&path).expect("read");
        assert_eq!(back, ck);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_unbuildable_structure_sizes_instead_of_panicking() {
        // Digest-valid containers whose configuration would panic
        // `SliceBuffer::new` (zero, or capacity overflow) or abort in the
        // allocator: a typed error, before any engine is built.
        // (`CoreConfig::validate`'s own test covers every field.)
        for bad in [0, 1 << 40, usize::MAX / 2] {
            let (mut ck, t) = checkpoint_mid_run();
            ck.config.cfg.slice_buffer_entries = bad;
            let ck = SimCheckpoint::from_bytes(&ck.to_bytes()).expect("digest-valid");
            match Simulator::resume(&ck, t) {
                Err(CkptError::Config(e)) => assert!(e.contains("slice_buffer_entries"), "{e}"),
                other => panic!("{bad}: expected a config error, got {other:?}"),
            }
        }
        // Sizes only some models allocate: SLTP's store buffer, sized by
        // `srl_entries` under its SRL memory system (`VecDeque::with_capacity`
        // overflow), and the baseline store queue (a zero panics on the
        // first store of an in-order run).
        for (model, field) in [
            (CoreModel::Sltp, "srl_entries"),
            (CoreModel::InOrder, "pipeline.baseline_store_buffer"),
        ] {
            let mut sim = Simulator::new(SimConfig::new(model));
            sim.load(trace());
            let mut ck = sim.checkpoint().expect("checkpoint of a loaded run");
            match model {
                CoreModel::Sltp => ck.config.cfg.srl_entries = usize::MAX / 2,
                _ => ck.config.cfg.pipeline.baseline_store_buffer = 0,
            }
            let ck = SimCheckpoint::from_bytes(&ck.to_bytes()).expect("digest-valid");
            match Simulator::resume(&ck, trace()) {
                Err(CkptError::Config(e)) => assert!(e.contains(field), "{e}"),
                other => panic!("{field}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn resume_rejects_the_wrong_trace() {
        let (ck, _) = checkpoint_mid_run();
        let mut b = TraceBuilder::new("ckpt-test"); // same name, different body
        for _ in 0..10 {
            b.push(DynInst::nop());
        }
        match Simulator::resume(&ck, b.build()) {
            Err(CkptError::TraceMismatch { .. }) => {}
            other => panic!("expected trace mismatch, got {other:?}"),
        }
    }
}
