//! The `icfp-trace/v1` and `icfp-trace/v2` on-disk trace containers.
//!
//! A versioned, digest-validated file format for dynamic instruction traces,
//! designed so that traces far larger than host RAM can be simulated: the
//! reader ([`TraceFile`]) implements [`TraceSource`] by decoding blocks
//! *lazily* through a small bounded cache with two-block read-ahead, and the
//! writer ([`TraceFileWriter`]) streams instructions out block by block
//! without ever materializing the whole trace.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       13    magic: the ASCII bytes "icfp-trace/v1" or "icfp-trace/v2"
//! 13      8     index offset (u64 LE; patched when the writer finishes)
//! 21      ...   blocks, back to back: a v1 block is a u64 record count,
//!               then per record the instruction's position (u64) and the
//!               vendored-serde encoding of its DynInst; v2 blocks use the
//!               varint + delta codec of the crate's `trace_v2` module
//! index   n     index: vendored-serde encoding of [`struct@TraceIndex`]
//!               (name, total instructions, block size, whole-trace digest,
//!               per-block {offset, byte length, instruction count, digest})
//! end-8   8     FNV-1a digest of the index bytes (u64 LE)
//! ```
//!
//! The two versions differ *only* in the block encoding ([`TraceFormat`]
//! selects it at write time; the reader dispatches on the magic).  Index
//! encoding, digests and geometry rules are shared, and the per-block digest
//! is over the decoded instructions — so the same content carries the same
//! identity in either version and checkpoints resume across them.
//!
//! Every malformation — wrong magic, truncation, offsets past the end of the
//! file, lengths that do not sum, block content whose digest disagrees with
//! the index — is a typed [`TraceSourceError`], never a panic: hostile or
//! damaged inputs fail loudly at `open`/`block` time.
//!
//! The whole-trace digest recorded in the index uses the exact
//! [`Trace::digest`] definition (an [`InstDigest`] seeded with the name, over
//! every instruction's field values, length last), so a file written from
//! any [`TraceSource`] carries the same identity as the equivalent in-memory
//! arena — checkpoints taken against one resume against the other.  Both
//! digests are functions of the instructions, not of the bytes on disk: a
//! container whose index carries digests of any other definition (one
//! written before [`InstDigest`] existed) is refused block by block with
//! [`TraceSourceError::BlockDigestMismatch`] and by `verify` /
//! `open_validated` with [`TraceSourceError::Corrupt`].

use crate::source::{
    block_digest_at, BlockCache, Residency, TraceBlock, TraceSource, TraceSourceError, WarmStore,
};
use crate::trace::Trace;
use crate::{inst_mix, DynInst, InstDigest, InstSeq, Op};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};

/// Magic prefix of a version-1 container.
pub const TRACE_MAGIC: &[u8; 13] = b"icfp-trace/v1";

/// Magic prefix of a version-2 (varint + delta) container.
pub const TRACE_MAGIC_V2: &[u8; 13] = b"icfp-trace/v2";

/// Byte offset at which block data starts (magic + index-offset field).
const DATA_START: u64 = TRACE_MAGIC.len() as u64 + 8;

/// On-disk block encoding of a trace container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `icfp-trace/v1`: per block a record count, then each record's
    /// position and vendored-serde `DynInst`.
    V1,
    /// `icfp-trace/v2`: varint + delta codec (the crate's `trace_v2`
    /// module), roughly a fifth of the v1 size on real instruction streams.
    V2,
}

impl TraceFormat {
    /// The 13-byte magic this format writes.
    fn magic(self) -> &'static [u8; 13] {
        match self {
            TraceFormat::V1 => TRACE_MAGIC,
            TraceFormat::V2 => TRACE_MAGIC_V2,
        }
    }

    /// Parses a CLI spelling (`"v1"`/`"1"`, `"v2"`/`"2"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v1" | "1" => Some(TraceFormat::V1),
            "v2" | "2" => Some(TraceFormat::V2),
            _ => None,
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceFormat::V1 => "v1",
            TraceFormat::V2 => "v2",
        })
    }
}

/// Decoded blocks kept resident per open file: the current block, one block
/// of random-access lookback (rally replay), and the two blocks the decode
/// worker keeps ahead of the consumer.  This constant is the whole story of
/// "peak trace memory while streaming".
const RESIDENT_BLOCKS: usize = 4;

/// Per-block entry of the container index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct BlockMeta {
    /// Absolute file offset of the block's serialized bytes.
    offset: u64,
    /// Serialized length in bytes.
    byte_len: u64,
    /// Number of instructions in the block.
    inst_count: u64,
    /// [`block_digest_at`] the block's first position, of its instructions.
    digest: u64,
}

/// The container index (serialized after the last block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceIndex {
    name: String,
    total_insts: u64,
    block_size: u64,
    whole_digest: u64,
    blocks: Vec<BlockMeta>,
}

fn io_err(path: &Path, e: std::io::Error) -> TraceSourceError {
    TraceSourceError::Io(format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming `icfp-trace/v1` writer: instructions in, blocks out, bounded
/// memory (one block buffer plus the index).
///
/// [`TraceFileWriter::push`] mirrors [`crate::TraceBuilder`] exactly —
/// positions follow the push order and a zero program counter is assigned
/// from the running PC (4-byte spaced, [`TraceFileWriter::set_next_pc`]
/// models loops) — so a converter emitting through the writer produces the
/// same instruction stream it would have built in memory.
#[derive(Debug)]
pub struct TraceFileWriter {
    file: BufWriter<File>,
    path: PathBuf,
    name: String,
    format: TraceFormat,
    block_size: usize,
    buf: Vec<DynInst>,
    blocks: Vec<BlockMeta>,
    /// Next write offset (== bytes written so far).
    offset: u64,
    total: u64,
    /// Whole-trace digest accumulator (name already folded; length folded at
    /// finish — see [`Trace::digest`]).
    whole: InstDigest,
    /// Digest of the block being buffered, fed the same per-instruction mix.
    block: InstDigest,
    next_pc: u64,
}

/// What [`TraceFileWriter::finish`] reports about the written container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Total dynamic instructions written.
    pub instructions: u64,
    /// Number of blocks written.
    pub blocks: usize,
    /// Whole-trace content digest (equals [`Trace::digest`] of the same
    /// content).
    pub digest: u64,
    /// Total container size in bytes.
    pub bytes: u64,
}

impl TraceFileWriter {
    /// Creates a container at `path` for a trace named `name`, cutting
    /// blocks of `block_size` instructions ([`crate::DEFAULT_BLOCK_INSTS`] is
    /// the conventional choice) in the given block encoding
    /// ([`TraceFormat`]).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn create_as(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        block_size: usize,
        format: TraceFormat,
    ) -> Result<Self, TraceSourceError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut file = BufWriter::new(file);
        file.write_all(format.magic())
            .and_then(|()| file.write_all(&0u64.to_le_bytes()))
            .map_err(|e| io_err(&path, e))?;
        let name = name.into();
        let whole = InstDigest::named(&name);
        Ok(TraceFileWriter {
            file,
            path,
            name,
            format,
            block_size: block_size.max(1),
            buf: Vec::with_capacity(block_size.max(1)),
            blocks: Vec::new(),
            offset: DATA_START,
            total: 0,
            whole,
            block: InstDigest::at(0),
            next_pc: 0x1000,
        })
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Overrides the PC assigned to the next pushed zero-PC instruction
    /// (loop modelling, mirroring [`crate::TraceBuilder::set_next_pc`]).
    pub fn set_next_pc(&mut self, pc: u64) {
        self.next_pc = pc;
    }

    /// Appends an instruction, assigning its program counter if it is zero,
    /// exactly as [`crate::TraceBuilder::push`] would.
    ///
    /// # Errors
    ///
    /// Filesystem failures while flushing a completed block.
    pub fn push(&mut self, mut inst: DynInst) -> Result<(), TraceSourceError> {
        if inst.pc == 0 {
            inst.pc = self.next_pc;
        }
        self.next_pc = inst.pc + 4;
        self.push_raw(inst)
    }

    /// Appends an instruction verbatim, PC included.  Used when
    /// re-containering content that already carries final PCs.
    ///
    /// # Errors
    ///
    /// Filesystem failures while flushing a completed block.
    pub fn push_raw(&mut self, inst: DynInst) -> Result<(), TraceSourceError> {
        let mix = inst_mix(self.total, &inst);
        self.whole.push_mix(mix);
        self.block.push_mix(mix);
        self.buf.push(inst);
        self.total += 1;
        if self.buf.len() >= self.block_size {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceSourceError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let bytes = match self.format {
            TraceFormat::V1 => encode_v1(self.total - self.buf.len() as InstSeq, &self.buf),
            TraceFormat::V2 => {
                let mut out = Vec::with_capacity(self.buf.len() * 12);
                crate::trace_v2::encode_block(&self.buf, &mut out);
                out
            }
        };
        self.blocks.push(BlockMeta {
            offset: self.offset,
            byte_len: bytes.len() as u64,
            inst_count: self.buf.len() as u64,
            digest: std::mem::take(&mut self.block).finish(),
        });
        self.file
            .write_all(&bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.offset += bytes.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the final partial block, writes the index and its digest, and
    /// patches the index offset into the header.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn finish(mut self) -> Result<TraceFileSummary, TraceSourceError> {
        self.flush_block()?;
        let digest = self.whole.finish();
        let index = TraceIndex {
            name: self.name.clone(),
            total_insts: self.total,
            block_size: self.block_size as u64,
            whole_digest: digest,
            blocks: std::mem::take(&mut self.blocks),
        };
        let index_offset = self.offset;
        let index_bytes = serde::to_bytes(&index);
        let index_digest = crate::fnv1a(&index_bytes);
        let blocks = index.blocks.len();
        self.file
            .write_all(&index_bytes)
            .and_then(|()| self.file.write_all(&index_digest.to_le_bytes()))
            .map_err(|e| io_err(&self.path, e))?;
        let bytes = index_offset + index_bytes.len() as u64 + 8;
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| TraceSourceError::Io(format!("{}: {e}", self.path.display())))?;
        file.seek(SeekFrom::Start(TRACE_MAGIC.len() as u64))
            .and_then(|_| file.write_all(&index_offset.to_le_bytes()))
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err(&self.path, e))?;
        Ok(TraceFileSummary {
            instructions: self.total,
            blocks,
            digest,
            bytes,
        })
    }

    /// Writes an entire in-memory trace to `path` (content verbatim) in the
    /// given block encoding.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn write_trace_as(
        path: impl AsRef<Path>,
        trace: &Trace,
        block_size: usize,
        format: TraceFormat,
    ) -> Result<TraceFileSummary, TraceSourceError> {
        let mut w = TraceFileWriter::create_as(path, trace.name(), block_size, format)?;
        for inst in trace {
            w.push_raw(*inst)?;
        }
        let summary = w.finish()?;
        debug_assert_eq!(summary.digest, trace.digest());
        Ok(summary)
    }

    /// Streams any [`TraceSource`] into a container at `path` (content
    /// verbatim, re-blocked to `block_size`), holding one input and one
    /// output block in memory at a time — the `trace convert` path for
    /// re-containering v1 as v2 and back (digest preserved either way).
    ///
    /// # Errors
    ///
    /// Source read failures and filesystem failures.
    pub fn write_source_as(
        path: impl AsRef<Path>,
        source: &dyn TraceSource,
        block_size: usize,
        format: TraceFormat,
    ) -> Result<TraceFileSummary, TraceSourceError> {
        let mut w = TraceFileWriter::create_as(path, source.name(), block_size, format)?;
        for b in 0..source.block_count() {
            let block = source.block(b)?;
            for inst in block.insts() {
                w.push_raw(*inst)?;
            }
        }
        w.finish()
    }
}

/// Shortest `icfp-trace/v1` record: position, `pc` and `imm` (8 bytes
/// each), the `op` and `width` variant tags (4 each) and the five `Option`
/// presence bytes.
const V1_MIN_RECORD_BYTES: usize = 8 + 8 + 8 + 4 + 4 + 5;

/// Encodes one `icfp-trace/v1` block whose first instruction sits at
/// position `first`: the record count, then per record its position as a
/// `u64` and the instruction's vendored-serde fields — the bytes a record
/// with a leading sequence-number field encoded to, so v1 files keep one
/// byte image.
fn encode_v1(first: InstSeq, insts: &[DynInst]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + insts.len() * 48);
    (insts.len() as u64).serialize(&mut out);
    for (pos, inst) in (first..).zip(insts) {
        pos.serialize(&mut out);
        inst.serialize(&mut out);
    }
    out
}

/// Why a load or store at trace position `pos` is refused: every model
/// reads the address of each memory operation it times.
pub(crate) fn no_address(op: Op, pos: InstSeq) -> String {
    let what = if op.is_load() { "load" } else { "store" };
    format!("the {what} at position {pos} has no address")
}

/// Decodes exactly `count` `icfp-trace/v1` records starting at position
/// `first`.  A record whose stored position is not where it sits is refused:
/// the position is not content the reader keeps, so it must at least agree;
/// so is a load or store without an address.
fn decode_v1(bytes: &[u8], first: InstSeq, count: usize) -> Result<Vec<DynInst>, String> {
    let mut r = serde::Reader::new(bytes);
    let stored = u64::deserialize(&mut r).map_err(|e| e.to_string())?;
    if stored != count as u64 {
        return Err(format!("it holds {stored} instructions, the index claims {count}"));
    }
    if count > bytes.len() / V1_MIN_RECORD_BYTES {
        return Err(format!("{} bytes cannot hold {count} instructions", bytes.len()));
    }
    let mut insts = Vec::with_capacity(count);
    for pos in first..first + count as InstSeq {
        let stored = u64::deserialize(&mut r).map_err(|e| e.to_string())?;
        if stored != pos {
            return Err(format!("the record at position {pos} stores position {stored}"));
        }
        let inst = DynInst::deserialize(&mut r).map_err(|e| e.to_string())?;
        if inst.op.is_mem() && inst.addr.is_none() {
            return Err(no_address(inst.op, pos));
        }
        insts.push(inst);
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after {count} instructions", r.remaining()));
    }
    Ok(insts)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Lazily-decoding `icfp-trace` reader; the on-disk [`TraceSource`].
///
/// `open` validates the container's structure (magic, index digest, block
/// geometry, offsets) without reading any block data; blocks decode on first
/// access through a bounded MRU cache, and each access hands the *two
/// following* blocks to a background decode thread, so the worker decodes
/// `k+1` and `k+2` while the consumer works through block `k` and never
/// sleeps between hints; the cache never decodes under its map lock, so the
/// consumer's lookup of a resident block does not wait for the worker.
/// [`TraceFile::open_sync`] keeps everything on the calling thread (the
/// next block is then fetched inline, as a plain demand fetch).
/// Thread-safe: the sweep executor shares one open file across its pool.
#[derive(Debug)]
pub struct TraceFile {
    inner: Arc<TraceFileInner>,
    /// Background decode worker feeding the shared cache ahead of the
    /// consumer; `None` under [`TraceFile::open_sync`] or when the file has
    /// at most one block.
    prefetcher: Option<PrefetchWorker>,
    warm: WarmStore,
}

/// The state a [`TraceFile`] shares with its prefetch worker.
#[derive(Debug)]
struct TraceFileInner {
    path: PathBuf,
    index: TraceIndex,
    format: TraceFormat,
    file: Mutex<File>,
    /// The shared bounded MRU cache (plus whatever single block a cursor
    /// pins) is the entire decoded footprint of a streamed run.
    cache: BlockCache,
    residency: Arc<Residency>,
    /// The last decode's encoded-bytes buffer, taken for the duration of a
    /// decode and put back after (a concurrent decode starts from empty).
    spare: Mutex<Vec<u8>>,
}

/// Background block-decode worker: a bounded request channel feeding one
/// named thread that pulls block indices and decodes them into the shared
/// cache.  Hints never block the consumer ([`SyncSender::try_send`]; a full
/// queue just drops the hint) and decode errors are deliberately swallowed —
/// the demand fetch stays the source of truth, and of errors.  Dropping the
/// worker closes the channel and joins the thread.
#[derive(Debug)]
struct PrefetchWorker {
    tx: Option<SyncSender<usize>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PrefetchWorker {
    fn spawn(inner: Arc<TraceFileInner>) -> Option<Self> {
        let (tx, rx) = mpsc::sync_channel::<usize>(2);
        let handle = std::thread::Builder::new()
            .name("icfp-trace-prefetch".into())
            .spawn(move || {
                for idx in rx {
                    let _ = inner.fetch(idx);
                }
            })
            .ok()?;
        Some(PrefetchWorker {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// Hints that block `idx` will be wanted soon (non-blocking).
    fn request(&self, idx: usize) {
        if let Some(tx) = &self.tx {
            let _ = tx.try_send(idx);
        }
    }
}

impl Drop for PrefetchWorker {
    fn drop(&mut self) {
        // Close the channel first so the worker's `for` loop ends, then join
        // so no thread outlives the file it reads from.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl TraceFile {
    /// Opens and structurally validates a container.
    ///
    /// # Errors
    ///
    /// Any [`TraceSourceError`]; hostile input (truncated files, overflowing
    /// lengths, inconsistent indices) is an error, never a panic.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceSourceError> {
        Self::open_impl(path, true)
    }

    /// [`TraceFile::open`] without the background decode thread: every block
    /// (including the next-block prefetch) decodes inline on the calling
    /// thread.  Useful as a deterministic-scheduling baseline and for the
    /// decode-throughput benchmarks.
    ///
    /// # Errors
    ///
    /// As [`TraceFile::open`].
    pub fn open_sync(path: impl AsRef<Path>) -> Result<Self, TraceSourceError> {
        Self::open_impl(path, false)
    }

    /// [`TraceFile::open`] plus a whole-trace content-identity check: the
    /// container's digest must equal `expected` or the open is refused.
    /// This is the distributed-sweep path — a worker is handed a trace
    /// *digest* over the wire, never trace bytes, and must not execute
    /// against a stale, renamed or regenerated-differently local file that
    /// happens to sit at the agreed path.
    ///
    /// # Errors
    ///
    /// As [`TraceFile::open`], plus [`TraceSourceError::Corrupt`] naming
    /// both digests on a mismatch.
    pub fn open_validated(
        path: impl AsRef<Path>,
        expected: u64,
    ) -> Result<Self, TraceSourceError> {
        let file = Self::open(path)?;
        let found = TraceSource::digest(&file);
        if found != expected {
            return Err(TraceSourceError::Corrupt(format!(
                "content digest {found:#018x} does not match the expected {expected:#018x}"
            )));
        }
        Ok(file)
    }

    fn open_impl(path: impl AsRef<Path>, prefetch: bool) -> Result<Self, TraceSourceError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(|e| io_err(&path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(&path, e))?.len();

        // Header: magic + index offset.
        let mut header = [0u8; DATA_START as usize];
        if file_len < DATA_START + 8 {
            // Too short even for header + index digest: decide between "not
            // ours" and "ours but cut off" by whatever magic prefix exists.
            let mut prefix = vec![0u8; file_len.min(TRACE_MAGIC.len() as u64) as usize];
            file.read_exact(&mut prefix).map_err(|e| io_err(&path, e))?;
            return Err(
                if TRACE_MAGIC.starts_with(prefix.as_slice())
                    || TRACE_MAGIC_V2.starts_with(prefix.as_slice())
                {
                    TraceSourceError::Truncated
                } else {
                    TraceSourceError::BadMagic
                },
            );
        }
        file.read_exact(&mut header).map_err(|e| io_err(&path, e))?;
        let format = match &header[..TRACE_MAGIC.len()] {
            m if m == TRACE_MAGIC => TraceFormat::V1,
            m if m == TRACE_MAGIC_V2 => TraceFormat::V2,
            _ => return Err(TraceSourceError::BadMagic),
        };
        let index_offset = u64::from_le_bytes(
            header[TRACE_MAGIC.len()..].try_into().expect("8 bytes"),
        );
        // The index spans [index_offset, file_len - 8); its digest is the
        // trailing 8 bytes.  All comparisons stay in u64 so hostile
        // near-MAX offsets cannot overflow.
        if index_offset < DATA_START || index_offset > file_len.saturating_sub(8) {
            return Err(TraceSourceError::Truncated);
        }
        let index_len = (file_len - 8 - index_offset) as usize;
        let mut index_bytes = vec![0u8; index_len];
        let mut digest_bytes = [0u8; 8];
        file.seek(SeekFrom::Start(index_offset))
            .and_then(|_| file.read_exact(&mut index_bytes))
            .and_then(|()| file.read_exact(&mut digest_bytes))
            .map_err(|e| io_err(&path, e))?;
        let expected = u64::from_le_bytes(digest_bytes);
        let found = crate::fnv1a(&index_bytes);
        if found != expected {
            return Err(TraceSourceError::Corrupt(format!(
                "index digest mismatch (recorded {expected:#018x}, found {found:#018x})"
            )));
        }
        let index: TraceIndex = serde::from_bytes(&index_bytes)
            .map_err(|e| TraceSourceError::Corrupt(format!("index does not decode: {e}")))?;

        // Geometry validation: block sizes, counts and extents must be
        // internally consistent and stay inside the data region.
        if index.block_size == 0 && index.total_insts > 0 {
            return Err(TraceSourceError::Corrupt("zero block size".into()));
        }
        let expect_blocks = if index.total_insts == 0 {
            0
        } else {
            index.total_insts.div_ceil(index.block_size)
        };
        if index.blocks.len() as u64 != expect_blocks {
            return Err(TraceSourceError::Corrupt(format!(
                "index holds {} blocks, geometry implies {expect_blocks}",
                index.blocks.len()
            )));
        }
        let mut counted = 0u64;
        for (k, b) in index.blocks.iter().enumerate() {
            let want = if k as u64 + 1 == expect_blocks {
                index.total_insts - index.block_size * (expect_blocks - 1)
            } else {
                index.block_size
            };
            if b.inst_count != want {
                return Err(TraceSourceError::Corrupt(format!(
                    "block {k} holds {} instructions, geometry implies {want}",
                    b.inst_count
                )));
            }
            let end = b.offset.checked_add(b.byte_len).ok_or_else(|| {
                TraceSourceError::Corrupt(format!("block {k} extent overflows"))
            })?;
            if b.offset < DATA_START || end > index_offset {
                return Err(TraceSourceError::Corrupt(format!(
                    "block {k} extent [{}, {end}) lies outside the data region",
                    b.offset
                )));
            }
            counted += b.inst_count;
        }
        if counted != index.total_insts {
            return Err(TraceSourceError::Corrupt(format!(
                "block counts sum to {counted}, index claims {}",
                index.total_insts
            )));
        }

        let inner = Arc::new(TraceFileInner {
            path,
            index,
            format,
            file: Mutex::new(file),
            cache: BlockCache::new(RESIDENT_BLOCKS),
            residency: Arc::new(Residency::default()),
            spare: Mutex::default(),
        });
        let prefetcher = (prefetch && inner.index.blocks.len() > 1)
            .then(|| PrefetchWorker::spawn(Arc::clone(&inner)))
            .flatten();
        Ok(TraceFile { inner, prefetcher, warm: WarmStore::default() })
    }

    /// The file the container was opened from.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The container's block encoding (from its magic).
    pub fn format(&self) -> TraceFormat {
        self.inner.format
    }

    /// True when a background decode thread is feeding the cache.
    pub fn prefetches_async(&self) -> bool {
        self.prefetcher.is_some()
    }

    /// Decodes and digest-checks every block and re-derives the whole-trace
    /// digest, in one bounded-memory pass.
    ///
    /// # Errors
    ///
    /// The first corruption found.
    pub fn verify(&self) -> Result<(), TraceSourceError> {
        let mut whole = InstDigest::named(&self.inner.index.name);
        for k in 0..self.block_count() {
            for inst in self.block(k)?.insts() {
                whole.push(inst);
            }
        }
        let found = whole.finish();
        if found != self.inner.index.whole_digest {
            return Err(TraceSourceError::Corrupt(format!(
                "whole-trace digest mismatch (recorded {:#018x}, found {found:#018x})",
                self.inner.index.whole_digest
            )));
        }
        Ok(())
    }

    /// A one-line human-readable description (`trace info`).
    pub fn summary(&self) -> String {
        format!(
            "{}: [{}] {} insts in {} blocks of {} ({} resident max), digest {:#018x}",
            self.inner.index.name,
            self.inner.format,
            self.inner.index.total_insts,
            self.inner.index.blocks.len(),
            self.inner.index.block_size,
            RESIDENT_BLOCKS,
            self.inner.index.whole_digest
        )
    }
}

impl TraceFileInner {
    /// Serves one block through the shared cache, decoding on a miss.
    fn fetch(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        self.cache.get_or_insert(index, || self.decode(index))
    }

    /// Reads, decodes and validates one block from disk.
    fn decode(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        let count = self.index.blocks.len();
        let Some(meta) = self.index.blocks.get(index) else {
            return Err(TraceSourceError::BlockOutOfRange { index, count });
        };
        let mut bytes = std::mem::take(&mut *self.spare.lock().expect("spare buffer lock"));
        bytes.resize(meta.byte_len as usize, 0);
        {
            let mut file = self.file.lock().expect("trace file lock");
            file.seek(SeekFrom::Start(meta.offset))
                .and_then(|_| file.read_exact(&mut bytes))
                .map_err(|e| io_err(&self.path, e))?;
        }
        let decoded = self.decode_bytes(index, meta, &bytes);
        *self.spare.lock().expect("spare buffer lock") = bytes;
        let insts = decoded?;
        Ok(Arc::new(TraceBlock::counted(
            index * self.index.block_size as usize,
            insts,
            &self.residency,
        )))
    }

    /// Decodes one block's bytes and checks its count and content digest.
    fn decode_bytes(
        &self,
        index: usize,
        meta: &BlockMeta,
        bytes: &[u8],
    ) -> Result<Vec<DynInst>, TraceSourceError> {
        let first = index as InstSeq * self.index.block_size;
        let count = meta.inst_count as usize;
        let insts = match self.format {
            TraceFormat::V1 => decode_v1(bytes, first, count),
            TraceFormat::V2 => crate::trace_v2::decode_block(bytes, first, count),
        }
        .map_err(|e| TraceSourceError::Corrupt(format!("block {index} does not decode: {e}")))?;
        let found = block_digest_at(first, &insts);
        if found != meta.digest {
            return Err(TraceSourceError::BlockDigestMismatch {
                index,
                expected: meta.digest,
                found,
            });
        }
        Ok(insts)
    }
}

impl TraceSource for TraceFile {
    fn name(&self) -> &str {
        &self.inner.index.name
    }

    fn len(&self) -> usize {
        self.inner.index.total_insts as usize
    }

    fn digest(&self) -> u64 {
        self.inner.index.whole_digest
    }

    fn block_size(&self) -> usize {
        self.inner.index.block_size as usize
    }

    fn block(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        let block = self.inner.fetch(index)?;
        // Read-ahead: keep the worker two blocks in front of the consumer
        // (current + look-back + these two = RESIDENT_BLOCKS), or without a
        // worker fetch the next block inline.  A read-ahead failure is
        // deliberately ignored here — if the consumer really reaches that
        // block, the demand fetch will surface the error.
        let blocks = self.inner.index.blocks.len();
        match &self.prefetcher {
            Some(p) => (index + 1..blocks.min(index + 3)).for_each(|k| p.request(k)),
            None => (index + 1..blocks.min(index + 2)).for_each(|k| drop(self.inner.fetch(k))),
        }
        Ok(block)
    }

    fn block_digest(&self, index: usize) -> Result<u64, TraceSourceError> {
        self.inner.index.blocks.get(index).map(|b| b.digest).ok_or(
            TraceSourceError::BlockOutOfRange {
                index,
                count: self.inner.index.blocks.len(),
            },
        )
    }

    fn residency(&self) -> Option<&Residency> {
        Some(&self.inner.residency)
    }

    fn warm(&self) -> Option<&WarmStore> {
        Some(&self.warm)
    }
}

impl From<TraceFile> for Arc<dyn TraceSource> {
    fn from(f: TraceFile) -> Self {
        Arc::new(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg, TraceBuilder, TraceCursor};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("icfp-trace-test-{}-{name}", std::process::id()))
    }

    fn sample_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("file-test");
        for k in 0..n {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x1000 + k * 64));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), k));
        }
        b.build()
    }

    #[test]
    fn round_trips_content_blocks_and_digests() {
        let t = sample_trace(40); // 80 insts
        let path = tmp("roundtrip");
        let summary =
            TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        assert_eq!(summary.instructions, 80);
        assert_eq!(summary.blocks, 5);
        assert_eq!(summary.digest, t.digest());

        let f = TraceFile::open(&path).expect("open");
        assert_eq!(f.name(), "file-test");
        assert_eq!(f.len(), 80);
        assert_eq!(f.digest(), t.digest());
        assert_eq!(f.block_count(), 5);
        f.verify().expect("verify");

        let cur = TraceCursor::new(&f);
        for (k, want) in t.iter().enumerate() {
            assert_eq!(&cur.get(k), want, "inst {k}");
        }
        // Random access back into an earlier block works too.
        assert_eq!(&cur.get(3), t.get(3).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_validated_binds_the_file_to_its_expected_digest() {
        let t = sample_trace(20);
        let path = tmp("validated");
        TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        // The right digest opens; any other digest is refused with a typed
        // error naming both — the worker-side gate for digests-over-the-wire.
        let f = TraceFile::open_validated(&path, t.digest()).expect("matching digest");
        assert_eq!(f.len(), t.len());
        let err = TraceFile::open_validated(&path, t.digest() ^ 1).expect_err("wrong digest");
        let msg = err.to_string();
        assert!(msg.contains("does not match"), "{msg}");
        assert!(
            msg.contains(&format!("{:#018x}", t.digest())),
            "names the found digest: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn residency_stays_bounded_while_streaming() {
        let t = sample_trace(200); // 400 insts, 25 blocks of 16
        let path = tmp("residency");
        TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        // Decoded inline, so no decode is in flight when a block is counted:
        // the bound is the MRU cache plus the cursor's pinned block.  The
        // background reader's bound, one decode more, is held by
        // `async_and_sync_prefetch_serve_identical_content`.
        let f = TraceFile::open_sync(&path).expect("open");
        let cur = TraceCursor::new(&f);
        for k in 0..f.len() {
            let _ = cur.get(k);
        }
        let r = f.residency().expect("file source is counted");
        assert!(
            r.peak() <= RESIDENT_BLOCKS + 1,
            "peak resident blocks {} exceeds the bound",
            r.peak()
        );
        assert!(r.peak() >= 2, "prefetch should have been exercised");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty");
        let w = TraceFileWriter::create_as(&path, "empty", 16, TraceFormat::V2).expect("create");
        let s = w.finish().expect("finish");
        assert_eq!(s.instructions, 0);
        assert_eq!(s.blocks, 0);
        let f = TraceFile::open(&path).expect("open");
        assert!(f.is_empty());
        assert_eq!(f.block_count(), 0);
        assert_eq!(f.digest(), Trace::new("empty", vec![]).digest());
        f.verify().expect("verify empty");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_load_or_store_without_an_address_does_not_decode() {
        // Every model reads each memory operation's address: a container
        // holding one without is malformed in either encoding, at its
        // position, and never reaches a model.
        let load = DynInst::load(Reg::int(3), Reg::int(2), 0x80);
        for format in [TraceFormat::V1, TraceFormat::V2] {
            for (what, inst) in [("load", load), ("store", DynInst::store(Reg::int(1), Reg::int(2), 0x40))] {
                let path = tmp(&format!("noaddr-{format}-{what}"));
                let mut w = TraceFileWriter::create_as(&path, "noaddr", 16, format).expect("create");
                for inst in [DynInst::nop(), load, DynInst { addr: None, ..inst }, DynInst::nop()] {
                    w.push_raw(inst).expect("push");
                }
                w.finish().expect("finish");
                let f = TraceFile::open(&path).expect("the structure is sound");
                let want = format!("block 0 does not decode: the {what} at position 2 has no address");
                for err in [f.block(0).map(|_| ()).unwrap_err(), f.verify().unwrap_err()] {
                    assert!(matches!(&err, TraceSourceError::Corrupt(m) if *m == want), "{format} {what}: {err}");
                }
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn writer_assigns_pc_and_seq_like_trace_builder() {
        let path = tmp("pcassign");
        let mut w = TraceFileWriter::create_as(&path, "pc", 4, TraceFormat::V2).expect("create");
        w.push(DynInst::nop()).unwrap();
        w.set_next_pc(0x1000);
        w.push(DynInst::nop()).unwrap();
        w.finish().unwrap();

        let mut b = TraceBuilder::new("pc");
        b.push(DynInst::nop());
        b.set_next_pc(0x1000);
        b.push(DynInst::nop());
        let t = b.build();

        let f = TraceFile::open(&path).expect("open");
        assert_eq!(f.digest(), t.digest(), "writer must mirror TraceBuilder");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        let t = sample_trace(10);
        let path = tmp("hostile");
        TraceFileWriter::write_trace_as(&path, &t, 8, TraceFormat::V1).expect("write");
        let bytes = std::fs::read(&path).expect("read back");

        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        std::fs::write(&path, &wrong).unwrap();
        assert_eq!(TraceFile::open(&path), fail_with_bad_magic());

        // Truncations at every structurally interesting point.
        for cut in [0usize, 5, TRACE_MAGIC.len(), 20, 22, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = TraceFile::open(&path).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    TraceSourceError::Truncated | TraceSourceError::Corrupt(_)
                ),
                "cut at {cut}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    fn fail_with_bad_magic() -> Result<TraceFile, TraceSourceError> {
        Err(TraceSourceError::BadMagic)
    }

    impl PartialEq for TraceFile {
        fn eq(&self, other: &Self) -> bool {
            self.inner.index == other.inner.index
        }
    }

    #[test]
    fn flipped_block_byte_is_a_digest_mismatch_not_a_panic() {
        let t = sample_trace(20);
        let path = tmp("flip");
        TraceFileWriter::write_trace_as(&path, &t, 8, TraceFormat::V1).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip a byte inside the first block's instruction data (past its
        // 8-byte Vec length prefix).
        let target = DATA_START as usize + 12;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let f = TraceFile::open(&path).expect("structure still valid");
        match f.block(0) {
            Err(TraceSourceError::BlockDigestMismatch { index: 0, .. })
            | Err(TraceSourceError::Corrupt(_)) => {}
            other => panic!("expected block corruption, got {other:?}"),
        }
        assert!(f.verify().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_v1_record_that_stores_another_position_is_refused() {
        // Block 1 of 8-instruction blocks holds positions 8..16; each of its
        // records leads with its position, after the block's 8-byte count.
        let t = sample_trace(10);
        let path = tmp("v1-position");
        TraceFileWriter::write_trace_as(&path, &t, 8, TraceFormat::V1).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        let at = TraceFile::open(&path).expect("open").inner.index.blocks[1].offset as usize + 8;
        assert_eq!(bytes[at..at + 8], 8u64.to_le_bytes(), "the first record of block 1");
        for stored in [0u64, 7, 9, u64::MAX] {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&stored.to_le_bytes());
            std::fs::write(&path, &b).unwrap();
            let f = TraceFile::open(&path).expect("structure untouched");
            f.block(0).expect("block 0 is intact");
            match f.block(1) {
                Err(TraceSourceError::Corrupt(msg)) => assert!(
                    msg.contains(&format!("position 8 stores position {stored}")),
                    "{msg}"
                ),
                other => panic!("stored position {stored}: expected a refusal, got {other:?}"),
            }
            assert!(f.verify().is_err());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hostile_index_offset_and_lengths_are_errors() {
        let t = sample_trace(10);
        let path = tmp("hostile-index");
        TraceFileWriter::write_trace_as(&path, &t, 8, TraceFormat::V1).expect("write");
        let bytes = std::fs::read(&path).expect("read back");

        // Index offset pointing past the end / to u64::MAX.
        for evil in [u64::MAX, bytes.len() as u64 + 5, 1] {
            let mut b = bytes.clone();
            b[TRACE_MAGIC.len()..DATA_START as usize].copy_from_slice(&evil.to_le_bytes());
            std::fs::write(&path, &b).unwrap();
            let err = TraceFile::open(&path).expect_err("hostile offset");
            assert!(
                matches!(
                    err,
                    TraceSourceError::Truncated | TraceSourceError::Corrupt(_)
                ),
                "offset {evil}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Rewrites a container's index in place (index digest recomputed) —
    /// what an attacker who knows the format can do, since that digest is
    /// plain FNV-1a over the index bytes.
    fn rewrite_index(path: &Path, edit: impl FnOnce(&mut TraceIndex)) {
        let mut bytes = std::fs::read(path).expect("read back");
        let header = &bytes[TRACE_MAGIC.len()..DATA_START as usize];
        let index_offset = u64::from_le_bytes(header.try_into().expect("8 bytes")) as usize;
        let mut index: TraceIndex =
            serde::from_bytes(&bytes[index_offset..bytes.len() - 8]).expect("index decodes");
        edit(&mut index);
        let index_bytes = serde::to_bytes(&index);
        bytes.truncate(index_offset);
        bytes.extend_from_slice(&index_bytes);
        bytes.extend_from_slice(&crate::fnv1a(&index_bytes).to_le_bytes());
        std::fs::write(path, &bytes).expect("write back");
    }

    #[test]
    fn hostile_index_instruction_count_is_an_error_not_an_allocation() {
        // One four-byte v2 record, and an index that claims 2^60 of them in
        // geometry `open` accepts (one block, counts that sum).
        let path = tmp("hostile-count");
        let mut w = TraceFileWriter::create_as(&path, "one", 16, TraceFormat::V2).expect("create");
        w.push_raw(DynInst::nop()).unwrap();
        w.finish().unwrap();
        rewrite_index(&path, |index| {
            index.total_insts = 1 << 60;
            index.block_size = 1 << 60;
            index.blocks[0].inst_count = 1 << 60;
        });
        let f = TraceFile::open(&path).expect("the geometry is self-consistent");
        match f.block(0) {
            Err(TraceSourceError::Corrupt(msg)) => assert!(msg.contains("instructions"), "{msg}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn containers_carrying_the_old_digest_definition_are_refused() {
        // What builds before `InstDigest` recorded: FNV-1a over each
        // instruction's serde image, its position leading (whole: name
        // first, length last).
        fn old_digest(name: Option<&str>, first: u64, insts: &[DynInst]) -> u64 {
            let mut h = crate::Fnv1a::new();
            if let Some(name) = name {
                h.write(name.as_bytes());
            }
            for (pos, inst) in (first..).zip(insts) {
                h.write_u64(pos);
                h.write(&serde::to_bytes(inst));
            }
            if name.is_some() {
                h.write_u64(insts.len() as u64);
            }
            h.finish()
        }
        let t = sample_trace(20); // 40 insts, 5 blocks of 8
        for format in [TraceFormat::V1, TraceFormat::V2] {
            let path = tmp(&format!("old-digests-{format}"));
            TraceFileWriter::write_trace_as(&path, &t, 8, format).expect("write");
            rewrite_index(&path, |index| {
                index.whole_digest = old_digest(Some(t.name()), 0, t.as_slice());
                let blocks = index.blocks.iter_mut().zip(t.as_slice().chunks(8));
                for (first, (meta, insts)) in (0..).step_by(8).zip(blocks) {
                    meta.digest = old_digest(None, first, insts);
                }
            });
            // The structure is intact, so it opens — and then every way of
            // trusting its content refuses, with the existing typed errors.
            let f = TraceFile::open(&path).expect("structure is valid");
            for k in 0..f.block_count() {
                assert!(
                    matches!(f.block(k), Err(TraceSourceError::BlockDigestMismatch { index, .. }) if index == k),
                    "{format} block {k}"
                );
            }
            assert!(matches!(f.verify(), Err(TraceSourceError::BlockDigestMismatch { .. })));
            let refused = TraceFile::open_validated(&path, t.digest()).expect_err("old identity");
            assert!(matches!(refused, TraceSourceError::Corrupt(_)), "{format}: {refused}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn async_and_sync_prefetch_serve_identical_content() {
        let t = sample_trace(120); // 240 insts, 15 blocks of 16
        let path = tmp("async-prefetch");
        TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        let asy = TraceFile::open(&path).expect("open async");
        let syn = TraceFile::open_sync(&path).expect("open sync");
        assert!(asy.prefetches_async());
        assert!(!syn.prefetches_async());
        let ca = TraceCursor::new(&asy);
        let cs = TraceCursor::new(&syn);
        for k in 0..t.len() {
            assert_eq!(ca.get(k), cs.get(k), "inst {k}");
        }
        // Residency stays bounded with the worker running: the MRU cache,
        // at most one decode in flight, and the cursor's pinned block.
        let peak = asy.residency().expect("counted").peak();
        assert!(peak <= RESIDENT_BLOCKS + 2, "peak {peak}");
        // Dropping the file joins the worker (no hang, no leaked thread).
        drop(asy);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefetch_worker_survives_random_access_and_shared_readers() {
        let t = sample_trace(200); // 400 insts, 25 blocks of 16
        let path = tmp("async-shared");
        TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        let f: Arc<TraceFile> = Arc::new(TraceFile::open(&path).expect("open"));
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let cur = TraceCursor::new(f.as_ref());
                    let mut sum = 0u64;
                    // Stride differently per reader so demand fetches and the
                    // worker's speculative decodes interleave.
                    for k in (0..cur.len()).step_by(r + 1) {
                        sum = sum.wrapping_add(cur.get(k).pc);
                    }
                    sum
                })
            })
            .collect();
        let sums: Vec<u64> = readers.into_iter().map(|h| h.join().expect("reader")).collect();
        let expect: u64 = (0..t.len()).map(|k| t.get(k).unwrap().pc).sum();
        assert_eq!(sums[0], expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v2_round_trips_content_blocks_and_digests() {
        let t = sample_trace(40); // 80 insts
        let path = tmp("v2-roundtrip");
        let summary =
            TraceFileWriter::write_trace_as(&path, &t, 16, TraceFormat::V2).expect("write");
        assert_eq!(summary.instructions, 80);
        assert_eq!(summary.digest, t.digest(), "identity is content, not encoding");

        let f = TraceFile::open(&path).expect("open");
        assert_eq!(f.format(), TraceFormat::V2);
        assert_eq!(f.digest(), t.digest());
        assert!(f.summary().contains("[v2]"));
        f.verify().expect("verify");
        let cur = TraceCursor::new(&f);
        for (k, want) in t.iter().enumerate() {
            assert_eq!(&cur.get(k), want, "inst {k}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v2_is_at_most_half_the_v1_size() {
        let t = sample_trace(500); // 1000 insts, loads + ALU
        let p1 = tmp("size-v1");
        let p2 = tmp("size-v2");
        let s1 = TraceFileWriter::write_trace_as(&p1, &t, 64, TraceFormat::V1).expect("v1");
        let s2 = TraceFileWriter::write_trace_as(&p2, &t, 64, TraceFormat::V2).expect("v2");
        assert_eq!(s1.digest, s2.digest);
        assert!(
            s2.bytes * 2 <= s1.bytes,
            "v2 ({} bytes) must be at most half of v1 ({} bytes)",
            s2.bytes,
            s1.bytes
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn convert_between_versions_preserves_identity() {
        let t = sample_trace(30); // 60 insts
        let p1 = tmp("conv-v1");
        let p2 = tmp("conv-v2");
        let p3 = tmp("conv-back");
        TraceFileWriter::write_trace_as(&p1, &t, 16, TraceFormat::V1).expect("v1");
        let v1 = TraceFile::open(&p1).expect("open v1");
        // v1 -> v2 -> v1 through the write_source_as re-containering path.
        TraceFileWriter::write_source_as(&p2, &v1, 16, TraceFormat::V2).expect("to v2");
        let v2 = TraceFile::open(&p2).expect("open v2");
        assert_eq!(v2.format(), TraceFormat::V2);
        assert_eq!(v2.digest(), t.digest());
        // Per-block digests are over decoded instructions: identical too.
        for k in 0..v1.block_count() {
            assert_eq!(v1.block_digest(k).unwrap(), v2.block_digest(k).unwrap());
        }
        TraceFileWriter::write_source_as(&p3, &v2, 16, TraceFormat::V1).expect("back to v1");
        let back = TraceFile::open(&p3).expect("open back");
        assert_eq!(back.format(), TraceFormat::V1);
        assert_eq!(back.digest(), t.digest());
        back.verify().expect("verify");
        for p in [&p1, &p2, &p3] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn hostile_v2_blocks_are_typed_errors_not_panics() {
        let t = sample_trace(20);
        let path = tmp("v2-hostile");
        TraceFileWriter::write_trace_as(&path, &t, 8, TraceFormat::V2).expect("write");
        let bytes = std::fs::read(&path).expect("read back");

        // Flip every byte of the first block's data in turn: each must decode
        // to a typed error (codec malformation or digest mismatch), never a
        // panic.  The first block's extent starts at DATA_START.
        let first_block_len = 32.min(bytes.len() - DATA_START as usize);
        for k in 0..first_block_len {
            let mut b = bytes.clone();
            b[DATA_START as usize + k] ^= 0xA5;
            std::fs::write(&path, &b).unwrap();
            let f = TraceFile::open(&path).expect("structure untouched");
            match f.block(0) {
                Err(TraceSourceError::Corrupt(_))
                | Err(TraceSourceError::BlockDigestMismatch { .. }) => {}
                Ok(_) => panic!("flipped byte {k} decoded clean"),
                other => panic!("flipped byte {k}: unexpected {other:?}"),
            }
        }
        // Truncations inside the data region surface as decode errors too.
        std::fs::write(&path, &bytes).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_source_reblocks_identically() {
        let t = sample_trace(30); // 60 insts
        let src = crate::ArenaSource::with_block_size(t.clone(), 7);
        let path = tmp("reblock");
        let s = TraceFileWriter::write_source_as(&path, &src, 16, TraceFormat::V2).expect("write");
        assert_eq!(s.instructions, 60);
        assert_eq!(s.digest, t.digest());
        let f = TraceFile::open(&path).expect("open");
        assert_eq!(f.block_size(), 16);
        f.verify().expect("verify");
        let _ = std::fs::remove_file(&path);
    }
}
