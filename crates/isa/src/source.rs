//! Block-based trace sources and the cursor the timing models read through.
//!
//! PR 2–4 assumed a fully materialized in-memory [`Trace`] arena, which bounds
//! simulated trace length by host RAM.  [`TraceSource`] is the abstraction
//! that lifts that: a trace is a *named, digested sequence of fixed-size
//! instruction blocks* that a consumer fetches one block at a time.  Three
//! implementations exist:
//!
//! * [`ArenaSource`] (here) — adapts today's in-memory [`Trace`]; the cursor
//!   takes a zero-cost slice fast path through it, so arena-backed runs are
//!   bit-identical *and* pay no per-instruction indirection;
//! * `TraceFile` (`icfp_isa::trace_file`) — the on-disk `icfp-trace/v1|v2`
//!   container, decoded lazily block by block, a worker two blocks ahead;
//! * `WorkloadSource` (`icfp-workloads`) — synthetic generators replayed as
//!   resumable block producers, so a 100M-instruction pointer-chase never
//!   fully materializes.
//!
//! [`TraceCursor`] is the uniform read surface the core models use: it caches
//! the current block so sequential access costs one range check per
//! instruction, while random access (rally replay, runahead restarts) faults
//! the owning block in through the source's bounded cache.  Resident-block
//! accounting ([`Residency`]) lets tests assert that streaming a trace keeps
//! peak trace memory bounded by a constant number of blocks.  Each of the
//! three sources also carries a [`WarmStore`]: the functional fast-forward
//! state last walked over it, shared by every run that asks for that depth.

use crate::exec::ArchState;
use crate::trace::Trace;
use crate::{DynInst, InstDigest, InstSeq};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default number of instructions per block (the `icfp-trace/v1` writer's
/// default, and the block granularity [`ArenaSource`] reports).  4096 insts
/// ≈ 300–400 KiB decoded: big enough to amortize decode, small enough that a
/// handful of resident blocks stay far under any real trace's footprint.
pub const DEFAULT_BLOCK_INSTS: usize = 4096;

/// Digest of one block's content: [`InstDigest`] over its instructions and
/// their positions from `first`, in order, their count last.  Every
/// [`TraceSource`] implementation must use this exact definition so block
/// digests agree across arena, generator and file backings (checkpoint
/// resume validates the resume block against it).
pub fn block_digest_at(first: InstSeq, insts: &[DynInst]) -> u64 {
    let mut d = InstDigest::at(first);
    for inst in insts {
        d.push(inst);
    }
    d.finish()
}

/// [`block_digest_at`] position 0: the digest of a trace's first block, or
/// of a slice taken as a block of its own.
pub fn block_digest_of(insts: &[DynInst]) -> u64 {
    block_digest_at(0, insts)
}

/// Errors from block-based trace access (shared by every [`TraceSource`]
/// implementation; the file backing adds I/O and container malformations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSourceError {
    /// A block index past [`TraceSource::block_count`].
    BlockOutOfRange {
        /// The requested block.
        index: usize,
        /// Number of blocks the source holds.
        count: usize,
    },
    /// Filesystem error while reading trace data.
    Io(String),
    /// The container does not start with a known `icfp-trace` magic (wrong
    /// file or a future format version).
    BadMagic,
    /// The container is shorter than its header/index promises.
    Truncated,
    /// A structural field is inconsistent (overlapping blocks, counts that
    /// do not sum, lengths past the end of the file, ...).
    Corrupt(String),
    /// A block decoded but its content digest does not match the index.
    BlockDigestMismatch {
        /// The block in question.
        index: usize,
        /// Digest recorded in the container index.
        expected: u64,
        /// Digest of the bytes actually present.
        found: u64,
    },
}

impl fmt::Display for TraceSourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSourceError::BlockOutOfRange { index, count } => {
                write!(f, "block {index} out of range (source has {count} blocks)")
            }
            TraceSourceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceSourceError::BadMagic => {
                write!(f, "not an icfp-trace/v1 or /v2 container (bad magic)")
            }
            TraceSourceError::Truncated => write!(f, "trace container is truncated"),
            TraceSourceError::Corrupt(e) => write!(f, "trace container is corrupt: {e}"),
            TraceSourceError::BlockDigestMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "block {index} digest mismatch (recorded {expected:#018x}, found {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for TraceSourceError {}

/// Resident-block accounting for a streaming source: how many decoded blocks
/// are alive right now, and the peak ever alive.  This is what bounds — and
/// lets tests *assert* the bound on — peak trace memory while streaming.
#[derive(Debug, Default)]
pub struct Residency {
    live: AtomicUsize,
    peak: AtomicUsize,
    live_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
}

impl Residency {
    /// Decoded blocks currently alive.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Peak simultaneously-alive decoded blocks.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Decoded instruction bytes currently alive (live blocks × their
    /// in-memory [`DynInst`] size — the actual decoded footprint, not the
    /// on-disk encoded size).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously-alive decoded instruction bytes —
    /// the number to quote for "peak trace memory while streaming".
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn note_alloc(self: &Arc<Self>, bytes: usize) -> ResidencyGuard {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(live, Ordering::Relaxed);
        let live_bytes = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live_bytes, Ordering::Relaxed);
        ResidencyGuard {
            counter: Arc::clone(self),
            bytes,
        }
    }
}

/// Drop guard held by each decoded [`TraceBlock`]; decrements the live
/// counts when the block is finally dropped (evicted from every cache and
/// released by every cursor).
#[derive(Debug)]
struct ResidencyGuard {
    counter: Arc<Residency>,
    bytes: usize,
}

impl Drop for ResidencyGuard {
    fn drop(&mut self) {
        self.counter.live.fetch_sub(1, Ordering::Relaxed);
        self.counter.live_bytes.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The functional fast-forward state of one source: at most **one**
/// [`ArchState`] — the last one a walk over the source produced — shared by
/// every model, repetition and sweep cell that asks for its depth.  A state is
/// a pure function of the source's content and the depth, so sharing it moves
/// host time only; it enters the store only after its walk completed.
#[derive(Debug, Default)]
pub struct WarmStore {
    /// Locked for the whole of a walk: that is the single flight.
    held: Mutex<Option<Arc<ArchState>>>,
    walks: AtomicUsize,
}

impl WarmStore {
    /// The state after the source's first `n` instructions (`n` at most its
    /// length).  An exact match shares the held state; otherwise `walk`
    /// executes up to `n` starting from the state it is given — the held one
    /// when that is shallower (a resume, copied only if some run still holds
    /// it), a fresh one when it is deeper or absent — and its result replaces
    /// what was held.  Concurrent callers wait for the walk in flight, so
    /// callers of one depth share one walk.  A `walk` that panics (the
    /// cursor's mid-run source failure) leaves the store empty: the next
    /// caller runs its own.
    pub fn state_at(&self, n: usize, walk: impl FnOnce(ArchState) -> ArchState) -> Arc<ArchState> {
        // The slot is emptied before a walk starts, so a walk that panicked
        // under the lock left it valid.
        let mut held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(st) = held.as_ref().filter(|st| st.instructions == n as u64) {
            return Arc::clone(st);
        }
        let from = match held.take() {
            Some(st) if st.instructions < n as u64 => Arc::unwrap_or_clone(st),
            _ => ArchState::new(),
        };
        self.walks.fetch_add(1, Ordering::Relaxed);
        let st = Arc::new(walk(from));
        *held = Some(Arc::clone(&st));
        st
    }

    /// Walks performed so far (exact matches share and do not count).
    pub fn walks(&self) -> usize {
        self.walks.load(Ordering::Relaxed)
    }
}

/// One decoded block of a trace: a contiguous run of [`DynInst`]s starting at
/// dynamic position `first`.
#[derive(Debug)]
pub struct TraceBlock {
    /// Dynamic index (sequence number) of the block's first instruction.
    pub first: usize,
    insts: Vec<DynInst>,
    /// Keeps the owning source's residency accounting honest; `None` for
    /// blocks of sources that do not stream (no accounting needed).
    _guard: Option<ResidencyGuard>,
}

impl TraceBlock {
    /// A block with residency accounting attached: the counter's live count
    /// rises now and falls when the block is dropped.  Streaming sources
    /// (the file reader, generator sources) construct their blocks this way
    /// so tests can assert the peak resident footprint.
    pub fn counted(first: usize, insts: Vec<DynInst>, residency: &Arc<Residency>) -> Self {
        let bytes = insts.len() * std::mem::size_of::<DynInst>();
        TraceBlock {
            first,
            insts,
            _guard: Some(residency.note_alloc(bytes)),
        }
    }

    /// A block without residency accounting (transient arena copies).
    pub fn uncounted(first: usize, insts: Vec<DynInst>) -> Self {
        TraceBlock {
            first,
            insts,
            _guard: None,
        }
    }

    /// The block's instructions.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// One-past-the-end dynamic index of the block.
    pub fn end(&self) -> usize {
        self.first + self.insts.len()
    }
}

/// A finite dynamic instruction stream exposed as fixed-size blocks.
///
/// Identity is (name, length, [`TraceSource::digest`]); content is fetched
/// one [`TraceBlock`] at a time.  All blocks hold exactly
/// [`TraceSource::block_size`] instructions except the last, which holds the
/// remainder.  Implementations must be cheap to share across threads
/// (`Send + Sync`): the sweep executor hands one `Arc<dyn TraceSource>` per
/// workload column to its whole pool.
pub trait TraceSource: Send + Sync {
    /// The trace's human-readable name (workload / scenario identifier).
    fn name(&self) -> &str;

    /// Total dynamic instructions.
    fn len(&self) -> usize;

    /// True if the trace holds no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whole-trace content digest, identical to [`Trace::digest`] of the
    /// materialized trace: an [`InstDigest`] seeded with the name, over every
    /// instruction, the length last.  Checkpoints and sweep columns use it as
    /// the trace's identity.
    fn digest(&self) -> u64;

    /// Instructions per block (the last block may be shorter).  Must be
    /// non-zero for non-empty sources.
    fn block_size(&self) -> usize;

    /// Number of blocks (`len / block_size`, rounded up).
    fn block_count(&self) -> usize {
        let bs = self.block_size().max(1);
        self.len().div_ceil(bs)
    }

    /// The block holding dynamic position `idx`.
    fn block_of(&self, idx: usize) -> usize {
        idx / self.block_size().max(1)
    }

    /// Fetches (decoding if necessary) block `index`.
    ///
    /// Streaming implementations serve this from a bounded cache and may
    /// read ahead; either way repeated sequential fetches decode each block
    /// at most once.
    ///
    /// # Errors
    ///
    /// Out-of-range indices, I/O failures and content corruption.
    fn block(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError>;

    /// Digest of block `index`'s content, per [`block_digest_at`] its first
    /// position.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TraceSource::block`].
    fn block_digest(&self, index: usize) -> Result<u64, TraceSourceError>;

    /// The whole trace as one in-memory arena, if this source has one.
    /// Cursors use it to bypass block bookkeeping entirely (the zero-cost
    /// fast path that keeps arena-backed runs exactly as fast as before).
    fn as_arena(&self) -> Option<&Trace> {
        None
    }

    /// Resident-block accounting, if this source streams (decodes blocks on
    /// demand).  Arena sources return `None`: their trace is wholly resident
    /// by construction and block accounting would be meaningless.
    fn residency(&self) -> Option<&Residency> {
        None
    }

    /// The source's functional fast-forward state store, if it keeps one.
    /// The three backings above do; a wrapper that does not forward it is
    /// fast-forwarded by a plain walk on every run.
    fn warm(&self) -> Option<&WarmStore> {
        None
    }
}

/// One cached block: empty while its first caller is still filling it.
type Slot = Arc<Mutex<Option<Arc<TraceBlock>>>>;

/// Bounded most-recently-used cache of decoded blocks — the one cache
/// implementation every streaming source shares (the `icfp-trace` reader,
/// generator-backed sources).  Its capacity *is* the "peak trace memory is a
/// constant number of blocks" guarantee, together with whatever single block
/// each cursor pins.
///
/// Two locks, never nested map-then-slot: the map lock covers only finding
/// or reserving a block's slot, and the slot's own lock is held while the
/// block is produced.  So a lookup of a resident block never waits for
/// another block's decode, and only callers of the *same* block wait for its
/// fill.
#[derive(Debug)]
pub struct BlockCache {
    cap: usize,
    /// Front = most recently used.
    slots: Mutex<VecDeque<(usize, Slot)>>,
}

impl BlockCache {
    /// A cache holding at most `cap` decoded blocks.
    pub fn new(cap: usize) -> Self {
        BlockCache {
            cap: cap.max(1),
            slots: Mutex::new(VecDeque::with_capacity(cap.max(1) + 1)),
        }
    }

    /// Returns block `index`, promoting it to most-recent; on a miss a slot
    /// is reserved (evicting the least-recently-used one past capacity) and
    /// `fill` produces the block outside the map lock.  Concurrent callers of
    /// one block wait for the first caller's `fill`, so a block is produced
    /// at most once while it is resident.  A failed `fill` leaves no slot
    /// behind: the next caller runs its own.
    ///
    /// # Errors
    ///
    /// Whatever `fill` fails with.
    pub fn get_or_insert(
        &self,
        index: usize,
        fill: impl FnOnce() -> Result<Arc<TraceBlock>, TraceSourceError>,
    ) -> Result<Arc<TraceBlock>, TraceSourceError> {
        let slot = {
            let mut slots = self.slots.lock().expect("block cache lock");
            let slot = match slots.iter().position(|(k, _)| *k == index) {
                Some(pos) => slots.remove(pos).expect("position just found").1,
                None => Slot::default(),
            };
            slots.push_front((index, Arc::clone(&slot)));
            slots.truncate(self.cap);
            slot
        };
        let mut filled = slot.lock().expect("block slot lock");
        if let Some(block) = filled.as_ref() {
            return Ok(Arc::clone(block));
        }
        match fill() {
            Ok(block) => {
                *filled = Some(Arc::clone(&block));
                Ok(block)
            }
            Err(e) => {
                let mut slots = self.slots.lock().expect("block cache lock");
                slots.retain(|(_, s)| !Arc::ptr_eq(s, &slot));
                Err(e)
            }
        }
    }
}

/// [`TraceSource`] adapter over an in-memory [`Trace`] arena: blocks are
/// views of the decoded instruction vector, so nothing is ever re-decoded
/// and the cursor fast path reads the arena directly.
#[derive(Debug)]
pub struct ArenaSource {
    trace: Arc<Trace>,
    block_size: usize,
    warm: WarmStore,
}

impl ArenaSource {
    /// Wraps a trace, reporting [`DEFAULT_BLOCK_INSTS`]-instruction blocks.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        Self::with_block_size(trace, DEFAULT_BLOCK_INSTS)
    }

    /// Wraps a trace with an explicit block size (tests use tiny blocks to
    /// exercise many boundaries on small traces).
    pub fn with_block_size(trace: impl Into<Arc<Trace>>, block_size: usize) -> Self {
        ArenaSource {
            trace: trace.into(),
            block_size: block_size.max(1),
            warm: WarmStore::default(),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    fn block_slice(&self, index: usize) -> Result<&[DynInst], TraceSourceError> {
        let count = self.block_count();
        if index >= count {
            return Err(TraceSourceError::BlockOutOfRange { index, count });
        }
        let first = index * self.block_size;
        let end = (first + self.block_size).min(self.trace.len());
        Ok(&self.trace.as_slice()[first..end])
    }
}

impl TraceSource for ArenaSource {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn len(&self) -> usize {
        self.trace.len()
    }

    fn digest(&self) -> u64 {
        self.trace.digest()
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn block(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        // Transient copy; callers on the arena path never reach here (the
        // cursor reads the arena directly), so this only serves uniform
        // consumers like the trace-file writer.
        let insts = self.block_slice(index)?.to_vec();
        Ok(Arc::new(TraceBlock::uncounted(
            index * self.block_size,
            insts,
        )))
    }

    fn block_digest(&self, index: usize) -> Result<u64, TraceSourceError> {
        let first = (index * self.block_size) as InstSeq;
        Ok(block_digest_at(first, self.block_slice(index)?))
    }

    fn as_arena(&self) -> Option<&Trace> {
        Some(&self.trace)
    }

    fn warm(&self) -> Option<&WarmStore> {
        Some(&self.warm)
    }
}

// Note: a `From<Arc<Trace>> for Arc<dyn TraceSource>` impl would violate the
// orphan rules (both sides are `Arc<_>`, and `Arc` is not a fundamental
// type); callers holding an `Arc<Trace>` wrap it explicitly —
// `ArenaSource::new(arc)` — which is also clearer about the block geometry.
impl From<Trace> for Arc<dyn TraceSource> {
    fn from(trace: Trace) -> Self {
        Arc::new(ArenaSource::new(trace))
    }
}

impl From<ArenaSource> for Arc<dyn TraceSource> {
    fn from(src: ArenaSource) -> Self {
        Arc::new(src)
    }
}

/// Streamed-side cursor state: the one block the cursor currently holds.
#[derive(Debug, Default)]
struct CursorState {
    block: Option<Arc<TraceBlock>>,
}

/// The uniform read surface the timing models consume a trace through.
///
/// Two paths:
///
/// * **arena** — the source exposes a whole in-memory [`Trace`]
///   ([`TraceSource::as_arena`], or the cursor was built
///   [`TraceCursor::from_trace`]): [`TraceCursor::get`] is a direct slice
///   index, exactly what the models did before streaming existed;
/// * **streamed** — the cursor pins the block containing the last access and
///   re-fetches through the source (bounded cache + prefetch) only on block
///   boundaries, so sequential access costs one range check per instruction
///   and random access (rally replay at older trace indices) faults the
///   owning block in on demand.
///
/// Instructions are returned *by value* ([`DynInst`] is `Copy`): a fetched
/// instruction stays valid while the caller mutates its own state or fetches
/// further instructions, which is what the core models' control flow needs.
///
/// The cursor is deliberately cheap to construct: drivers that pause a run
/// at instruction positions build one per call and rely on the source's
/// cache for cross-call reuse.
pub struct TraceCursor<'a> {
    source: Option<&'a dyn TraceSource>,
    /// Arena fast path (from the source, or a borrowed trace).
    arena: Option<&'a Trace>,
    state: RefCell<CursorState>,
}

impl<'a> TraceCursor<'a> {
    /// A cursor over a block-based source (taking the arena fast path if the
    /// source exposes one).
    pub fn new(source: &'a dyn TraceSource) -> Self {
        TraceCursor {
            arena: source.as_arena(),
            source: Some(source),
            state: RefCell::new(CursorState::default()),
        }
    }

    /// A cursor borrowing an in-memory trace directly (no source involved);
    /// what `icfp_core::run_model` and the test suites use.
    pub fn from_trace(trace: &'a Trace) -> Self {
        TraceCursor {
            source: None,
            arena: Some(trace),
            state: RefCell::new(CursorState::default()),
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &'a str {
        match (self.arena, self.source) {
            (Some(t), _) => t.name(),
            (None, Some(s)) => s.name(),
            (None, None) => unreachable!("cursor always has a backing"),
        }
    }

    /// Total dynamic instructions.
    pub fn len(&self) -> usize {
        match (self.arena, self.source) {
            (Some(t), _) => t.len(),
            (None, Some(s)) => s.len(),
            (None, None) => unreachable!("cursor always has a backing"),
        }
    }

    /// True if the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source's [`WarmStore`], if the cursor reads a source that keeps
    /// one (a cursor borrowing a bare [`Trace`] has none).
    pub fn warm(&self) -> Option<&'a WarmStore> {
        self.source.and_then(|s| s.warm())
    }

    /// The instruction at dynamic position `idx`, by value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (mirroring slice indexing), or — for
    /// streamed sources — if the backing store fails mid-run (e.g. the trace
    /// file was truncated underneath the simulation after `open` validated
    /// it).  Validation-facing consumers use [`TraceSource::block`]
    /// directly, which returns errors instead.
    #[inline]
    pub fn get(&self, idx: usize) -> DynInst {
        if let Some(t) = self.arena {
            return t.as_slice()[idx];
        }
        self.get_streamed(idx)
    }

    #[cold]
    fn fault_block(&self, idx: usize) -> Arc<TraceBlock> {
        let source = self.source.expect("streamed cursor has a source");
        let block_idx = source.block_of(idx);
        match source.block(block_idx) {
            Ok(b) => b,
            Err(e) => panic!(
                "trace source {:?} failed mid-run fetching block {block_idx}: {e}",
                source.name()
            ),
        }
    }

    fn get_streamed(&self, idx: usize) -> DynInst {
        let mut state = self.state.borrow_mut();
        if let Some(b) = &state.block {
            if idx >= b.first && idx < b.end() {
                return b.insts()[idx - b.first];
            }
        }
        let b = self.fault_block(idx);
        let inst = b.insts()[idx - b.first];
        state.block = Some(b);
        inst
    }

    /// The whole trace as one contiguous slice, if this cursor reads an
    /// in-memory arena.  An engine's first pass reads it as a single
    /// [`DynInst`] slice; streamed cursors return `None` and serve
    /// [`TraceCursor::pin_block`] instead.
    pub fn arena_slice(&self) -> Option<&'a [DynInst]> {
        self.arena.map(|t| t.as_slice())
    }

    /// Fetches (and pins as the cursor's current block) the block containing
    /// dynamic position `idx`, returning a shared handle the caller may hold
    /// across further cursor use — an engine's first pass walks it without
    /// per-instruction cursor dispatch while rally passes fault older blocks
    /// in through the same cursor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range positions or mid-run source failures, exactly
    /// like [`TraceCursor::get`].
    pub fn pin_block(&self, idx: usize) -> Arc<TraceBlock> {
        let mut state = self.state.borrow_mut();
        if let Some(b) = &state.block {
            if idx >= b.first && idx < b.end() {
                return Arc::clone(b);
            }
        }
        let b = self.fault_block(idx);
        state.block = Some(Arc::clone(&b));
        b
    }

    /// Borrowed instruction reads for an engine's first pass, see
    /// [`InstReader`].
    pub fn reader(&self) -> InstReader<'_, 'a> {
        InstReader { cursor: self, arena: self.arena_slice(), pinned: None }
    }

    /// Calls `f` once per block-sized instruction run covering positions
    /// `[start, len)`, in order: `f(first, insts)` receives the dynamic index
    /// of `insts[0]`.  Returns early (propagating `false`) if `f` does.
    ///
    /// Arena-backed cursors make a single call with the whole remaining
    /// slice; streamed cursors walk the source's blocks, so the per-
    /// instruction cost inside `f` is a plain slice iteration either way.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TraceCursor::get`].
    pub fn for_each_block_from(
        &self,
        start: usize,
        mut f: impl FnMut(usize, &[DynInst]) -> bool,
    ) -> bool {
        let len = self.len();
        if start >= len {
            return true;
        }
        if let Some(s) = self.arena_slice() {
            return f(start, &s[start..]);
        }
        let mut at = start;
        while at < len {
            let b = self.pin_block(at);
            if !f(at, &b.insts()[at - b.first..]) {
                return false;
            }
            at = b.end();
        }
        true
    }
}

/// Reads instructions by reference: from the arena slice, or — for a
/// streamed source — from a block pinned here, so a first pass that rewinds
/// (a Runahead squash) or shares the cursor with random reads (rally passes
/// faulting older blocks in) dispatches through it once per block crossed.
pub struct InstReader<'c, 'a> {
    cursor: &'c TraceCursor<'a>,
    arena: Option<&'a [DynInst]>,
    pinned: Option<Arc<TraceBlock>>,
}

impl InstReader<'_, '_> {
    /// The instruction at dynamic position `idx`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TraceCursor::get`].
    #[inline]
    pub fn inst(&mut self, idx: usize) -> &DynInst {
        if let Some(s) = self.arena {
            return &s[idx];
        }
        if !matches!(&self.pinned, Some(b) if idx >= b.first && idx < b.end()) {
            self.pinned = Some(self.cursor.pin_block(idx));
        }
        let b = self.pinned.as_ref().expect("pinned above");
        &b.insts()[idx - b.first]
    }
}

impl fmt::Debug for TraceCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCursor")
            .field("name", &self.name())
            .field("len", &self.len())
            .field("arena", &self.arena.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg, TraceBuilder};

    fn trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("src-test");
        for k in 0..n {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(1), Reg::int(2), k));
        }
        b.build()
    }

    #[test]
    fn arena_source_reports_blocks_and_digest() {
        let t = trace(10);
        let digest = t.digest();
        let s = ArenaSource::with_block_size(t, 4);
        assert_eq!(s.len(), 10);
        assert_eq!(s.block_count(), 3);
        assert_eq!(s.digest(), digest);
        assert_eq!(s.block(0).unwrap().len(), 4);
        assert_eq!(s.block(2).unwrap().len(), 2);
        assert_eq!(s.block(2).unwrap().first, 8);
        assert!(matches!(
            s.block(3),
            Err(TraceSourceError::BlockOutOfRange { index: 3, count: 3 })
        ));
        // Block digests agree with hashing the slice directly.
        let d = block_digest_of(&s.trace().as_slice()[0..4]);
        assert_eq!(s.block_digest(0).unwrap(), d);
        let d = block_digest_at(8, &s.trace().as_slice()[8..]);
        assert_eq!(s.block_digest(2).unwrap(), d);
    }

    #[test]
    fn cursor_reads_identically_through_arena_and_blocks() {
        let t = trace(23);
        let want: Vec<DynInst> = t.iter().copied().collect();
        let arena = ArenaSource::with_block_size(t.clone(), 5);

        let cur = TraceCursor::new(&arena);
        assert_eq!(cur.len(), 23);
        assert_eq!(cur.name(), "src-test");
        for (k, w) in want.iter().enumerate() {
            assert_eq!(&cur.get(k), w);
        }

        let borrowed = TraceCursor::from_trace(&t);
        for (k, w) in want.iter().enumerate() {
            assert_eq!(&borrowed.get(k), w);
        }
    }

    #[test]
    fn block_of_and_counts_round() {
        let t = trace(8);
        let s = ArenaSource::with_block_size(t, 8);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.block_of(7), 0);
        let empty = ArenaSource::new(Trace::default());
        assert_eq!(empty.block_count(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn residency_counts_allocations_and_peaks() {
        let inst_size = std::mem::size_of::<DynInst>();
        let r = Arc::new(Residency::default());
        let b1 = TraceBlock::counted(0, vec![], &r);
        assert_eq!(r.live(), 1);
        assert_eq!(r.live_bytes(), 0, "an empty block holds no decoded bytes");
        let b2 = TraceBlock::counted(4, vec![DynInst::nop()], &r);
        assert_eq!(r.live(), 2);
        assert_eq!(r.peak(), 2);
        assert_eq!(r.live_bytes(), inst_size);
        let b3 = TraceBlock::counted(5, vec![DynInst::nop(); 3], &r);
        assert_eq!(r.live(), 3);
        assert_eq!(r.live_bytes(), 4 * inst_size);
        assert_eq!(r.peak_bytes(), 4 * inst_size);
        drop(b3);
        assert_eq!(r.live_bytes(), inst_size, "bytes fall with their block");
        drop(b1);
        assert_eq!(r.live(), 1);
        drop(b2);
        assert_eq!(r.live(), 0);
        assert_eq!(r.live_bytes(), 0);
        assert_eq!(r.peak(), 3, "peak is sticky");
        assert_eq!(r.peak_bytes(), 4 * inst_size, "byte peak is sticky");
    }

    #[test]
    fn conversions_into_dyn_source() {
        let t = trace(6);
        let digest = t.digest();
        let from_owned: Arc<dyn TraceSource> = t.clone().into();
        let from_arc: Arc<dyn TraceSource> = ArenaSource::new(Arc::new(t)).into();
        assert_eq!(from_owned.digest(), digest);
        assert_eq!(from_arc.digest(), digest);
        assert_eq!(from_owned.block_size(), DEFAULT_BLOCK_INSTS);
    }

    fn empty_block(index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        Ok(Arc::new(TraceBlock::uncounted(index, vec![])))
    }

    #[test]
    fn a_resident_block_is_served_while_another_block_fills() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let cache = BlockCache::new(4);
        cache.get_or_insert(0, || empty_block(0)).expect("block A");
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (served_tx, served_rx) = channel();
        let cache = &cache;
        std::thread::scope(|s| {
            // B's fill parks until released ...
            s.spawn(move || {
                cache.get_or_insert(1, || {
                    started_tx.send(()).expect("test alive");
                    release_rx.recv().expect("test alive");
                    empty_block(1)
                })
            });
            started_rx.recv().expect("fill of B started");
            // ... and A, resident, must be served meanwhile.
            s.spawn(move || {
                let hit = cache.get_or_insert(0, || panic!("A is resident"));
                served_tx.send(hit.map(|b| b.first)).expect("test alive");
            });
            let served = served_rx.recv_timeout(Duration::from_secs(20));
            release_tx.send(()).expect("filler alive");
            assert_eq!(served, Ok(Ok(0)), "lookup of A waited for the fill of B");
        });
    }

    #[test]
    fn concurrent_lookups_fill_each_resident_block_once() {
        const BLOCKS: usize = 8;
        let cache = BlockCache::new(BLOCKS); // nothing is ever evicted
        let fills: Vec<AtomicUsize> = (0..BLOCKS).map(|_| AtomicUsize::new(0)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, fills, start) = (&cache, &fills, &start);
                s.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                    start.wait();
                    for _ in 0..2_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let index = (x >> 33) as usize % BLOCKS;
                        let block = cache
                            .get_or_insert(index, || {
                                fills[index].fetch_add(1, Ordering::Relaxed);
                                empty_block(index)
                            })
                            .expect("fill succeeds");
                        assert_eq!(block.first, index);
                    }
                });
            }
        });
        for (index, n) in fills.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "block {index}");
        }
    }

    #[test]
    fn failed_fills_leave_no_slot_and_the_least_recently_used_block_is_evicted() {
        let cache = BlockCache::new(2);
        let resident = |k: usize| cache.get_or_insert(k, || panic!("{k} is resident")).map(|b| b.first);
        let fills = |k: usize| {
            let mut ran = false;
            let got = cache.get_or_insert(k, || {
                ran = true;
                empty_block(k)
            });
            got.is_ok() && ran
        };
        assert!(fills(0));
        let failed = cache.get_or_insert(1, || Err(TraceSourceError::Truncated));
        assert_eq!(failed.map(|b| b.first), Err(TraceSourceError::Truncated));
        // The next caller runs its own fill; nothing sits in the failed
        // fill's place, so both blocks fit.
        assert!(fills(1));
        assert_eq!((resident(1), resident(0)), (Ok(1), Ok(0)));
        // Past capacity the least recently used goes: that is 1, not 0.
        assert!(fills(2));
        assert_eq!(resident(0), Ok(0));
        assert!(fills(1));
    }
}
