//! The persistent content-addressed sweep result cache (`icfp-cache/v1`).
//!
//! Between the executor and the report sits an on-disk store of per-cell
//! deterministic figures, keyed by [`crate::SweepJob::cache_key`] — a digest
//! of everything a cell's outputs depend on (model, normalized
//! configuration, trace content digest, instruction budget).  Repeated or
//! overlapping grids are served from disk; a cache-hit report is
//! digest-identical to a cold one because entries store the *complete*
//! [`CellFigures`], host-time measurements included, so replay reproduces
//! the original report byte-for-byte rather than re-measuring.
//!
//! ## Container layout (one file per entry)
//!
//! ```text
//! offset  size  field
//! 0       13    magic "icfp-cache/v1"
//! 13      8     cache key, u64 LE (self-check against the file's name)
//! 21      8     payload length, u64 LE
//! 29      n     payload: vendored-serde encoding of CellFigures
//! 29+n    8     FNV-1a 64 digest of the payload, u64 LE
//! ```
//!
//! Entries are written first-write-wins: the finished bytes go to a temp file
//! and are published under the entry's name with `hard_link`, which creates
//! the name only if it is absent — atomically, so of any number of writers
//! racing on one key (two submissions to one daemon, two processes over one
//! directory, two identical-content columns on one pool) exactly one
//! publishes, the others are told they lost, and no reader ever observes a
//! torn entry.  (`rename` replaces silently — last write wins — and would
//! leave the first writer's report holding figures its cache no longer has.)
//! Every load failure — wrong magic, truncation, key or digest mismatch,
//! undecodable payload — is a typed [`CacheError`], never a panic; the
//! executor treats a damaged entry as a miss and recomputes.
//!
//! A handle also remembers, in memory only, the trace digest of each registry
//! column a sweep built through it: a registry column's digest is a pure
//! function of its name, instruction budget and per-column seed, so a later
//! submission keys that column's cells without generating it again.

use crate::fault::FaultPlan;
use icfp_isa::fnv1a;
use icfp_sim::CellFigures;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The container magic (and version): bump to invalidate every entry.
pub const MAGIC: &[u8] = b"icfp-cache/v1";

/// The most registry columns one handle remembers; past it the memory starts
/// over, which costs later submissions a rebuild of their columns, nothing
/// else.
const REMEMBERED_COLUMNS: usize = 1024;

/// A registry column's identity: workload name, instruction budget and
/// per-column seed.
pub(crate) type ColumnId = (&'static str, usize, u64);

/// Distinguishes concurrent writers' temp files within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Typed failures loading or storing a cache entry.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem failure.
    Io(io::Error),
    /// The entry does not begin with [`MAGIC`] — foreign file or a future
    /// container version.
    BadMagic,
    /// The entry is shorter than its own framing claims.
    Truncated,
    /// The key recorded inside the entry is not the key it was looked up
    /// under (a renamed or misplaced entry file).
    KeyMismatch {
        /// The key the caller asked for.
        expected: u64,
        /// The key the entry records.
        found: u64,
    },
    /// The payload digest check failed — bit rot or a torn write.
    DigestMismatch {
        /// The digest the entry records.
        expected: u64,
        /// The digest the payload actually has.
        found: u64,
    },
    /// The payload would not decode as [`CellFigures`].
    Decode(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache i/o: {e}"),
            CacheError::BadMagic => write!(f, "not an icfp-cache/v1 entry"),
            CacheError::Truncated => write!(f, "cache entry is truncated"),
            CacheError::KeyMismatch { expected, found } => write!(
                f,
                "cache entry records key {found:#018x}, looked up as {expected:#018x}"
            ),
            CacheError::DigestMismatch { expected, found } => write!(
                f,
                "cache entry digest mismatch: recorded {expected:#018x}, payload has {found:#018x}"
            ),
            CacheError::Decode(e) => write!(f, "cache payload would not decode: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<io::Error> for CacheError {
    fn from(e: io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// A persistent result cache rooted at one directory; one `.cell` file per
/// entry, named by the entry's key.  It holds the path and, shared by every
/// clone and never persisted, the trace digests of the registry columns built
/// through it (see the module docs), so a daemon that opens it once serves a
/// fully cached grid without generating a column.  Cheap to clone and safe to
/// share across the executor's worker threads.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    /// Registry column identity → the trace digest its cells are keyed under.
    columns: Arc<Mutex<HashMap<ColumnId, u64>>>,
    /// Armed only by the fault-injection harness: tears the chosen entry
    /// write before it reaches disk (see [`FaultPlan::corrupt_cache_write`]).
    fault: Option<Arc<FaultPlan>>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CacheError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir, columns: Arc::default(), fault: None })
    }

    /// The trace digest remembered for a registry column, if one was built
    /// through this handle (or a clone of it).
    pub(crate) fn column_digest(&self, column: ColumnId) -> Option<u64> {
        self.columns.lock().unwrap_or_else(PoisonError::into_inner).get(&column).copied()
    }

    /// Remembers a built registry column's trace digest.
    pub(crate) fn remember_column(&self, column: ColumnId, digest: u64) {
        let mut columns = self.columns.lock().unwrap_or_else(PoisonError::into_inner);
        if columns.len() >= REMEMBERED_COLUMNS {
            columns.clear();
        }
        columns.insert(column, digest);
    }

    /// Arms a [`FaultPlan`] on this cache's write path — the deterministic
    /// fault-injection seam the robustness matrix drives.  Production code
    /// never calls this.
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
    }

    /// Encodes one entry's bytes (exposed for tests and tooling).
    pub fn encode_entry(key: u64, figures: &CellFigures) -> Vec<u8> {
        let payload = serde::to_bytes(figures);
        let mut out = Vec::with_capacity(MAGIC.len() + 24 + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out
    }

    /// Decodes and verifies one entry's bytes against the key it was looked
    /// up under.
    ///
    /// # Errors
    ///
    /// Any non-[`CacheError::Io`] variant, per the container checks.
    pub fn decode_entry(key: u64, bytes: &[u8]) -> Result<CellFigures, CacheError> {
        let rest = bytes.strip_prefix(MAGIC).ok_or(CacheError::BadMagic)?;
        if rest.len() < 16 {
            return Err(CacheError::Truncated);
        }
        let found_key = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        if found_key != key {
            return Err(CacheError::KeyMismatch {
                expected: key,
                found: found_key,
            });
        }
        let payload_len = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let rest = &rest[16..];
        // Overflow-safe: compare in u64 before casting the length down.
        if (rest.len() as u64) < 8 || (rest.len() as u64) - 8 < payload_len {
            return Err(CacheError::Truncated);
        }
        let payload_len = payload_len as usize;
        let (payload, tail) = rest.split_at(payload_len);
        if tail.len() != 8 {
            // Trailing garbage after the digest is as suspect as truncation.
            return Err(CacheError::Truncated);
        }
        let recorded = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let actual = fnv1a(payload);
        if recorded != actual {
            return Err(CacheError::DigestMismatch {
                expected: recorded,
                found: actual,
            });
        }
        serde::from_bytes(payload).map_err(|e| CacheError::Decode(e.to_string()))
    }

    /// Loads the entry for `key`, if present and intact.
    ///
    /// # Errors
    ///
    /// Any [`CacheError`] for a present-but-damaged entry; a missing entry
    /// is `Ok(None)`, not an error.
    pub fn load(&self, key: u64) -> Result<Option<CellFigures>, CacheError> {
        let bytes = match fs::read(self.entry_path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Self::decode_entry(key, &bytes).map(Some)
    }

    /// Stores an entry, first-write-wins (see the module docs): `Ok(true)`
    /// for the one writer that published it, `Ok(false)` when an entry
    /// exists — before the write or by the time of the link — and is left
    /// alone.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on filesystem failure.
    pub fn store(&self, key: u64, figures: &CellFigures) -> Result<bool, CacheError> {
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(false);
        }
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut bytes = Self::encode_entry(key, figures);
        if let Some(plan) = &self.fault {
            // The injection harness tears the write *before* it is
            // published, reproducing what only a mid-write crash could leave.
            plan.corrupt_cache_write(&mut bytes);
        }
        fs::write(&tmp, bytes)?;
        let published = fs::hard_link(&tmp, &path);
        let _ = fs::remove_file(&tmp);
        match published {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Removes the entry for `key` (used by the executor to evict a damaged
    /// entry before recomputing, so first-write-wins can land the repair).
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on filesystem failure; a missing entry is fine.
    pub fn remove(&self, key: u64) -> Result<(), CacheError> {
        match fs::remove_file(self.entry_path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Number of entries on disk.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the directory cannot be read.
    pub fn entry_count(&self) -> Result<usize, CacheError> {
        let mut n = 0;
        for e in fs::read_dir(&self.dir)? {
            if e?.path().extension().is_some_and(|x| x == "cell") {
                n += 1;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figures() -> CellFigures {
        CellFigures {
            instructions: 600,
            cycles: 900,
            ipc: 600.0 / 900.0,
            l1d_mpki: 12.5,
            l2_mpki: 3.25,
            host_seconds: 0.001_25,
            mips: 480.0,
            state_digest: 0xFEED_FACE_CAFE_BEEF,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "icfp-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn entries_round_trip_and_first_write_wins() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let key = 0x0123_4567_89AB_CDEF;
        assert!(cache.load(key).unwrap().is_none(), "empty cache misses");
        assert!(cache.store(key, &figures()).unwrap(), "first write lands");
        let back = cache.load(key).unwrap().expect("hit");
        assert_eq!(back, figures());
        // Second store of the same key is a no-op (first write wins).
        let mut other = figures();
        other.cycles = 1;
        assert!(!cache.store(key, &other).unwrap());
        assert_eq!(cache.load(key).unwrap().unwrap(), figures());
        assert_eq!(cache.entry_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_of_one_key_publish_exactly_one_entry() {
        // Two writers released together onto each key, with different
        // figures: one must be told it won and the other that it lost, and
        // the entry must hold the winner's figures.
        const KEYS: usize = 256;
        let dir = tmp_dir("race");
        let cache = ResultCache::open(&dir).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let writer = |who: u64| {
            let mine = CellFigures { cycles: who, ..figures() };
            let store = |key| {
                barrier.wait();
                cache.store(key as u64, &mine).expect("store")
            };
            (0..KEYS).map(store).collect::<Vec<bool>>()
        };
        let (first, second) = std::thread::scope(|s| {
            let (first, second) = (s.spawn(|| writer(1)), s.spawn(|| writer(2)));
            (first.join().expect("writer 1"), second.join().expect("writer 2"))
        });
        for key in 0..KEYS {
            assert_ne!(first[key], second[key], "key {key}: exactly one writer publishes");
            let winner = if first[key] { 1 } else { 2 };
            assert_eq!(cache.load(key as u64).unwrap().unwrap().cycles, winner, "key {key}");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), KEYS, "no temp file outlives its store");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_are_typed_errors_not_panics() {
        let key = 0xAA55_AA55_AA55_AA55;
        let good = ResultCache::encode_entry(key, &figures());

        // Wrong magic (foreign file / future version).
        let mut bumped = good.clone();
        bumped[MAGIC.len() - 1] = b'2';
        assert!(matches!(
            ResultCache::decode_entry(key, &bumped),
            Err(CacheError::BadMagic)
        ));
        assert!(matches!(
            ResultCache::decode_entry(key, b"not a cache entry at all"),
            Err(CacheError::BadMagic)
        ));

        // Truncation at every boundary inside the container.
        for cut in [MAGIC.len(), MAGIC.len() + 4, MAGIC.len() + 16, good.len() - 1] {
            assert!(
                matches!(
                    ResultCache::decode_entry(key, &good[..cut]),
                    Err(CacheError::Truncated)
                ),
                "cut at {cut}"
            );
        }

        // Key mismatch (entry filed under the wrong name).
        assert!(matches!(
            ResultCache::decode_entry(key + 1, &good),
            Err(CacheError::KeyMismatch { .. })
        ));

        // Flipped payload bit: digest check catches it.
        let mut rotted = good.clone();
        rotted[MAGIC.len() + 20] ^= 0x01;
        assert!(matches!(
            ResultCache::decode_entry(key, &rotted),
            Err(CacheError::DigestMismatch { .. })
        ));

        // A hostile length field cannot read out of bounds.
        let mut hostile = good.clone();
        let at = MAGIC.len() + 8;
        hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ResultCache::decode_entry(key, &hostile),
            Err(CacheError::Truncated)
        ));
    }

    #[test]
    fn damaged_files_on_disk_surface_as_load_errors() {
        let dir = tmp_dir("damage");
        let cache = ResultCache::open(&dir).unwrap();
        let key = 0x1111_2222_3333_4444;
        cache.store(key, &figures()).unwrap();
        let path = dir.join(format!("{key:016x}.cell"));
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load(key), Err(CacheError::Truncated)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_tears_the_armed_write_into_a_typed_load_error() {
        use crate::fault::{CacheTear, FaultPlan};
        let dir = tmp_dir("fault-tear");
        // Tear the second write at byte 17 (inside the key field).
        let plan = Arc::new(FaultPlan::new().with_cache_tear(CacheTear {
            write_index: 1,
            keep_bytes: 17,
        }));
        let cache = ResultCache::open(&dir)
            .unwrap()
            .with_fault(Arc::clone(&plan));
        cache.store(1, &figures()).unwrap();
        cache.store(2, &figures()).unwrap();
        cache.store(3, &figures()).unwrap();
        assert!(plan.cache_tear_fired());
        assert!(cache.load(1).unwrap().is_some(), "write 0 untouched");
        assert!(cache.load(2).is_err(), "write 1 torn → typed error");
        assert!(cache.load(3).unwrap().is_some(), "fault fires once");
        // Recovery: evict and re-store through the same (already fired)
        // faulted handle — the repair lands intact.
        cache.remove(2).unwrap();
        assert!(cache.store(2, &figures()).unwrap());
        assert_eq!(cache.load(2).unwrap().unwrap(), figures());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_discovery_of_a_damaged_entry_recovers_on_both_threads() {
        // Two workers hit the same torn `.cell` at once.  Both must recover
        // — evict (remove tolerates the other thread having unlinked first)
        // and recompute — without panicking or clobbering each other.
        let dir = tmp_dir("concurrent-evict");
        let cache = ResultCache::open(&dir).unwrap();
        let key = 0x5A5A_5A5A_5A5A_5A5A;
        cache.store(key, &figures()).unwrap();
        let path = dir.join(format!("{key:016x}.cell"));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let barrier = std::sync::Barrier::new(2);
        let damage_seen = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cache = cache.clone();
                    let barrier = &barrier;
                    let damage_seen = &damage_seen;
                    s.spawn(move || {
                        barrier.wait();
                        // The executor's damaged-entry protocol: typed error
                        // → evict → recompute → store.  A thread that loses
                        // the race may instead see the peer's repair, or a
                        // clean miss because the peer evicted first — a miss
                        // means "recompute", same as damage.
                        match cache.load(key) {
                            Ok(Some(f)) => return f,
                            Ok(None) => {}
                            Err(_) => {
                                damage_seen.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        cache.remove(key).expect("evict tolerates races");
                        cache.remove(key).expect("double-evict is harmless");
                        let _ = cache.store(key, &figures()).expect("repair");
                        // The peer may still be mid evict→store; the final
                        // mutation on the entry is always a store, so a
                        // bounded retry converges on the repaired bytes.
                        loop {
                            if let Some(f) = cache.load(key).expect("post-repair load") {
                                return f;
                            }
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), figures());
            }
        });
        assert!(
            damage_seen.load(Ordering::Relaxed) >= 1,
            "at least one thread hit the torn entry"
        );
        assert_eq!(cache.entry_count().unwrap(), 1);
        assert_eq!(cache.load(key).unwrap().unwrap(), figures());
        let _ = fs::remove_dir_all(&dir);
    }
}
