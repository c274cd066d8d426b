//! # icfp-mem — memory hierarchy substrate
//!
//! A cycle-accounting, non-blocking memory hierarchy modelled after the
//! configuration in Table 1 of the iCFP paper (HPCA 2009):
//!
//! * 32 KB 4-way L1 data cache, 64 B lines, 8-entry victim buffer,
//!   3-cycle hit pipeline;
//! * 1 MB 8-way L2, 128 B lines, 4-entry victim buffer, 20-cycle hit latency;
//! * 64 outstanding misses (MSHRs), miss-status merging on the same line;
//! * 400-cycle memory latency to the first 16 bytes, 4 cycles per additional
//!   16-byte chunk, and a memory bus that accepts one L2 line every 32 cycles
//!   (which caps exploitable L2 MLP at ~12, as the paper notes);
//! * 8 stream buffers of 8×128 B blocks for hardware prefetch.
//!
//! The hierarchy is *timestamp-scheduled* rather than event-callback driven:
//! every access computes, at issue time, the cycle at which its data becomes
//! available, taking MSHR merging, bus occupancy and prefetch state into
//! account.  Pipeline models poll those completion times.  This keeps the core
//! models simple while preserving the timing behaviour that the paper's
//! evaluation depends on (miss overlap, bus-bandwidth-limited MLP, secondary
//! misses under primary misses).
//!
//! ```
//! use icfp_mem::{MemoryHierarchy, MemConfig, AccessOutcome};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::paper_default());
//! let resp = mem.load(0x4000, 0).expect("mshr available");
//! assert_eq!(resp.outcome, AccessOutcome::L2Miss); // cold caches: full miss
//! assert!(resp.completes_at >= 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
pub mod stats;

pub use bus::MemoryBus;
pub use cache::{Cache, CacheConfig, VictimBuffer};
pub use config::MemConfig;
pub use hierarchy::{AccessOutcome, LoadResponse, MemError, MemoryHierarchy, StoreResponse};
pub use mshr::{MshrFile, MshrId, MshrRequest};
pub use prefetch::StreamPrefetcher;
pub use stats::MemStats;
