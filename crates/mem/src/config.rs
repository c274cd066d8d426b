//! Memory-hierarchy configuration.

use crate::cache::CacheConfig;
use serde::{Deserialize, Serialize};

/// Complete configuration of the simulated memory hierarchy.
///
/// [`MemConfig::paper_default`] reproduces Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 unified cache geometry.
    pub l2: CacheConfig,
    /// L1 data-cache hit latency in cycles (3-stage D$ pipeline).
    pub l1_hit_latency: u64,
    /// L2 hit latency in cycles (the paper sweeps this in Figure 6; default 20).
    pub l2_hit_latency: u64,
    /// Main-memory latency to the first 16-byte chunk.
    pub mem_latency: u64,
    /// Additional cycles per subsequent 16-byte chunk of a line transfer.
    pub mem_chunk_latency: u64,
    /// Chunk size in bytes for the memory transfer model.
    pub mem_chunk_bytes: u64,
    /// Minimum spacing between line transfers on the memory bus, in cycles
    /// ("one L2 cache line every 32 cycles", Section 5.1).
    pub bus_line_interval: u64,
    /// Maximum number of outstanding misses (MSHRs).
    pub max_outstanding_misses: usize,
    /// Number of hardware stream buffers.
    pub stream_buffers: usize,
    /// Blocks per stream buffer.
    pub stream_buffer_blocks: usize,
    /// Whether the stream prefetcher is enabled.
    pub prefetch_enabled: bool,
}

impl MemConfig {
    /// The configuration from Table 1 of the paper.
    ///
    /// * I$/D$: 32 KB, 4-way, 64-byte lines, 8-entry victim buffer
    /// * L2: 1 MB, 8-way, 128-byte lines, 4-entry victim buffer, 20-cycle hit
    /// * Memory: 400 cycles to the first 16 bytes, 4 cycles per additional
    ///   16-byte chunk, 64 outstanding misses
    /// * Prefetch: 8 stream buffers with 8 128-byte blocks each
    pub fn paper_default() -> Self {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 4,
                line_bytes: 64,
                victim_entries: 8,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                assoc: 8,
                line_bytes: 128,
                victim_entries: 4,
            },
            l1_hit_latency: 3,
            l2_hit_latency: 20,
            mem_latency: 400,
            mem_chunk_latency: 4,
            mem_chunk_bytes: 16,
            bus_line_interval: 32,
            max_outstanding_misses: 64,
            stream_buffers: 8,
            stream_buffer_blocks: 8,
            prefetch_enabled: true,
        }
    }

    /// A scaled-down configuration for fast unit tests: tiny caches (so that
    /// misses are easy to provoke), short memory latency, prefetch off.
    pub fn tiny_for_tests() -> Self {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                victim_entries: 2,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                assoc: 4,
                line_bytes: 128,
                victim_entries: 2,
            },
            l1_hit_latency: 3,
            l2_hit_latency: 20,
            mem_latency: 100,
            mem_chunk_latency: 4,
            mem_chunk_bytes: 16,
            bus_line_interval: 8,
            max_outstanding_misses: 8,
            stream_buffers: 2,
            stream_buffer_blocks: 4,
            prefetch_enabled: false,
        }
    }

    /// Returns a copy with the prefetcher enabled or disabled.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch_enabled = enabled;
        self
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = MemConfig::paper_default();
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l1d.line_bytes, 64);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l2.line_bytes, 128);
        assert_eq!(c.l2_hit_latency, 20);
        assert_eq!(c.mem_latency, 400);
        assert_eq!(c.max_outstanding_misses, 64);
        assert_eq!(c.stream_buffers, 8);
    }

    #[test]
    fn full_line_transfer_is_428_cycles() {
        // 128-byte line in 16-byte chunks: 400 + 7*4 = 428, as the bus the
        // hierarchy builds from the paper configuration times it.
        let c = MemConfig::paper_default();
        let mut bus = crate::bus::MemoryBus::new(
            c.mem_latency,
            c.mem_chunk_latency,
            c.l2.line_bytes,
            c.mem_chunk_bytes,
            c.bus_line_interval,
        );
        assert_eq!(bus.schedule(0).line_complete_at, 428);
    }

    #[test]
    fn builder_style_overrides() {
        let c = MemConfig {
            l2_hit_latency: 40,
            ..MemConfig::paper_default()
        }
        .with_prefetch(false);
        assert_eq!(c.l2_hit_latency, 40);
        assert!(!c.prefetch_enabled);
    }
}
