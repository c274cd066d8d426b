//! A test-only [`TraceSource`] wrapper that reports every `block()` call.

use icfp_isa::{TraceBlock, TraceSource, TraceSourceError, WarmStore};
use std::sync::Arc;

/// Forwards everything to `inner` — its warm-state store included — except
/// the arena view, so cursors over it take the block path, and calls
/// `on_block(index)` before each block fetch.
pub struct Tap<S, F> {
    pub inner: S,
    pub on_block: F,
}

impl<S: TraceSource, F: Fn(usize) + Send + Sync> TraceSource for Tap<S, F> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn digest(&self) -> u64 {
        self.inner.digest()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn block(&self, index: usize) -> Result<Arc<TraceBlock>, TraceSourceError> {
        (self.on_block)(index);
        self.inner.block(index)
    }
    fn block_digest(&self, index: usize) -> Result<u64, TraceSourceError> {
        self.inner.block_digest(index)
    }
    fn warm(&self) -> Option<&WarmStore> {
        self.inner.warm()
    }
}
