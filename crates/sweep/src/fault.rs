//! Deterministic, seeded fault injection for the sweep service.
//!
//! A [`FaultPlan`] arms at most one fault per *seam* — the three places a
//! production sweep can break — and fires each fault exactly once, at a
//! deterministic point chosen either explicitly or derived from a seed:
//!
//! * **cache write** ([`FaultPlan::corrupt_cache_write`]): the *n*-th
//!   `.cell` entry written through a [`crate::ResultCache`] is torn at byte
//!   *k* before it reaches disk — the shape of a crash or full disk mid
//!   write (the atomic tmp+rename normally prevents torn entries, so the
//!   hook recreates what only a dying kernel could leave behind);
//! * **outbound frame** ([`FaultPlan::next_frame_action`]): the *n*-th
//!   `icfp-wire/v4` frame the server sends is dropped entirely (peer sees a
//!   clean close mid-conversation) or truncated at byte *k* (peer sees a
//!   torn frame) and the connection is severed — the shape of a server
//!   crash or network partition mid-stream;
//! * **executor job** ([`FaultPlan::injected_panic`]): the worker computing
//!   expand-index *j* panics on its first *m* attempts — the shape of a
//!   latent timing-model bug tripping on one grid point.
//!
//! Every counter is atomic and every fault fires at most once, so a plan is
//! safe to share across the executor pool and the server's connection
//! threads, and a given (plan, workload) pair always breaks at the same
//! point — the robustness test matrix replays the identical failure on
//! every run.  Production paths pass no plan and pay one `Option` check.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// What to do with one outbound wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAction {
    /// Send the frame normally.
    Pass,
    /// Drop the frame and sever the connection (clean close mid-stream).
    Drop,
    /// Send only the first `k` bytes of the frame, then sever the
    /// connection (torn frame).
    Truncate(usize),
}

/// A cache-write tear: entry write number `write_index` (0-based, counted
/// across the plan's lifetime) keeps only its first `keep_bytes` bytes.
#[derive(Debug, Clone, Copy)]
pub struct CacheTear {
    /// Which entry write to tear (0 = the first `.cell` written).
    pub write_index: u64,
    /// How many leading bytes of the encoded entry survive.
    pub keep_bytes: usize,
}

/// A frame fault: outbound frame number `frame_index` (0-based, counted
/// across the plan's lifetime) is dropped or truncated.
#[derive(Debug, Clone, Copy)]
pub struct FrameFault {
    /// Which outbound frame to break (0 = the Hello reply).
    pub frame_index: u64,
    /// Drop it entirely, or keep only the first `k` bytes.
    pub action: FrameAction,
}

/// An injected worker panic: the job at expand index `job_index` panics on
/// its first `attempts` executions, then runs cleanly.
#[derive(Debug, Clone, Copy)]
pub struct PanicJob {
    /// Expand index of the job to break, in the *full* grid: a shard's jobs
    /// keep their full-grid indices.
    pub job_index: usize,
    /// How many consecutive attempts panic before the job succeeds
    /// (`u32::MAX` = never succeeds).
    pub attempts: u32,
}

/// A deterministic fault-injection plan; see the module docs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cache_tear: Option<CacheTear>,
    frame_fault: Option<FrameFault>,
    panic_job: Option<PanicJob>,
    cache_writes: AtomicU64,
    cache_fired: AtomicBool,
    frames: AtomicU64,
    frame_fired: AtomicBool,
    panics_fired: AtomicU32,
}

impl FaultPlan {
    /// An empty plan (no faults armed) — every seam check passes.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Derives a plan from a seed: one fault per seam, at pseudo-random but
    /// fully reproducible points within the given sweep shape.  Used by the
    /// randomized arm of the robustness matrix; targeted tests arm seams
    /// explicitly instead.
    pub fn from_seed(seed: u64, cells: usize, frames_per_run: u64) -> Self {
        let cells = cells.max(1) as u64;
        // Each fault point is one splitmix64 scramble of the one before.
        let scramble = |x| icfp_workloads::SplitMix64::new(x).next_u64();
        let r0 = scramble(seed);
        let r1 = scramble(r0);
        let r2 = scramble(r1);
        FaultPlan::new()
            .with_cache_tear(CacheTear {
                write_index: r0 % cells,
                // Entries are ~100 bytes; keep 1..64 so the tear always lands
                // inside the container, never producing an empty (missing-
                // magic-only) file by accident of size.
                keep_bytes: 1 + (r0 >> 32) as usize % 63,
            })
            .with_frame_fault(FrameFault {
                frame_index: r1 % frames_per_run.max(1),
                action: if r1 & (1 << 32) == 0 {
                    FrameAction::Drop
                } else {
                    FrameAction::Truncate(1 + (r1 >> 33) as usize % 7)
                },
            })
            .with_panic_job(PanicJob {
                job_index: (r2 % cells) as usize,
                attempts: 1,
            })
    }

    /// Arms the cache-write seam.
    pub fn with_cache_tear(mut self, tear: CacheTear) -> Self {
        self.cache_tear = Some(tear);
        self
    }

    /// Arms the outbound-frame seam.
    pub fn with_frame_fault(mut self, fault: FrameFault) -> Self {
        self.frame_fault = Some(fault);
        self
    }

    /// Arms the executor seam.
    pub fn with_panic_job(mut self, panic: PanicJob) -> Self {
        self.panic_job = Some(panic);
        self
    }

    /// Cache-write seam: called by [`crate::ResultCache::store`] with the
    /// encoded entry about to be written.  Returns `true` (and truncates
    /// `bytes`) if this write is the armed one — fires at most once.
    pub fn corrupt_cache_write(&self, bytes: &mut Vec<u8>) -> bool {
        let Some(tear) = self.cache_tear else {
            return false;
        };
        let n = self.cache_writes.fetch_add(1, Ordering::Relaxed);
        if n != tear.write_index || self.cache_fired.swap(true, Ordering::Relaxed) {
            return false;
        }
        bytes.truncate(tear.keep_bytes.min(bytes.len().saturating_sub(1)).max(1));
        true
    }

    /// Outbound-frame seam: called by the server once per frame it is about
    /// to send.  Any non-[`FrameAction::Pass`] answer fires at most once.
    pub fn next_frame_action(&self) -> FrameAction {
        let Some(fault) = self.frame_fault else {
            return FrameAction::Pass;
        };
        let n = self.frames.fetch_add(1, Ordering::Relaxed);
        if n != fault.frame_index || self.frame_fired.swap(true, Ordering::Relaxed) {
            return FrameAction::Pass;
        }
        fault.action
    }

    /// Executor seam: called once per (job, attempt).  Returns the panic
    /// message to raise if this attempt of this job is armed to fail.
    pub fn injected_panic(&self, job_index: usize) -> Option<String> {
        let panic = self.panic_job?;
        if job_index != panic.job_index {
            return None;
        }
        let fired = self.panics_fired.fetch_add(1, Ordering::Relaxed);
        if fired >= panic.attempts {
            return None;
        }
        Some(format!(
            "injected fault: job {job_index} panics on attempt {} of {}",
            fired + 1,
            panic.attempts
        ))
    }

    /// Whether the cache-tear fault has fired.
    pub fn cache_tear_fired(&self) -> bool {
        self.cache_fired.load(Ordering::Relaxed)
    }

    /// Whether the frame fault has fired.
    pub fn frame_fault_fired(&self) -> bool {
        self.frame_fired.load(Ordering::Relaxed)
    }

    /// How many injected panics have been raised so far.
    pub fn panics_raised(&self) -> u32 {
        let Some(panic) = self.panic_job else { return 0 };
        self.panics_fired.load(Ordering::Relaxed).min(panic.attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_tear_fires_exactly_once_at_the_armed_write() {
        let plan = FaultPlan::new().with_cache_tear(CacheTear {
            write_index: 1,
            keep_bytes: 5,
        });
        let mut a = vec![0u8; 32];
        assert!(!plan.corrupt_cache_write(&mut a), "write 0 passes");
        assert_eq!(a.len(), 32);
        let mut b = vec![0u8; 32];
        assert!(plan.corrupt_cache_write(&mut b), "write 1 tears");
        assert_eq!(b.len(), 5);
        assert!(plan.cache_tear_fired());
        let mut c = vec![0u8; 32];
        assert!(!plan.corrupt_cache_write(&mut c), "fires once");
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn tears_never_empty_an_entry_or_leave_it_whole() {
        for keep in [0usize, 1, 31, 100] {
            let plan = FaultPlan::new().with_cache_tear(CacheTear {
                write_index: 0,
                keep_bytes: keep,
            });
            let mut bytes = vec![0u8; 32];
            assert!(plan.corrupt_cache_write(&mut bytes));
            assert!(
                !bytes.is_empty() && bytes.len() < 32,
                "keep={keep} left {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn frame_fault_fires_exactly_once() {
        let plan = FaultPlan::new().with_frame_fault(FrameFault {
            frame_index: 2,
            action: FrameAction::Truncate(3),
        });
        assert_eq!(plan.next_frame_action(), FrameAction::Pass);
        assert_eq!(plan.next_frame_action(), FrameAction::Pass);
        assert_eq!(plan.next_frame_action(), FrameAction::Truncate(3));
        assert!(plan.frame_fault_fired());
        for _ in 0..8 {
            assert_eq!(plan.next_frame_action(), FrameAction::Pass);
        }
    }

    #[test]
    fn injected_panics_stop_after_the_armed_attempts() {
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 7,
            attempts: 2,
        });
        assert!(plan.injected_panic(3).is_none(), "other jobs untouched");
        assert!(plan.injected_panic(7).is_some());
        assert!(plan.injected_panic(7).is_some());
        assert!(plan.injected_panic(7).is_none(), "attempt 3 succeeds");
        assert_eq!(plan.panics_raised(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_bounds() {
        for seed in 0..32u64 {
            let a = FaultPlan::from_seed(seed, 8, 10);
            let b = FaultPlan::from_seed(seed, 8, 10);
            let ta = a.cache_tear.unwrap();
            let tb = b.cache_tear.unwrap();
            assert_eq!(ta.write_index, tb.write_index);
            assert_eq!(ta.keep_bytes, tb.keep_bytes);
            assert!(ta.write_index < 8);
            assert!(ta.keep_bytes >= 1);
            let fa = a.frame_fault.unwrap();
            assert!(fa.frame_index < 10);
            if let FrameAction::Truncate(k) = fa.action {
                assert!(k >= 1);
            }
            assert!(a.panic_job.unwrap().job_index < 8);
        }
    }

    #[test]
    fn empty_plans_pass_every_seam() {
        let plan = FaultPlan::new();
        let mut bytes = vec![1u8; 8];
        assert!(!plan.corrupt_cache_write(&mut bytes));
        assert_eq!(plan.next_frame_action(), FrameAction::Pass);
        assert!(plan.injected_panic(0).is_none());
        assert_eq!(plan.panics_raised(), 0);
    }
}
