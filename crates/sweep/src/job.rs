//! Sweep jobs: one grid point, ready to execute, plus the identity keys the
//! executor derives from a job — the fork key (may two cells share one
//! computation?) and the result-cache key (may a cell be served from disk?).

use crate::report::SweepCell;
use icfp_core::{CoreConfig, CoreModel};
use icfp_isa::{Fnv1a, TraceSource};
use icfp_sim::{CellFigures, SimConfig};

/// One grid point, ready to execute.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Position in the expanded job list (and in `SweepReport::cells`).
    pub index: usize,
    /// Core model.
    pub model: CoreModel,
    /// Fully resolved configuration (model default + axis overrides).
    pub config: CoreConfig,
    /// Workload name.
    pub workload: String,
    /// Dynamic instruction budget.
    pub insts: usize,
    /// Deterministic trace seed (see [`crate::SweepSpec::workload_seed`]).
    pub seed: u64,
    /// Timing repetitions (median is kept).
    pub reps: u32,
    /// Functional fast-forward depth in instructions (0 = fully cold; see
    /// [`crate::SweepSpec::fast_forward`]).
    pub fast_forward: usize,
}

impl SweepJob {
    /// Executes the job against its workload column's trace (the executor
    /// shares one `Arc<dyn TraceSource>` per column across the pool; see
    /// [`crate::column_source`]) through the shared warmup + median-of-N
    /// timing protocol ([`icfp_sim::median_run`]).  Deterministic outputs
    /// are independent of the backing.
    pub fn run(&self, source: &dyn TraceSource) -> SweepCell {
        self.cell_from_figures(&self.figures(source))
    }

    /// The figures [`SweepJob::run`] labels: what the executor computes once
    /// per group, stores in the result cache and replays into every member.
    pub(crate) fn figures(&self, source: &dyn TraceSource) -> CellFigures {
        let config = SimConfig::with_config(self.model, self.config.clone());
        icfp_sim::median_run(&config, source, self.fast_forward, self.reps).figures()
    }

    /// Builds this job's cell from bare per-cell figures: a computed or
    /// cached [`CellFigures`] carries no labels, so the model, workload and
    /// axis labels come from the job itself — computed and replayed cells of
    /// one cache key are identical.
    pub(crate) fn cell_from_figures(&self, figures: &CellFigures) -> SweepCell {
        SweepCell {
            model: self.model.name().to_string(),
            workload: self.workload.clone(),
            slice_buffer_entries: self.config.slice_buffer_entries,
            mshr_count: self.config.mem.max_outstanding_misses,
            l2_hit_latency: self.config.mem.l2_hit_latency,
            seed: self.seed,
            instructions: figures.instructions,
            cycles: figures.cycles,
            ipc: figures.ipc,
            l1d_mpki: figures.l1d_mpki,
            l2_mpki: figures.l2_mpki,
            host_seconds: figures.host_seconds,
            mips: figures.mips,
            state_digest: figures.state_digest,
            failed: None,
        }
    }

    /// Builds a *failed* cell for this job: every figure zeroed, the
    /// (sanitized) panic reason recorded.  Emitted when the job's worker
    /// panicked on every allowed attempt — the sweep completes and reports
    /// the hole instead of aborting.
    pub(crate) fn failed_cell(&self, reason: &str) -> SweepCell {
        SweepCell {
            failed: Some(crate::report::sanitize_reason(reason)),
            ..self.cell_from_figures(&CellFigures::default())
        }
    }

    /// The job's configuration with axes this model never reads canonicalized
    /// to zero, so configurations that run the identical simulation compare
    /// (and hash) equal.  Shared by the fork key and the cache key.
    fn normalized_config(&self) -> CoreConfig {
        let mut cfg = self.config.clone();
        if !self.model.reads_slice_buffer() {
            // The slice-buffer axis is inert for this model: cells differing
            // only along it run the identical simulation.
            cfg.slice_buffer_entries = 0;
            cfg.chain_table_entries = 0;
        }
        cfg
    }

    /// The job's *fork key*: two jobs may share one computation iff
    /// their keys are byte-identical — same model, workload, seed,
    /// instruction budget and fast-forward depth, and configurations equal
    /// after normalizing the axes this model never reads.  Keys are the
    /// vendored-serde encoding of exactly those inputs, so equality is
    /// equality of deterministic inputs.
    pub(crate) fn fork_key(&self) -> Vec<u8> {
        serde::to_bytes(&(
            self.model.name().to_string(),
            self.workload.clone(),
            (self.seed, self.insts as u64, self.fast_forward as u64),
            serde::to_bytes(&self.normalized_config()),
        ))
    }

    /// The job's content-addressed *cache key* for the `icfp-cache/v1` result
    /// store: an FNV-1a digest (length-prefixed fields, see
    /// [`Fnv1a::write_field`]) of everything the cell's deterministic outputs
    /// depend on — container version, model, normalized configuration bytes,
    /// the trace's content digest, the instruction budget and the
    /// fast-forward depth (which moves the cold-start boundary and therefore
    /// every timing figure).  Labels that
    /// don't feed the simulation (the workload *name*, the seed — both
    /// already folded into the trace digest's content) are deliberately
    /// excluded, so renamed-but-identical columns share entries; the replayed
    /// cell's labels come from the job, not the cache.
    pub fn cache_key(&self, trace_digest: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_field(crate::cache::MAGIC);
        h.write_field(self.model.name().as_bytes());
        h.write_field(&serde::to_bytes(&self.normalized_config()));
        h.write_u64(trace_digest);
        h.write_u64(self.insts as u64);
        h.write_u64(self.fast_forward as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::tiny_spec;

    #[test]
    fn cache_keys_canonicalize_inert_axes_and_separate_live_ones() {
        let spec = tiny_spec();
        let jobs = spec.expand();
        let dig = 0xDEAD_BEEF_u64;
        for a in &jobs {
            for b in &jobs {
                let same_key = a.cache_key(dig) == b.cache_key(dig);
                let same_fork = a.fork_key() == b.fork_key();
                // With one shared trace digest the cache key and fork key
                // partition the grid identically (fork keys also carry the
                // workload name + seed, but those are constants per column
                // and the digest stands in for the column here).
                if a.workload == b.workload {
                    assert_eq!(same_key, same_fork, "jobs {} vs {}", a.index, b.index);
                }
            }
        }
        // in-order ignores the slice axis: sb=64 and sb=128 cells of one
        // (l2, workload) point share a key.
        let inorder: Vec<_> = jobs
            .iter()
            .filter(|j| !j.model.reads_slice_buffer() && j.workload == "pointer-chase")
            .collect();
        assert!(inorder.len() >= 4);
        let a = inorder
            .iter()
            .find(|j| j.config.slice_buffer_entries == 64 && j.config.mem.l2_hit_latency == 10)
            .unwrap();
        let b = inorder
            .iter()
            .find(|j| j.config.slice_buffer_entries == 128 && j.config.mem.l2_hit_latency == 10)
            .unwrap();
        assert_eq!(a.cache_key(dig), b.cache_key(dig));
        // icfp reads it: same pair of configs must NOT collide.
        let icfp: Vec<_> = jobs
            .iter()
            .filter(|j| j.model.reads_slice_buffer() && j.workload == "pointer-chase")
            .collect();
        let a = icfp
            .iter()
            .find(|j| j.config.slice_buffer_entries == 64 && j.config.mem.l2_hit_latency == 10)
            .unwrap();
        let b = icfp
            .iter()
            .find(|j| j.config.slice_buffer_entries == 128 && j.config.mem.l2_hit_latency == 10)
            .unwrap();
        assert_ne!(a.cache_key(dig), b.cache_key(dig));
        // Different trace content ⇒ different key, all else equal.
        assert_ne!(a.cache_key(1), a.cache_key(2));
    }
}
