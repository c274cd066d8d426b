//! Sweep jobs: one grid point, ready to execute, plus its one identity — the
//! cache key, which answers both "may two cells of a column share one
//! computation?" and "may a cell be served from disk?".

use crate::report::SweepCell;
use icfp_core::{CoreConfig, CoreModel};
use icfp_isa::{Fnv1a, TraceSource};
use icfp_sim::{CellFigures, SimConfig, Simulator};

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
    /// Functional fast-forward depth in instructions (0 = fully cold; see
    /// [`crate::SweepSpec::fast_forward`]).
    pub fast_forward: usize,
}

impl SweepJob {
    /// The job's figures over its column's trace ([`crate::column_source`]):
    /// one simulation ([`Simulator::run_source_ff`]), which the executor runs
    /// once per fork group, stores in the result cache and replays into every
    /// member.  Deterministic outputs are independent of the backing; the
    /// host time is that one run's, fast-forward walk included if it did it.
    pub(crate) fn figures(&self, source: &dyn TraceSource) -> CellFigures {
        Simulator::new(SimConfig::with_config(self.model, self.config.clone()))
            .run_source_ff(source, self.fast_forward)
            .figures()
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

    /// The job's content-addressed *cache key* for the `icfp-cache/v1` result
    /// store: an FNV-1a digest (length-prefixed fields, see
    /// [`Fnv1a::write_field`]) of everything the cell's deterministic outputs
    /// depend on — container version, model, configuration bytes (axes this
    /// model never reads canonicalized to zero, so configurations that run the
    /// identical simulation hash equal), the trace's content digest, the
    /// instruction budget and the fast-forward depth (which moves the
    /// cold-start boundary and therefore every timing figure).  Labels that
    /// don't feed the simulation (the workload *name*, the seed — both
    /// already folded into the trace digest's content) are deliberately
    /// excluded, so renamed-but-identical columns share entries; the replayed
    /// cell's labels come from the job, not the cache.  The jobs of one
    /// column that share a key are one fork group: there is no other identity.
    pub fn cache_key(&self, trace_digest: u64) -> u64 {
        let mut cfg = self.config.clone();
        if !self.model.reads_slice_buffer() {
            // The slice-buffer axis is inert for this model: cells differing
            // only along it run the identical simulation.
            cfg.slice_buffer_entries = 0;
            cfg.chain_table_entries = 0;
        }
        let mut h = Fnv1a::new();
        h.write_field(crate::cache::MAGIC);
        h.write_field(self.model.name().as_bytes());
        h.write_field(&serde::to_bytes(&cfg));
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
    fn cache_key_values_are_pinned() {
        // Re-recorded when the configuration bytes lost the signature size
        // and the return-stack depth: the cache key is the one identity a cell
        // has, and a drift in it silently cools every `icfp-cache/v1`
        // directory ever written.
        let (jobs, mut ff) = (tiny_spec().expand(), tiny_spec());
        ff.fast_forward = 300;
        assert_eq!(
            (jobs[0].model.name(), jobs[16].model.name()),
            ("icfp", "in-order")
        );
        assert_eq!(jobs[0].cache_key(0xD1CE), 0x91bc_8822_a4cc_2931);
        assert_eq!(jobs[16].cache_key(0xD1CE), 0x2506_0217_5f6d_4f67);
        assert_eq!(ff.expand()[0].cache_key(0xD1CE), 0x1f84_4226_3419_1402);
    }

    #[test]
    fn cache_keys_canonicalize_inert_axes_and_separate_live_ones() {
        let spec = tiny_spec();
        let jobs = spec.expand();
        let dig = 0xDEAD_BEEF_u64;
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
