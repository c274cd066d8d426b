//! Sweep specifications: cartesian grids over models × config axes ×
//! workloads, expanded into deterministic job lists.

use crate::job::SweepJob;
use crate::report::unwritable;
use icfp_core::{CoreConfig, CoreModel};
use icfp_workloads::SplitMix64;
use serde::{Deserialize, Serialize};

/// A cartesian sweep specification: models × config axes × workloads.
///
/// Serializable (vendored-serde) so a spec travels whole over the
/// `icfp-wire/v4` protocol — the server expands and validates the identical
/// grid the client described.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Core models to sweep (rows of the matrix).
    pub models: Vec<CoreModel>,
    /// Slice-buffer capacities to sweep (Table 1 default: 128).
    pub slice_buffer_entries: Vec<usize>,
    /// MSHR counts to sweep (Table 1 default: 64).
    pub mshr_counts: Vec<usize>,
    /// L2 hit latencies to sweep (the Figure 6 axis; Table 1 default: 20).
    pub l2_hit_latencies: Vec<u64>,
    /// Columns: each a registry workload name or the path of an
    /// `icfp-trace/v1|v2` container (resolved by [`crate::column_source`]).
    pub workloads: Vec<String>,
    /// Dynamic instruction budget per registry workload trace (a container
    /// column runs at its own length).
    pub insts: usize,
    /// Base seed; per-workload trace seeds are derived from it.
    pub seed: u64,
    /// Functional fast-forward: every cell architecturally executes this many
    /// leading instructions without the timing model (registers + memory
    /// only) and times the remainder from a cold microarchitectural state
    /// (0 = fully cold).  Part of every cell's deterministic identity: it is
    /// folded into the cache key, so cells with different fast-forward
    /// depths never share a computation or a cache entry.
    pub fast_forward: usize,
}

/// Instruction budget from which a registry column is backed by a resumable
/// [`icfp_workloads::WorkloadSource`] generator (bounded block residency)
/// instead of a materialized arena, whose footprint (tens of bytes per
/// instruction, one arena per column) stops being sensible past this point.
/// Deterministic outputs are backing-independent — digests and cache keys
/// are identical either way.
pub const STREAM_COLUMN_THRESHOLD: usize = 2_000_000;

/// Ceiling on [`SweepSpec::cell_count`]: [`SweepSpec::validate_axes`] refuses
/// anything larger before a single job is expanded.  Specs arrive from the
/// wire, where five modest axes multiply past any allocation the process
/// could survive; the paper's largest grid is a few thousand cells.
pub const MAX_GRID_CELLS: usize = 1 << 16;

impl SweepSpec {
    /// A spec over `models` × `workloads` at the paper-default configuration
    /// point (single value on every axis).
    pub fn new(models: Vec<CoreModel>, workloads: Vec<String>, insts: usize, seed: u64) -> Self {
        SweepSpec {
            models,
            slice_buffer_entries: vec![128],
            mshr_counts: vec![64],
            l2_hit_latencies: vec![20],
            workloads,
            insts,
            seed,
            fast_forward: 0,
        }
    }

    /// Number of grid cells the spec expands to, saturating at `usize::MAX`
    /// (an unvalidated spec's axes can multiply past it).
    pub fn cell_count(&self) -> usize {
        [
            self.models.len(),
            self.slice_buffer_entries.len(),
            self.mshr_counts.len(),
            self.l2_hit_latencies.len(),
            self.workloads.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Validates the spec: [`SweepSpec::validate_axes`], and every column
    /// resolves and leaves a timed region after the fast-forward — without
    /// building any: a registry name is looked up, a container's header and
    /// index are read, no block is generated or decoded.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_axes()?;
        self.workloads
            .iter()
            .try_for_each(|w| crate::executor::resolve_column(self, w).map(drop))
    }

    /// Validates everything *except* column resolution — the check both ends
    /// of the wire apply to a shard, whose column names are the worker's to
    /// resolve.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::validate`].
    pub fn validate_axes(&self) -> Result<(), String> {
        if self.models.is_empty() {
            return Err("sweep spec has no models".into());
        }
        if self.workloads.is_empty() {
            return Err("sweep spec has no workloads".into());
        }
        if self.slice_buffer_entries.is_empty()
            || self.mshr_counts.is_empty()
            || self.l2_hit_latencies.is_empty()
        {
            return Err("sweep spec has an empty configuration axis".into());
        }
        // A repeated value addresses the same matrix row or column twice.
        fn unique<T: Eq + std::hash::Hash + std::fmt::Display>(
            axis: &str,
            xs: &[T],
        ) -> Result<(), String> {
            let mut seen = std::collections::HashSet::new();
            match xs.iter().find(|x| !seen.insert(*x)) {
                Some(x) => Err(format!("sweep axis {axis} repeats {x}")),
                None => Ok(()),
            }
        }
        let cells = self.cell_count();
        if cells > MAX_GRID_CELLS {
            return Err(format!(
                "sweep grid has {}{cells} cells; the limit is {MAX_GRID_CELLS}",
                if cells == usize::MAX { "at least " } else { "" }
            ));
        }
        // The size axes reach the models, which allocate them up front: put
        // each value through the models' own definition of a legal size.
        let mut cfg = CoreConfig::paper_default();
        for &n in &self.slice_buffer_entries {
            cfg.slice_buffer_entries = n;
            cfg.validate()
                .map_err(|e| format!("sweep axis slice_buffer_entries: {e}"))?;
        }
        for &n in &self.mshr_counts {
            cfg.mem.max_outstanding_misses = n;
            cfg.validate()
                .map_err(|e| format!("sweep axis mshr_counts: {e}"))?;
        }
        unique("models", &self.models)?;
        unique("workloads", &self.workloads)?;
        unique("slice_buffer_entries", &self.slice_buffer_entries)?;
        unique("mshr_counts", &self.mshr_counts)?;
        unique("l2_hit_latencies", &self.l2_hit_latencies)?;
        // A column's name is written into the report document, whose flat
        // schema carries no escapes.
        if let Some(w) = self.workloads.iter().find(|w| w.chars().any(unwritable)) {
            return Err(format!(
                "workload {w:?} holds a quote, a backslash or a control character, \
                 which the report document cannot carry"
            ));
        }
        if self.insts == 0 {
            return Err("sweep spec has a zero instruction budget".into());
        }
        Ok(())
    }

    /// The deterministic trace seed for a workload column: a pure function of
    /// the spec seed and the workload name, so every cell in the column
    /// simulates the identical trace regardless of job order or thread count.
    pub fn workload_seed(&self, workload: &str) -> u64 {
        SplitMix64::new(self.seed ^ icfp_isa::fnv1a(workload.as_bytes())).next_u64()
    }

    /// Expands the grid into jobs, in deterministic row-major order
    /// (model, slice buffer, MSHRs, L2 latency, workload — workload
    /// innermost, so each matrix row is a contiguous run of jobs).
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(self.cell_count());
        for &model in &self.models {
            for &slice in &self.slice_buffer_entries {
                for &mshrs in &self.mshr_counts {
                    for &l2 in &self.l2_hit_latencies {
                        for workload in &self.workloads {
                            let mut config = model.default_config();
                            config.slice_buffer_entries = slice;
                            config.mem.max_outstanding_misses = mshrs;
                            config.mem.l2_hit_latency = l2;
                            jobs.push(SweepJob {
                                index: jobs.len(),
                                model,
                                config,
                                workload: workload.clone(),
                                insts: self.insts,
                                seed: self.workload_seed(workload),
                                fast_forward: self.fast_forward,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::testutil::{overflowing_spec, tiny_spec};

    #[test]
    fn expand_is_cartesian_and_ordered() {
        let spec = tiny_spec();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.cell_count());
        assert_eq!(jobs.len(), 32);
        for (k, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, k);
        }
        // Workload is the innermost axis: the first four jobs share a config.
        assert_eq!(jobs[0].workload, "pointer-chase");
        assert_eq!(jobs[3].workload, "streaming");
        assert_eq!(
            jobs[0].config.slice_buffer_entries,
            jobs[3].config.slice_buffer_entries
        );
        // Same workload column ⇒ same trace seed, across models and configs.
        let seed0 = jobs[0].seed;
        for j in jobs.iter().filter(|j| j.workload == "pointer-chase") {
            assert_eq!(j.seed, seed0);
        }
        // Different workloads get different seeds.
        assert_ne!(jobs[0].seed, jobs[1].seed);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = tiny_spec();
        s.workloads.push("nope".into());
        assert!(run_sweep(&s, 1).is_err());
        let mut s = tiny_spec();
        s.models.clear();
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.l2_hit_latencies.clear();
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.insts = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_refuses_a_column_name_the_document_cannot_carry() {
        // The report document carries no escapes, and paths are names now.
        for name in ["a\"b.trace", "dir\\w.trace", "two\nlines.trace"] {
            let mut s = tiny_spec();
            s.workloads.push(name.into());
            let err = s.validate_axes().unwrap_err();
            assert!(err.contains("the report document cannot carry"), "{name:?}: {err}");
            assert!(run_sweep(&s, 1).is_err(), "{name:?}");
        }
    }

    #[test]
    fn a_column_resolves_registry_first_then_as_a_container_held_to_its_own_length() {
        let path = std::env::temp_dir().join(format!("icfp-spec-{}.trace", std::process::id()));
        let trace = icfp_workloads::branchy(100, 1);
        let len = trace.len();
        icfp_isa::TraceFileWriter::write_trace_as(&path, &trace, 64, icfp_isa::TraceFormat::V2)
            .expect("write container");
        let mut s = tiny_spec();
        s.workloads = vec!["branchy".into(), path.display().to_string()];
        // `insts` (600) is the registry column's length, not the container's.
        s.fast_forward = len - 1;
        assert_eq!(s.validate(), Ok(()));
        s.fast_forward = len;
        let err = s.validate().unwrap_err();
        assert!(err.contains(&format!("(insts = {len})")), "{err}");
        assert_eq!(s.validate_axes(), Ok(()), "axes alone never open a column");
        std::fs::remove_file(&path).expect("remove container");

        // Neither a registry name nor a readable container: one error that
        // names both ways to spell a column.
        s.fast_forward = 0;
        let err = s.validate().unwrap_err();
        assert!(err.contains("valid workloads: pointer-chase"), "{err}");
        assert!(err.contains("or the path of an icfp-trace container"), "{err}");
    }

    #[test]
    fn validate_names_the_axis_that_holds_a_zero() {
        let mut s = tiny_spec();
        s.slice_buffer_entries = vec![64, 0];
        let err = s.validate_axes().unwrap_err();
        assert!(err.contains("slice_buffer_entries"), "{err}");
        let mut s = tiny_spec();
        s.mshr_counts = vec![0];
        let err = s.validate().unwrap_err();
        assert!(err.contains("mshr_counts"), "{err}");
        // A zero L2 latency is a legal (if ideal) machine.
        let mut s = tiny_spec();
        s.l2_hit_latencies = vec![0];
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_names_the_axis_that_repeats_a_value() {
        // `--core icfp,icfp --workload branchy,branchy` used to run 8 cells
        // into a 4-row matrix whose second `branchy` column read `-`.
        let mut repeats = [(); 5].map(|()| tiny_spec());
        repeats[0].models.push(CoreModel::Icfp);
        repeats[1].workloads.push("branchy".into());
        repeats[2].slice_buffer_entries.push(64);
        repeats[3].mshr_counts = vec![64, 8, 64];
        repeats[4].l2_hit_latencies.push(20);
        let names = [
            "models repeats icfp",
            "workloads repeats branchy",
            "slice_buffer_entries repeats 64",
            "mshr_counts repeats 64",
            "l2_hit_latencies repeats 20",
        ];
        for (s, names) in repeats.iter().zip(names) {
            let err = s.validate_axes().unwrap_err();
            assert!(err.contains(names), "{names}: {err}");
            assert!(run_sweep(s, 1).is_err(), "{names}");
        }
    }

    #[test]
    fn validate_names_the_axis_that_holds_an_oversized_structure() {
        // `--sweep-slice 1099511627776` used to abort the process (and the
        // daemon) inside the allocator.
        let mut s = tiny_spec();
        s.slice_buffer_entries = vec![64, 1 << 40];
        let err = s.validate_axes().unwrap_err();
        assert!(err.contains("slice_buffer_entries") && err.contains("1099511627776"), "{err}");
        let mut s = tiny_spec();
        s.mshr_counts = vec![CoreConfig::MAX_STRUCTURE_ENTRIES + 1];
        let err = s.validate().unwrap_err();
        assert!(err.contains("mshr_counts") && err.contains("65537"), "{err}");
        assert!(run_sweep(&s, 1).is_err());
        let mut s = tiny_spec();
        s.slice_buffer_entries = vec![CoreConfig::MAX_STRUCTURE_ENTRIES];
        s.mshr_counts = vec![CoreConfig::MAX_STRUCTURE_ENTRIES];
        assert!(s.validate().is_ok(), "the ceiling itself is a legal size");
    }

    #[test]
    fn validate_caps_the_grid_and_survives_a_product_past_usize() {
        // 256 x 257 = 65,792 cells: one over-long axis pair is enough.
        let mut s = tiny_spec();
        s.models = vec![CoreModel::InOrder];
        s.workloads.truncate(1);
        s.slice_buffer_entries = (1..=256).collect();
        s.mshr_counts = (1..=257).collect();
        s.l2_hit_latencies = vec![20];
        assert_eq!(s.cell_count(), 65_792);
        let err = s.validate_axes().unwrap_err();
        assert!(err.contains("65792") && err.contains("65536"), "{err}");
        s.mshr_counts.pop();
        assert_eq!(s.cell_count(), MAX_GRID_CELLS);
        assert!(s.validate().is_ok(), "the limit itself is a legal grid");

        // A product past `usize` must saturate and be refused, not wrap.
        let s = overflowing_spec();
        assert_eq!(s.cell_count(), usize::MAX);
        let err = s.validate().unwrap_err();
        assert!(err.contains("at least"), "{err}");
        assert!(run_sweep(&s, 1).is_err());
    }

    #[test]
    fn specs_round_trip_through_the_wire_encoding() {
        let mut spec = tiny_spec();
        spec.seed = 0xDEAD_BEEF;
        spec.fast_forward = 7;
        let bytes = serde::to_bytes(&spec);
        let back: SweepSpec = serde::from_bytes(&bytes).expect("decode");
        assert_eq!(back, spec);
    }
}
