//! Sweep specifications: cartesian grids over models × config axes ×
//! workloads, expanded into deterministic job lists.

use crate::job::SweepJob;
use icfp_core::{CoreConfig, CoreModel};
use serde::{Deserialize, Serialize};

/// One splitmix64 scramble step (for deriving per-workload trace seeds).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cartesian sweep specification: models × config axes × workloads.
///
/// Serializable (vendored-serde) so a spec travels whole over the
/// `icfp-wire/v2` protocol — the server expands and validates the identical
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
    /// Workload names (columns; resolved via [`icfp_workloads::by_name`]).
    pub workloads: Vec<String>,
    /// Dynamic instruction budget per workload trace.
    pub insts: usize,
    /// Base seed; per-workload trace seeds are derived from it.
    pub seed: u64,
    /// Timing repetitions per cell (the median host time is reported).
    pub reps: u32,
    /// Functional fast-forward: every cell architecturally executes this many
    /// leading instructions without the timing model (registers + memory
    /// only) and times the remainder from a cold microarchitectural state
    /// (0 = fully cold).  Part of every cell's deterministic identity: it is
    /// folded into both the fork key and the result-cache key, so cells with
    /// different fast-forward depths never share a computation or a cache
    /// entry.
    pub fast_forward: usize,
    /// Stream workload columns instead of materializing them: each column is
    /// backed by a resumable [`icfp_workloads::WorkloadSource`] generator
    /// (bounded block residency) rather than a whole-trace arena, so columns
    /// whose instruction budgets dwarf RAM still sweep.  Deterministic
    /// outputs are backing-independent — digests, cache keys and fork keys
    /// are identical either way.  Columns also stream automatically once
    /// [`SweepSpec::insts`] reaches [`STREAM_COLUMN_THRESHOLD`]; see
    /// [`SweepSpec::streams_columns`].
    pub streamed: bool,
}

/// Instruction budget at which workload columns stream automatically even
/// without [`SweepSpec::streamed`]: past this point a materialized arena's
/// footprint (tens of bytes per instruction, one arena per column) stops
/// being a sensible default.
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
            reps: 1,
            fast_forward: 0,
            streamed: false,
        }
    }

    /// Whether workload columns are backed by a streaming generator instead
    /// of a materialized arena: explicitly via [`SweepSpec::streamed`], or
    /// automatically once the instruction budget reaches
    /// [`STREAM_COLUMN_THRESHOLD`].
    pub fn streams_columns(&self) -> bool {
        self.streamed || self.insts >= STREAM_COLUMN_THRESHOLD
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

    /// Validates the spec: every axis non-empty, every workload known.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_axes()?;
        for w in &self.workloads {
            icfp_workloads::by_name_or_err(w, 1, 0)?;
        }
        Ok(())
    }

    /// Validates everything *except* workload-name resolution — the check a
    /// shard executor with externally supplied trace columns (see
    /// [`crate::plan::SweepShard`]) can still apply when its column names are
    /// not in the registry.
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
        if self.insts == 0 {
            return Err("sweep spec has a zero instruction budget".into());
        }
        icfp_sim::check_timed_region(self.fast_forward, self.insts)
    }

    /// The deterministic trace seed for a workload column: a pure function of
    /// the spec seed and the workload name, so every cell in the column
    /// simulates the identical trace regardless of job order or thread count.
    pub fn workload_seed(&self, workload: &str) -> u64 {
        splitmix(self.seed ^ icfp_isa::fnv1a(workload.as_bytes()))
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
                                reps: self.reps.max(1),
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
        spec.reps = 3;
        spec.fast_forward = 7;
        let bytes = serde::to_bytes(&spec);
        let back: SweepSpec = serde::from_bytes(&bytes).expect("decode");
        assert_eq!(back, spec);
    }
}
