//! The shard planner: splitting a cartesian sweep grid by workload column
//! into independently executable shards, and the deterministic merge that
//! reassembles their streamed cells into one report.
//!
//! A [`SweepShard`] is a self-contained work description: a [`SweepSpec`]
//! whose workload axis is a contiguous slice of the full grid's, an index
//! map translating the sub-spec's expand order back into full-grid
//! positions, and — per column — the trace's content *digest*, never its
//! bytes.  Workers resolve each column by its name exactly as the planner did
//! ([`column_source`]): a registry workload is regenerated (the per-column
//! seed is a pure function of the spec seed and the workload name, so a
//! sub-spec reproduces the full grid's traces exactly), a container column
//! is named by its path and opened there; either is checked against the
//! digest, and a shard costs a few hundred bytes on the wire regardless of
//! how many billions of instructions its columns carry.
//!
//! Splitting along the workload axis is deliberate: it is the innermost
//! expand axis (so a shard's jobs are exactly the full grid's jobs at mapped
//! indices), trace construction — the one expensive shared input — is
//! per-column (so no column is ever built twice across shards), and a fork
//! group is by definition the jobs of *one column* that share a cache key
//! (so sharding never breaks inert-axis sharing).

use crate::executor::column_source;
use crate::report::{SweepCell, SweepReport};
use crate::spec::SweepSpec;
use serde::{Deserialize, Serialize};

/// One workload column of a shard: the name plus the identity of the trace
/// the worker must execute against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// The column's name in the spec: a registry workload, or the path of a
    /// container on the *worker's* filesystem.
    pub workload: String,
    /// Content digest of the column's trace ([`icfp_isa::TraceSource::digest`]):
    /// the worker's regenerated or opened trace must match it exactly, or
    /// the shard is refused.
    pub trace_digest: u64,
}

/// One independently executable slice of a sweep grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepShard {
    /// Position of this shard in the plan (0-based).
    pub shard_index: u64,
    /// The full spec with the workload axis narrowed to this shard's
    /// columns.  Every other field — seed above all — is unchanged, so the
    /// sub-spec expands to jobs identical to the full grid's at the mapped
    /// indices.
    pub spec: SweepSpec,
    /// `index_map[i]` = full-grid expand index of the sub-spec's job `i`.
    pub index_map: Vec<u64>,
    /// One entry per workload in [`SweepShard::spec`], same order.
    pub columns: Vec<ColumnSpec>,
}

impl SweepShard {
    /// Number of cells this shard executes.
    pub fn cell_count(&self) -> usize {
        self.spec.cell_count()
    }

    /// What both ends of the wire check before a shard runs: the sub-spec's
    /// axes ([`SweepSpec::validate_axes`] — column names are the worker's to
    /// resolve) and one index-map entry per cell.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate_axes()?;
        if self.index_map.len() != self.cell_count() {
            return Err(format!(
                "shard index map has {} entries for a {}-cell sub-spec",
                self.index_map.len(),
                self.cell_count()
            ));
        }
        Ok(())
    }
}

/// Splits `spec` into (at most) `shards` shards along the workload axis —
/// contiguous, near-equal column ranges, every column in exactly one shard.
/// `shards` is clamped to `[1, workloads]`: columns are the unit of
/// distribution, so more shards than columns cannot help.
///
/// Each column's trace is built once here (exactly as the executor would
/// build it) to compute the digest that ships in place of the trace bytes.
///
/// # Errors
///
/// The [`SweepSpec::validate`] error, without planning anything.
pub fn plan_shards(spec: &SweepSpec, shards: usize) -> Result<Vec<SweepShard>, String> {
    spec.validate_axes()?;
    let w = spec.workloads.len();
    let outer = spec.cell_count() / w;
    let shards = shards.clamp(1, w);
    let digests = spec
        .workloads
        .iter()
        .map(|name| column_source(spec, name).map(|source| source.digest()))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut out = Vec::with_capacity(shards);
    for k in 0..shards {
        let lo = k * w / shards;
        let hi = (k + 1) * w / shards;
        let mut sub = spec.clone();
        sub.workloads = spec.workloads[lo..hi].to_vec();
        // Workload is the innermost expand axis: sub-job i decomposes as
        // i = outer_index * (hi - lo) + column_offset, and the same outer
        // point in the full grid sits at outer_index * w + (lo + offset).
        let mut index_map = Vec::with_capacity(outer * (hi - lo));
        for o in 0..outer {
            for c in lo..hi {
                index_map.push((o * w + c) as u64);
            }
        }
        let columns = (lo..hi)
            .map(|c| ColumnSpec {
                workload: spec.workloads[c].clone(),
                trace_digest: digests[c],
            })
            .collect();
        out.push(SweepShard {
            shard_index: k as u64,
            spec: sub,
            index_map,
            columns,
        });
    }
    Ok(out)
}

/// Reassembles per-cell results (indexed by full-grid expand position) into
/// the [`SweepReport`] a local run of `spec` would produce — the merge is a
/// pure function of the spec and the cells, so it is byte-identical
/// regardless of shard count, shard completion order, or which worker
/// executed what.  `threads` is the advisory header field (a distributed
/// run records its worker count there).
///
/// # Errors
///
/// Names the first missing cell — an incomplete distributed run must never
/// impersonate a complete report.
pub fn merge_report(
    spec: &SweepSpec,
    threads: usize,
    cells: Vec<Option<SweepCell>>,
) -> Result<SweepReport, String> {
    let n = spec.cell_count();
    if cells.len() != n {
        return Err(format!(
            "merge was handed {} cell slots for a {n}-cell spec",
            cells.len()
        ));
    }
    let mut assembled = Vec::with_capacity(n);
    for (k, c) in cells.into_iter().enumerate() {
        assembled.push(c.ok_or_else(|| format!("nothing produced cell {k} of {n}"))?);
    }
    Ok(SweepReport {
        threads,
        insts: spec.insts,
        seed: spec.seed,
        reps: spec.reps.max(1),
        workloads: spec.workloads.clone(),
        cells: assembled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_spec;

    #[test]
    fn shard_plans_partition_the_grid_exactly() {
        let spec = tiny_spec();
        let n = spec.cell_count();
        let jobs = spec.expand();
        for shards in [1, 2, 3, 4, 16] {
            let plan = plan_shards(&spec, shards).unwrap();
            assert_eq!(plan.len(), shards.min(spec.workloads.len()));
            // Every full-grid index appears exactly once across shards.
            let mut seen = vec![false; n];
            for (k, shard) in plan.iter().enumerate() {
                assert_eq!(shard.shard_index, k as u64);
                assert_eq!(shard.index_map.len(), shard.cell_count());
                assert_eq!(shard.columns.len(), shard.spec.workloads.len());
                for &full in &shard.index_map {
                    assert!(!seen[full as usize], "index {full} planned twice");
                    seen[full as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "plan must cover the whole grid");
            // A shard's expanded jobs are the full grid's jobs at the mapped
            // indices: same model, workload, config and — critically — the
            // same per-column trace seed.
            for shard in &plan {
                for (i, sub) in shard.spec.expand().iter().enumerate() {
                    let full = &jobs[shard.index_map[i] as usize];
                    assert_eq!(sub.model, full.model);
                    assert_eq!(sub.workload, full.workload);
                    assert_eq!(sub.seed, full.seed);
                    assert_eq!(sub.cache_key(0xD1CE), full.cache_key(0xD1CE));
                }
            }
        }
    }

    #[test]
    fn shard_columns_carry_the_executor_trace_digests() {
        let spec = tiny_spec();
        let plan = plan_shards(&spec, 4).unwrap();
        for shard in &plan {
            for col in &shard.columns {
                let src = column_source(&spec, &col.workload).unwrap();
                assert_eq!(col.trace_digest, src.digest(), "{}", col.workload);
            }
        }
    }

    #[test]
    fn shards_round_trip_through_the_wire_encoding() {
        let plan = plan_shards(&tiny_spec(), 3).unwrap();
        for shard in &plan {
            let bytes = serde::to_bytes(shard);
            let back: SweepShard = serde::from_bytes(&bytes).expect("decode");
            assert_eq!(&back, shard);
        }
    }

    #[test]
    fn planning_an_invalid_spec_is_refused() {
        let mut bad = tiny_spec();
        bad.workloads.push("no-such-workload".into());
        assert!(plan_shards(&bad, 2).unwrap_err().contains("no-such-workload"));
        let mut empty = tiny_spec();
        empty.models.clear();
        assert!(plan_shards(&empty, 2).is_err());
    }

    #[test]
    fn merge_refuses_holes_and_reproduces_the_local_header() {
        let spec = tiny_spec();
        let report = crate::run_sweep(&spec, 1).unwrap();
        let cells: Vec<Option<SweepCell>> = report.cells.iter().cloned().map(Some).collect();
        let merged = merge_report(&spec, 1, cells).unwrap();
        assert_eq!(merged.digest(), report.digest());
        assert_eq!(merged.to_json(), report.to_json());
        let mut holed: Vec<Option<SweepCell>> =
            report.cells.iter().cloned().map(Some).collect();
        holed[7] = None;
        let err = merge_report(&spec, 1, holed).unwrap_err();
        assert!(err.contains("cell 7"), "{err}");
    }
}
