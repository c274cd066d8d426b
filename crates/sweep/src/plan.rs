//! The one work description a sweep travels as, the planner that deals a
//! grid's fork groups to independently executable shards, and the
//! deterministic merge that reassembles their streamed cells into one report.
//!
//! A [`SweepShard`] is self-contained: the full [`SweepSpec`], the full-grid
//! expand indices of the cells to run — whole fork groups, so no cell is
//! computed on two workers — and per-column trace *digests*, never trace
//! bytes: **none, or one for every column those cells touch**.  A whole grid
//! is the shard that names every cell and carries no digest
//! ([`SweepShard::whole`]: its sender has built no column and asks for no
//! check); a planned shard carries all of its digests, and a list that covers
//! only some touched columns is refused.  Workers resolve each column by its
//! name exactly as the planner did ([`column_source`]): a registry workload is
//! regenerated (the per-column seed is a pure function of the spec seed and
//! the workload name), a container column is named by its path and opened
//! there; either is checked against a supplied digest when the worker builds
//! it, and a shard costs a few hundred bytes on the wire regardless of how
//! many billions of instructions its columns carry.
//!
//! The fork group is the unit of distribution because a column is far too
//! coarse a one: two of the four stock columns carry nine tenths of a grid's
//! host time.  Each column's groups are dealt round-robin, so every shard gets
//! an equal share (to within one group) of every column, heavy or light, with
//! no cost model and no timing feedback — the plan stays a pure function of
//! the spec, and a shard's number is its position in it.  The price is that a
//! worker builds every column its groups touch; its executor holds each only
//! while that column's groups run.

use crate::executor::{column_source, fork_groups};
use crate::job::SweepJob;
use crate::report::{SweepCell, SweepReport};
use crate::spec::SweepSpec;
use serde::{Deserialize, Serialize};

/// One workload column of a submission: the name plus the identity of the
/// trace the worker must execute against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// The column's name in the spec: a registry workload, or the path of a
    /// container on the *worker's* filesystem.
    pub workload: String,
    /// Content digest of the column's trace ([`icfp_isa::TraceSource::digest`]):
    /// the worker's regenerated or opened trace must match it exactly, or
    /// the submission is refused.
    pub trace_digest: u64,
}

/// One independently executable part of a sweep grid — or all of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepShard {
    /// The full spec: a shard's cells are addressed, streamed and merged
    /// under its expand indices.
    pub spec: SweepSpec,
    /// The [`SweepSpec::expand`] indices of the cells this shard runs,
    /// ascending; whole fork groups only.
    pub cells: Vec<u64>,
    /// Empty, or one entry per workload those cells touch, in spec order.
    pub columns: Vec<ColumnSpec>,
}

impl SweepShard {
    /// The shard that holds every cell of `spec` and no digest — nothing is
    /// resolved or built to make it.  `spec` must have passed
    /// [`SweepSpec::validate_axes`], which bounds the cell count.
    pub fn whole(spec: &SweepSpec) -> Self {
        let cells = (0..spec.cell_count() as u64).collect();
        SweepShard { spec: spec.clone(), cells, columns: Vec::new() }
    }

    /// Number of cells this shard executes.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// What both ends of the wire check before a shard runs: the spec's axes
    /// ([`SweepSpec::validate_axes`] — column names are the worker's to
    /// resolve) and the cell list (`SweepShard::groups`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate_axes()?;
        self.groups(&self.spec.expand()).map(drop)
    }

    /// The shard's fork groups among `jobs`, its spec's expansion, in
    /// [`fork_groups`] order.
    ///
    /// # Errors
    ///
    /// The cell list is empty, does not strictly ascend (unsorted, or an
    /// index repeated), names an index past the grid, splits a fork group, or
    /// the shard carries a [`ColumnSpec`] for some workloads its cells touch
    /// and not for others.
    pub(crate) fn groups(&self, jobs: &[SweepJob]) -> Result<Vec<Vec<usize>>, String> {
        let n = jobs.len();
        let last = *self.cells.last().ok_or("shard names no cells")?;
        if let Some(at) = self.cells.windows(2).find(|at| at[0] >= at[1]) {
            return Err(format!("shard cells do not ascend: {} before {}", at[0], at[1]));
        }
        if last >= n as u64 {
            return Err(format!("shard names cell {last} of a {n}-cell grid"));
        }
        let mut mine = vec![false; n];
        self.cells.iter().for_each(|&i| mine[i as usize] = true);
        let mut groups = fork_groups(jobs, self.spec.workloads.len());
        groups.retain(|group| group.iter().any(|&j| mine[j]));
        for group in &groups {
            let workload = &jobs[group[0]].workload;
            if !group.iter().all(|&j| mine[j]) {
                return Err(format!("shard splits a fork group: it names only some of {group:?}"));
            }
            let digested = |col: &ColumnSpec| col.workload == *workload;
            if !self.columns.is_empty() && !self.columns.iter().any(digested) {
                return Err(format!("shard carries no trace digest for workload {workload:?}"));
            }
        }
        Ok(groups)
    }
}

/// Deals `spec`'s fork groups (`fork_groups`: the executor's own partition,
/// column-major) to (at most) `shards` shards, round-robin — the counter runs
/// on across columns, so any two shards' shares of a column differ by at most
/// one group and no shard is left empty.  `shards` is clamped to
/// `[1, groups]`: groups are the unit of distribution, so more shards than
/// groups cannot help.  The plan is a pure function of the spec.
///
/// Each column's trace is built once here (exactly as the executor would
/// build it) to compute the digest that ships in place of the trace bytes.
///
/// # Errors
///
/// The [`SweepSpec::validate`] error, without planning anything.
pub fn plan_shards(spec: &SweepSpec, shards: usize) -> Result<Vec<SweepShard>, String> {
    spec.validate_axes()?;
    let digests = spec
        .workloads
        .iter()
        .map(|name| column_source(spec, name).map(|source| source.digest()))
        .collect::<Result<Vec<u64>, String>>()?;
    let w = spec.workloads.len();
    let groups = fork_groups(&spec.expand(), w);
    let shards = shards.clamp(1, groups.len());
    let mut cells: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for (k, group) in groups.iter().enumerate() {
        cells[k % shards].extend(group.iter().map(|&j| j as u64));
    }
    let shard = |mut cells: Vec<u64>| {
        cells.sort_unstable();
        let columns = (0..w)
            .filter(|&c| cells.iter().any(|&j| j as usize % w == c))
            .map(|c| ColumnSpec { workload: spec.workloads[c].clone(), trace_digest: digests[c] })
            .collect();
        SweepShard { spec: spec.clone(), cells, columns }
    };
    Ok(cells.into_iter().map(shard).collect())
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
    merge_cells(spec, threads, cells)
}

/// [`merge_report`] over the slots of any ascending subset of the grid — the
/// whole of it, or one shard's cells: `spec`'s header over exactly these
/// cells.
pub(crate) fn merge_cells(
    spec: &SweepSpec,
    threads: usize,
    cells: Vec<Option<SweepCell>>,
) -> Result<SweepReport, String> {
    let n = cells.len();
    let cells = cells
        .into_iter()
        .enumerate()
        .map(|(k, c)| c.ok_or_else(|| format!("nothing produced cell {k} of {n}")))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SweepReport {
        threads,
        insts: spec.insts,
        seed: spec.seed,
        workloads: spec.workloads.clone(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_spec;

    #[test]
    fn shard_plans_partition_the_grid_exactly() {
        // The acceptance grid and the ladder's 80-cell grid (all five models).
        let mut all_models = tiny_spec();
        all_models.models = icfp_core::CoreModel::ALL.to_vec();
        for spec in [tiny_spec(), all_models] {
            let (n, w, jobs) = (spec.cell_count(), spec.workloads.len(), spec.expand());
            // The whole grid is the shard that holds every cell: the executor's
            // own partition, and what a one-shard plan deals (plus digests).
            let whole = SweepShard::whole(&spec);
            assert_eq!(whole.groups(&jobs), Ok(fork_groups(&jobs, w)));
            assert_eq!(plan_shards(&spec, 1).unwrap()[0].cells, whole.cells);
            let groups = fork_groups(&jobs, w).len();
            for shards in [1, 2, 3, 4, 7, groups, groups + 5] {
                let plan = plan_shards(&spec, shards).unwrap();
                assert_eq!(plan, plan_shards(&spec, shards).unwrap(), "a pure function");
                assert_eq!(plan.len(), shards.min(groups));
                // Every full-grid index is in exactly one shard, and all
                // members of one (column, `cache_key(0)`) class share it.
                let mut owner = vec![None; n];
                let mut class_owner = std::collections::HashMap::new();
                for (k, shard) in plan.iter().enumerate() {
                    assert_eq!(shard.spec, spec);
                    assert_eq!(shard.validate(), Ok(()));
                    for &cell in &shard.cells {
                        assert_eq!(owner[cell as usize].replace(k), None, "cell {cell} twice");
                        let class = (cell as usize % w, jobs[cell as usize].cache_key(0));
                        assert_eq!(*class_owner.entry(class).or_insert(k), k, "group split");
                    }
                    let touches = |&j: &u64| jobs[j as usize].workload.as_str();
                    let touched = |c: &ColumnSpec| shard.cells.iter().any(|j| touches(j) == c.workload);
                    assert!(shard.columns.iter().all(touched), "a digest nothing needs");
                }
                assert!(owner.iter().all(Option::is_some), "plan must cover the grid");
                // Any two shards' shares of a column differ by at most a group.
                for c in 0..w {
                    let share = |k| class_owner.iter().filter(|&e| (e.0 .0, *e.1) == (c, k)).count();
                    let shares: Vec<usize> = (0..plan.len()).map(share).collect();
                    let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{shards} shards, column {c}: {shares:?}");
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
