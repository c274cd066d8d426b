//! Assembled sweep results: per-cell figures, the deterministic report
//! digest, and the aligned text matrix renderer.

use icfp_isa::Fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// One completed grid cell of a [`SweepReport`].
///
/// Serializable (vendored-serde) so cells stream individually over the
/// `icfp-wire/v4` protocol as they finish.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Core model name.
    pub model: String,
    /// Workload name.
    pub workload: String,
    /// Slice-buffer capacity of this cell's configuration.
    pub slice_buffer_entries: usize,
    /// MSHR count of this cell's configuration.
    pub mshr_count: usize,
    /// L2 hit latency of this cell's configuration.
    pub l2_hit_latency: u64,
    /// Trace seed the cell simulated.
    pub seed: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions per simulated cycle.
    pub ipc: f64,
    /// L1 data-cache misses per 1000 instructions.
    pub l1d_mpki: f64,
    /// L2 misses per 1000 instructions.
    pub l2_mpki: f64,
    /// Host seconds of the cell's one simulation; of a fast-forwarded cell
    /// they cover the functional walk only in the run that performed it (the
    /// column's source keeps the state: `icfp_isa::WarmStore`).
    pub host_seconds: f64,
    /// Simulated MIPS of that simulation.
    pub mips: f64,
    /// Digest of the final architectural state.
    pub state_digest: u64,
    /// `Some(reason)` if the cell's worker panicked on every allowed
    /// attempt: the cell is *recorded as failed* (figures zeroed) instead of
    /// aborting the sweep.  `None` for every successfully computed cell.
    pub failed: Option<String>,
}

impl SweepCell {
    /// Folds the cell's *deterministic* fields (timing-model outputs, not
    /// host timing) into an FNV-1a accumulator.  A failed cell additionally
    /// folds its failure marker, so a report with a failed cell can never
    /// collide with a fully successful one.  Successful cells fold exactly
    /// the bytes they always did — digests of fault-free sweeps are
    /// unchanged across this field's introduction.
    pub(crate) fn fold_digest(&self, h: &mut Fnv1a) {
        h.write(self.model.as_bytes());
        h.write(self.workload.as_bytes());
        for v in [
            self.slice_buffer_entries as u64,
            self.mshr_count as u64,
            self.l2_hit_latency,
            self.seed,
            self.instructions,
            self.cycles,
            self.state_digest,
        ] {
            h.write_u64(v);
        }
        if let Some(reason) = &self.failed {
            h.write(b"failed");
            h.write(reason.as_bytes());
        }
    }
}

/// The characters the flat schema writer must never emit inside a string
/// (its parser extracts strings without un-escaping): quotes, backslashes
/// and control characters.
pub(crate) fn unwritable(c: char) -> bool {
    matches!(c, '"' | '\\') || c.is_control()
}

/// Flattens a panic reason for embedding in reports and JSON documents:
/// every [`unwritable`] character becomes a plain substitute.
pub(crate) fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| match c {
            c if !unwritable(c) => c,
            '"' => '\'',
            '\\' => '/',
            _ => ' ',
        })
        .collect()
}

/// Typed failures rendering a [`SweepReport`] — a report whose cells
/// reference workloads missing from its header (a hand-edited or hostile
/// `BENCH_sweep.json`) is an error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// A cell names a workload absent from [`SweepReport::workloads`].
    UnknownWorkload {
        /// Index of the offending cell in [`SweepReport::cells`].
        cell: usize,
        /// The workload name the header doesn't carry.
        workload: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::UnknownWorkload { cell, workload } => write!(
                f,
                "cell {cell} references workload {workload:?} not in the report header"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// The assembled result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Worker threads the sweep ran on (1 = serial; excluded from the
    /// digest — parallelism must not change results).
    pub threads: usize,
    /// Instruction budget per trace.
    pub insts: usize,
    /// The spec's base seed.
    pub seed: u64,
    /// The spec's workload columns, in matrix order.  Header metadata, like
    /// `threads` — excluded from the digest, which covers cells only.
    pub workloads: Vec<String>,
    /// One cell per grid point, in [`crate::SweepSpec::expand`] order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Deterministic digest over every cell's timing-model outputs.  Two
    /// sweeps of the same spec — serial or on any number of threads, cold or
    /// served from the result cache, local or over the wire — must produce
    /// byte-identical digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.cells.len() as u64);
        h.write_u64(self.insts as u64);
        h.write_u64(self.seed);
        for c in &self.cells {
            c.fold_digest(&mut h);
        }
        h.finish()
    }

    /// Aggregate throughput over the sweep: total simulated instructions per
    /// total host second, in millions.
    pub fn aggregate_mips(&self) -> f64 {
        let inst: u64 = self.cells.iter().map(|c| c.instructions).sum();
        let secs: f64 = self.cells.iter().map(|c| c.host_seconds).sum();
        if secs > 0.0 {
            inst as f64 / secs / 1.0e6
        } else {
            0.0
        }
    }

    /// Renders the report as the `BENCH_sweep.json` document (schema
    /// [`crate::schema::SCHEMA`]; hand-rolled writer, flat and stable).
    /// Delegates to [`crate::schema::to_json`] — the one emitter the CLI and
    /// the server share.
    pub fn to_json(&self) -> String {
        crate::schema::to_json(self)
    }

    /// Renders the sweep as an aligned text matrix: one row per
    /// (model, configuration) point, one IPC column per workload (column
    /// order is the header's [`SweepReport::workloads`]).
    ///
    /// # Errors
    ///
    /// [`ReportError::UnknownWorkload`] if a cell references a workload the
    /// header doesn't list (possible only for hand-assembled or hand-edited
    /// reports — [`crate::run_sweep`] always produces a consistent header).
    pub fn render_matrix(&self) -> Result<String, ReportError> {
        /// One matrix slot: absent, a computed IPC, or a failed cell.
        enum Slot {
            Empty,
            Ipc(f64),
            Failed,
        }
        let workloads: Vec<&str> = self.workloads.iter().map(|w| w.as_str()).collect();
        let col = workloads.iter().map(|w| w.len()).max().unwrap_or(0).max(7);
        let mut rows: Vec<(String, Vec<Slot>)> = Vec::new();
        for (k, c) in self.cells.iter().enumerate() {
            let label = format!(
                "{:<10} sb={:<4} mshr={:<3} l2={:<3}",
                c.model, c.slice_buffer_entries, c.mshr_count, c.l2_hit_latency
            );
            if rows.last().map(|(l, _)| l.as_str()) != Some(label.as_str()) {
                rows.push((
                    label,
                    std::iter::repeat_with(|| Slot::Empty)
                        .take(workloads.len())
                        .collect(),
                ));
            }
            let wl = workloads
                .iter()
                .position(|w| *w == c.workload)
                .ok_or_else(|| ReportError::UnknownWorkload {
                    cell: k,
                    workload: c.workload.clone(),
                })?;
            let at = rows.len() - 1;
            rows[at].1[wl] = if c.failed.is_some() {
                Slot::Failed
            } else {
                Slot::Ipc(c.ipc)
            };
        }
        let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut s = String::new();
        let _ = write!(s, "{:<label_w$}", "ipc");
        for w in &workloads {
            let _ = write!(s, "  {w:>col$}");
        }
        s.push('\n');
        for (label, vals) in &rows {
            let _ = write!(s, "{label:<label_w$}");
            for v in vals {
                match v {
                    Slot::Ipc(ipc) => {
                        let _ = write!(s, "  {ipc:>col$.3}");
                    }
                    Slot::Failed => {
                        let _ = write!(s, "  {:>col$}", "fail");
                    }
                    Slot::Empty => {
                        let _ = write!(s, "  {:>col$}", "-");
                    }
                }
            }
            s.push('\n');
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::testutil::tiny_spec;

    #[test]
    fn matrix_rendering_is_aligned_and_complete() {
        let spec = tiny_spec();
        let r = run_sweep(&spec, 4).unwrap();
        let m = r.render_matrix().expect("consistent header");
        let lines: Vec<&str> = m.lines().collect();
        // Header + one row per (model, config) = 1 + 2*4.
        assert_eq!(lines.len(), 1 + 8, "{m}");
        let width = lines[0].len();
        for l in &lines {
            assert_eq!(l.len(), width, "misaligned row: {l:?}\n{m}");
        }
        for w in icfp_workloads::STANDARD_NAMES {
            assert!(lines[0].contains(w));
        }
        assert!(m.contains("sb=64") && m.contains("sb=128"));
    }

    #[test]
    fn matrix_rendering_of_an_inconsistent_header_is_a_typed_error() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["branchy".into()];
        spec.l2_hit_latencies = vec![20];
        spec.slice_buffer_entries = vec![128];
        let mut r = run_sweep(&spec, 1).unwrap();
        // Simulate a hand-edited BENCH_sweep.json whose header lost a
        // workload its cells still reference.
        r.workloads = vec!["pointer-chase".into()];
        match r.render_matrix() {
            Err(ReportError::UnknownWorkload { cell, workload }) => {
                assert_eq!(cell, 0);
                assert_eq!(workload, "branchy");
            }
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
        // And a fully emptied header.
        r.workloads.clear();
        assert!(r.render_matrix().is_err());
    }
}
