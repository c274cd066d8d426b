//! # icfp-bench — the sweep / trace / figures CLI
//!
//! The library half of the `icfp-bench` binary: the `--figures` renderer over
//! a parsed `icfp-sweep/v3` report.  Everything the binary simulates is a
//! sweep (`icfp_sweep`), written as that one document.  The simulated MIPS a
//! run prints is a convenience figure, not a measurement: host speed is
//! measured by `icfp-ladder` (`benchmark/`) and nothing else, and simulated
//! figures are pinned by `crates/sim/tests/golden_figures.txt` and nothing
//! else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icfp_sweep::{SweepCell, SweepReport};
use std::fmt::Write as _;

/// Geometric mean (`exp` of the mean of `ln`); 0 for an empty set.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Renders a parsed `BENCH_sweep.json` ([`icfp_sweep::schema::parse`], which
/// verifies the recorded report digest) into the paper's Figure 6/7-style
/// speedup-over-baseline tables: one row per (model, configuration) point,
/// one column per workload plus geomean columns per workload class (see
/// `icfp_workloads::class_of`) and overall.  Speedup is
/// `cycles(in-order) / cycles(model)` at the *same* workload and
/// configuration — derived from the deterministic cycle counts, not from
/// host-coupled figures.
///
/// # Errors
///
/// The report must contain `in-order` cells for every (workload, config)
/// being normalised; says so otherwise.
pub fn render_figures(report: &SweepReport) -> Result<String, String> {
    let config_of = |c: &SweepCell| (c.slice_buffer_entries, c.mshr_count, c.l2_hit_latency);
    let is_base = |c: &SweepCell| c.model == "in-order";
    if !report.cells.iter().any(is_base) {
        return Err(
            "no in-order cells to normalise against; run the sweep with --core in-order,..."
                .into(),
        );
    }

    // Workloads in first-seen order (each cell's column is fixed here, where
    // its workload is collected), and their classes.
    let mut workloads: Vec<&str> = Vec::new();
    let columns: Vec<usize> = report
        .cells
        .iter()
        .map(|c| {
            workloads.iter().position(|w| *w == c.workload).unwrap_or_else(|| {
                workloads.push(&c.workload);
                workloads.len() - 1
            })
        })
        .collect();
    let class_of = |w: &str| icfp_workloads::class_of(w).unwrap_or("other");
    let mut classes: Vec<&str> = Vec::new();
    for w in &workloads {
        let cl = class_of(w);
        if !classes.contains(&cl) {
            classes.push(cl);
        }
    }

    // One row per non-baseline (model, config), in cell order.
    struct Row<'a> {
        label: String,
        speedups: Vec<Option<f64>>,
        cells: Vec<(&'a str, f64)>, // (workload, speedup)
    }
    let mut rows: Vec<Row> = Vec::new();
    for (c, &wl) in report.cells.iter().zip(&columns).filter(|(c, _)| !is_base(c)) {
        let (sb, mshr, l2) = config_of(c);
        let Some(base) = report
            .cells
            .iter()
            .find(|b| is_base(b) && b.workload == c.workload && config_of(b) == config_of(c))
        else {
            return Err(format!(
                "no in-order baseline cell for {}/[sb={sb},mshr={mshr},l2={l2}]; \
                 sweep must include the in-order model",
                c.workload
            ));
        };
        if c.cycles == 0 {
            return Err(format!("{}/{} reports zero cycles", c.workload, c.model));
        }
        let speedup = base.cycles as f64 / c.cycles as f64;
        let label = format!("{:<10} sb={sb},mshr={mshr},l2={l2}", c.model);
        let at = match rows.iter().position(|r| r.label == label) {
            Some(at) => at,
            None => {
                rows.push(Row {
                    label,
                    speedups: vec![None; workloads.len()],
                    cells: Vec::new(),
                });
                rows.len() - 1
            }
        };
        rows[at].speedups[wl] = Some(speedup);
        rows[at].cells.push((workloads[wl], speedup));
    }

    // Render: workloads, then per-class geomeans, then the overall geomean.
    let wcol = workloads.iter().map(|w| w.len()).max().unwrap_or(0).max(8);
    let ccol = classes
        .iter()
        .map(|c| format!("gm({c})").len())
        .max()
        .unwrap_or(0)
        .max(8);
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(24);
    let mut s = String::new();
    let _ = write!(s, "{:<label_w$}", "speedup over in-order");
    for w in &workloads {
        let _ = write!(s, "  {w:>wcol$}");
    }
    for cl in &classes {
        let _ = write!(s, "  {:>ccol$}", format!("gm({cl})"));
    }
    let _ = writeln!(s, "  {:>8}", "gm(all)");
    for r in &rows {
        let _ = write!(s, "{:<label_w$}", r.label);
        for v in &r.speedups {
            match v {
                Some(x) => {
                    let _ = write!(s, "  {x:>wcol$.3}");
                }
                None => {
                    let _ = write!(s, "  {:>wcol$}", "-");
                }
            }
        }
        for cl in &classes {
            let xs: Vec<f64> = r
                .cells
                .iter()
                .filter(|(w, _)| class_of(w) == *cl)
                .map(|(_, x)| *x)
                .collect();
            if xs.is_empty() {
                let _ = write!(s, "  {:>ccol$}", "-");
            } else {
                let _ = write!(s, "  {:>ccol$.3}", geomean(&xs));
            }
        }
        let all: Vec<f64> = r.cells.iter().map(|(_, x)| *x).collect();
        let _ = writeln!(s, "  {:>8.3}", geomean(&all));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_sim::{CoreModel, SimConfig, Simulator};

    #[test]
    fn same_trace_and_seed_give_identical_reports() {
        // End-to-end determinism: generating the same workload from the same
        // seed and simulating it twice must produce bit-identical timing and
        // architectural results (host_seconds/mips are the only wall-clock
        // fields and are excluded).
        let run = || {
            let trace = icfp_workloads::by_name_or_err("dcache-thrash", 2_000, 0xC0DE)
                .unwrap_or_else(|e| panic!("{e}"));
            let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
            sim.run(&trace)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.l1d_mpki, b.l1d_mpki);
        assert_eq!(a.l2_mpki, b.l2_mpki);
        assert_eq!(a.rally_passes, b.rally_passes);
        assert_eq!(a.slice_peak, b.slice_peak);
        assert_eq!(a.result.final_regs, b.result.final_regs);
        assert_eq!(a.result.final_mem, b.result.final_mem);
    }

    #[test]
    fn figures_render_from_a_parsed_sweep_document() {
        let mut spec = icfp_sweep::SweepSpec::new(
            vec![CoreModel::InOrder, CoreModel::Icfp],
            vec!["branchy".into(), "dcache-thrash".into()],
            300,
            1,
        );
        spec.slice_buffer_entries = vec![64, 128];
        let json = icfp_sweep::run_sweep(&spec, 1).unwrap().to_json();
        let report = icfp_sweep::schema::parse(&json).unwrap();
        let table = render_figures(&report).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        // Header, then one row per non-baseline (model, config) point.
        assert_eq!(lines.len(), 3, "{table}");
        for col in ["branchy", "dcache-thrash", "gm(control)", "gm(memory)", "gm(all)"] {
            assert!(lines[0].contains(col), "{table}");
        }
        assert!(lines[1].starts_with("icfp       sb=64,mshr=64,l2=20"), "{table}");
        assert!(lines[2].starts_with("icfp       sb=128,mshr=64,l2=20"), "{table}");
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{table}");

        // Nothing to normalise against without the in-order model.
        spec.models = vec![CoreModel::Icfp];
        let err = render_figures(&icfp_sweep::run_sweep(&spec, 1).unwrap()).unwrap_err();
        assert!(err.contains("no in-order cells"), "{err}");

        // A document whose cells were edited after the digest was recorded is
        // rejected by the shared parser rather than rendered.
        let cycles = report.cells[0].cycles;
        let edited = json.replace(
            &format!("\"cycles\": {cycles}"),
            &format!("\"cycles\": {}", cycles + 1),
        );
        let err = icfp_sweep::schema::parse(&edited).unwrap_err().to_string();
        assert!(err.contains("digest mismatch"), "{err}");
    }
}
