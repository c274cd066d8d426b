//! # icfp-bench — simulation-throughput benchmark harness
//!
//! Measures how fast the simulator itself runs (simulated instructions per
//! host second, "MIPS") across the standard synthetic workloads, and writes
//! the results to `BENCH_sim.json` so CI can track regressions.  The
//! companion `benches/hot_paths.rs` micro-benchmarks the individual hot-path
//! structures (store-buffer drain, slice-buffer rally selection, MSHR
//! request/retire).
//!
//! The harness is self-contained (no criterion): this build environment is
//! offline, so the crate ships a small measure-repeat-report loop — one
//! untimed warmup then the *median* of N timed repetitions — instead.  The
//! JSON writer is hand-rolled for the same reason; the schema is flat and
//! stable:
//!
//! ```json
//! {
//!   "schema": "icfp-bench/v1",
//!   "mode": "smoke",
//!   "machine": "linux-x86_64-8cpu",
//!   "runs": [ { "workload": "...", "core": "...", "instructions": 0,
//!               "cycles": 0, "ipc": 0.0, "host_seconds": 0.0, "mips": 0.0,
//!               "state_digest": "0x..." } ],
//!   "aggregate_mips": 0.0
//! }
//! ```
//!
//! ## The regression gate
//!
//! `--baseline` separates *machine-independent* figures from *host-coupled*
//! ones, in the spirit of benchmark-methodology work that reports cycles and
//! digests apart from wall-clock throughput:
//!
//! * **deterministic gate (always enforced)** — every baseline cell's
//!   instruction count, cycle count and state digest must match the current
//!   run exactly; any difference is a timing-model change and fails CI;
//! * **throughput gate (host-coupled)** — the >N% aggregate-MIPS check is
//!   enforced only when the current host's machine class (`os-arch-Ncpu`,
//!   see [`machine_class`]) equals the class recorded in the baseline; on
//!   any other machine it is *advisory* — printed, never fatal — because
//!   comparing wall-clock MIPS across different machines says nothing about
//!   the code.  To (re-)arm throughput enforcement for a given runner
//!   class, record the baseline on that class of machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icfp_sim::{CoreModel, SimConfig, SimReport};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// The simulator's report (includes host seconds and MIPS).
    pub report: SimReport,
    /// Number of timed repetitions taken (the report is the one with the
    /// median host time; a warmup rep runs untimed beforehand).
    pub reps: u32,
}

/// Results of a full benchmark session.
#[derive(Debug, Clone)]
pub struct BenchSession {
    /// Mode label (`"smoke"` or `"full"`).
    pub mode: String,
    /// Individual runs.
    pub runs: Vec<BenchRun>,
}

impl BenchSession {
    /// Aggregate throughput: total simulated instructions over total host
    /// seconds, in millions per second.
    pub fn aggregate_mips(&self) -> f64 {
        let inst: u64 = self.runs.iter().map(|r| r.report.instructions).sum();
        let secs: f64 = self.runs.iter().map(|r| r.report.host_seconds).sum();
        if secs > 0.0 {
            inst as f64 / secs / 1.0e6
        } else {
            0.0
        }
    }

    /// The session's rows as [`DetCell`]s for the deterministic gate.
    pub fn det_cells(&self) -> Vec<DetCell> {
        self.runs
            .iter()
            .map(|r| DetCell {
                workload: r.report.workload.clone(),
                core: r.report.core.clone(),
                config: String::new(),
                instructions: r.report.instructions,
                cycles: r.report.cycles,
                state_digest: r.report.state_digest,
            })
            .collect()
    }

    /// Renders the session as the `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"icfp-bench/v1\",");
        let _ = writeln!(s, "  \"mode\": {:?},", self.mode);
        let _ = writeln!(s, "  \"machine\": {:?},", machine_class());
        s.push_str("  \"runs\": [\n");
        for (k, r) in self.runs.iter().enumerate() {
            let p = &r.report;
            let _ = write!(
                s,
                "    {{\"workload\": {:?}, \"core\": {:?}, \"instructions\": {}, \
                 \"cycles\": {}, \"ipc\": {:.4}, \"l1d_mpki\": {:.3}, \"l2_mpki\": {:.3}, \
                 \"host_seconds\": {:.6}, \"mips\": {:.3}, \"reps\": {}, \
                 \"state_digest\": \"{:#018x}\"}}",
                p.workload,
                p.core,
                p.instructions,
                p.cycles,
                p.ipc,
                p.l1d_mpki,
                p.l2_mpki,
                p.host_seconds,
                p.mips,
                r.reps,
                p.state_digest
            );
            s.push_str(if k + 1 == self.runs.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"aggregate_mips\": {:.3}", self.aggregate_mips());
        s.push_str("}\n");
        s
    }
}

/// Runs the trace behind `source` on `core` through the shared warmup +
/// median-of-N timing protocol ([`icfp_sim::median_run`]): each repetition
/// architecturally executes the first `ff` instructions without the timing
/// model and times the rest from a cold microarchitectural state (0 = fully
/// cold).  `--trace-file` containers and streamed generator workloads run
/// with peak trace memory bounded by the source's resident blocks, not the
/// trace length; an in-memory trace goes in as an [`icfp_isa::ArenaSource`].
pub fn bench_source(
    core: CoreModel,
    source: &dyn icfp_isa::TraceSource,
    ff: usize,
    reps: u32,
) -> BenchRun {
    BenchRun {
        report: icfp_sim::median_run(&SimConfig::new(core), source, ff, reps),
        reps: reps.max(1),
    }
}

/// Geometric mean (`exp` of the mean of `ln`); 0 for an empty set.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Renders a parsed `BENCH_sweep.json` into the paper's Figure 6/7-style
/// speedup-over-baseline tables: one row per (model, configuration) point,
/// one column per workload plus geomean columns per workload class (see
/// `icfp_workloads::class_of`) and overall.  Speedup is
/// `cycles(in-order) / cycles(model)` at the *same* workload and
/// configuration — derived from the deterministic cycle counts, not from
/// host-coupled figures.
///
/// # Errors
///
/// The document must contain `in-order` cells for every (workload, config)
/// being normalised; says so otherwise.
pub fn render_figures(doc: &BaselineDoc) -> Result<String, String> {
    if doc.cells.is_empty() {
        return Err("document carries no per-cell figures (is this a BENCH_sweep.json?)".into());
    }
    // Baseline cycles per (workload, config).
    let mut base: Vec<(&DetCell, f64)> = Vec::new();
    for c in doc.cells.iter().filter(|c| c.core == "in-order") {
        base.push((c, c.cycles as f64));
    }
    if base.is_empty() {
        return Err(
            "no in-order cells to normalise against; run the sweep with --core in-order,..."
                .into(),
        );
    }
    let baseline_of = |workload: &str, config: &str| -> Option<f64> {
        base.iter()
            .find(|(b, _)| b.workload == workload && b.config == config)
            .map(|(_, cyc)| *cyc)
    };

    // Workloads in first-seen order, and their classes.
    let mut workloads: Vec<&str> = Vec::new();
    for c in &doc.cells {
        if !workloads.contains(&c.workload.as_str()) {
            workloads.push(&c.workload);
        }
    }
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
    for c in doc.cells.iter().filter(|c| c.core != "in-order") {
        let Some(base_cycles) = baseline_of(&c.workload, &c.config) else {
            return Err(format!(
                "no in-order baseline cell for {}/[{}]; sweep must include the in-order model",
                c.workload, c.config
            ));
        };
        if c.cycles == 0 {
            return Err(format!("{}/{} reports zero cycles", c.workload, c.core));
        }
        let speedup = base_cycles / c.cycles as f64;
        let label = if c.config.is_empty() {
            c.core.clone()
        } else {
            format!("{:<10} {}", c.core, c.config)
        };
        // Group by label wherever the cell sits in the document: sweep
        // documents are contiguous per (model, config), but bench documents
        // (BENCH_sim.json) interleave models within each workload.
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
        let row = &mut rows[at];
        let wl = workloads
            .iter()
            .position(|w| *w == c.workload)
            .expect("workload collected above");
        row.speedups[wl] = Some(speedup);
        row.cells.push((workloads[wl], speedup));
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

/// Extracts the `aggregate_mips` figure from a `BENCH_sim.json` /
/// `BENCH_sweep.json` document (hand-rolled scan: the build environment has
/// no JSON parser dependency, and the schema is flat and stable).
pub fn parse_aggregate_mips(json: &str) -> Option<f64> {
    let key = "\"aggregate_mips\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The host's machine class: operating system, CPU architecture and logical
/// CPU count.  MIPS baselines are only *enforced* between identical classes;
/// everything else is advisory (a slower runner is not a code regression).
/// The class is deliberately narrow — os-arch alone would equate a developer
/// laptop with a CI runner of the same platform, re-coupling the gate to
/// host speed; when in doubt the gate must err toward advisory.
pub fn machine_class() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{}-{}-{cpus}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// One row of machine-independent figures, from a live session or parsed out
/// of a baseline document.  `config` disambiguates sweep cells (several per
/// workload × model); plain bench rows leave it empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetCell {
    /// Workload name.
    pub workload: String,
    /// Core model name.
    pub core: String,
    /// Configuration label (`"sb=..,mshr=..,l2=.."` for sweep cells).
    pub config: String,
    /// Committed instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Digest of the final architectural state.
    pub state_digest: u64,
}

impl DetCell {
    fn key(&self) -> (&str, &str, &str) {
        (&self.workload, &self.core, &self.config)
    }
}

/// A parsed baseline document (`BENCH_baseline.json`, or any `BENCH_sim` /
/// `BENCH_sweep` output).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineDoc {
    /// Machine class recorded at baseline time (absent in pre-gate-fix
    /// baselines — treated as a mismatch, i.e. MIPS stays advisory).
    pub machine: Option<String>,
    /// Aggregate throughput recorded at baseline time.
    pub aggregate_mips: Option<f64>,
    /// Per-cell deterministic figures.
    pub cells: Vec<DetCell>,
}

/// Extracts the string value of `"key": "value"` from a flat JSON object.
fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts the numeric value of `"key": 123` from a flat JSON object.
fn json_u64_field(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a `"key": "0x..."` hex figure from a flat JSON object.
fn json_hex_field(obj: &str, key: &str) -> Option<u64> {
    let s = json_str_field(obj, key)?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// The deterministic figures of a sweep report's cells, as [`DetCell`]s for
/// the baseline gate — one shared conversion so the local sweep CLI, the
/// `sweep submit` client and the gate all label configurations identically.
pub fn sweep_det_cells(report: &icfp_sweep::SweepReport) -> Vec<DetCell> {
    report
        .cells
        .iter()
        .map(|c| DetCell {
            workload: c.workload.clone(),
            core: c.model.clone(),
            config: format!(
                "sb={},mshr={},l2={}",
                c.slice_buffer_entries, c.mshr_count, c.l2_hit_latency
            ),
            instructions: c.instructions,
            cycles: c.cycles,
            state_digest: c.state_digest,
        })
        .collect()
}

/// Parses the baseline figures out of a `BENCH_sim.json` / `BENCH_sweep.json`
/// document.  Sweep documents go through the one shared parser
/// ([`icfp_sweep::schema::parse`]), which also verifies the recorded report
/// digest; bench documents keep the legacy line scan (the environment has no
/// JSON parser dependency, and the writer emits one cell object per line).
///
/// # Errors
///
/// A sweep document that fails the schema parser — wrong version, missing
/// fields, or cells edited after the digest was recorded — is rejected with
/// the parser's description rather than silently yielding partial figures.
pub fn parse_baseline(doc: &str) -> Result<BaselineDoc, String> {
    if doc.contains("\"schema\": \"icfp-sweep/") {
        let report = icfp_sweep::schema::parse(doc).map_err(|e| e.to_string())?;
        return Ok(BaselineDoc {
            machine: None,
            aggregate_mips: parse_aggregate_mips(doc),
            cells: sweep_det_cells(&report),
        });
    }
    let mut out = BaselineDoc {
        aggregate_mips: parse_aggregate_mips(doc),
        ..BaselineDoc::default()
    };
    for line in doc.lines() {
        let t = line.trim();
        if t.starts_with("\"machine\"") {
            out.machine = json_str_field(t, "machine");
        }
        if !t.contains("\"workload\"") || !t.starts_with('{') {
            continue;
        }
        // Bench rows name the model "core"; sweep cells name it "model" and
        // carry their configuration axes.
        let Some(workload) = json_str_field(t, "workload") else {
            continue;
        };
        let Some(core) = json_str_field(t, "core").or_else(|| json_str_field(t, "model")) else {
            continue;
        };
        let config = match (
            json_u64_field(t, "slice_buffer"),
            json_u64_field(t, "mshrs"),
            json_u64_field(t, "l2_hit_latency"),
        ) {
            (Some(sb), Some(mshrs), Some(l2)) => format!("sb={sb},mshr={mshrs},l2={l2}"),
            _ => String::new(),
        };
        let (Some(instructions), Some(cycles), Some(state_digest)) = (
            json_u64_field(t, "instructions"),
            json_u64_field(t, "cycles"),
            json_hex_field(t, "state_digest"),
        ) else {
            continue;
        };
        out.cells.push(DetCell {
            workload,
            core,
            config,
            instructions,
            cycles,
            state_digest,
        });
    }
    Ok(out)
}

/// Outcome of the two-part baseline gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Deterministic-figure mismatches and (same-machine) MIPS regressions:
    /// any entry here must fail CI.
    pub hard_errors: Vec<String>,
    /// Host-coupled observations that must *not* fail CI (MIPS deltas on a
    /// different machine class, cells absent from the baseline).
    pub advisory: Vec<String>,
    /// Whether the MIPS check was enforced (machine classes matched).
    pub mips_enforced: bool,
}

impl GateReport {
    /// True if CI may pass.
    pub fn is_ok(&self) -> bool {
        self.hard_errors.is_empty()
    }
}

/// The baseline gate: deterministic figures are compared exactly and always
/// enforced; the aggregate-MIPS regression check is enforced only when
/// `current_machine` equals the class recorded in the baseline, and demoted
/// to advisory otherwise.
pub fn gate_against_baseline(
    current: &[DetCell],
    current_mips: f64,
    current_machine: &str,
    baseline: &BaselineDoc,
    max_regress_pct: f64,
) -> GateReport {
    let mut report = GateReport::default();

    if baseline.cells.is_empty() {
        report
            .hard_errors
            .push("baseline document carries no per-cell deterministic figures".into());
    }
    for b in &baseline.cells {
        let label = if b.config.is_empty() {
            format!("{}/{}", b.workload, b.core)
        } else {
            format!("{}/{} [{}]", b.workload, b.core, b.config)
        };
        match current.iter().find(|c| c.key() == b.key()) {
            None => report
                .hard_errors
                .push(format!("baseline cell {label} is missing from the current run")),
            Some(c) => {
                if c.instructions != b.instructions {
                    report.hard_errors.push(format!(
                        "{label}: instruction count changed {} -> {}",
                        b.instructions, c.instructions
                    ));
                }
                if c.cycles != b.cycles {
                    report.hard_errors.push(format!(
                        "{label}: cycle count changed {} -> {}",
                        b.cycles, c.cycles
                    ));
                }
                if c.state_digest != b.state_digest {
                    report.hard_errors.push(format!(
                        "{label}: state digest changed {:#018x} -> {:#018x}",
                        b.state_digest, c.state_digest
                    ));
                }
            }
        }
    }
    for c in current {
        if !baseline.cells.iter().any(|b| b.key() == c.key()) {
            report.advisory.push(format!(
                "cell {}/{} has no baseline figure (new cell, not gated)",
                c.workload, c.core
            ));
        }
    }

    let Some(base_mips) = baseline.aggregate_mips else {
        report
            .advisory
            .push("baseline has no aggregate_mips figure; throughput not checked".into());
        return report;
    };
    report.mips_enforced = baseline.machine.as_deref() == Some(current_machine);
    match check_against_baseline(current_mips, base_mips, max_regress_pct) {
        Ok(()) => {}
        Err(e) if report.mips_enforced => report.hard_errors.push(e),
        Err(e) => report.advisory.push(format!(
            "{e} — advisory only: baseline machine class {:?} differs from this host ({current_machine})",
            baseline.machine.as_deref().unwrap_or("unrecorded")
        )),
    }
    report
}

/// The aggregate-MIPS comparison: fails if `current` MIPS has regressed more
/// than `max_regress_pct` percent below `baseline` MIPS.  Whether a failure
/// is fatal or advisory is decided by [`gate_against_baseline`].
///
/// # Errors
///
/// Returns a human-readable description of the regression.
pub fn check_against_baseline(
    current: f64,
    baseline: f64,
    max_regress_pct: f64,
) -> Result<(), String> {
    if baseline <= 0.0 {
        return Err(format!("baseline aggregate MIPS is not positive: {baseline}"));
    }
    let floor = baseline * (1.0 - max_regress_pct / 100.0);
    if current < floor {
        return Err(format!(
            "aggregate MIPS regressed {:.1}% (current {current:.3} vs baseline {baseline:.3}, \
             allowed floor {floor:.3})",
            (1.0 - current / baseline) * 100.0
        ));
    }
    Ok(())
}

/// A tiny best-of-N timing loop for micro-benchmarks (`benches/hot_paths.rs`).
/// Returns the best nanoseconds-per-iteration over `reps` timed batches of
/// `iters` calls.
pub fn time_ns_per_iter<F: FnMut()>(mut f: F, iters: u32, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::ArenaSource;
    use icfp_sim::Simulator;

    #[test]
    fn bench_session_json_is_well_formed() {
        let trace = ArenaSource::new(icfp_workloads::branchy(300, 1));
        let run = bench_source(CoreModel::InOrder, &trace, 0, 2);
        let session = BenchSession {
            mode: "smoke".into(),
            runs: vec![run],
        };
        let json = session.to_json();
        assert!(json.contains("\"schema\": \"icfp-bench/v1\""));
        assert!(json.contains("\"workload\": \"branchy\""));
        assert!(json.contains("\"mips\":"));
        assert!(session.aggregate_mips() >= 0.0);
        // Structural sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

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
    fn aggregate_mips_parses_from_json() {
        let trace = ArenaSource::new(icfp_workloads::branchy(300, 1));
        let session = BenchSession {
            mode: "smoke".into(),
            runs: vec![bench_source(CoreModel::InOrder, &trace, 0, 1)],
        };
        let json = session.to_json();
        let parsed = parse_aggregate_mips(&json).expect("figure present");
        assert!((parsed - session.aggregate_mips()).abs() < 0.002, "{parsed}");
        assert_eq!(parse_aggregate_mips("{}"), None);
        assert_eq!(parse_aggregate_mips("\"aggregate_mips\": 12.5"), Some(12.5));
    }

    /// A small real session plus its own JSON as the baseline document.
    fn session_and_baseline() -> (Vec<DetCell>, f64, String) {
        let trace = ArenaSource::new(icfp_workloads::branchy(400, 7));
        let session = BenchSession {
            mode: "smoke".into(),
            runs: vec![
                bench_source(CoreModel::InOrder, &trace, 0, 1),
                bench_source(CoreModel::Icfp, &trace, 0, 1),
            ],
        };
        (session.det_cells(), session.aggregate_mips(), session.to_json())
    }

    #[test]
    fn baseline_json_parses_machine_and_cells() {
        let (cells, _, json) = session_and_baseline();
        let doc = parse_baseline(&json).unwrap();
        assert_eq!(doc.machine.as_deref(), Some(machine_class().as_str()));
        assert!(doc.aggregate_mips.is_some());
        assert_eq!(doc.cells, cells);
    }

    #[test]
    fn inflated_host_time_baseline_is_advisory_on_another_machine_class() {
        // The acceptance case: a baseline recorded on a (faster) different
        // machine claims 100x the throughput.  On a mismatched machine class
        // the MIPS check must demote to advisory — the gate passes.
        let (cells, mips, json) = session_and_baseline();
        let mut doc = parse_baseline(&json).unwrap();
        doc.aggregate_mips = Some(mips * 100.0);
        doc.machine = Some("mars-quantum99".into());
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(report.is_ok(), "hard errors: {:?}", report.hard_errors);
        assert!(!report.mips_enforced);
        assert!(
            report.advisory.iter().any(|a| a.contains("advisory")),
            "{:?}",
            report.advisory
        );

        // Same inflated figure recorded on *this* machine class: enforced.
        doc.machine = Some(machine_class());
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(!report.is_ok());
        assert!(report.mips_enforced);

        // Legacy baseline with no machine field: advisory too.
        doc.machine = None;
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(report.is_ok(), "{:?}", report.hard_errors);
    }

    #[test]
    fn single_cell_cycle_change_fails_regardless_of_machine_class() {
        let (cells, mips, json) = session_and_baseline();
        let mut doc = parse_baseline(&json).unwrap();
        doc.machine = Some("mars-quantum99".into()); // MIPS advisory...
        doc.cells[1].cycles += 1; // ...but determinism is not.
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(!report.is_ok());
        assert!(
            report.hard_errors.iter().any(|e| e.contains("cycle count changed")),
            "{:?}",
            report.hard_errors
        );

        // A digest change is equally fatal.
        let mut doc = parse_baseline(&json).unwrap();
        doc.cells[0].state_digest ^= 1;
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(report
            .hard_errors
            .iter()
            .any(|e| e.contains("state digest changed")));

        // A baseline cell the current run no longer produces is fatal too.
        let mut doc = parse_baseline(&json).unwrap();
        doc.cells.push(DetCell {
            workload: "pointer-chase".into(),
            core: "sltp".into(),
            config: String::new(),
            instructions: 1,
            cycles: 1,
            state_digest: 1,
        });
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(report.hard_errors.iter().any(|e| e.contains("missing")));
    }

    #[test]
    fn baseline_without_cells_is_rejected() {
        // A pre-fix baseline with only an aggregate figure cannot gate
        // determinism; the gate must say so rather than silently pass.
        let (cells, mips, _) = session_and_baseline();
        let doc = BaselineDoc {
            machine: None,
            aggregate_mips: Some(mips),
            cells: Vec::new(),
        };
        let report = gate_against_baseline(&cells, mips, &machine_class(), &doc, 20.0);
        assert!(!report.is_ok());
    }

    #[test]
    fn sweep_cells_parse_with_config_labels() {
        let mut spec = icfp_sweep::SweepSpec::new(
            vec![CoreModel::InOrder],
            vec!["branchy".into()],
            300,
            1,
        );
        spec.slice_buffer_entries = vec![64, 128];
        let report = icfp_sweep::run_sweep(&spec, 1).unwrap();
        let json = report.to_json();
        let doc = parse_baseline(&json).unwrap();
        assert_eq!(doc.cells.len(), 2);
        assert!(doc.cells[0].config.starts_with("sb=64,"));
        assert!(doc.cells[1].config.starts_with("sb=128,"));
        assert_eq!(doc.cells[0].core, "in-order");
        assert_eq!(doc.cells, sweep_det_cells(&report));

        // Sweep documents go through the shared schema parser, so a baseline
        // whose cells were edited after the digest was recorded is rejected
        // rather than silently gating against tampered figures.
        let cycles = report.cells[0].cycles;
        let edited = json.replace(
            &format!("\"cycles\": {cycles}"),
            &format!("\"cycles\": {}", cycles + 1),
        );
        let err = parse_baseline(&edited).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn baseline_gate_trips_only_past_the_threshold() {
        assert!(check_against_baseline(1.0, 1.0, 20.0).is_ok());
        assert!(check_against_baseline(0.81, 1.0, 20.0).is_ok());
        assert!(check_against_baseline(2.0, 1.0, 20.0).is_ok(), "speedups pass");
        let err = check_against_baseline(0.79, 1.0, 20.0).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(check_against_baseline(1.0, 0.0, 20.0).is_err());
    }

    #[test]
    fn bench_trace_reports_requested_reps() {
        let trace = ArenaSource::new(icfp_workloads::branchy(300, 1));
        let run = bench_source(CoreModel::InOrder, &trace, 0, 3);
        assert_eq!(run.reps, 3);
        assert!(run.report.host_seconds >= 0.0);
    }

    #[test]
    fn timer_returns_finite_positive() {
        let mut x = 0u64;
        let ns = time_ns_per_iter(
            || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            },
            1000,
            3,
        );
        assert!(ns.is_finite() && ns >= 0.0);
        assert!(x != 0);
    }
}
