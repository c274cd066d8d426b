//! `icfp-ladder` — the repository's benchmark.
//!
//! ```text
//! icfp-ladder run [--seed S] [--seconds N] [--runs R] [--workload a,b] [--trace] [--out FILE]
//! icfp-ladder one --workload W --seed S --seconds N --trace 0|1
//! icfp-ladder compare A.json B.json
//! ```
//!
//! `run` executes every workload, each in a fresh child process (`one`) so
//! heap peaks and allocator state are independent, checks their outputs and
//! prints every metric by name with unit, median, min, max, MAD and sample
//! count; `run --trace` is the separate traced pass that yields the
//! per-layer numbers and writes `out/trace-<workload>.json`.  `one` is also
//! the form the benchmark contract drives directly: its last line of
//! standard output is the result object.  See `README.md` beside this
//! package for the glossary.

#![warn(missing_docs)]

mod alloc;
mod compare;
mod json;
mod metrics;
mod probes;
mod runner;
mod span;
mod stats;
mod workloads;
mod yardstick;

use compare::Document;
use json::Json;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting::new();

/// Parses a seed: decimal, or hexadecimal with a `0x` prefix.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad seed {s:?}: {e}"))
}

/// `--flag value` pairs and bare flags of one subcommand.
struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `args` given the flags that take a value and those that do not.
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            if valued.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                values.insert(name.to_string(), v.clone());
            } else if bare.contains(&name) {
                values.insert(name.to_string(), "1".to_string());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Args { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(0xC0DE), parse_seed)
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = match self.get("seconds") {
            Some(s) => s.parse().map_err(|e| format!("bad --seconds {s:?}: {e}"))?,
            None => metrics::run_seconds(),
        };
        if (0.5..=600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds {s} is outside 0.5..=600"))
        }
    }
}

fn cmd_one(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let workload = a.get("workload").ok_or("one needs --workload")?;
    let traced = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let outcome = runner::run_one(workload, a.seed()?, a.seconds()?, traced, &HEAP)?;
    for f in &outcome.failures {
        eprintln!("icfp-ladder: {workload}: FAILED: {f}");
    }
    println!("{}", outcome.samples_line());
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a child `one` printed.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

fn spawn_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("the {workload} child printed nothing ({})", out.status))
        .and_then(Json::parse)?;
    let samples = lines.next().map(Json::parse).transpose()?;
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the child's result has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let samples = samples
        .as_ref()
        .and_then(|s| s.get("samples"))
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| {
            Some((
                k.clone(),
                v.as_arr()?.iter().filter_map(Json::as_f64).collect(),
            ))
        })
        .collect();
    Ok(ChildResult {
        attempted: num("attempted"),
        // A child that died after printing still counts as a failure.
        failed: num("failed").max(u64::from(!out.status.success())),
        metrics,
        samples,
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(
        args,
        &["seed", "seconds", "runs", "workload", "out"],
        &["trace"],
    )?;
    let (seed, seconds) = (a.seed()?, a.seconds()?);
    let traced = a.get("trace").is_some();
    let runs: u64 = match a.get("runs") {
        Some(r) => r.parse().map_err(|e| format!("bad --runs {r:?}: {e}"))?,
        None => 1,
    };
    if !(1..=100).contains(&runs) {
        return Err(format!("--runs {runs} is outside 1..=100"));
    }
    let chosen: Vec<&str> = match a.get("workload") {
        Some(list) => list.split(',').collect(),
        None => workloads::NAMES.to_vec(),
    };
    if let Some(bad) = chosen.iter().find(|w| !workloads::NAMES.contains(w)) {
        return Err(format!(
            "unknown workload {bad:?}; one of {:?}",
            workloads::NAMES
        ));
    }

    let mut doc = Document {
        machine: compare::machine_class(),
        seeds: (0..runs).map(|k| seed.wrapping_add(k)).collect(),
        traced,
        ..Document::default()
    };
    println!(
        "icfp-ladder run: {} pass, seed {seed:#x}, {runs} run(s) × {seconds} s per workload, host {} \
         (simulated figures start from empty modelled caches; the model is unvalidated)",
        if traced { "traced" } else { "end-to-end" },
        doc.machine
    );
    for w in &chosen {
        // One headline value per run; the in-run samples stand in when the
        // set is a single run.
        let mut per_run: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut in_run: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for &s in &doc.seeds {
            let r = spawn_one(w, s, seconds, traced)?;
            attempted += r.attempted;
            failed += r.failed;
            for (k, v) in r.metrics {
                per_run.entry(k).or_default().push(v);
            }
            in_run = r.samples;
        }
        doc.attempted += attempted;
        doc.failed += failed;
        println!(
            "\n{w}: {attempted} operations checked, {failed} failed (fail_share {})",
            failed as f64 / attempted.max(1) as f64
        );
        println!(
            "  {:<34} {:>12} {:>14} {:>14} {:>14} {:>12} {:>3}",
            "metric", "unit", "median", "min", "max", "MAD", "n"
        );
        for (name, headline) in &per_run {
            // A single run shows its in-run samples beside its headline,
            // which is its own statistic (a ratio of medians), not the
            // median of those samples.
            let samples = if runs == 1 { in_run.get(name) } else { None };
            let s = Summary::of(samples.unwrap_or(headline));
            let shown = if runs == 1 { headline[0] } else { s.median };
            print_row(
                name,
                metrics::def(name).map_or("", |d| d.unit),
                shown,
                &s,
                "",
            );
        }
        // What the clock read before any scaling, from the last run.
        for (extra, v) in &in_run {
            if extra.starts_with("harness.") && !per_run.contains_key(extra) {
                let s = Summary::of(v);
                print_row(extra, "", s.median, &s, "  (raw, last run)");
            }
        }
        if traced {
            print_trace_summary(w);
        }
        doc.workloads.insert(w.to_string(), per_run);
    }
    if let Some(path) = a.get("out") {
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    println!(
        "\n{} operations checked, {} failed",
        doc.attempted, doc.failed
    );
    Ok(if doc.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One line of `run`'s table.
fn print_row(name: &str, unit: &str, shown: f64, s: &Summary, note: &str) {
    println!(
        "  {name:<34} {unit:>12} {:>14} {:>14} {:>14} {:>12} {:>3}{note}",
        figure(shown),
        figure(s.min),
        figure(s.max),
        figure(s.mad),
        s.n
    );
}

/// A table cell: six significant digits, however large or small the value.
fn figure(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{v:.digits$}")
}

/// Prints where the traced bodies' time went, from the trace file the child
/// wrote.
fn print_trace_summary(workload: &str) {
    let path = runner::out_dir().join(format!("trace-{workload}.json"));
    let Some(doc) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        println!("  (no trace at {})", path.display());
        return;
    };
    println!("  trace: {}", path.display());
    for body in doc.get("bodies").and_then(Json::as_arr).unwrap_or(&[]) {
        let total = body.get("body_ns").and_then(Json::as_f64).unwrap_or(0.0);
        let layers: Vec<String> = body
            .get("layer_self_ns")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v.as_f64().unwrap_or(0.0) / total * 100.0))
            .collect();
        println!(
            "    rep {}: body {:.3} s, self time by layer: {}",
            body.get("rep").and_then(Json::as_f64).unwrap_or(0.0),
            total / 1e9,
            layers.join(", ")
        );
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result documents: A.json B.json".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Document::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("one") => cmd_one(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err("usage: icfp-ladder run|one|compare ... (see benchmark/README.md)".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("icfp-ladder: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cells_keep_six_significant_digits() {
        assert_eq!(figure(2782225.0), "2782225");
        assert_eq!(figure(77.242994), "77.2430");
        assert_eq!(figure(0.0508), "0.0508000");
        assert_eq!(figure(0.0), "0");
        assert_eq!(figure(-12.5), "-12.5000");
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("49374"), Ok(49374));
        assert_eq!(parse_seed("0xC0DE"), Ok(0xC0DE));
        assert_eq!(parse_seed("0xffffffffffffffff"), Ok(u64::MAX));
        assert!(
            parse_seed("0xZZ").is_err() && parse_seed("").is_err() && parse_seed("-1").is_err()
        );
    }

    #[test]
    fn the_driver_form_of_one_parses_and_bad_flags_are_refused() {
        let argv: Vec<String> = "--workload hit --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv, &["workload", "seed", "seconds", "trace"], &[]).unwrap();
        assert_eq!(
            (a.get("workload"), a.get("trace")),
            (Some("hit"), Some("1"))
        );
        assert_eq!((a.seed(), a.seconds()), (Ok(7), Ok(10.0)));
        assert!(
            Args::parse(&argv, &["workload"], &[]).is_err(),
            "unknown flag"
        );
        assert!(
            Args::parse(&argv[..1], &["workload"], &[]).is_err(),
            "missing value"
        );
        let bare = Args::parse(&["--trace".to_string()], &[], &["trace"]).unwrap();
        assert!(bare.get("trace").is_some());
    }
}
