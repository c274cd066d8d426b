//! The one `BENCH_sweep.json` schema module (`icfp-sweep/v3`).
//!
//! Everything that emits or consumes a sweep document — the local CLI
//! writer, the `icfp-sweepd` server, `icfp-bench --figures` —
//! goes through this module, so there is exactly one writer and one
//! parser to keep in agreement.  The format is hand-rolled flat JSON (the
//! workspace carries no JSON dependency): one header, one cell object per
//! line, and a recorded `report_digest` the parser recomputes and verifies.

use crate::report::{SweepCell, SweepReport};
use std::fmt;
use std::fmt::Write as _;

/// The document schema identifier.  `v2` added the `workloads` header array
/// (the matrix column order, so rendering no longer infers it from cells);
/// `v3` dropped `reps` and `aggregate_mips`: a cell is one simulation.
pub const SCHEMA: &str = "icfp-sweep/v3";

/// Typed failures parsing a sweep document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The document carries no `"schema"` field, or a different schema.
    NotASweepDoc {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// A required header field is absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A line exists for the field but its value would not parse.
    Malformed {
        /// What was being parsed.
        what: &'static str,
        /// 1-based line number in the document.
        line: usize,
    },
    /// The recorded `report_digest` does not match the digest recomputed
    /// from the parsed cells — a corrupted or hand-edited document.
    DigestMismatch {
        /// The digest the document recorded.
        recorded: u64,
        /// The digest its cells actually produce.
        computed: u64,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NotASweepDoc { found: Some(s) } => {
                write!(f, "not a {SCHEMA} document (schema {s:?})")
            }
            SchemaError::NotASweepDoc { found: None } => {
                write!(f, "not a {SCHEMA} document (no schema field)")
            }
            SchemaError::MissingField { field } => write!(f, "missing field {field:?}"),
            SchemaError::Malformed { what, line } => {
                write!(f, "malformed {what} on line {line}")
            }
            SchemaError::DigestMismatch { recorded, computed } => write!(
                f,
                "report digest mismatch: document records {recorded:#018x}, cells produce {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Renders a report as the `BENCH_sweep.json` document.  Byte-stable: the
/// same report always produces the same bytes, so digest-identical reports
/// produce identical documents.
pub fn to_json(report: &SweepReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"threads\": {},", report.threads);
    let _ = writeln!(s, "  \"insts\": {},", report.insts);
    let _ = writeln!(s, "  \"seed\": {},", report.seed);
    s.push_str("  \"workloads\": [");
    for (k, w) in report.workloads.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{w:?}");
    }
    s.push_str("],\n");
    let _ = writeln!(s, "  \"report_digest\": \"{:#018x}\",", report.digest());
    s.push_str("  \"cells\": [\n");
    for (k, c) in report.cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"model\": {:?}, \"workload\": {:?}, \"slice_buffer\": {}, \
             \"mshrs\": {}, \"l2_hit_latency\": {}, \"seed\": {}, \
             \"instructions\": {}, \"cycles\": {}, \"ipc\": {:.4}, \
             \"l1d_mpki\": {:.3}, \"l2_mpki\": {:.3}, \"host_seconds\": {:.6}, \
             \"mips\": {:.3}, \"state_digest\": \"{:#018x}\"}}",
            c.model,
            c.workload,
            c.slice_buffer_entries,
            c.mshr_count,
            c.l2_hit_latency,
            c.seed,
            c.instructions,
            c.cycles,
            c.ipc,
            c.l1d_mpki,
            c.l2_mpki,
            c.host_seconds,
            c.mips,
            c.state_digest
        );
        if let Some(reason) = &c.failed {
            // Only failed cells carry the field, so fault-free documents are
            // byte-identical to pre-failure-era ones.  Reasons are sanitized
            // at recording time (no quotes/backslashes/control characters),
            // matching the parser's no-escape string extraction.
            s.truncate(s.len() - 1);
            let _ = write!(s, ", \"failed\": {reason:?}}}");
        }
        s.push_str(if k + 1 == report.cells.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `"key": "value"` from a line (no escape handling — the schema
/// never emits strings containing quotes or backslashes).
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts a bare numeric token after `"key": `.
fn num_token<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    num_token(line, key)?.parse().ok()
}

fn f64_field(line: &str, key: &str) -> Option<f64> {
    num_token(line, key)?.parse().ok()
}

/// Extracts a `"0x…"`-encoded u64 after `"key": `.
fn hex_field(line: &str, key: &str) -> Option<u64> {
    let s = str_field(line, key)?;
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Extracts `"key": ["a", "b", …]` from a line.
fn str_array(line: &str, key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\": [");
    let at = line.find(&pat)? + pat.len();
    // The array is the last thing on its line; a string may hold a `]`.
    let body = line[at..].get(..line[at..].rfind(']')?)?;
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let close = tail.find('"')?;
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    Some(out)
}

/// Parses a `BENCH_sweep.json` document back into a [`SweepReport`],
/// verifying the recorded `report_digest` against the digest the parsed
/// cells actually produce.
///
/// # Errors
///
/// Any [`SchemaError`]; notably [`SchemaError::DigestMismatch`] for a
/// document whose cells were edited after it was written.
pub fn parse(doc: &str) -> Result<SweepReport, SchemaError> {
    let schema_line = doc
        .lines()
        .find(|l| l.contains("\"schema\":"))
        .and_then(|l| str_field(l, "schema"));
    match schema_line.as_deref() {
        Some(s) if s == SCHEMA => {}
        found => {
            return Err(SchemaError::NotASweepDoc {
                found: found.map(str::to_string),
            })
        }
    }

    let mut threads = None;
    let mut insts = None;
    let mut seed = None;
    let mut workloads = None;
    let mut recorded = None;
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut in_cells = false;

    for (k, line) in doc.lines().enumerate() {
        let lineno = k + 1;
        let malformed = |what| SchemaError::Malformed { what, line: lineno };
        if line.contains("\"cells\":") {
            in_cells = true;
            continue;
        }
        let t = line.trim_start();
        if in_cells && t.starts_with('{') {
            cells.push(parse_cell(t, lineno)?);
            continue;
        }
        if in_cells {
            if t.starts_with(']') {
                in_cells = false;
            }
            continue;
        }
        if line.contains("\"threads\":") {
            threads = Some(u64_field(line, "threads").ok_or(malformed("threads"))?);
        } else if line.contains("\"insts\":") {
            insts = Some(u64_field(line, "insts").ok_or(malformed("insts"))?);
        } else if line.contains("\"seed\":") {
            seed = Some(u64_field(line, "seed").ok_or(malformed("seed"))?);
        } else if line.contains("\"workloads\":") {
            workloads = Some(str_array(line, "workloads").ok_or(malformed("workloads"))?);
        } else if line.contains("\"report_digest\":") {
            recorded = Some(hex_field(line, "report_digest").ok_or(malformed("report_digest"))?);
        }
    }

    let report = SweepReport {
        threads: threads.ok_or(SchemaError::MissingField { field: "threads" })? as usize,
        insts: insts.ok_or(SchemaError::MissingField { field: "insts" })? as usize,
        seed: seed.ok_or(SchemaError::MissingField { field: "seed" })?,
        workloads: workloads.ok_or(SchemaError::MissingField { field: "workloads" })?,
        cells,
    };
    let recorded = recorded.ok_or(SchemaError::MissingField {
        field: "report_digest",
    })?;
    let computed = report.digest();
    if computed != recorded {
        return Err(SchemaError::DigestMismatch { recorded, computed });
    }
    Ok(report)
}

/// Parses one cell object line.
fn parse_cell(line: &str, lineno: usize) -> Result<SweepCell, SchemaError> {
    let malformed = |what| SchemaError::Malformed { what, line: lineno };
    Ok(SweepCell {
        model: str_field(line, "model").ok_or(malformed("cell model"))?,
        workload: str_field(line, "workload").ok_or(malformed("cell workload"))?,
        slice_buffer_entries: u64_field(line, "slice_buffer").ok_or(malformed("cell slice_buffer"))?
            as usize,
        mshr_count: u64_field(line, "mshrs").ok_or(malformed("cell mshrs"))? as usize,
        l2_hit_latency: u64_field(line, "l2_hit_latency").ok_or(malformed("cell l2_hit_latency"))?,
        seed: u64_field(line, "seed").ok_or(malformed("cell seed"))?,
        instructions: u64_field(line, "instructions").ok_or(malformed("cell instructions"))?,
        cycles: u64_field(line, "cycles").ok_or(malformed("cell cycles"))?,
        ipc: f64_field(line, "ipc").ok_or(malformed("cell ipc"))?,
        l1d_mpki: f64_field(line, "l1d_mpki").ok_or(malformed("cell l1d_mpki"))?,
        l2_mpki: f64_field(line, "l2_mpki").ok_or(malformed("cell l2_mpki"))?,
        host_seconds: f64_field(line, "host_seconds").ok_or(malformed("cell host_seconds"))?,
        mips: f64_field(line, "mips").ok_or(malformed("cell mips"))?,
        state_digest: hex_field(line, "state_digest").ok_or(malformed("cell state_digest"))?,
        failed: str_field(line, "failed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::testutil::tiny_spec;

    #[test]
    fn json_is_well_formed_and_carries_the_digest() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["branchy".into()];
        spec.l2_hit_latencies = vec![20];
        let r = run_sweep(&spec, 2).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"icfp-sweep/v3\""));
        assert!(json.contains("\"workloads\": [\"branchy\"],"));
        assert!(json.contains(&format!("{:#018x}", r.digest())));
        assert!(json.contains("\"workload\": \"branchy\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn documents_round_trip_and_re_emit_byte_identically() {
        let spec = tiny_spec();
        let r = run_sweep(&spec, 4).unwrap();
        let json = to_json(&r);
        let back = parse(&json).expect("parse");
        assert_eq!(back.digest(), r.digest());
        assert_eq!(back.threads, r.threads);
        assert_eq!(back.workloads, r.workloads);
        assert_eq!(back.cells.len(), r.cells.len());
        // Deterministic cell fields survive exactly.
        for (a, b) in r.cells.iter().zip(&back.cells) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.state_digest, b.state_digest);
        }
        // Emitting the parsed report reproduces the document byte-for-byte
        // (figures are written at fixed precision, so parse ∘ emit is the
        // identity on documents the emitter wrote).
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn a_path_named_column_round_trips() {
        // Column names are paths too: everything but the three characters
        // `SweepSpec::validate_axes` refuses must survive emit -> parse.
        let mut r = run_sweep(&tiny_spec(), 1).unwrap();
        let path = "/tmp/my traces/[v2], {x}: w.trace";
        r.workloads[0] = path.to_string();
        for c in r.cells.iter_mut().filter(|c| c.workload == "pointer-chase") {
            c.workload = path.to_string();
        }
        let json = to_json(&r);
        let back = parse(&json).expect("parse");
        assert_eq!(back.workloads, r.workloads);
        assert_eq!(back.digest(), r.digest());
        assert_eq!(to_json(&back), json);
        assert!(back.render_matrix().unwrap().contains(path));
    }

    #[test]
    fn a_v2_document_is_refused_by_the_version_it_names() {
        // A v2 document (with `reps` and `aggregate_mips`) is not half-read.
        let mut spec = tiny_spec();
        spec.workloads = vec!["branchy".into()];
        let json = to_json(&run_sweep(&spec, 1).unwrap());
        let v2 = json
            .replace(SCHEMA, "icfp-sweep/v2")
            .replace("  \"workloads\":", "  \"reps\": 3,\n  \"workloads\":")
            .replace("  ]\n}", "  ],\n  \"aggregate_mips\": 1.000\n}");
        let err = parse(&v2).unwrap_err();
        assert_eq!(err, SchemaError::NotASweepDoc { found: Some("icfp-sweep/v2".into()) });
        assert!(err.to_string().contains("icfp-sweep/v2"), "{err}");
    }

    #[test]
    fn hostile_documents_are_typed_errors_not_panics() {
        let spec = {
            let mut s = tiny_spec();
            s.workloads = vec!["branchy".into()];
            s.l2_hit_latencies = vec![20];
            s.slice_buffer_entries = vec![128];
            s
        };
        let r = run_sweep(&spec, 1).unwrap();
        let json = to_json(&r);

        // Wrong schema.
        let old = json.replace(SCHEMA, "icfp-sweep/v1");
        assert_eq!(
            parse(&old),
            Err(SchemaError::NotASweepDoc {
                found: Some("icfp-sweep/v1".into())
            })
        );
        assert!(matches!(
            parse("{}\n"),
            Err(SchemaError::NotASweepDoc { found: None })
        ));

        // Dropped header field.
        let gone = json
            .lines()
            .filter(|l| !l.contains("\"workloads\":"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(
            parse(&gone),
            Err(SchemaError::MissingField { field: "workloads" })
        );

        // Edited cell figures: recorded digest no longer matches.
        let cycles = r.cells[0].cycles;
        let edited = json.replace(
            &format!("\"cycles\": {cycles}"),
            &format!("\"cycles\": {}", cycles + 1),
        );
        assert!(matches!(
            parse(&edited),
            Err(SchemaError::DigestMismatch { .. })
        ));

        // Garbage in a numeric field.
        let garbled = json.replace("\"threads\": ", "\"threads\": x");
        assert!(matches!(
            parse(&garbled),
            Err(SchemaError::Malformed {
                what: "threads",
                ..
            })
        ));
    }
}
