//! `icfp-bench` — the sweep / trace / figures CLI.  Every invocation is one
//! row of [`USAGE`] (`--help` prints it); this is not where host speed is
//! measured — that is `icfp-ladder` in `benchmark/`.
//!
//! There is one way to ask for a run: every invocation that simulates builds
//! one `SweepSpec` — models × configuration points × columns — and executes it
//! through an `ExecBackend` (spec → backend → cell stream → report); the
//! leading words only pick the backend.  A plain `icfp-bench --smoke` is the
//! one-point sweep (the Table-1 point: slice 128, MSHRs 64, L2 20) of every
//! model over the standard workloads on this process's thread pool: it prints
//! the IPC matrix and writes `BENCH_sweep.json` (`icfp-sweep/v3`).  Every
//! distinct cell is simulated once, and its host time is that one run's;
//! `--cache-dir DIR` adds a persistent `icfp-cache/v1` result store
//! (repeated or overlapping grids are served from disk, byte-identically).
//! `sweep submit --server ADDR` sends the same grid to a running `icfp-sweepd`
//! over `icfp-wire/v4`; `sweep submit --workers A,B[,..]` deals its fork groups
//! across `icfp-sweepd --worker` processes (a shard carries per-column trace
//! *digests*, never trace bytes) and merges the streamed cells into a report
//! digest-identical to a serial local run, even when a worker dies mid-shard
//! and its shard is reassigned.  `sweep plan` prints the shard assignment
//! without executing anything.
//!
//! A column is named by a registry workload (`--workload`) or by the path of
//! an `icfp-trace/v1|v2` container (`--trace-file`, alongside the synthetic
//! workloads or, with `--workload none`, instead of them).  A container
//! streams block by block, runs at its own length (`--insts` does not apply
//! to it), is cached by its content digest like any column, and must be
//! readable under the same path wherever the spec is validated, planned or
//! executed.  `--fast-forward N` functionally executes the first N
//! instructions of every column (registers + memory only) and times the rest
//! from a cold microarchitectural state; it must leave a timed region, and is
//! part of each cell's fork-group and result-cache identity.
//!
//! `trace convert` imports the `icfp-bbp/v1` basic-block-profile text format
//! into a container, or re-containers an existing trace file (the input is
//! sniffed; `--format v1|v2` picks the block encoding).  `trace info` prints
//! and verifies one.  `--figures` renders a `BENCH_sweep.json` into the
//! paper's Figure 6/7-style speedup-over-in-order tables (per-workload-class
//! geomeans; a container column is class `other`).

use icfp_bench::render_figures;
use icfp_isa::{TraceFile, TraceFileWriter, TraceFormat};
use icfp_sim::CoreModel;
use icfp_sweep::{
    plan_shards, ExecBackend, LocalBackend, RemoteBackend, RetryPolicy, ServerBackend,
    SweepError, SweepSpec, WireError,
};
use icfp_workloads::TraceSink;
use std::fmt::Display;
use std::process::ExitCode;

/// The one copy of the usage text: `--help` prints it and a malformed
/// subcommand is answered with it.
const USAGE: &str = "\
usage: icfp-bench [--smoke] [--insts N] [--seed N|0xHEX]
                  [--core NAME[,NAME...] (default: all five)]
                  [--workload NAME[,NAME...]|none] [--trace-file PATH[,PATH...]]
                  [--sweep-slice N[,N...] (default: 128)]
                  [--sweep-mshr N[,N...] (default: 64)]
                  [--sweep-l2 N[,N...] (default: 20)] [--fast-forward N]
                  [--threads N] [--cache-dir DIR] [--out PATH]
       icfp-bench --figures PATH
       icfp-bench sweep submit (--server ADDR | --workers A,B[,..]) [--shards N]
                  [--retries N] [--retry-base-ms MS] [--io-timeout-ms MS]
                  [flags of the first form]
       icfp-bench sweep plan [--shards N] [--workers A,B] [flags of the first form]
       icfp-bench trace convert <in.bbp|in.trace> <out.trace>
                  [--block-size N] [--name S] [--format v1|v2 (default: v2)]
       icfp-bench trace info <file.trace>
exit codes: 1 I/O or verification failure; 2 invalid usage or spec; a sweep, on
any backend, adds 3 connect/transport failed after every retry, 4 protocol /
version / digest mismatch, 5 server-reported error";

/// A subcommand's entry point, over the arguments after its leading words.
type Command = fn(&[String]) -> Result<(), CliError>;

/// Every way the binary is invoked by leading words, with the entry point
/// that takes the remaining arguments.  Anything else is the plain command
/// line: `--figures`, or the sweep on this process's thread pool.
const SUBCOMMANDS: [(&[&str], Command); 4] = [
    (&["sweep", "submit"], sweep_submit),
    (&["sweep", "plan"], sweep_plan),
    (&["trace", "convert"], trace_convert),
    (&["trace", "info"], trace_info),
];

/// A failed invocation: what `main` prints after `icfp-bench: ` and exits
/// with.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// Exit 2: the command line, or the spec it describes, is invalid.
    fn usage(message: impl Display) -> Self {
        CliError { code: 2, message: message.to_string() }
    }

    /// Exit 1: valid input, but a file could not be read, written or verified.
    fn failed(message: impl Display) -> Self {
        CliError { code: 1, message: message.to_string() }
    }
}

struct Args {
    /// The grid every front end runs: the same command line describes the
    /// identical spec (and so a digest-identical report) wherever it goes.
    /// Its column axis is the `--workload` names, then the `--trace-file`
    /// paths.
    spec: SweepSpec,
    out: Option<String>,
    figures: Option<String>,
    threads: usize,
    cache_dir: Option<String>,
    server: Option<String>,
    workers: Vec<String>,
    shards: usize,
    policy: RetryPolicy,
}

/// The value of `flag`, typed: the next argument put through `parse`, with
/// the flag named in either failure.
fn value<'a, T, E: Display>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    let v = it
        .next()
        .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))?;
    parse(v).map_err(|e| CliError::usage(format!("{flag}: {e}")))
}

/// Lifts an element parser to a comma-separated list of elements.
fn list<T, E>(parse: impl Fn(&str) -> Result<T, E>) -> impl Fn(&str) -> Result<Vec<T>, E> {
    move |v| v.split(',').map(|s| parse(s.trim())).collect()
}

fn text(s: &str) -> Result<String, std::convert::Infallible> {
    Ok(s.to_string())
}

/// A seed: decimal, or hexadecimal with a `0x` prefix — the form every
/// banner prints it in.
fn seed(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

fn core_model(s: &str) -> Result<CoreModel, String> {
    CoreModel::parse(s).ok_or_else(|| {
        format!(
            "unknown core model {s:?}; valid models: {}",
            CoreModel::valid_names()
        )
    })
}

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let standard = icfp_workloads::STANDARD_NAMES.iter().map(|s| s.to_string());
    let mut a = Args {
        // Budget: 0 until the default below fills it in.
        spec: SweepSpec::new(CoreModel::ALL.to_vec(), standard.collect(), 0, 0xC0DE),
        out: None,
        figures: None,
        threads: 0,
        cache_dir: None,
        server: None,
        workers: Vec::new(),
        shards: 0,
        policy: RetryPolicy::default(),
    };
    let mut smoke = false;
    let mut trace_files: Vec<String> = Vec::new();
    let it = &mut argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--smoke" => smoke = true,
            "--fast-forward" => a.spec.fast_forward = value(it, flag, str::parse)?,
            "--insts" => a.spec.insts = value(it, flag, str::parse)?,
            "--seed" => a.spec.seed = value(it, flag, seed)?,
            "--core" => a.spec.models = value(it, flag, list(core_model))?,
            // `--workload none` runs only --trace-file containers.
            "--workload" => {
                a.spec.workloads = value(it, flag, list(text))?;
                a.spec.workloads.retain(|w| w != "none");
            }
            "--trace-file" => trace_files.extend(value(it, flag, list(text))?),
            "--figures" => a.figures = Some(value(it, flag, text)?),
            "--out" => a.out = Some(value(it, flag, text)?),
            "--sweep-slice" => a.spec.slice_buffer_entries = value(it, flag, list(str::parse))?,
            "--sweep-mshr" => a.spec.mshr_counts = value(it, flag, list(str::parse))?,
            "--sweep-l2" => a.spec.l2_hit_latencies = value(it, flag, list(str::parse))?,
            "--threads" => a.threads = value(it, flag, str::parse)?,
            "--cache-dir" => a.cache_dir = Some(value(it, flag, text)?),
            "--server" => a.server = Some(value(it, flag, text)?),
            "--workers" => {
                a.workers = value(it, flag, list(text))?;
                a.workers.retain(|w| !w.is_empty());
            }
            "--shards" => a.shards = value(it, flag, str::parse)?,
            "--retries" => a.policy.retries = value(it, flag, str::parse)?,
            "--retry-base-ms" => a.policy.base_delay_ms = value(it, flag, str::parse)?,
            "--io-timeout-ms" => a.policy.io_timeout_ms = value(it, flag, str::parse)?,
            other => return Err(CliError::usage(format!("unknown argument {other:?}"))),
        }
    }
    if a.spec.insts == 0 {
        a.spec.insts = if smoke { 20_000 } else { 200_000 };
    }
    if a.threads == 0 {
        a.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    a.spec.workloads.append(&mut trace_files);
    if a.spec.workloads.is_empty() {
        return Err(CliError::usage(
            "nothing to run: --workload none needs a --trace-file",
        ));
    }
    Ok(a)
}

fn write_out(path: &str, doc: &str) -> Result<(), CliError> {
    std::fs::write(path, doc).map_err(|e| CliError::failed(format!("writing {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// `N cells (M models x C configs x W workloads)`, as every sweep banner
/// describes its grid.
fn grid_shape(spec: &SweepSpec) -> String {
    format!(
        "{} cells ({} models x {} configs x {} workloads)",
        spec.cell_count(),
        spec.models.len(),
        spec.slice_buffer_entries.len() * spec.mshr_counts.len() * spec.l2_hit_latencies.len(),
        spec.workloads.len(),
    )
}

/// Exit codes for sweep failures, one per failure class so scripts can
/// branch without parsing stderr — the same whichever backend ran the sweep
/// (a distributed run reports its first failed shard's class):
///
/// * `2` — the spec (or usage) is invalid; nothing was sent.
/// * `3` — connect or transport failed after every retry (refused,
///   timed out, torn frames, server vanished mid-stream).
/// * `4` — the conversation itself went wrong: protocol violation,
///   undecodable payload, an incompatible peer (version skew refused at the
///   handshake), or a reassembled-report digest mismatch.
/// * `5` — the server answered with a typed error (e.g. it rejected the
///   spec, or was draining for shutdown).
fn wire_exit_code(e: &SweepError) -> u8 {
    match e.wire() {
        None | Some(WireError::Spec(_)) => 2,
        Some(WireError::Io(_) | WireError::Frame(_) | WireError::Disconnected) => 3,
        Some(
            WireError::Protocol(_) | WireError::Decode(_) | WireError::UnsupportedVersion { .. },
        ) => 4,
        Some(WireError::Server(_)) => 5,
    }
}

/// Runs the sweep the command line describes on `backend`, then prints the
/// matrix and the aggregate line and writes `BENCH_sweep.json` — the same,
/// with a report digest-identical to a serial local run, wherever the cells
/// ran.  Failures exit with [`wire_exit_code`]'s documented codes.
fn run_sweep_on(args: &Args, backend: &dyn ExecBackend) -> Result<(), CliError> {
    let spec = &args.spec;
    println!("sweep: {} -> {}", grid_shape(spec), backend.label());
    let mut streamed = 0u64;
    let outcome = backend
        .run_streamed(spec, &mut |_| streamed += 1)
        .map_err(|e| CliError { code: wire_exit_code(&e), message: format!("sweep: {e}") })?;
    println!("streamed {streamed} cells; cache: {}", outcome.cache.summary());
    let report = &outcome.report;
    print!("{}", report.render_matrix().map_err(CliError::usage)?);
    println!(
        "aggregate: {:.2} MIPS over {} cells  (report digest {:#018x})",
        report.aggregate_mips(),
        report.cells.len(),
        report.digest()
    );
    write_out(args.out.as_deref().unwrap_or("BENCH_sweep.json"), &report.to_json())
}

/// `icfp-bench sweep submit`: the grid goes to a pool of `icfp-sweepd
/// --worker` processes (`--workers`, which wins when both are given) or to
/// one `icfp-sweepd` (`--server`).
fn sweep_submit(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv)?;
    let (threads, policy) = (args.threads, args.policy);
    if !args.workers.is_empty() {
        let (workers, shards) = (args.workers.clone(), args.shards);
        return run_sweep_on(&args, &RemoteBackend { workers, shards, threads, policy });
    }
    let Some(addr) = args.server.clone() else {
        return Err(CliError::usage(
            "sweep submit requires --server ADDR or --workers A,B[,..]",
        ));
    };
    run_sweep_on(&args, &ServerBackend { addr, threads, policy })
}

/// `icfp-bench sweep plan`: dry-run the shard planner and print the
/// assignment — per shard its cells, its fork groups in all and per column
/// (the balance, visible before a run) and how far inert-axis
/// canonicalization shrinks its distinct cache entries, then each column's
/// workload and trace digest — without executing a single cell.  Exits 2 on
/// an invalid spec, exactly as `sweep submit` would before sending anything.
fn sweep_plan(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv)?;
    let spec = &args.spec;
    let shard_count = match (args.shards, args.workers.len()) {
        (0, 0) => 1,
        (0, w) => w,
        (s, _) => s,
    };
    let plan = plan_shards(spec, shard_count)
        .map_err(|e| CliError::usage(format!("sweep plan: {e}")))?;
    println!(
        "plan: {} -> {} shard{}",
        grid_shape(spec),
        plan.len(),
        if plan.len() == 1 { "" } else { "s" },
    );
    let (jobs, w) = (spec.expand(), spec.workloads.len());
    let planned = |name: &String| plan.iter().flat_map(|s| &s.columns).find(|c| c.workload == *name);
    let digest = |name| planned(name).map_or(0, |column| column.trace_digest);
    let digests: Vec<u64> = spec.workloads.iter().map(digest).collect();
    for (k, shard) in plan.iter().enumerate() {
        // A fork group is the cells of one column that share a cache key;
        // cells whose configurations differ only along axes their model never
        // reads canonicalize to one key, and so to one entry.
        let mut keys: Vec<(usize, u64)> = shard
            .cells
            .iter()
            .map(|&j| (j as usize % w, jobs[j as usize].cache_key(digests[j as usize % w])))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let per_column: Vec<String> = (0..w)
            .map(|c| keys.iter().filter(|key| key.0 == c).count().to_string())
            .collect();
        let groups = keys.len();
        keys.sort_unstable_by_key(|key| key.1);
        keys.dedup_by_key(|key| key.1);
        let worker = if args.workers.is_empty() {
            String::new()
        } else {
            format!("  -> {}", args.workers[k % args.workers.len()])
        };
        println!(
            "shard {k}: {} cells in {groups} groups ({} per column), {} distinct cache entries \
             (inert-axis sharing){worker}",
            shard.cell_count(),
            per_column.join("+"),
            keys.len(),
        );
    }
    for (name, digest) in spec.workloads.iter().zip(digests) {
        println!("  column {name:<14} trace digest {digest:#018x}");
    }
    Ok(())
}

/// Adapter: the converter's [`TraceSink`] over the streaming container
/// writer, in whichever block format it was created with (records the first
/// write error; checked at the end so the converter body stays infallible).
struct FileSink {
    writer: TraceFileWriter,
    error: Option<icfp_isa::TraceSourceError>,
}

impl TraceSink for FileSink {
    fn push(&mut self, inst: icfp_isa::DynInst) {
        if self.error.is_none() {
            if let Err(e) = self.writer.push(inst) {
                self.error = Some(e);
            }
        }
    }

    fn set_next_pc(&mut self, pc: u64) {
        self.writer.set_next_pc(pc);
    }

    fn emitted(&self) -> usize {
        self.writer.len()
    }
}

/// `icfp-bench trace convert <in.bbp|in.trace> <out.trace>`: writes
/// `icfp-trace/v2` unless `--format v1` asks for the uncompressed blocks.
fn trace_convert(argv: &[String]) -> Result<(), CliError> {
    let bad = |what: &str, e: &dyn Display| CliError::usage(format!("trace: {what}: {e}"));
    let mut block_size = icfp_isa::DEFAULT_BLOCK_INSTS;
    let mut name: Option<String> = None;
    let mut format = TraceFormat::V2;
    let mut pos: Vec<&String> = Vec::new();
    let it = &mut argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--block-size" => {
                block_size = value(it, a, |s| match s.parse() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err("takes a positive integer"),
                })?
            }
            "--name" => name = Some(value(it, a, text)?),
            "--format" => {
                format = value(it, a, |s| TraceFormat::parse(s).ok_or("takes v1 or v2"))?
            }
            _ => pos.push(a),
        }
    }
    let [input, output] = pos[..] else {
        return Err(CliError::usage(format!(
            "trace convert takes <in.bbp|in.trace> <out.trace>\n{USAGE}"
        )));
    };
    // An existing container re-containers directly (v1 <-> v2 or a
    // re-block); anything else is parsed as icfp-bbp/v1 text.
    if let Ok(src) = TraceFile::open(input) {
        let from = src.format();
        let s = TraceFileWriter::write_source_as(output, &src, block_size, format)
            .map_err(|e| bad(output, &e))?;
        println!(
            "converted {input} [{from}] -> {output} [{format}]: {} insts in {} \
             blocks of {block_size}, digest {:#018x} ({} bytes)",
            s.instructions, s.blocks, s.digest, s.bytes
        );
        return Ok(());
    }
    let text = std::fs::read_to_string(input).map_err(|e| bad(input, &e))?;
    let program = icfp_workloads::bbp::parse(&text).map_err(|e| bad(input, &e))?;
    // Announce the expansion before streaming it out: block×count
    // profiles can legitimately expand to billions of instructions,
    // but a *saturated* count means hostile/typo'd loop nesting.
    let expect = program.dynamic_len();
    if expect == u64::MAX {
        return Err(bad(
            input,
            &"loop counts multiply out past u64::MAX; refusing to expand",
        ));
    }
    println!("expanding {expect} dynamic instructions ({block_size} per block)");
    let stem = std::path::Path::new(input)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "converted".into());
    let trace_name = name.or_else(|| program.name.clone()).unwrap_or(stem);
    let writer = TraceFileWriter::create_as(output, &trace_name, block_size, format)
        .map_err(|e| bad(output, &e))?;
    let mut sink = FileSink { writer, error: None };
    program.emit(&mut sink);
    if let Some(e) = sink.error {
        return Err(bad(output, &e));
    }
    let s = sink.writer.finish().map_err(|e| bad(output, &e))?;
    println!(
        "converted {input} -> {output} [{format}]: {} insts in {} blocks of \
         {block_size}, digest {:#018x} ({} bytes)",
        s.instructions, s.blocks, s.digest, s.bytes
    );
    Ok(())
}

/// `icfp-bench trace info <file.trace>`: prints the container's summary and
/// verifies every digest in it.
fn trace_info(argv: &[String]) -> Result<(), CliError> {
    let [path] = argv else {
        return Err(CliError::usage(format!(
            "trace info takes exactly one <file.trace>\n{USAGE}"
        )));
    };
    let f = TraceFile::open(path).map_err(|e| CliError::usage(format!("trace: {path}: {e}")))?;
    println!("{}", f.summary());
    f.verify()
        .map_err(|e| CliError::failed(format!("{path}: verify failed: {e}")))?;
    println!("verify: every block digest and the whole-trace digest check out");
    Ok(())
}

/// `--figures PATH`: render an `icfp-sweep/v3` document into speedup tables.
fn figures(path: &str) -> Result<(), CliError> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| CliError::failed(format!("reading {path}: {e}")))?;
    let table = icfp_sweep::schema::parse(&doc)
        .map_err(|e| e.to_string())
        .and_then(|report| render_figures(&report))
        .map_err(|e| CliError::failed(format!("--figures {path}: {e}")))?;
    print!("{table}");
    Ok(())
}

fn run(argv: &[String]) -> Result<(), CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "{USAGE}\ncore models: {}\nworkloads:   {}",
            CoreModel::valid_names(),
            icfp_workloads::STANDARD_NAMES.join(", ")
        );
        return Ok(());
    }
    for (words, command) in SUBCOMMANDS {
        if argv.len() >= words.len() && argv.iter().zip(words).all(|(a, w)| a == w) {
            return command(&argv[words.len()..]);
        }
    }
    if let Some(noun @ ("sweep" | "trace")) = argv.first().map(String::as_str) {
        return Err(CliError::usage(format!("{noun}: unknown subcommand\n{USAGE}")));
    }
    let args = parse_args(argv)?;
    if let Some(path) = &args.figures {
        return figures(path);
    }
    let backend = LocalBackend {
        threads: args.threads,
        cache_dir: args.cache_dir.as_deref().map(Into::into),
    };
    run_sweep_on(&args, &backend)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("icfp-bench: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
