//! `icfp-bench` — the run / sweep / trace / figures CLI.  Every invocation is
//! one row of [`USAGE`] (`--help` prints it); this is not where host speed is
//! measured — that is `icfp-ladder` in `benchmark/`.
//!
//! A *standard run* simulates every selected core model over the standard
//! synthetic workloads and writes `BENCH_sim.json`.  `--smoke` selects a
//! small instruction budget (a few seconds); every cell reports the *median*
//! host time over `--reps` repetitions (default 3) after one untimed warmup.
//! `--trace-file` runs an on-disk `icfp-trace/v1` or `/v2` container
//! alongside (or instead of, with `--workload none`) the synthetic workloads,
//! streaming it block by block — trace length is bounded by disk, not RAM.
//!
//! `--fast-forward N` functionally executes the first N instructions of
//! every trace (architectural registers + memory only, no timing model) and
//! times the remainder from a cold microarchitectural state — the standard
//! warmup-skipping methodology.  Final architectural state and state digests
//! equal the cold full run's; cycle counts cover only the timed region, which
//! must not be empty.  With `--sweep` the same flag applies per cell and is
//! part of each cell's fork-group and result-cache identity.
//!
//! A sweep runs one way — spec → backend → cell stream → report — and the
//! flags only pick the backend.  `--sweep` executes on this process's thread
//! pool and writes `BENCH_sweep.json` plus an aligned IPC matrix;
//! `--cache-dir DIR` gives it a persistent `icfp-cache/v1` result store:
//! repeated or overlapping grids are served from disk, with reports
//! byte-identical to cold runs.  `sweep submit --server ADDR` sends the same
//! grid to a running `icfp-sweepd` over `icfp-wire/v2` instead, reassembling
//! the streamed cells into the identical report.
//!
//! `sweep submit --workers A,B[,..]` distributes the grid: the
//! shard planner splits it by workload column, each shard (a spec slice
//! plus per-column trace *digests*, never trace bytes) goes to one
//! `icfp-sweepd --worker`, and the streamed cells merge deterministically —
//! the report is digest-identical to a serial local run, even when a worker
//! dies mid-shard and its shard is reassigned.  `--shards N` overrides the
//! one-shard-per-worker default; `--stream-columns` backs every workload
//! column with a resumable streamed source instead of a materialized arena
//! (columns past the executor's budget threshold stream automatically).
//! `sweep plan` prints the shard assignment — cells per shard, per-column
//! trace digests, inert-axis cache sharing — without executing anything.
//!
//! `trace convert` imports the `icfp-bbp/v1` basic-block-profile text format
//! into a container, or re-containers an existing trace file (the input is
//! sniffed); `--format` picks the block encoding, so `convert a.trace b.trace
//! --format v1` rewrites a compressed v2 container as v1 and back.  `trace
//! info` prints and verifies one.  `--figures` renders a `BENCH_sweep.json`
//! into the paper's Figure 6/7-style speedup-over-baseline tables
//! (per-workload-class geomeans over the in-order model).

use icfp_bench::{bench_source, render_figures, BenchSession};
use icfp_isa::{ArenaSource, TraceFile, TraceFileWriter, TraceFormat, TraceSource};
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
usage: icfp-bench [--smoke] [--insts N] [--reps N] [--seed N|0xHEX]
                  [--core NAME[,NAME...] (default: all five)]
                  [--workload NAME[,NAME...]|none] [--trace-file PATH[,PATH...]]
                  [--fast-forward N] [--out PATH]
                  [--sweep] [--sweep-slice N[,N...]] [--sweep-mshr N[,N...]]
                  [--sweep-l2 N[,N...]] [--threads N] [--cache-dir DIR]
                  [--figures PATH]
       icfp-bench sweep submit (--server ADDR | --workers A,B[,..]) [--shards N]
                  [--stream-columns] [--retries N] [--retry-base-ms MS]
                  [--io-timeout-ms MS] [sweep flags as above]
       icfp-bench sweep plan [--shards N] [--workers A,B] [sweep flags as above]
       icfp-bench trace convert <in.bbp|in.trace> <out.trace>
                  [--block-size N] [--name S] [--format v1|v2 (default: v2)]
       icfp-bench trace info <file.trace>
exit codes: 1 I/O or verification failure; 2 invalid usage or spec; a sweep, on
any backend, adds 3 connect/transport failed after every retry, 4 protocol /
version / digest mismatch, 5 server-reported error";

/// A subcommand's entry point, over the arguments after its leading words.
type Command = fn(&[String]) -> Result<(), CliError>;

/// Every way the binary is invoked by leading words, with the entry point
/// that takes the remaining arguments.  Anything else is a flag-selected
/// mode of the plain command line: `--figures`, `--sweep`, or a standard run.
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
    smoke: bool,
    insts: usize,
    reps: u32,
    seed: u64,
    cores: Vec<CoreModel>,
    workloads: Vec<String>,
    trace_files: Vec<String>,
    out: Option<String>,
    sweep: bool,
    fast_forward: usize,
    figures: Option<String>,
    sweep_slice: Vec<usize>,
    sweep_mshr: Vec<usize>,
    sweep_l2: Vec<u64>,
    threads: usize,
    cache_dir: Option<String>,
    server: Option<String>,
    workers: Vec<String>,
    shards: usize,
    stream_columns: bool,
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
    let mut a = Args {
        smoke: false,
        insts: 0,
        reps: 0,
        seed: 0xC0DE,
        cores: CoreModel::ALL.to_vec(),
        workloads: icfp_workloads::STANDARD_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        trace_files: Vec::new(),
        out: None,
        sweep: false,
        fast_forward: 0,
        figures: None,
        sweep_slice: vec![64, 128],
        sweep_mshr: vec![64],
        sweep_l2: vec![20],
        threads: 0,
        cache_dir: None,
        server: None,
        workers: Vec::new(),
        shards: 0,
        stream_columns: false,
        policy: RetryPolicy::default(),
    };
    let it = &mut argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--smoke" => a.smoke = true,
            "--sweep" => a.sweep = true,
            "--stream-columns" => a.stream_columns = true,
            "--fast-forward" => a.fast_forward = value(it, flag, str::parse)?,
            "--insts" => a.insts = value(it, flag, str::parse)?,
            "--reps" => a.reps = value(it, flag, str::parse)?,
            "--seed" => a.seed = value(it, flag, seed)?,
            "--core" => a.cores = value(it, flag, list(core_model))?,
            // `--workload none` runs only --trace-file containers.
            "--workload" => {
                a.workloads = value(it, flag, list(text))?;
                a.workloads.retain(|w| w != "none");
            }
            "--trace-file" => a.trace_files.extend(value(it, flag, list(text))?),
            "--figures" => a.figures = Some(value(it, flag, text)?),
            "--out" => a.out = Some(value(it, flag, text)?),
            "--sweep-slice" => a.sweep_slice = value(it, flag, list(str::parse))?,
            "--sweep-mshr" => a.sweep_mshr = value(it, flag, list(str::parse))?,
            "--sweep-l2" => a.sweep_l2 = value(it, flag, list(str::parse))?,
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
    if a.insts == 0 {
        a.insts = if a.smoke { 20_000 } else { 200_000 };
    }
    if a.reps == 0 {
        a.reps = 3;
    }
    if a.threads == 0 {
        a.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    Ok(a)
}

fn write_out(path: &str, doc: &str) -> Result<(), CliError> {
    std::fs::write(path, doc).map_err(|e| CliError::failed(format!("writing {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// The sweep spec described by the command line — shared by the local
/// `--sweep` runner and the `sweep submit` client, so both describe the
/// identical grid (and produce digest-identical reports).
fn sweep_spec_of(args: &Args) -> SweepSpec {
    let mut spec = SweepSpec::new(
        args.cores.clone(),
        args.workloads.clone(),
        args.insts,
        args.seed,
    );
    spec.slice_buffer_entries = args.sweep_slice.clone();
    spec.mshr_counts = args.sweep_mshr.clone();
    spec.l2_hit_latencies = args.sweep_l2.clone();
    spec.reps = args.reps;
    spec.fast_forward = args.fast_forward;
    spec.streamed = args.stream_columns;
    spec
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
    let spec = sweep_spec_of(args);
    println!("sweep: {} -> {}", grid_shape(&spec), backend.label());
    let mut streamed = 0u64;
    let outcome = backend
        .run_streamed(&spec, &mut |_| streamed += 1)
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
/// assignment — cells per shard, each column's workload and trace digest,
/// and how far inert-axis canonicalization shrinks the shard's distinct
/// cache entries — without executing a single cell.  Exits 2 on an invalid
/// spec, exactly as `sweep submit` would before sending anything.
fn sweep_plan(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv)?;
    let spec = sweep_spec_of(&args);
    let shard_count = match (args.shards, args.workers.len()) {
        (0, 0) => 1,
        (0, w) => w,
        (s, _) => s,
    };
    let plan = plan_shards(&spec, shard_count)
        .map_err(|e| CliError::usage(format!("sweep plan: {e}")))?;
    println!(
        "plan: {} -> {} shard{}{}",
        grid_shape(&spec),
        plan.len(),
        if plan.len() == 1 { "" } else { "s" },
        if spec.streams_columns() {
            " (streamed columns)"
        } else {
            ""
        },
    );
    for shard in &plan {
        // Distinct cache keys per shard: cells whose configurations differ
        // only along axes their model never reads canonicalize to one entry.
        let mut keys: Vec<u64> = shard
            .spec
            .expand()
            .iter()
            .map(|job| {
                let digest = shard
                    .columns
                    .iter()
                    .find(|c| c.workload == job.workload)
                    .map(|c| c.trace_digest)
                    .unwrap_or(0);
                job.cache_key(digest)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let worker = if args.workers.is_empty() {
            String::new()
        } else {
            format!(
                "  -> {}",
                args.workers[shard.shard_index as usize % args.workers.len()]
            )
        };
        println!(
            "shard {}: {} cells, {} distinct cache entries (inert-axis sharing){}",
            shard.shard_index,
            shard.cell_count(),
            keys.len(),
            worker,
        );
        for col in &shard.columns {
            println!(
                "  column {:<14} trace digest {:#018x}  {}",
                col.workload,
                col.trace_digest,
                match &col.local_path {
                    Some(p) => format!("local container {p}"),
                    None => "regenerated from registry".to_string(),
                },
            );
        }
    }
    Ok(())
}

/// Runs one trace of a standard run on every selected core: refuses a
/// fast-forward that leaves nothing to time, prints the functional
/// fast-forward rate (how fast the execute-only warmup chews through the
/// leading instructions), then one row per core.
fn run_source(
    args: &Args,
    label: &str,
    source: &dyn TraceSource,
    session: &mut BenchSession,
) -> Result<(), CliError> {
    let ff = args.fast_forward;
    icfp_sim::check_timed_region(ff, source.len())
        .map_err(|e| CliError::usage(format!("{label}: {e}")))?;
    if ff > 0 {
        let t0 = std::time::Instant::now();
        let warm = icfp_sim::functional_warmup(&icfp_isa::TraceCursor::new(source), ff);
        let secs = t0.elapsed().as_secs_f64();
        let mips = if secs > 0.0 {
            warm.instructions as f64 / secs / 1.0e6
        } else {
            0.0
        };
        println!(
            "  [fast-forward] {label}: {} insts functionally in {secs:.3}s ({mips:.1} MIPS)",
            warm.instructions
        );
    }
    for &core in &args.cores {
        let run = bench_source(core, source, ff, args.reps);
        println!("  {}", run.report.summary());
        session.runs.push(run);
    }
    Ok(())
}

fn standard_run(args: &Args) -> Result<(), CliError> {
    if args.workloads.is_empty() && args.trace_files.is_empty() {
        return Err(CliError::usage(
            "nothing to run: --workload none needs a --trace-file",
        ));
    }
    let mode = if args.smoke { "smoke" } else { "full" };
    println!(
        "icfp-bench: mode={mode} insts={} reps={} seed={:#x}{}",
        args.insts,
        args.reps,
        args.seed,
        if args.fast_forward > 0 {
            format!(" fast-forward={}", args.fast_forward)
        } else {
            String::new()
        }
    );

    let mut session = BenchSession {
        mode: mode.to_string(),
        runs: Vec::new(),
    };
    for wl in &args.workloads {
        let trace = icfp_workloads::by_name_or_err(wl, args.insts, args.seed)
            .map_err(CliError::usage)?;
        run_source(args, wl, &ArenaSource::new(trace), &mut session)?;
    }
    for path in &args.trace_files {
        // Containers stream block by block: peak trace memory is the
        // reader's bounded cache, regardless of trace length.
        let file =
            TraceFile::open(path).map_err(|e| CliError::usage(format!("{path}: {e}")))?;
        println!("  [trace-file] {}", file.summary());
        run_source(args, path, &file, &mut session)?;
        // The streamed-trace memory story in one line: how many decoded
        // blocks (and bytes) were ever simultaneously resident across every
        // run above — the bound that holds however long the trace is.
        if let Some(r) = file.residency() {
            println!(
                "  [residency] {path}: peak {} resident blocks, {:.1} KiB decoded high-water",
                r.peak(),
                r.peak_bytes() as f64 / 1024.0
            );
        }
    }

    println!(
        "aggregate: {:.2} MIPS over {} runs",
        session.aggregate_mips(),
        session.runs.len()
    );
    write_out(args.out.as_deref().unwrap_or("BENCH_sim.json"), &session.to_json())
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

/// `--figures PATH`: render an `icfp-sweep/v2` document into speedup tables.
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
        figures(path)
    } else if args.sweep {
        let backend = LocalBackend {
            threads: args.threads,
            cache_dir: args.cache_dir.as_deref().map(Into::into),
            ..LocalBackend::default()
        };
        run_sweep_on(&args, &backend)
    } else {
        standard_run(&args)
    }
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
