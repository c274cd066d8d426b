//! `icfp-bench` — measures simulation throughput (simulated MIPS) over the
//! standard synthetic workloads and writes `BENCH_sim.json`; with `--sweep`
//! it runs a multi-configuration grid through `icfp-sweep` on a thread pool
//! and writes `BENCH_sweep.json` plus an aligned IPC matrix.
//!
//! ```text
//! icfp-bench [--smoke] [--insts N] [--reps N] [--seed N]
//!            [--core NAME[,NAME...] (default: all five)] [--workload NAME[,NAME...]]
//!            [--trace-file PATH[,PATH...]] [--fast-forward N]
//!            [--out PATH] [--baseline PATH] [--max-regress-pct P]
//!            [--sweep] [--sweep-slice N[,N...]]
//!            [--sweep-mshr N[,N...]] [--sweep-l2 N[,N...]] [--threads N]
//!            [--cache-dir DIR] [--ckpt-smoke] [--figures PATH]
//! icfp-bench sweep submit (--server ADDR | --workers A,B[,..]) [--shards N]
//!            [--stream-columns] [--retries N] [--retry-base-ms MS]
//!            [--io-timeout-ms MS] [sweep flags as above]
//! icfp-bench sweep plan [--shards N] [--workers A,B] [sweep flags as above]
//! icfp-bench trace convert <in.bbp|in.trace> <out.trace>
//!            [--block-size N] [--name S] [--format v1|v2]
//! icfp-bench trace info <file.trace>
//! ```
//!
//! `--trace-file` benches an on-disk `icfp-trace/v1` or `/v2` container
//! alongside (or instead of, with `--workload none`) the synthetic workloads,
//! streaming it block by block — trace length is bounded by disk, not RAM.
//! `trace convert` imports the `icfp-bbp/v1` basic-block-profile text format
//! into a container, or re-containers an existing trace file (the input is
//! sniffed); `--format` picks the block encoding, so `convert a.trace b.trace
//! --format v2` rewrites a v1 container as compressed v2 and back.  `trace
//! info` prints and verifies one.  `--figures` renders a
//! `BENCH_sweep.json` into the paper's Figure 6/7-style speedup-over-baseline
//! tables (per-workload-class geomeans over the in-order model).
//!
//! `--fast-forward N` functionally executes the first N instructions of
//! every benched trace (architectural registers + memory only, no timing
//! model) and times the remainder from a cold microarchitectural state —
//! the standard warmup-skipping methodology.  Final architectural state and
//! state digests equal the cold full run's; cycle counts cover only the
//! timed region.  With `--sweep` the same flag applies per cell and is part
//! of each cell's fork-group and result-cache identity.
//!
//! `--smoke` selects a small instruction budget (CI-friendly, a few seconds);
//! the default "full" mode uses a larger budget for stable MIPS numbers.
//! Every cell reports the *median* host time over `--reps` repetitions
//! (default 3) after one untimed warmup.
//!
//! `--baseline` gates against a checked-in `BENCH_baseline.json`:
//! deterministic figures (per-cell instruction counts, cycle counts, state
//! digests) must match *exactly* and always fail the run on any difference;
//! the >`--max-regress-pct` aggregate-MIPS check is enforced only when the
//! host's machine class matches the one recorded in the baseline, and is
//! demoted to an advisory note otherwise (a slow runner is not a code
//! regression).
//!
//! `--ckpt-smoke` runs a save→restore→compare round-trip over every
//! (model × workload) pair and exits non-zero on any divergence.
//!
//! A sweep runs one way — spec → backend → cell stream → report — and the
//! flags only pick the backend.  `--sweep` executes on this process's thread
//! pool; `--cache-dir DIR` gives it a persistent `icfp-cache/v1` result
//! store: repeated or overlapping grids are served from disk, with reports
//! byte-identical to cold runs.  `sweep submit --server ADDR` sends the same
//! grid to a running `icfp-sweepd` over `icfp-wire/v2` instead, reassembling
//! the streamed cells into the identical report.  Every backend's failures
//! exit with the same codes: 2 invalid spec/usage, 3 connect/transport
//! failed after every retry, 4 protocol/version/digest mismatch,
//! 5 server-reported error.
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
//! trace digests, inert-axis cache sharing — without executing anything,
//! and exits 2 on an invalid spec.

use icfp_bench::{
    bench_source, gate_against_baseline, machine_class, parse_baseline, render_figures,
    sweep_det_cells, BenchSession, DetCell,
};
use icfp_isa::{ArenaSource, TraceFile, TraceFileWriter, DEFAULT_BLOCK_INSTS};
use icfp_sim::{CoreModel, SimCheckpoint, SimConfig, Simulator};
use icfp_sweep::{
    plan_shards, ExecBackend, LocalBackend, RemoteBackend, RetryPolicy, ServerBackend,
    SweepError, SweepReport, SweepSpec, WireError,
};
use icfp_workloads::TraceSink;

struct Args {
    smoke: bool,
    insts: usize,
    reps: u32,
    seed: u64,
    cores: Vec<CoreModel>,
    workloads: Vec<String>,
    trace_files: Vec<String>,
    out: Option<String>,
    baseline: Option<String>,
    max_regress_pct: f64,
    sweep: bool,
    fast_forward: usize,
    ckpt_smoke: bool,
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

fn parse_list<T: std::str::FromStr>(name: &str, v: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    v.split(',')
        .map(|s| s.trim().parse::<T>().map_err(|e| format!("{name}: {e}")))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
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
        baseline: None,
        max_regress_pct: 20.0,
        sweep: false,
        fast_forward: 0,
        ckpt_smoke: false,
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
    let mut it = argv.iter().cloned();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => a.smoke = true,
            "--sweep" => a.sweep = true,
            "--fast-forward" => {
                a.fast_forward = val("--fast-forward")?
                    .parse()
                    .map_err(|e| format!("--fast-forward: {e}"))?
            }
            "--ckpt-smoke" => a.ckpt_smoke = true,
            "--insts" => {
                a.insts = val("--insts")?
                    .parse()
                    .map_err(|e| format!("--insts: {e}"))?
            }
            "--reps" => {
                a.reps = val("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--seed" => {
                a.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--core" => {
                a.cores = val("--core")?
                    .split(',')
                    .map(|s| {
                        CoreModel::parse(s.trim()).ok_or_else(|| {
                            format!(
                                "unknown core model {s:?}; valid models: {}",
                                CoreModel::valid_names()
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--workload" => {
                let w = val("--workload")?;
                // `--workload none` benches only --trace-file containers.
                a.workloads = if w == "none" {
                    Vec::new()
                } else {
                    w.split(',').map(str::to_string).collect()
                };
            }
            "--trace-file" => {
                a.trace_files
                    .extend(val("--trace-file")?.split(',').map(str::to_string));
            }
            "--figures" => a.figures = Some(val("--figures")?),
            "--out" => a.out = Some(val("--out")?),
            "--baseline" => a.baseline = Some(val("--baseline")?),
            "--max-regress-pct" => {
                a.max_regress_pct = val("--max-regress-pct")?
                    .parse()
                    .map_err(|e| format!("--max-regress-pct: {e}"))?
            }
            "--sweep-slice" => a.sweep_slice = parse_list("--sweep-slice", &val("--sweep-slice")?)?,
            "--sweep-mshr" => a.sweep_mshr = parse_list("--sweep-mshr", &val("--sweep-mshr")?)?,
            "--sweep-l2" => a.sweep_l2 = parse_list("--sweep-l2", &val("--sweep-l2")?)?,
            "--threads" => {
                a.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--cache-dir" => a.cache_dir = Some(val("--cache-dir")?),
            "--server" => a.server = Some(val("--server")?),
            "--workers" => {
                a.workers = val("--workers")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--shards" => {
                a.shards = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--stream-columns" => a.stream_columns = true,
            "--retries" => {
                a.policy.retries = val("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--retry-base-ms" => {
                a.policy.base_delay_ms = val("--retry-base-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-base-ms: {e}"))?
            }
            "--io-timeout-ms" => {
                a.policy.io_timeout_ms = val("--io-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--io-timeout-ms: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: icfp-bench [--smoke] [--insts N] [--reps N] [--seed N] \
                     [--core NAMES (default: all five)] [--workload NAMES|none] [--trace-file PATHS] \
                     [--fast-forward N] \
                     [--out PATH] [--baseline PATH] [--max-regress-pct P] \
                     [--sweep] [--sweep-slice NS] [--sweep-mshr NS] \
                     [--sweep-l2 NS] [--threads N] [--cache-dir DIR] \
                     [--ckpt-smoke] [--figures PATH]\n\
                     \u{20}      icfp-bench sweep submit (--server ADDR | --workers A,B) \
                     [--shards N] [--stream-columns] [--retries N] \
                     [--retry-base-ms MS] [--io-timeout-ms MS] [sweep flags as above]\n\
                     \u{20}      icfp-bench sweep plan [--shards N] [--workers A,B] \
                     [sweep flags as above]\n\
                     \u{20}      sweep exit codes (any backend): 2 invalid spec/usage, \
                     3 connect/transport failed, 4 protocol/version/digest mismatch, \
                     5 server-reported error\n\
                     \u{20}      icfp-bench trace convert <in.bbp|in.trace> <out.trace> \
                     [--block-size N] [--name S] [--format v1|v2]\n\
                     \u{20}      icfp-bench trace info <file.trace>\n\
                     core models: {}\n\
                     workloads:   {}",
                    CoreModel::valid_names(),
                    icfp_workloads::STANDARD_NAMES.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
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

/// Applies the `--baseline` gate: exact deterministic figures (always
/// enforced) plus the aggregate-MIPS check (enforced only on the baseline's
/// machine class).
fn gate_on_baseline(args: &Args, cells: &[DetCell], current_mips: f64) {
    let Some(path) = &args.baseline else { return };
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("icfp-bench: reading baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline = match parse_baseline(&doc) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("icfp-bench: baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let machine = machine_class();
    let report = gate_against_baseline(cells, current_mips, &machine, &baseline, args.max_regress_pct);
    for note in &report.advisory {
        println!("baseline gate (advisory): {note}");
    }
    if report.is_ok() {
        println!(
            "baseline gate: ok — {} deterministic cells exact; MIPS {} ({current_mips:.3} vs {}, -{:.0}% allowed)",
            baseline.cells.len(),
            if report.mips_enforced { "enforced" } else { "advisory (machine class differs)" },
            baseline
                .aggregate_mips
                .map_or("n/a".to_string(), |m| format!("{m:.3}")),
            args.max_regress_pct
        );
    } else {
        for e in &report.hard_errors {
            eprintln!("icfp-bench: baseline gate: {e}");
        }
        std::process::exit(1);
    }
}

fn write_out(path: &str, doc: &str) {
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("icfp-bench: writing {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
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

/// Prints the matrix, the aggregate line, writes `BENCH_sweep.json` and
/// applies the baseline gate — everything after a sweep report exists,
/// whether it was computed locally or reassembled from a server stream.
fn finish_sweep(args: &Args, report: &SweepReport) {
    match report.render_matrix() {
        Ok(m) => print!("{m}"),
        Err(e) => {
            eprintln!("icfp-bench: {e}");
            std::process::exit(2);
        }
    }
    println!(
        "aggregate: {:.2} MIPS over {} cells  (report digest {:#018x})",
        report.aggregate_mips(),
        report.cells.len(),
        report.digest()
    );
    let out = args.out.as_deref().unwrap_or("BENCH_sweep.json");
    write_out(out, &report.to_json());
    gate_on_baseline(args, &sweep_det_cells(report), report.aggregate_mips());
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
fn wire_exit_code(e: &SweepError) -> i32 {
    match e.wire() {
        None | Some(WireError::Spec(_)) => 2,
        Some(WireError::Io(_) | WireError::Frame(_) | WireError::Disconnected) => 3,
        Some(
            WireError::Protocol(_) | WireError::Decode(_) | WireError::UnsupportedVersion { .. },
        ) => 4,
        Some(WireError::Server(_)) => 5,
    }
}

/// Where `sweep submit` sends the grid: a pool of `icfp-sweepd --worker`
/// processes (`--workers`, which wins when both are given) or one
/// `icfp-sweepd` (`--server`).  `None` when the command line names neither.
fn submit_backend(args: &Args) -> Option<Box<dyn ExecBackend>> {
    let (threads, policy) = (args.threads, args.policy);
    if !args.workers.is_empty() {
        let (workers, shards) = (args.workers.clone(), args.shards);
        return Some(Box::new(RemoteBackend { workers, shards, threads, policy }));
    }
    let addr = args.server.clone()?;
    Some(Box::new(ServerBackend { addr, threads, policy }))
}

/// Runs the sweep the command line describes on `backend` and finishes it —
/// same matrix, same `BENCH_sweep.json`, same gate, and a report
/// digest-identical to a serial local run wherever the cells ran.  Failures
/// exit with [`wire_exit_code`]'s documented codes.
fn run_sweep_on(args: &Args, backend: &dyn ExecBackend) {
    let spec = sweep_spec_of(args);
    println!(
        "sweep: {} cells ({} models x {} configs x {} workloads) -> {}",
        spec.cell_count(),
        spec.models.len(),
        spec.slice_buffer_entries.len() * spec.mshr_counts.len() * spec.l2_hit_latencies.len(),
        spec.workloads.len(),
        backend.label(),
    );
    let mut streamed = 0u64;
    let outcome = match backend.run_streamed(&spec, &mut |_| streamed += 1) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("icfp-bench: sweep: {e}");
            std::process::exit(wire_exit_code(&e));
        }
    };
    println!("streamed {streamed} cells; cache: {}", outcome.cache.summary());
    finish_sweep(args, &outcome.report);
}

/// `icfp-bench sweep plan`: dry-run the shard planner and print the
/// assignment — cells per shard, each column's workload and trace digest,
/// and how far inert-axis canonicalization shrinks the shard's distinct
/// cache entries — without executing a single cell.  Exits 2 on an invalid
/// spec, exactly as `sweep submit` would before sending anything.
fn run_sweep_plan(args: &Args) {
    let spec = sweep_spec_of(args);
    let shard_count = match (args.shards, args.workers.len()) {
        (0, 0) => 1,
        (0, w) => w,
        (s, _) => s,
    };
    let plan = match plan_shards(&spec, shard_count) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("icfp-bench: sweep plan: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "plan: {} cells ({} models x {} configs x {} workloads) -> {} shard{}{}",
        spec.cell_count(),
        spec.models.len(),
        spec.slice_buffer_entries.len() * spec.mshr_counts.len() * spec.l2_hit_latencies.len(),
        spec.workloads.len(),
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
}

/// `--ckpt-smoke`: for every (model × standard workload) pair, run the front
/// half, checkpoint through the full `icfp-ckpt/v2` byte encoding, resume,
/// and require cycles and state digest to match an uninterrupted run.  With
/// `--fast-forward N` both runs skip the first N instructions functionally
/// first, so the round-trip covers checkpoints minted after a warmup skip.
fn run_ckpt_smoke(args: &Args) {
    let ff = args.fast_forward;
    // Bound the *timed* region for CI time; fast-forwarded instructions are
    // cheap and deliberately uncapped (the CI step skips a million of them).
    let insts = ff + args.insts.saturating_sub(ff).min(5_000);
    let mut failures = 0u32;
    println!(
        "ckpt-smoke: insts={insts} seed={:#x}{}",
        args.seed,
        if ff > 0 {
            format!(" fast-forward={ff}")
        } else {
            String::new()
        }
    );
    for model in CoreModel::ALL {
        for wl in icfp_workloads::STANDARD_NAMES {
            let trace = match icfp_workloads::by_name_or_err(wl, insts, args.seed) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("icfp-bench: {e}");
                    std::process::exit(2);
                }
            };
            let config = SimConfig::new(model);
            let reference = Simulator::new(config.clone()).run_ff(&trace, ff);

            let mut sim = Simulator::new(config);
            sim.load(trace.clone());
            if ff > 0 {
                sim.fast_forward(ff).expect("fresh loaded engine seeds");
            }
            // Checkpoint from the middle of the timed region so the resume
            // carries both the seeded architectural state and live timing.
            sim.advance_to_inst(ff + (trace.len() - ff) / 2)
                .expect("trace was just loaded");
            let ckpt = sim.checkpoint().expect("mid-run checkpoint");
            let bytes = ckpt.to_bytes();
            let ckpt = SimCheckpoint::from_bytes(&bytes).expect("container round-trip");
            let mut resumed = Simulator::resume(&ckpt, trace).expect("resume");
            let report = resumed.finish_loaded();

            let ok = report.cycles == reference.cycles
                && report.state_digest == reference.state_digest;
            println!(
                "  {:<10} {:<14} {:>8} bytes  cycles {:>9}  digest {:#018x}  {}",
                model.name(),
                wl,
                bytes.len(),
                report.cycles,
                report.state_digest,
                if ok { "ok" } else { "DIVERGED" }
            );
            if !ok {
                eprintln!(
                    "icfp-bench: ckpt-smoke: {model}/{wl} diverged \
                     (cycles {} vs {}, digest {:#018x} vs {:#018x})",
                    report.cycles, reference.cycles, report.state_digest, reference.state_digest
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("ckpt-smoke: all save->restore->run round-trips bit-identical");
}

/// Prints the functional fast-forward rate over one cursor: how fast the
/// execute-only warmup chews through the leading `ff` instructions.
fn report_ff_rate(label: &str, cursor: &icfp_isa::TraceCursor<'_>, ff: usize) {
    let t0 = std::time::Instant::now();
    let warm = icfp_sim::functional_warmup(cursor, ff);
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

fn run_standard_mode(args: &Args) {
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
        let trace = match icfp_workloads::by_name_or_err(wl, args.insts, args.seed) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("icfp-bench: {e}");
                std::process::exit(2);
            }
        };
        let trace = ArenaSource::new(trace);
        if args.fast_forward > 0 {
            report_ff_rate(wl, &icfp_isa::TraceCursor::new(&trace), args.fast_forward);
        }
        for &core in &args.cores {
            let run = bench_source(core, &trace, args.fast_forward, args.reps);
            println!("  {}", run.report.summary());
            session.runs.push(run);
        }
    }
    for path in &args.trace_files {
        // Containers stream block by block: peak trace memory is the
        // reader's bounded cache, regardless of trace length.
        let file = match TraceFile::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("icfp-bench: {path}: {e}");
                std::process::exit(2);
            }
        };
        println!("  [trace-file] {}", file.summary());
        if args.fast_forward > 0 {
            report_ff_rate(path, &icfp_isa::TraceCursor::new(&file), args.fast_forward);
        }
        for &core in &args.cores {
            let run = bench_source(core, &file, args.fast_forward, args.reps);
            println!("  {}", run.report.summary());
            session.runs.push(run);
        }
        // The streamed-trace memory story in one line: how many decoded
        // blocks (and bytes) were ever simultaneously resident across every
        // run above — the bound that holds however long the trace is.
        if let Some(r) = icfp_isa::TraceSource::residency(&file) {
            println!(
                "  [residency] {path}: peak {} resident blocks, {:.1} KiB decoded high-water",
                r.peak(),
                r.peak_bytes() as f64 / 1024.0
            );
        }
    }

    let aggregate = session.aggregate_mips();
    println!("aggregate: {aggregate:.2} MIPS over {} runs", session.runs.len());
    let out = args.out.as_deref().unwrap_or("BENCH_sim.json");
    write_out(out, &session.to_json());
    gate_on_baseline(args, &session.det_cells(), aggregate);
}

/// Adapter: the converter's [`TraceSink`] over the streaming
/// `icfp-trace/v1` writer (records the first write error; checked at the
/// end so the converter body stays infallible).
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

/// `icfp-bench trace convert <in.bbp> <out.trace>` / `trace info <file>`.
fn run_trace_subcommand(argv: &[String]) {
    let fail = |msg: &str| -> ! {
        eprintln!("icfp-bench: trace: {msg}");
        std::process::exit(2);
    };
    match argv.first().map(String::as_str) {
        Some("convert") => {
            let mut block_size = DEFAULT_BLOCK_INSTS;
            let mut name: Option<String> = None;
            let mut format = icfp_isa::TraceFormat::V1;
            let mut pos: Vec<&String> = Vec::new();
            let mut it = argv[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--block-size" => match it.next().map(|v| v.parse::<usize>()) {
                        Some(Ok(n)) if n > 0 => block_size = n,
                        _ => fail("--block-size takes a positive integer"),
                    },
                    "--name" => match it.next() {
                        Some(v) => name = Some(v.clone()),
                        None => fail("--name takes a value"),
                    },
                    "--format" => match it.next().map(|v| icfp_isa::TraceFormat::parse(v)) {
                        Some(Some(f)) => format = f,
                        _ => fail("--format takes v1 or v2"),
                    },
                    _ => pos.push(a),
                }
            }
            let [input, output] = pos[..] else {
                fail("convert takes <in.bbp|in.trace> <out.trace>");
            };
            // An existing container re-containers directly (v1 <-> v2 or a
            // re-block); anything else is parsed as icfp-bbp/v1 text.
            if let Ok(src) = TraceFile::open(input) {
                let from = src.format();
                match TraceFileWriter::write_source_as(output, &src, block_size, format) {
                    Ok(s) => println!(
                        "converted {input} [{from}] -> {output} [{format}]: {} insts in {} \
                         blocks of {block_size}, digest {:#018x} ({} bytes)",
                        s.instructions, s.blocks, s.digest, s.bytes
                    ),
                    Err(e) => fail(&format!("{output}: {e}")),
                }
                return;
            }
            let text = match std::fs::read_to_string(input) {
                Ok(t) => t,
                Err(e) => fail(&format!("{input}: {e}")),
            };
            let program = match icfp_workloads::bbp::parse(&text) {
                Ok(p) => p,
                Err(e) => fail(&format!("{input}: {e}")),
            };
            // Announce the expansion before streaming it out: block×count
            // profiles can legitimately expand to billions of instructions,
            // but a *saturated* count means hostile/typo'd loop nesting.
            let expect = program.dynamic_len();
            if expect == u64::MAX {
                fail(&format!(
                    "{input}: loop counts multiply out past u64::MAX; refusing to expand"
                ));
            }
            println!(
                "expanding {expect} dynamic instructions ({} per block)",
                block_size
            );
            let stem = std::path::Path::new(input)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "converted".into());
            let trace_name = name
                .or_else(|| program.name.clone())
                .unwrap_or(stem);
            let writer =
                match TraceFileWriter::create_as(output, &trace_name, block_size, format) {
                    Ok(w) => w,
                    Err(e) => fail(&format!("{output}: {e}")),
                };
            let mut sink = FileSink {
                writer,
                error: None,
            };
            program.emit(&mut sink);
            if let Some(e) = sink.error {
                fail(&format!("{output}: {e}"));
            }
            match sink.writer.finish() {
                Ok(s) => println!(
                    "converted {input} -> {output} [{format}]: {} insts in {} blocks of \
                     {block_size}, digest {:#018x} ({} bytes)",
                    s.instructions, s.blocks, s.digest, s.bytes
                ),
                Err(e) => fail(&format!("{output}: {e}")),
            }
        }
        Some("info") => {
            let [path] = &argv[1..] else {
                fail("info takes exactly one <file.trace>");
            };
            match TraceFile::open(path) {
                Ok(f) => {
                    println!("{}", f.summary());
                    match f.verify() {
                        Ok(()) => println!("verify: every block digest and the whole-trace digest check out"),
                        Err(e) => {
                            eprintln!("icfp-bench: {path}: verify failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                Err(e) => fail(&format!("{path}: {e}")),
            }
        }
        _ => fail("usage: icfp-bench trace convert <in.bbp|in.trace> <out.trace> [--block-size N] [--name S] [--format v1|v2] | trace info <file>"),
    }
}

/// `--figures PATH`: render a sweep document into speedup tables.
fn run_figures(path: &str) {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("icfp-bench: reading {path}: {e}");
            std::process::exit(1);
        }
    };
    match parse_baseline(&doc).and_then(|d| render_figures(&d)) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("icfp-bench: --figures {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Subcommand forms: `icfp-bench trace ...` (converter / inspector) and
    // `icfp-bench sweep submit --server ADDR ...` (the icfp-sweepd client).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        run_trace_subcommand(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("sweep") {
        let verb = argv.get(1).map(String::as_str);
        if verb != Some("submit") && verb != Some("plan") {
            eprintln!(
                "icfp-bench: usage: icfp-bench sweep submit (--server ADDR | --workers A,B) \
                 [sweep flags] | sweep plan [--shards N] [sweep flags]"
            );
            std::process::exit(2);
        }
        match parse_args(&argv[2..]) {
            Ok(a) if verb == Some("plan") => run_sweep_plan(&a),
            Ok(a) => match submit_backend(&a) {
                Some(backend) => run_sweep_on(&a, &*backend),
                None => {
                    eprintln!(
                        "icfp-bench: sweep submit requires --server ADDR or --workers A,B[,..]"
                    );
                    std::process::exit(2);
                }
            },
            Err(e) => {
                eprintln!("icfp-bench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icfp-bench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.figures {
        run_figures(path);
    } else if args.ckpt_smoke {
        run_ckpt_smoke(&args);
    } else if args.sweep {
        let backend = LocalBackend {
            threads: args.threads,
            cache_dir: args.cache_dir.as_deref().map(Into::into),
            ..LocalBackend::default()
        };
        run_sweep_on(&args, &backend);
    } else {
        run_standard_mode(&args);
    }
}
