//! The per-layer probes of the traced run.
//!
//! Every probe measures one layer *from outside*: it times calls into that
//! layer's public functions on the workload's own inputs (prefixes of its
//! traces, its grid at a reduced budget).  Where a layer only ever runs
//! nested inside an engine — the predictor, the issue schedule, the memory
//! hierarchy, the slice and store buffers — the probe replays the trace's
//! branches, memory operations and issue classes into it directly.
//!
//! Host-time figures are the median of [`SAMPLES`] batches, scaled to the
//! reference host speed by the run's yardstick; counts and simulated
//! statistics repeat exactly.  Each batch runs inside one span.

use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{empty_cache_dir, policy, Daemon, ProbeInputs, THREADS};
use icfp_bpred::{BranchPredictor, PredictorConfig};
use icfp_core::engine::run_model_cursor;
use icfp_core::{ChainedStoreBuffer, CoreModel, SliceBuffer, SliceEntry, StoreBufferKind};
use icfp_isa::{
    block_digest_of, ArchState, DynInst, Reg, Trace, TraceCursor, TraceFile, TraceFileWriter,
    TraceFormat, TraceSource,
};
use icfp_mem::{MemConfig, MemError, MemoryHierarchy};
use icfp_pipeline::{
    FetchEngine, IssueSchedule, PipelineConfig, PoisonMask, RunStats, TimedRegFile,
};
use icfp_sim::{functional_warmup, CellFigures, SimCheckpoint, SimConfig, Simulator};
use icfp_sweep::{
    column_source, merge_report, plan_shards, run_sweep_streamed, schema, submit_with, ExecBackend,
    ExecOptions, RemoteBackend, ResultCache, SweepOutcome, SweepSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Batches per timed probe; the median is reported.
const SAMPLES: usize = 3;

/// Block size of the probe's containers and streamed sources: small enough
/// that a probe-sized trace spans many blocks.
const PROBE_BLOCK_INSTS: usize = 1024;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

struct Probe<'a> {
    tr: &'a Tracer,
    /// Minimum duration of one batch.
    sample_s: f64,
    /// Reference yardstick time ÷ this host's: scales a raw time to the
    /// reference host.
    scale: f64,
    dir: PathBuf,
    out: Metrics,
}

impl Probe<'_> {
    /// Seconds per call of `op` at reference host speed.
    fn time(&self, span: &'static str, mut op: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                self.tr.span(span, &[], || {
                    let t0 = Instant::now();
                    let mut calls = 0u64;
                    loop {
                        op();
                        calls += 1;
                        let dt = t0.elapsed().as_secs_f64();
                        if dt >= self.sample_s {
                            return dt / calls as f64;
                        }
                    }
                })
            })
            .collect();
        median(&samples) * self.scale
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::def(name).is_some(),
            "undeclared metric {name}"
        );
        self.out.insert(name, value);
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

/// Runs every probe over `inputs` and returns the per-layer metrics except
/// the `harness.*` ones, which come from the body repetitions.
pub fn run(inputs: &ProbeInputs, tr: &Tracer, dir: &Path, sample_s: f64, scale: f64) -> Metrics {
    let mut p = Probe {
        tr,
        sample_s,
        scale,
        dir: dir.to_path_buf(),
        out: Metrics::new(),
    };
    let traces: Vec<&Trace> = inputs.traces.iter().map(|t| &t.trace).collect();
    let insts: f64 = traces.iter().map(|t| t.len() as f64).sum();
    let exec_s = isa(&mut p, &traces, insts);
    workloads(&mut p, inputs, insts);
    bpred_and_pipeline(&mut p, &traces, insts);
    mem(&mut p, &traces, insts);
    core(&mut p, &traces, insts, exec_s);
    slice_and_store_buffers(&mut p, &traces);
    sim(&mut p, &traces, insts);
    serde_layer(&mut p, &inputs.spec);
    sweep(&mut p, &inputs.spec);
    p.out
}

fn minst_per_s(insts: f64, secs: f64) -> f64 {
    insts / secs / 1.0e6
}

// ---------------------------------------------------------------------------
// isa
// ---------------------------------------------------------------------------

/// Returns the functional-execution seconds per pass (the ladder step iCFP's
/// per-instruction cost is later measured against).
fn isa(p: &mut Probe<'_>, traces: &[&Trace], insts: f64) -> f64 {
    let walk_s = p.time("isa.cursor_walk", || {
        for t in traces {
            let c = TraceCursor::from_trace(t);
            let mut acc = 0u64;
            for k in 0..c.len() {
                acc = acc.wrapping_add(c.get(k).pc);
            }
            black_box(acc);
        }
    });
    p.set("isa.cursor_walk_minst_s", minst_per_s(insts, walk_s));

    let digest_s = p.time("isa.block_digest_of", || {
        for t in traces {
            black_box(block_digest_of(t.as_slice()));
        }
    });
    p.set("isa.trace_digest_minst_s", minst_per_s(insts, digest_s));

    let exec_s = p.time("isa.arch_exec", || {
        for t in traces {
            let mut st = ArchState::new();
            st.exec_all(t.iter());
            black_box(st.instructions);
        }
    });
    p.set("isa.exec_mips", minst_per_s(insts, exec_s));

    // The codec, both generations, on the first trace.
    let t = traces[0];
    let n = t.len() as f64;
    for (format, encode, decode, bytes) in [
        (
            TraceFormat::V2,
            "isa.v2_encode_minst_s",
            "isa.v2_decode_minst_s",
            "isa.v2_bytes_per_inst",
        ),
        (
            TraceFormat::V1,
            "isa.v1_encode_minst_s",
            "isa.v1_decode_minst_s",
            "isa.v1_bytes_per_inst",
        ),
    ] {
        let path = p.path(&format!("probe-{format}.trace"));
        let mut size = 0u64;
        let enc_s = p.time("isa.write_trace_as", || {
            size = TraceFileWriter::write_trace_as(&path, t, PROBE_BLOCK_INSTS, format)
                .expect("writing a probe container")
                .bytes;
        });
        p.set(encode, minst_per_s(n, enc_s));
        p.set(bytes, size as f64 / n);
        let dec_s = p.time("isa.decode_blocks", || {
            // A fresh reader each time so every block is a cache miss and
            // the codec dominates; no background thread, so decode is on
            // the timed path.
            let f = TraceFile::open_sync(&path).expect("opening a probe container");
            let mut seen = 0usize;
            TraceCursor::new(&f).for_each_block_from(0, |_, block| {
                seen += block.len();
                true
            });
            assert_eq!(seen, t.len());
        });
        p.set(decode, minst_per_s(n, dec_s));
        if format == TraceFormat::V2 {
            let digest = t.digest();
            let open_s = p.time("isa.open_validated", || {
                black_box(TraceFile::open_validated(&path, digest).expect("digest matches"));
            });
            p.set("isa.open_validated_ms", open_s * 1e3);
            // Residency of a streamed timed run over the container.
            let f = TraceFile::open(&path).expect("opening a probe container");
            p.tr.span("sim.run_source", &["in-order", "file"], || {
                black_box(Simulator::new(SimConfig::new(CoreModel::InOrder)).run_source(&f));
            });
            let peak = f.residency().map_or(0, |r| r.peak());
            p.set("isa.peak_resident_blocks", peak as f64);
        }
        let _ = std::fs::remove_file(&path);
    }
    exec_s
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

fn workloads(p: &mut Probe<'_>, inputs: &ProbeInputs, insts: f64) {
    let specs: Vec<_> = inputs
        .traces
        .iter()
        .map(|t| {
            let spec = icfp_workloads::spec_by_name(t.trace.name())
                .expect("probe traces come from the registry");
            (spec, t.trace.len(), t.seed)
        })
        .collect();
    let gen_s = p.time("workloads.trace", || {
        for &(spec, n, seed) in &specs {
            black_box(spec.trace(n, seed).len());
        }
    });
    p.set("workloads.gen_minst_s", minst_per_s(insts, gen_s));

    let scan_s = p.time("workloads.source", || {
        for &(spec, n, seed) in &specs {
            black_box(spec.source(n, seed, PROBE_BLOCK_INSTS).len());
        }
    });
    p.set("workloads.source_scan_minst_s", minst_per_s(insts, scan_s));

    // Regenerating one block from its boundary snapshot.  Striding by more
    // than the source keeps resident makes every fetch a regeneration.
    let (spec, n, seed) = specs[0];
    let source = spec.source(n, seed, PROBE_BLOCK_INSTS);
    let blocks = source.block_count();
    let stride = 5.min(blocks.max(1));
    let mut at = 0usize;
    let regen_s = p.time("workloads.block_regen", || {
        for _ in 0..16 {
            black_box(source.block(at % blocks).expect("block in range").len());
            at += stride;
        }
    });
    p.set("workloads.block_regen_us", regen_s / 16.0 * 1e6);
}

// ---------------------------------------------------------------------------
// bpred, pipeline
// ---------------------------------------------------------------------------

fn bpred_and_pipeline(p: &mut Probe<'_>, traces: &[&Trace], insts: f64) {
    let branches: Vec<DynInst> = traces
        .iter()
        .flat_map(|t| t.iter().filter(|i| i.branch.is_some()).copied())
        .collect();
    let mut rate = 0.0;
    let replay_s = p.time("bpred.update", || {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
        for b in &branches {
            let info = b.branch.expect("filtered to branches");
            black_box(bp.update(b.pc, info.taken, info.target));
        }
        rate = bp.stats().mispredict_rate();
    });
    // A trace without branches has nothing to replay: report zero rather
    // than the cost of building a predictor.
    p.set(
        "bpred.replay_ns_per_branch",
        if branches.is_empty() {
            0.0
        } else {
            replay_s / branches.len() as f64 * 1e9
        },
    );
    p.set("bpred.mispredict_rate", rate);

    let frontend_s = p.time("pipeline.fetch", || {
        for t in traces {
            let mut fe = FetchEngine::new(
                &PipelineConfig::paper_default(),
                PredictorConfig::paper_default(),
            );
            let mut last = 0;
            for inst in t.iter() {
                let ready = fe.next_issue_ready();
                if fe.resolve_branch(inst) {
                    fe.redirect(ready + 1);
                }
                last = ready;
            }
            black_box(last);
        }
    });
    p.set("pipeline.frontend_ns_per_inst", frontend_s / insts * 1e9);

    let issue_s = p.time("pipeline.issue", || {
        for t in traces {
            let mut sched = IssueSchedule::paper_default();
            let mut frontier = 0;
            for inst in t.iter() {
                frontier = sched.issue(frontier, inst.class());
            }
            black_box(frontier);
        }
    });
    p.set("pipeline.issue_ns_per_inst", issue_s / insts * 1e9);

    // The register file's poison plane: poison each load's destination with
    // the bit of the miss it would wait on, clear a returning miss's bit
    // everywhere, ask whether anything is still poisoned.
    let dsts: Vec<Reg> = traces
        .iter()
        .flat_map(|t| t.iter().filter(|i| i.is_load()).filter_map(|i| i.dst))
        .take(4096)
        .collect();
    let mut rf = TimedRegFile::new();
    let plane_s = p.time("pipeline.regfile_poison", || {
        for (k, &r) in dsts.iter().enumerate() {
            let bit = (k % 8) as u8;
            rf.poison_write(r, PoisonMask::bit(bit), k as u64);
            rf.clear_poison_bits(PoisonMask::bit((bit + 3) % 8));
            black_box(rf.any_poisoned());
        }
    });
    p.set(
        "pipeline.regfile_poison_ns",
        plane_s / dsts.len().max(1) as f64 * 1e9,
    );
}

// ---------------------------------------------------------------------------
// mem
// ---------------------------------------------------------------------------

fn mem(p: &mut Probe<'_>, traces: &[&Trace], insts: f64) {
    let accesses: f64 = traces
        .iter()
        .map(|t| t.iter().filter(|i| i.is_mem()).count() as f64)
        .sum();
    let mut misses = (0u64, 0u64);
    let replay_s = p.time("mem.load_store", || {
        misses = (0, 0);
        for t in traces {
            let mut hier = MemoryHierarchy::new(MemConfig::paper_default());
            let mut now = 0u64;
            for inst in t.iter().filter(|i| i.is_mem()) {
                let addr = inst.addr.expect("memory operations carry an address");
                // The access pattern of a blocking in-order core: a load
                // holds the pipeline until its data returns, a store is
                // issued and forgotten; a full MSHR file stalls until the
                // hierarchy says to retry.
                now += 1;
                loop {
                    let r = if inst.is_load() {
                        hier.load(addr, now).map(|r| r.completes_at)
                    } else {
                        hier.store(addr, now).map(|_| now)
                    };
                    match r {
                        Ok(done) => {
                            now = now.max(done);
                            break;
                        }
                        Err(MemError::MshrFull { retry_at }) => now = retry_at.max(now + 1),
                    }
                }
            }
            black_box(now);
            misses.0 += hier.stats().l1d_misses;
            misses.1 += hier.stats().l2_misses;
        }
    });
    p.set(
        "mem.replay_ns_per_access",
        replay_s / accesses.max(1.0) * 1e9,
    );
    p.set("mem.l1d_mpki", misses.0 as f64 * 1000.0 / insts);
    p.set("mem.l2_mpki", misses.1 as f64 * 1000.0 / insts);
}

// ---------------------------------------------------------------------------
// core
// ---------------------------------------------------------------------------

fn core(p: &mut Probe<'_>, traces: &[&Trace], insts: f64, exec_s: f64) {
    let mut icfp = RunStats::default();
    let mut icfp_s = 0.0;
    for model in CoreModel::ALL {
        let cfg = model.default_config();
        let mut cycles = 0u64;
        let mut stats = RunStats::default();
        let (name, span): (&'static str, &'static str) = match model {
            CoreModel::InOrder => ("core.in-order_mips", "core.run_in-order"),
            CoreModel::Runahead => ("core.runahead_mips", "core.run_runahead"),
            CoreModel::Multipass => ("core.multipass_mips", "core.run_multipass"),
            CoreModel::Sltp => ("core.sltp_mips", "core.run_sltp"),
            CoreModel::Icfp => ("core.icfp_mips", "core.run_icfp"),
        };
        let secs = p.time(span, || {
            cycles = 0;
            stats = RunStats::default();
            for t in traces {
                let r = run_model_cursor(model, &cfg, &TraceCursor::from_trace(t));
                cycles += r.stats.cycles;
                accumulate(&mut stats, &r.stats);
            }
        });
        p.set(name, minst_per_s(insts, secs));
        match model {
            CoreModel::InOrder => {
                p.set("core.in-order_cycles", cycles as f64);
                p.set("core.in-order_ns_per_sim_cycle", secs / cycles as f64 * 1e9);
            }
            CoreModel::Icfp => {
                p.set("core.icfp_cycles", cycles as f64);
                p.set("core.icfp_ns_per_sim_cycle", secs / cycles as f64 * 1e9);
                icfp = stats;
                icfp_s = secs;
            }
            _ => {}
        }
    }
    p.set(
        "core.icfp_over_exec_ns_per_inst",
        (icfp_s - exec_s) / insts * 1e9,
    );
    p.set("core.advance_episodes", icfp.advance_episodes as f64);
    p.set("core.rally_passes", icfp.rally_passes as f64);
    p.set(
        "core.rally_per_advance_inst",
        if icfp.advance_instructions == 0 {
            0.0
        } else {
            icfp.rally_instructions as f64 / icfp.advance_instructions as f64
        },
    );
    p.set("core.sliced_instructions", icfp.sliced_instructions as f64);
    p.set("core.slice_peak", icfp.slice_peak as f64);
    p.set("core.chain_hops", icfp.chain_hops as f64);
    p.set(
        "core.resource_stall_cycles",
        icfp.resource_stall_cycles as f64,
    );
}

/// Sums the event counters of `add` into `into` (peaks take the maximum).
fn accumulate(into: &mut RunStats, add: &RunStats) {
    into.advance_instructions += add.advance_instructions;
    into.rally_instructions += add.rally_instructions;
    into.advance_episodes += add.advance_episodes;
    into.rally_passes += add.rally_passes;
    into.sliced_instructions += add.sliced_instructions;
    into.chain_hops += add.chain_hops;
    into.resource_stall_cycles += add.resource_stall_cycles;
    into.slice_peak = into.slice_peak.max(add.slice_peak);
}

/// The slice buffer and the chained store buffer, fed the trace's own loads
/// and stores: slice entries for loads (eight rotating poison bits, as eight
/// outstanding misses would leave them), stores pushed at their addresses
/// and loads probing for forwarding.
fn slice_and_store_buffers(p: &mut Probe<'_>, traces: &[&Trace]) {
    const CAPACITY: usize = 128;
    let loads: Vec<(usize, u64)> = traces
        .iter()
        .flat_map(|t| {
            t.iter()
                .enumerate()
                .filter(|(_, i)| i.is_load())
                .map(|(k, i)| (k, i.addr.unwrap_or(0)))
        })
        .take(4096)
        .collect();
    let stores: Vec<u64> = traces
        .iter()
        .flat_map(|t| t.iter().filter(|i| i.is_store()).filter_map(|i| i.addr))
        .take(4096)
        .collect();
    // Traces without stores (or loads) still exercise the structures, at the
    // other kind's addresses.
    let stores = if stores.is_empty() {
        loads.iter().map(|&(_, a)| a).collect()
    } else {
        stores
    };
    let loads = if loads.is_empty() {
        stores.iter().copied().enumerate().collect()
    } else {
        loads
    };

    let entry = |k: usize, idx: usize| SliceEntry {
        trace_idx: idx,
        seq_from_ckpt: k as u64,
        src1_value: Some(1),
        src2_value: None,
        src1_producer: usize::MAX,
        src2_producer: usize::MAX,
        store_color: 0,
        poison: PoisonMask::bit((k % 8) as u8),
        active: true,
    };
    let push_drain_s = p.time("core.slicebuf_push_retire", || {
        let mut sb = SliceBuffer::new(CAPACITY);
        for (k, &(idx, _)) in loads.iter().enumerate() {
            if sb.push(entry(k, idx)).is_err() {
                // Full: retire everything (oldest first) and reclaim, the
                // way a completed rally drains the buffer.
                let live: Vec<usize> = sb.active_entries().map(|e| e.trace_idx).collect();
                for idx in live {
                    sb.retire(idx);
                }
                sb.reclaim_head();
                sb.push(entry(k, idx)).expect("an emptied buffer has room");
            }
        }
        black_box(sb.inserted());
    });
    p.set(
        "core.slicebuf_push_drain_ns",
        push_drain_s / loads.len() as f64 * 1e9,
    );

    let mut full = SliceBuffer::new(CAPACITY);
    for (k, &(idx, _)) in loads.iter().take(CAPACITY).enumerate() {
        let _ = full.push(entry(k, idx));
    }
    let mut scratch = Vec::with_capacity(CAPACITY);
    let select_s = p.time("core.slicebuf_rally_select", || {
        for bit in 0..8u8 {
            full.rally_select_into(PoisonMask::bit(bit), &mut scratch);
            black_box(scratch.len());
        }
    });
    p.set("core.slicebuf_rally_select_ns", select_s / 8.0 * 1e9);

    let mut sb = ChainedStoreBuffer::new(StoreBufferKind::Chained, CAPACITY, 512);
    for (k, &addr) in stores.iter().take(CAPACITY / 2).enumerate() {
        let _ = sb.push(k as u64, addr, k as u64, PoisonMask::CLEAN);
    }
    let color = sb.ssn_tail();
    let forward_s = p.time("core.storebuf_forward", || {
        for &(_, addr) in &loads {
            black_box(sb.forward(addr, color).store.is_some());
        }
    });
    p.set(
        "core.storebuf_forward_ns",
        forward_s / loads.len() as f64 * 1e9,
    );

    let mut drained: Vec<(u64, u64)> = Vec::with_capacity(CAPACITY);
    let drain_s = p.time("core.storebuf_push_drain", || {
        let mut sb = ChainedStoreBuffer::new(StoreBufferKind::Chained, CAPACITY, 512);
        for (k, &addr) in stores.iter().enumerate() {
            if sb
                .push(k as u64, addr, k as u64, PoisonMask::CLEAN)
                .is_err()
            {
                drained.clear();
                sb.drain_completed_into(k as u64, &mut drained);
                let _ = sb.push(k as u64, addr, k as u64, PoisonMask::CLEAN);
            }
        }
        black_box(sb.len());
    });
    p.set(
        "core.storebuf_drain_ns",
        drain_s / stores.len() as f64 * 1e9,
    );
}

// ---------------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------------

fn sim(p: &mut Probe<'_>, traces: &[&Trace], insts: f64) {
    // The driver's cost over the bare engine, on the two models the
    // single-run workloads use.  Interleaved so both see the same host.
    let pair = [CoreModel::InOrder, CoreModel::Icfp];
    let bare_s = p.time("core.run_pair", || {
        for t in traces {
            for m in pair {
                let c = TraceCursor::from_trace(t);
                black_box(run_model_cursor(m, &m.default_config(), &c).stats.cycles);
            }
        }
    });
    let driven_s = p.time("sim.run_pair", || {
        for t in traces {
            for m in pair {
                black_box(Simulator::new(SimConfig::new(m)).run(t).cycles);
            }
        }
    });
    p.set(
        "sim.driver_overhead_pct",
        (driven_s - bare_s) / bare_s * 100.0,
    );

    let ff_s = p.time("sim.functional_warmup", || {
        for t in traces {
            let c = TraceCursor::from_trace(t);
            black_box(functional_warmup(&c, c.len()).instructions);
        }
    });
    p.set("sim.ff_mips", minst_per_s(insts, ff_s));

    // Checkpoint an iCFP run halfway through the first trace.
    let t = traces[0];
    let mut running = Simulator::new(SimConfig::new(CoreModel::Icfp));
    running.load(t.clone());
    running
        .advance_to_inst(t.len() / 2)
        .expect("a loaded simulator advances");
    let mut bytes = Vec::new();
    let save_s = p.time("sim.checkpoint", || {
        bytes = running
            .checkpoint()
            .expect("a loaded simulator checkpoints")
            .to_bytes();
    });
    p.set("sim.ckpt_save_ms", save_s * 1e3);
    p.set("sim.ckpt_bytes", bytes.len() as f64);
    let source: std::sync::Arc<dyn TraceSource> = t.clone().into();
    let resume_s = p.time("sim.resume", || {
        let ckpt = SimCheckpoint::from_bytes(&bytes).expect("the bytes just written decode");
        black_box(
            Simulator::resume(&ckpt, std::sync::Arc::clone(&source))
                .expect("resuming against the same trace")
                .is_loaded(),
        );
    });
    p.set("sim.ckpt_resume_ms", resume_s * 1e3);
}

// ---------------------------------------------------------------------------
// serde
// ---------------------------------------------------------------------------

fn serde_layer(p: &mut Probe<'_>, spec: &SweepSpec) {
    const BATCH: usize = 256;
    let figures: Vec<CellFigures> = (0..BATCH as u64)
        .map(|k| CellFigures {
            instructions: 30_000 + k,
            cycles: 1_000_000 + 977 * k,
            ipc: 0.03 + k as f64 * 1e-4,
            l1d_mpki: 147.7,
            l2_mpki: 7.6,
            host_seconds: 0.0123,
            mips: 2.4,
            state_digest: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k + 1),
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let enc_s = p.time("serde.to_bytes_figures", || {
        encoded = figures.iter().map(serde::to_bytes).collect();
    });
    p.set("serde.encode_figures_ns", enc_s / BATCH as f64 * 1e9);
    let dec_s = p.time("serde.from_bytes_figures", || {
        for b in &encoded {
            black_box(
                serde::from_bytes::<CellFigures>(b)
                    .expect("round trip")
                    .cycles,
            );
        }
    });
    p.set("serde.decode_figures_ns", dec_s / BATCH as f64 * 1e9);
    let spec_s = p.time("serde.to_bytes_spec", || {
        for _ in 0..BATCH {
            black_box(serde::to_bytes(spec).len());
        }
    });
    p.set("serde.encode_spec_ns", spec_s / BATCH as f64 * 1e9);
    // Framing only (length prefix out, length-checked read back) through
    // memory; the socket's share shows in `sweep.wire_overhead_pct`.
    let mut wire = Vec::with_capacity(BATCH * 128);
    let frame_s = p.time("serde.frame_roundtrip", || {
        wire.clear();
        for b in &encoded {
            serde::write_frame(&mut wire, b).expect("writing to memory");
        }
        let mut rest = wire.as_slice();
        while let Some(frame) =
            serde::read_frame(&mut rest, serde::MAX_FRAME_LEN).expect("frames just written")
        {
            black_box(frame.len());
        }
    });
    p.set("serde.frame_roundtrip_us", frame_s / BATCH as f64 * 1e6);
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

fn local(spec: &SweepSpec, cache: &ResultCache, on_first: &mut dyn FnMut()) -> SweepOutcome {
    let mut first = true;
    run_sweep_streamed(
        spec,
        &ExecOptions {
            threads: THREADS,
            cache: Some(cache),
            ..ExecOptions::default()
        },
        |_| {
            if std::mem::take(&mut first) {
                on_first();
            }
        },
    )
    .expect("the probe grid is a valid spec")
}

fn sweep(p: &mut Probe<'_>, spec: &SweepSpec) {
    let cells = spec.cell_count() as f64;
    let expand_s = p.time("sweep.expand", || {
        black_box(spec.expand().len());
    });
    p.set("sweep.expand_us_per_cell", expand_s / cells * 1e6);

    let jobs = spec.expand();
    let key_s = p.time("sweep.cache_key", || {
        for j in &jobs {
            black_box(j.cache_key(0xD1CE));
        }
    });
    p.set("sweep.cache_key_ns", key_s / cells * 1e9);

    let column_s = p.time("sweep.column_source", || {
        for w in &spec.workloads {
            black_box(column_source(spec, w).expect("registry workload").digest());
        }
    });
    p.set(
        "sweep.column_source_ms",
        column_s / spec.workloads.len() as f64 * 1e3,
    );

    let plan_s = p.time("sweep.plan_shards", || {
        black_box(plan_shards(spec, THREADS).expect("valid spec").len());
    });
    p.set("sweep.plan_shards_us", plan_s * 1e6);

    // Cold passes over an emptied cache, then warm passes over the cache the
    // last one filled: the counts, first-cell latency and pool efficiency.
    let cache_dir = p.path("probe-cache");
    let cache = ResultCache::open(&cache_dir).expect("cache directory");
    let mut cold_runs = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        empty_cache_dir(&cache_dir);
        cold_runs.push(p.tr.span("sweep.run_sweep_streamed", &["cold"], || {
            let t0 = Instant::now();
            let mut first_s = 0.0;
            let cold = local(spec, &cache, &mut || first_s = t0.elapsed().as_secs_f64());
            (cold, t0.elapsed().as_secs_f64(), first_s)
        }));
    }
    let cold_s = median(&cold_runs.iter().map(|r| r.1).collect::<Vec<_>>());
    let first_s = median(&cold_runs.iter().map(|r| r.2).collect::<Vec<_>>());
    // Host seconds the cells report (one per distinct simulation; cache
    // group members repeat their leader's) over what two threads had.
    let efficiency: Vec<f64> = cold_runs
        .iter()
        .map(|(cold, secs, _)| {
            let mut seen = std::collections::BTreeSet::new();
            let busy: f64 = cold
                .report
                .cells
                .iter()
                .filter(|c| seen.insert(c.host_seconds.to_bits()))
                .map(|c| c.host_seconds)
                .sum();
            busy / (THREADS as f64 * secs)
        })
        .collect();
    let (cold, _, _) = cold_runs.pop().expect("SAMPLES is not zero");
    p.set("sweep.first_cell_ms", first_s * p.scale * 1e3);
    p.set("sweep.cache_misses", cold.cache.misses as f64);
    p.set("sweep.cache_stored", cold.cache.stored as f64);
    p.set("sweep.pool_efficiency", median(&efficiency));

    let mut hits = 0;
    let warm_local_s = p.time("sweep.run_sweep_streamed", || {
        hits = local(spec, &cache, &mut || {}).cache.hits;
    });
    p.set("sweep.cache_hits", hits as f64);

    // The same warm grid through a loopback daemon.
    let policy = policy();
    let daemon = Daemon::start(THREADS, &cache_dir, false).expect("loopback daemon");
    let warm_wire_s = p.time("sweep.submit_with", || {
        let o = submit_with(&daemon.addr, spec, THREADS, &policy, |_, _, _| {})
            .expect("a loopback daemon answers");
        assert_eq!(o.misses, 0, "the probe cache is warm");
    });
    daemon.stop();
    p.set(
        "sweep.wire_overhead_pct",
        (warm_wire_s - warm_local_s) / warm_local_s * 100.0,
    );

    // Cache entry reads and writes, on entries the cold pass produced.
    let figures: Vec<CellFigures> = cold
        .report
        .cells
        .iter()
        .map(|c| CellFigures {
            instructions: c.instructions,
            cycles: c.cycles,
            ipc: c.ipc,
            l1d_mpki: c.l1d_mpki,
            l2_mpki: c.l2_mpki,
            host_seconds: c.host_seconds,
            mips: c.mips,
            state_digest: c.state_digest,
        })
        .collect();
    let scratch_dir = p.path("probe-cache-rw");
    let mut round = 0u64;
    let store_s = p.time("sweep.cache_store", || {
        let _ = std::fs::remove_dir_all(&scratch_dir);
        let scratch = ResultCache::open(&scratch_dir).expect("cache directory");
        for (k, f) in figures.iter().enumerate() {
            scratch
                .store(round << 32 | k as u64, f)
                .expect("storing into the benchmark's own directory");
        }
        round += 1;
    });
    p.set("sweep.cache_store_us", store_s / cells * 1e6);
    let scratch = ResultCache::open(&scratch_dir).expect("cache directory");
    let last_round = round - 1;
    let load_s = p.time("sweep.cache_load", || {
        for k in 0..figures.len() as u64 {
            black_box(
                scratch
                    .load(last_round << 32 | k)
                    .expect("intact entry")
                    .is_some(),
            );
        }
    });
    p.set("sweep.cache_load_us", load_s / cells * 1e6);
    let _ = std::fs::remove_dir_all(&scratch_dir);

    // The report document and the shard merge.
    let mut doc = String::new();
    let emit_s = p.time("sweep.schema_to_json", || {
        doc = schema::to_json(&cold.report);
    });
    p.set("sweep.schema_emit_us_per_cell", emit_s / cells * 1e6);
    let parse_s = p.time("sweep.schema_parse", || {
        black_box(
            schema::parse(&doc)
                .expect("the document just emitted")
                .cells
                .len(),
        );
    });
    p.set("sweep.schema_parse_us_per_cell", parse_s / cells * 1e6);
    let merge_s = p.time("sweep.merge_report", || {
        let slots = cold.report.cells.iter().cloned().map(Some).collect();
        black_box(
            merge_report(spec, 2, slots)
                .expect("every slot filled")
                .cells
                .len(),
        );
    });
    p.set("sweep.merge_us_per_cell", merge_s / cells * 1e6);

    // The cold grid again on two single-thread workers: what distribution
    // costs over the local pool's cold pass.
    let worker_dirs = [p.path("probe-worker-0"), p.path("probe-worker-1")];
    let workers: Vec<Daemon> = worker_dirs
        .iter()
        .map(|d| {
            let _ = std::fs::remove_dir_all(d);
            Daemon::start(1, d, true).expect("loopback worker")
        })
        .collect();
    let backend = RemoteBackend {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        shards: THREADS,
        threads: 1,
        policy,
    };
    let dist_runs: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            worker_dirs.iter().for_each(|d| empty_cache_dir(d));
            p.tr.span("sweep.remote_run_streamed", &["cold"], || {
                let t0 = Instant::now();
                let o = backend
                    .run(spec)
                    .expect("two loopback workers complete the grid");
                assert_eq!(o.report.digest(), cold.report.digest(), "sharded ≡ local");
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    let dist_s = median(&dist_runs);
    for w in workers {
        w.stop();
    }
    p.set(
        "sweep.dist_overhead_pct",
        (dist_s - cold_s) / cold_s * 100.0,
    );
    for d in worker_dirs.iter().chain([&cache_dir]) {
        let _ = std::fs::remove_dir_all(d);
    }
}
