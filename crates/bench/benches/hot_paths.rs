//! Micro-benchmarks for the per-cycle hot-path structures (`cargo bench -p
//! icfp-bench`).  Uses the crate's own best-of-N timer instead of criterion
//! because the build environment is offline; the output format is one line
//! per benchmark: `name  ns/iter`.

use icfp_bench::time_ns_per_iter;
use icfp_core::slicebuf::Producer;
use icfp_core::{ChainedStoreBuffer, SliceBuffer, SliceEntry, StoreBufferKind};
use icfp_isa::{DynInst, Op, Reg};
use icfp_mem::{MemConfig, MemoryHierarchy, MshrFile, MshrRequest, StreamPrefetcher};
use icfp_pipeline::{PoisonMask, TimedRegFile};
use std::hint::black_box;

fn report(name: &str, ns: f64) {
    println!("{name:<44} {ns:>10.1} ns/iter");
}

fn bench_storebuf_drain() {
    let mut sb = ChainedStoreBuffer::new(StoreBufferKind::Chained, 128, 512);
    let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(128);
    let mut seq = 0u64;
    let ns = time_ns_per_iter(
        || {
            for k in 0..32u64 {
                let _ = sb.push(seq, 0x4000 + (k % 16) * 8, k, PoisonMask::CLEAN);
                seq += 1;
            }
            scratch.clear();
            sb.drain_completed_into(seq, &mut scratch);
            assert_eq!(scratch.len(), 32);
        },
        2_000,
        5,
    );
    report("storebuf/push32+drain_completed_into", ns);
}

fn bench_storebuf_forward() {
    let mut sb = ChainedStoreBuffer::new(StoreBufferKind::Chained, 128, 512);
    for k in 0..64u64 {
        let _ = sb.push(k, 0x4000 + k * 8, k, PoisonMask::CLEAN);
    }
    let color = sb.ssn_tail();
    let mut k = 0u64;
    let ns = time_ns_per_iter(
        || {
            let f = sb.forward(0x4000 + (k % 64) * 8, color);
            assert!(f.store.is_some());
            k += 1;
        },
        20_000,
        5,
    );
    report("storebuf/forward_hit", ns);
}

/// A full 128-entry slice buffer of `entry_of(k)` for k in 0..128.
fn filled_slicebuf(entry_of: impl Fn(usize) -> SliceEntry) -> SliceBuffer {
    let mut sb = SliceBuffer::new(128);
    for k in 0..128usize {
        sb.push(entry_of(k)).unwrap();
    }
    sb
}

/// Entry `k` with both operands captured, waiting on poison bit `bit`.
fn captured_entry(k: usize, bit: u8) -> SliceEntry {
    SliceEntry {
        trace_idx: k,
        seq_from_ckpt: k as u64,
        src1_value: Some(1),
        src2_value: None,
        src1_producer: usize::MAX,
        src2_producer: usize::MAX,
        store_color: 0,
        poison: PoisonMask::bit(bit),
        active: true,
    }
}

fn bench_slicebuf_rally_selection() {
    // Two poison layouts: interleaved (worst case for the word scan — every
    // other packed word holds a matching lane) and clustered (the common
    // case — a miss's forward slice is a contiguous run of entries, so most
    // packed words are skipped with a single compare).  Each is measured
    // against the per-entry bit-loop reference (`rally_iter`) back-to-back,
    // so the word-level speedup is read off the same process and host state.
    for (label, sb) in [
        (
            "interleaved",
            filled_slicebuf(|k| captured_entry(k, (k % 8) as u8)),
        ),
        (
            "clustered",
            filled_slicebuf(|k| captured_entry(k, (k / 16) as u8)),
        ),
    ] {
        let mut slots = Vec::with_capacity(128);
        let words = time_ns_per_iter(
            || {
                sb.rally_slots_into(PoisonMask::bit(3), &mut slots);
                assert_eq!(slots.len(), 16);
            },
            20_000,
            5,
        );
        let mut scratch = Vec::with_capacity(128);
        let bitloop = time_ns_per_iter(
            || {
                scratch.clear();
                scratch.extend(sb.rally_iter(PoisonMask::bit(3)));
                assert_eq!(scratch.len(), 16);
            },
            20_000,
            5,
        );
        report(&format!("slicebuf/rally_select_words({label})"), words);
        report(&format!("slicebuf/rally_select_bitloop({label})"), bitloop);
    }
}

fn bench_slicebuf_rally_visit() {
    // The two kernels a rally visit used to pay for, each back-to-back with
    // its replacement on a dependent-chain buffer (entry k waits on entry
    // k-1, every entry selected — the pointer-chase shape): selecting by
    // copying every entry into scratch vs selecting slots and reading one
    // field in place, and finding the producer by binary search on its trace
    // index vs following the consumer's link.
    let sb = filled_slicebuf(|k| SliceEntry {
        src1_value: None,
        src1_producer: k.checked_sub(1).unwrap_or(usize::MAX),
        ..captured_entry(k, 0)
    });
    let mut copies = Vec::with_capacity(128);
    let copying = time_ns_per_iter(
        || {
            sb.rally_select_into(PoisonMask::bit(0), &mut copies);
            let sum: usize = copies.iter().map(|(_, e)| e.trace_idx).sum();
            assert_eq!(sum, 127 * 64);
        },
        20_000,
        5,
    );
    let mut slots = Vec::with_capacity(128);
    let in_place = time_ns_per_iter(
        || {
            sb.rally_slots_into(PoisonMask::bit(0), &mut slots);
            let sum: usize = slots.iter().map(|&s| sb.entry_at(s as usize).trace_idx).sum();
            assert_eq!(sum, 127 * 64);
        },
        20_000,
        5,
    );
    report("slicebuf/rally_select128_copy_entries", copying);
    report("slicebuf/rally_select128_slots_in_place", in_place);

    let searched = time_ns_per_iter(
        || {
            let waiting = slots
                .iter()
                .filter(|&&s| sb.entry_poison(sb.entry_at(s as usize).src1_producer).is_some())
                .count();
            assert_eq!(waiting, 127);
        },
        20_000,
        5,
    );
    let linked = time_ns_per_iter(
        || {
            let waiting = slots
                .iter()
                .filter(|&&s| matches!(sb.producer(s as usize, 0), Producer::Waiting(_)))
                .count();
            assert_eq!(waiting, 127);
        },
        20_000,
        5,
    );
    report("slicebuf/producer128_entry_poison_search", searched);
    report("slicebuf/producer128_link", linked);
}

fn bench_regfile_poison_plane() {
    // The register file's poison plane: word-level "clear this returning
    // miss's bits everywhere" + "anything still poisoned?" over 64 registers
    // (the per-cycle pattern of the single-bit clearing schemes).
    let mut rf = TimedRegFile::new();
    for k in 0..16usize {
        rf.poison_write(Reg::int(2 * k), PoisonMask::bit((k % 8) as u8), k as u64);
    }
    let mut bit = 0u8;
    let ns = time_ns_per_iter(
        || {
            rf.clear_poison_bits(PoisonMask::bit(bit % 8).union(PoisonMask::bit(8 + bit % 8)));
            assert!(rf.any_poisoned() || rf.poisoned_count() == 0);
            // Re-poison so the plane never drains over the benchmark.
            rf.poison_write(Reg::int((bit % 30) as usize), PoisonMask::bit(bit % 8), bit as u64);
            bit = bit.wrapping_add(1);
        },
        20_000,
        5,
    );
    report("regfile/clear_bits+any_poisoned(64regs)", ns);

    // Whole-file poison union: the packed word reduce vs the per-register
    // bit loop it replaced, back-to-back for a host-noise-immune comparison.
    let words = time_ns_per_iter(
        || {
            assert!(rf.poison_union().is_poisoned());
        },
        50_000,
        5,
    );
    let bitloop = time_ns_per_iter(
        || {
            let union = Reg::all()
                .map(|r| rf.poison(r))
                .fold(PoisonMask::CLEAN, PoisonMask::union);
            assert!(union.is_poisoned());
        },
        50_000,
        5,
    );
    report("regfile/poison_union_words(64regs)", words);
    report("regfile/poison_union_bitloop(64regs)", bitloop);
}

fn bench_mshr_request_retire() {
    let mut f = MshrFile::new(64);
    let mut now = 0u64;
    let ns = time_ns_per_iter(
        || {
            for k in 0..32u64 {
                match f.request(0x10000 + k * 0x40, now, false) {
                    MshrRequest::Allocated(id) => f.set_completion(id, now + 10),
                    other => panic!("unexpected {other:?}"),
                }
            }
            now += 100;
            f.retire_completed(now);
            assert!(f.is_empty());
        },
        5_000,
        5,
    );
    report("mshr/request32+retire", ns);
}

fn bench_prefetch_demand_miss() {
    // Training the stream prefetcher on a demand miss: the burst handed over
    // by value, vs the shape it replaced (the same requests collected into a
    // fresh `Vec` per miss), back-to-back.
    let mut p = StreamPrefetcher::new(8, 8, 128);
    let mut addr = 0x10_0000u64;
    let mut now = 0u64;
    let by_value = time_ns_per_iter(
        || {
            let mut issued = 0usize;
            for req in p.on_demand_miss(addr, now) {
                p.record_arrival(req, now + 100);
                issued += 1;
            }
            assert_eq!(issued, 8);
            addr += 0x10_0000;
            now += 1;
        },
        20_000,
        5,
    );
    let collected = time_ns_per_iter(
        || {
            let burst: Vec<_> = p.on_demand_miss(addr, now).collect();
            for &req in &burst {
                p.record_arrival(req, now + 100);
            }
            assert_eq!(burst.len(), 8);
            addr += 0x10_0000;
            now += 1;
        },
        20_000,
        5,
    );
    report("prefetch/on_demand_miss_burst_by_value", by_value);
    report("prefetch/on_demand_miss_burst_collected", collected);
}

fn bench_hierarchy_hit_loop() {
    let mut m = MemoryHierarchy::new(MemConfig::paper_default().with_prefetch(false));
    // Warm one line.
    let warm = m.load(0x4000, 0).unwrap();
    let mut now = warm.completes_at + 1;
    let ns = time_ns_per_iter(
        || {
            let r = m.load(0x4000, now).unwrap();
            now = r.completes_at;
        },
        50_000,
        5,
    );
    report("hierarchy/l1_hit_load", ns);
}

fn bench_engine_advance() {
    // The one engine path: a whole run through the registry (`advance` to
    // completion inside `finish`).  Runahead and Multipass re-walk every
    // advance episode, ~167 visits per committed pointer-chase instruction.
    use icfp_core::CoreModel;
    let pchase = || icfp_workloads::by_name("pointer-chase", 30_000, 1).expect("standard workload");
    for (label, model, trace) in [
        ("icfp_5k_advance", CoreModel::Icfp, icfp_workloads::dcache_thrash(5_000, 256 * 1024, 1)),
        ("runahead_pchase_30k", CoreModel::Runahead, pchase()),
        ("multipass_pchase_30k", CoreModel::Multipass, pchase()),
    ] {
        let cur = icfp_isa::TraceCursor::from_trace(&trace);
        let cfg = model.default_config();
        let iters = (100_000 / trace.len()) as u32 + 2;
        let ns = time_ns_per_iter(|| assert!(model.engine(&cfg).finish(&cur).stats.cycles > 0), iters, 3);
        report(&format!("engine/{label}"), ns);
    }
}

fn bench_visit_operand_read() {
    // The operand read at the top of every first-pass visit: the iterator
    // chain over `Option<Reg>` sources the models used to fold and max over,
    // against the two direct reads `Engine::src_operands` makes.
    let mut eng = icfp_core::Engine::new(&icfp_core::CoreConfig::paper_default());
    let insts: Vec<DynInst> = (0..64usize)
        .map(|k| DynInst::alu(Op::Add, Reg::int(k % 8), Reg::int((k + 1) % 8), Reg::int((k + 3) % 8)))
        .collect();
    for k in 0..8 {
        eng.rf.write(Reg::int(k), 1, 10 * k as u64, 0);
    }
    eng.rf.poison_write(Reg::int(5), PoisonMask::bit(2), 1);
    let chain = time_ns_per_iter(
        || {
            for i in black_box(&insts) {
                let p = i.sources().map(|r| eng.rf.poison(r)).fold(PoisonMask::CLEAN, PoisonMask::union);
                black_box((i.sources().map(|r| eng.rf.ready_at(r)).max().unwrap_or(0), p));
            }
        },
        20_000,
        5,
    );
    let direct = time_ns_per_iter(
        || {
            for i in black_box(&insts) {
                black_box(eng.src_operands(i));
            }
        },
        20_000,
        5,
    );
    report("visit/two_operand_chain (x64)", chain);
    report("visit/two_operand_direct (x64)", direct);
}

fn bench_trace_decode_v1_vs_v2() {
    // Rung 4 of the raw-speed ladder: full sequential decode of the same
    // 50k-instruction container in both block encodings (fresh reader per
    // iteration so every block is a cache miss and the codec dominates).
    use icfp_isa::{TraceCursor, TraceFile, TraceFileWriter, TraceFormat};
    let trace = icfp_workloads::dcache_thrash(50_000, 256 * 1024, 1);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for (label, format) in [("v1", TraceFormat::V1), ("v2", TraceFormat::V2)] {
        let path = dir.join(format!("icfp-hotpath-decode-{pid}-{label}.trace"));
        let s = TraceFileWriter::write_trace_as(&path, &trace, 4096, format).expect("write");
        let ns = time_ns_per_iter(
            || {
                let f = TraceFile::open(&path).expect("open");
                let cur = TraceCursor::new(&f);
                let mut loads = 0usize;
                cur.for_each_block_from(0, |_, insts| {
                    loads += insts.iter().filter(|i| i.is_load()).count();
                    true
                });
                assert!(loads > 0);
            },
            20,
            3,
        );
        report(&format!("trace/decode_50k_{label}({}B)", s.bytes), ns);
        let _ = std::fs::remove_file(&path);
    }
}

fn bench_async_vs_sync_prefetch() {
    // Rung 3 of the raw-speed ladder: a full streamed simulation over the
    // same on-disk container with the background decode thread (block k+1
    // decodes while block k simulates) versus fully-inline decoding.
    use icfp_isa::{TraceFile, TraceFileWriter, TraceFormat};
    let trace = icfp_workloads::dcache_thrash(50_000, 256 * 1024, 1);
    let path = std::env::temp_dir().join(format!(
        "icfp-hotpath-prefetch-{}.trace",
        std::process::id()
    ));
    TraceFileWriter::write_trace_as(&path, &trace, 4096, TraceFormat::V2).expect("write");
    for (label, sync) in [("async", false), ("sync", true)] {
        let ns = time_ns_per_iter(
            || {
                let f = if sync {
                    TraceFile::open_sync(&path).expect("open")
                } else {
                    TraceFile::open(&path).expect("open")
                };
                let mut sim =
                    icfp_sim::Simulator::new(icfp_sim::SimConfig::new(icfp_sim::CoreModel::InOrder));
                let r = sim.run_source(&f);
                assert!(r.cycles > 0);
            },
            5,
            3,
        );
        report(&format!("trace/stream_sim_50k_{label}_prefetch"), ns);
    }
    let _ = std::fs::remove_file(&path);
}

fn bench_functional_ff_vs_timed() {
    // Rung 1 of the raw-speed ladder: chewing through the same instructions
    // with the execute-only functional model versus the full timing model.
    // The ratio is the warmup speedup `--fast-forward` buys per skipped
    // instruction.
    let trace = icfp_workloads::by_name("pointer-chase", 200_000, 1).expect("workload");
    let cur = icfp_isa::TraceCursor::from_trace(&trace);
    let n = trace.len();
    let ff = time_ns_per_iter(
        || {
            let warm = icfp_sim::functional_warmup(&cur, n);
            assert_eq!(warm.instructions, n as u64);
        },
        5,
        3,
    );
    let timed = time_ns_per_iter(
        || {
            let mut sim = icfp_sim::Simulator::new(icfp_sim::SimConfig::new(
                icfp_sim::CoreModel::Icfp,
            ));
            assert!(sim.run(&trace).cycles > 0);
        },
        2,
        3,
    );
    report(
        &format!("ff/functional_200k({:.0} MIPS)", n as f64 * 1e3 / ff),
        ff,
    );
    report(
        &format!("ff/timed_icfp_200k({:.1} MIPS)", n as f64 * 1e3 / timed),
        timed,
    );
}

fn bench_end_to_end_icfp() {
    let trace = icfp_workloads::dcache_thrash(5_000, 256 * 1024, 1);
    let ns = time_ns_per_iter(
        || {
            let mut sim = icfp_sim::Simulator::new(icfp_sim::SimConfig::default());
            let r = sim.run(&trace);
            assert!(r.cycles > 0);
        },
        3,
        3,
    );
    report("sim/icfp_dcache_thrash_5k_insts", ns);
}

fn main() {
    println!("icfp hot-path micro-benchmarks (best-of-N, self-timed)");
    bench_storebuf_drain();
    bench_storebuf_forward();
    bench_slicebuf_rally_selection();
    bench_slicebuf_rally_visit();
    bench_regfile_poison_plane();
    bench_mshr_request_retire();
    bench_prefetch_demand_miss();
    bench_hierarchy_hit_loop();
    bench_engine_advance();
    bench_visit_operand_read();
    bench_trace_decode_v1_vs_v2();
    bench_async_vs_sync_prefetch();
    bench_functional_ff_vs_timed();
    bench_end_to_end_icfp();
}
