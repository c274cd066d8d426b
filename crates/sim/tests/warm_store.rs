//! The warm-state store says what it shares and when it does not: one
//! functional walk per source and depth — across models, repetitions and
//! threads — a resume for a deeper request, nothing kept of a walk that
//! failed, and reports that equal the unshared ones in every deterministic
//! field.

#[path = "common/tap.rs"]
mod tap;

use icfp_isa::{
    ArenaSource, Trace, TraceCursor, TraceFile, TraceFileWriter, TraceFormat, TraceSource,
    WarmStore,
};
use icfp_sim::{functional_warmup, CoreModel, SimConfig, SimReport, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const INSTS: usize = 4_000;
const SEED: u64 = 0x5704E;
const BLOCK: usize = 100;

fn workload() -> &'static icfp_workloads::WorkloadSpec {
    icfp_workloads::spec_by_name("dcache-thrash").expect("standard workload")
}

fn trace() -> Trace {
    workload().trace(INSTS, SEED)
}

fn container(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("icfp-warm-{}-{tag}.trace", std::process::id()));
    TraceFileWriter::write_trace_as(&path, &trace(), BLOCK, TraceFormat::V2).expect("write");
    path
}

fn store(source: &dyn TraceSource) -> &WarmStore {
    source.warm().expect("the three backings keep a store")
}

/// The state the store holds for depth `n` — an exact match shares, so the
/// walk handed in must not run.
fn held(source: &dyn TraceSource, n: usize) -> Arc<icfp_isa::ArchState> {
    store(source).state_at(n, |_| panic!("depth {n} is not the state held"))
}

/// Every deterministic field of two reports (`host_seconds`/`mips` are the
/// measurement, and the only thing sharing a walk may move).
fn assert_same(a: &SimReport, b: &SimReport, what: &str) {
    let zeroed = |r: &SimReport| icfp_sim::CellFigures { host_seconds: 0.0, mips: 0.0, ..r.figures() };
    assert_eq!(zeroed(a), zeroed(b), "{what}");
    assert_eq!(a.result, b.result, "{what}");
    assert_eq!((&a.core, &a.workload), (&b.core, &b.workload), "{what}");
}

#[test]
fn two_models_and_a_median_protocol_share_one_walk_per_source() {
    let path = container("share");
    let ff = INSTS - 900;
    let pair = [CoreModel::InOrder, CoreModel::Icfp].map(SimConfig::new);
    // Both models once, then iCFP four more times, each on `source()`.
    let reports = |source: &dyn Fn() -> Arc<dyn TraceSource>| -> Vec<SimReport> {
        pair.iter()
            .chain([&pair[1]; 4])
            .map(|c| Simulator::new(c.clone()).run_source_ff(&*source(), ff))
            .collect()
    };
    let check = |what: &str, open: &dyn Fn() -> Arc<dyn TraceSource>| {
        let shared = open();
        let got = reports(&|| Arc::clone(&shared));
        assert_eq!(store(&*shared).walks(), 1, "{what}: 2 runs + warm-up + 3 repetitions");
        // The same calls, each on a source nothing else has touched.
        for (g, w) in got.iter().zip(&reports(open)) {
            assert_same(g, w, what);
        }
    };
    check("file", &|| TraceFile::open(&path).expect("open").into());
    check("generator", &|| workload().source(INSTS, SEED, BLOCK).into());
    check("arena", &|| ArenaSource::new(trace()).into());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_deeper_request_resumes_and_a_shallower_one_is_still_correct() {
    // Counts `block()` calls by index; the store is the inner source's.
    let inner = workload().source(INSTS, SEED, BLOCK);
    let fetched: Arc<Vec<AtomicUsize>> =
        Arc::new((0..inner.block_count()).map(|_| AtomicUsize::new(0)).collect());
    let fetches = || -> Vec<usize> { fetched.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
    let counters = Arc::clone(&fetched);
    let count = move |index: usize| {
        counters[index].fetch_add(1, Ordering::Relaxed);
    };
    let source: Arc<dyn TraceSource> = Arc::new(tap::Tap { inner, on_block: count });
    let reference = workload().source(INSTS, SEED, BLOCK);

    let mut walks = 0;
    let mut forward_to = |n: usize| {
        let mut sim = Simulator::new(SimConfig::new(CoreModel::InOrder));
        sim.load(Arc::clone(&source));
        assert_eq!(sim.fast_forward(n).expect("fresh engine"), n as u64);
        walks += 1;
        assert_eq!(store(&*source).walks(), walks, "depth {n} is a new depth");
        assert_eq!(*held(&*source, n), functional_warmup(&TraceCursor::new(&reference), n), "depth {n}");
    };
    forward_to(1_000);
    let before = fetches();
    // The resume: no block below instruction 1,000 again, the rest once.
    forward_to(3_000);
    let after = fetches();
    assert_eq!(after[..1_000 / BLOCK], before[..1_000 / BLOCK]);
    assert!(after[1_000 / BLOCK..3_000 / BLOCK].iter().all(|&c| c == 1), "{after:?}");
    // A shallower depth is correct whatever the policy (it restarts).
    forward_to(2_000);
}

#[test]
fn eight_threads_on_one_depth_share_one_walk_and_one_state() {
    let path = container("threads");
    let file = TraceFile::open(&path).expect("open");
    let n = INSTS / 2;
    let start = Barrier::new(8);
    let states: Vec<Arc<icfp_isa::ArchState>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    // The store is empty, so whoever walks is handed a fresh
                    // state: the pure walk from 0 is that walk.
                    store(&file).state_at(n, |_| functional_warmup(&TraceCursor::new(&file), n))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no walk panics")).collect()
    });
    assert_eq!(store(&file).walks(), 1);
    assert!(states.iter().all(|st| Arc::ptr_eq(st, &states[0])));
    assert_eq!(states[0].instructions, n as u64);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_walk_that_meets_a_damaged_block_stores_nothing() {
    let path = container("damaged");
    let mut bytes = std::fs::read(&path).expect("read back");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write back");
    let probe = TraceFile::open(&path).expect("structure still valid");
    let bad = (0..probe.block_count())
        .find(|&k| probe.block(k).is_err())
        .expect("the flipped byte lies in a block");
    assert!(bad > 0, "the damage must not sit in the first block");

    let file = TraceFile::open(&path).expect("structure still valid");
    let past = (bad + 1) * BLOCK;
    let attempt = || {
        let run = || Simulator::new(SimConfig::new(CoreModel::Icfp)).run_source_ff(&file, past);
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the walk must not complete");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let first = attempt();
    assert!(first.contains(&format!("fetching block {bad}")), "{first}");
    // Nothing was stored: the second caller walks again and fails the same
    // way, it is not served a half-walked state.
    assert_eq!(attempt(), first);
    assert_eq!(store(&file).walks(), 2);
    // The store is still usable below the damage.
    let below = bad * BLOCK;
    let mut sim = Simulator::new(SimConfig::new(CoreModel::Icfp));
    let shared: Arc<dyn TraceSource> = Arc::new(file);
    sim.load(Arc::clone(&shared));
    assert_eq!(sim.fast_forward(below).expect("fresh engine"), below as u64);
    assert_eq!(held(&*shared, below).instructions, below as u64);
    let _ = std::fs::remove_file(&path);
}
