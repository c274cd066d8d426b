//! Distributed sweep sharding, end to end: a [`RemoteBackend`] driving real
//! `icfp-sweepd`-shaped worker processes (the same [`serve`] loop the binary
//! runs) over loopback TCP.  The contract under test is the tentpole
//! invariant: the merged report's deterministic content is digest-identical
//! to a serial in-process run of the same spec — regardless of shard count,
//! worker count, completion order, or a worker dying mid-shard and its
//! shard being reassigned — and a shard ships column trace *digests*, never
//! trace bytes, with the worker refusing any column it cannot reproduce
//! exactly.  The unit of distribution is the fork group, so a plan may hold
//! more shards than the grid has columns, and no group runs on two workers.

use icfp_isa::{TraceFileWriter, TraceFormat};
use icfp_sweep::wire::{
    base_features, Request, Response, ServeOptions, MAX_WIRE_FRAME, WIRE_VERSION,
};
use icfp_sweep::{
    plan_shards, run_sweep, serve, submit_shard, AcceptOptions, ColumnSpec, ExecBackend,
    FaultPlan, FrameAction, FrameFault, RemoteBackend, ResultCache, RetryPolicy, SweepCell,
    SweepShard, SweepSpec, SubmitOutcome, WireError,
};
use serde::frame::{read_frame, write_frame};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The PR 3 acceptance grid: 2 models × (2 slice × 1 mshr × 2 l2 = 4
/// configs) × 4 workloads = 32 cells.
fn acceptance_spec() -> SweepSpec {
    let mut s = SweepSpec::new(
        vec![icfp_core::CoreModel::Icfp, icfp_core::CoreModel::InOrder],
        icfp_workloads::STANDARD_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        600,
        0xC0DE,
    );
    s.slice_buffer_entries = vec![64, 128];
    s.l2_hit_latencies = vec![10, 20];
    s
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        retries: 2,
        base_delay_ms: 5,
        max_delay_ms: 25,
        io_timeout_ms: 30_000,
    }
}

/// One in-process worker: the exact [`serve`] loop `icfp-sweepd --worker`
/// runs, on an ephemeral loopback port, stopped via its shutdown flag.
struct Worker {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<icfp_sweep::ServeSummary>,
}

fn spawn_worker(
    cache_dir: Option<std::path::PathBuf>,
    fault: Option<Arc<FaultPlan>>,
) -> Worker {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            serve(
                listener,
                ServeOptions {
                    threads: 2,
                    cache_dir,
                    io_timeout: Some(Duration::from_secs(30)),
                    fault,
                    worker: true,
                    ..ServeOptions::default()
                },
                AcceptOptions {
                    max_inflight: 4,
                    max_submissions: None,
                    shutdown: Some(shutdown),
                },
                |_| {},
            )
        })
    };
    Worker {
        addr,
        shutdown,
        handle,
    }
}

impl Worker {
    fn stop(self) -> icfp_sweep::ServeSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("worker thread must not panic")
    }
}

/// One attempt at one shard, its streamed cells collected as a coordinator
/// would collect them.
fn submit(addr: &str, shard: &SweepShard) -> Result<(SubmitOutcome, Vec<(usize, SweepCell)>), WireError> {
    let mut cells = Vec::new();
    let mut collect = |index, _cached, cell: &SweepCell| cells.push((index, cell.clone()));
    let done = submit_shard(addr, shard, 1, Some(Duration::from_secs(30)), &mut collect)?;
    Ok((done, cells))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("icfp-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn sharded_runs_are_digest_identical_to_serial_at_every_shard_count() {
    let spec = acceptance_spec();
    let serial = run_sweep(&spec, 1).expect("serial local run");
    // Five shards outnumber the grid's four columns.
    for shards in [1, 2, 3, 5] {
        let workers: Vec<Worker> = (0..2).map(|_| spawn_worker(None, None)).collect();
        let backend = RemoteBackend {
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            shards,
            threads: 2,
            policy: fast_policy(),
        };
        let mut streamed = vec![false; spec.cell_count()];
        let outcome = backend
            .run_streamed(&spec, &mut |e| {
                assert!(!streamed[e.index], "cell {} streamed twice", e.index);
                streamed[e.index] = true;
            })
            .unwrap_or_else(|e| panic!("{shards}-shard run failed: {e}"));
        assert!(streamed.iter().all(|&s| s), "{shards} shards: every cell streams once");

        // Digest-identical to the serial run: every deterministic field of
        // every cell, in expand order.  (Host-time figures and the advisory
        // thread-count header are the only legitimate differences.)
        assert_eq!(outcome.report.digest(), serial.digest(), "{shards} shards");
        assert_eq!(outcome.report.cells.len(), serial.cells.len());
        for (a, b) in outcome.report.cells.iter().zip(&serial.cells) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.cycles, b.cycles, "{} {}", a.model, a.workload);
            assert_eq!(a.ipc, b.ipc);
            assert_eq!(a.state_digest, b.state_digest);
        }
        for w in workers {
            let summary = w.stop();
            assert_eq!(summary.failed, 0, "{shards} shards: no failed connections");
        }
    }
}

#[test]
fn a_worker_killed_mid_shard_is_reassigned_and_the_report_is_unchanged() {
    let spec = acceptance_spec();
    let serial = run_sweep(&spec, 1).expect("serial local run");

    // Worker A is armed to die mid-shard: outbound frame 3 (Hello2,
    // Accepted, cell, *cell*) is dropped and the connection severed — the
    // shape of a SIGKILL mid-stream.  The backend must retry the shard on
    // the next worker in the pool, and the half-streamed attempt must
    // contribute nothing to the merge.
    let fault = Arc::new(FaultPlan::new().with_frame_fault(FrameFault {
        frame_index: 3,
        action: FrameAction::Drop,
    }));
    let a = spawn_worker(None, Some(Arc::clone(&fault)));
    let b = spawn_worker(None, None);
    let backend = RemoteBackend {
        workers: vec![a.addr.clone(), b.addr.clone()],
        shards: 2,
        threads: 2,
        policy: fast_policy(),
    };
    let mut streamed = vec![false; spec.cell_count()];
    let outcome = backend
        .run_streamed(&spec, &mut |e| {
            assert!(!streamed[e.index], "cell {} streamed twice", e.index);
            streamed[e.index] = true;
        })
        .expect("reassignment must recover the sweep");
    assert!(fault.frame_fault_fired(), "the injected death never fired");
    assert!(streamed.iter().all(|&s| s));
    assert_eq!(outcome.report.digest(), serial.digest());

    let a_summary = a.stop();
    assert!(
        a_summary.failed >= 1,
        "worker A's severed connection ends as a typed failure: {a_summary:?}"
    );
    b.stop();
}

#[test]
fn a_restarted_workers_cache_makes_reassignment_cheap_and_identical() {
    // PR 7's crash-safe cache, composed with sharding: a worker that died
    // and came back re-serves the cells its first attempt already computed.
    let spec = acceptance_spec();
    let serial = run_sweep(&spec, 1).expect("serial local run");
    let dir_a = tmp_dir("cache-a");
    let dir_b = tmp_dir("cache-b");

    let a = spawn_worker(Some(dir_a.clone()), None);
    let b = spawn_worker(Some(dir_b.clone()), None);
    let backend = RemoteBackend {
        workers: vec![a.addr.clone(), b.addr.clone()],
        shards: 2,
        threads: 2,
        policy: fast_policy(),
    };
    let cold = backend.run(&spec).expect("cold distributed run");
    assert_eq!(cold.report.digest(), serial.digest());
    assert_eq!((cold.cache.hits, cold.cache.misses), (0, spec.cell_count() as u64));
    // No fork group ran on two workers: together the two directories hold
    // the 24 entries (6 groups a column) a local cold run stores.
    let entries = |dir| ResultCache::open(dir).expect("open").entry_count().expect("count");
    assert_eq!(entries(&dir_a) + entries(&dir_b), 24);

    // Same pool, same grid again: every cell is a cache hit on its worker,
    // and the report is still digest-identical.
    let warm = backend.run(&spec).expect("warm distributed run");
    assert_eq!(warm.cache.misses, 0, "{:?}", warm.cache);
    assert_eq!(warm.cache.hits, spec.cell_count() as u64);
    assert_eq!(warm.report.digest(), serial.digest());

    a.stop();
    b.stop();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn a_worker_refuses_a_shard_whose_column_digest_it_cannot_reproduce() {
    let spec = acceptance_spec();
    let dir = tmp_dir("tamper");
    let worker = spawn_worker(Some(dir.clone()), None);

    // Tamper the digest of the shard's *second* column.  The worker runs
    // column by column: the first column's cells stream, then it builds the
    // second, sees the mismatch, and refuses the *submission* with a typed
    // error — the connection (and the worker) stay healthy, and the refusal
    // is not retriable-forever transport noise.
    let good = plan_shards(&spec, 2).expect("plan").remove(0);
    let mut bad = good.clone();
    bad.columns[1].trace_digest ^= 1;
    let err = submit(&worker.addr, &bad).expect_err("tampered digest must be refused");
    assert!(matches!(&err, WireError::Server(message) if message.contains("digest")), "{err:?}");
    assert!(!err.is_retriable(), "a digest mismatch never heals by retrying");
    // Nothing of the refused column was cached: the directory holds the
    // shard's three groups of the first column (half of its six).
    let cache = ResultCache::open(&dir).expect("open cache");
    assert_eq!(cache.entry_count().expect("count"), 3);

    // The same refusal frame by frame: no cell of the refused column streams,
    // and the untampered shard still runs on the same connection.
    let mut stream = TcpStream::connect(&worker.addr).expect("connect");
    let mut converse = |request: Request| -> Vec<Response> {
        write_frame(&mut stream, &serde::to_bytes(&request)).expect("request");
        let mut frames: Vec<Response> = Vec::new();
        loop {
            let frame = read_frame(&mut stream, MAX_WIRE_FRAME).expect("frame").expect("open");
            frames.push(serde::from_bytes(&frame).expect("decode"));
            if !matches!(frames.last(), Some(Response::Accepted { .. } | Response::Cell { .. })) {
                return frames;
            }
        }
    };
    converse(Request::Hello2 { version: WIRE_VERSION.into(), features: base_features() });
    let frames = converse(Request::Submit { work: bad, threads: 1 });
    let streamed = |f: &Response| match f {
        Response::Cell { cell, .. } => Some(cell.workload.clone()),
        _ => None,
    };
    let cells: Vec<String> = frames.iter().filter_map(streamed).collect();
    assert_eq!(cells, vec![spec.workloads[0].clone(); 4], "{frames:?}");
    assert!(matches!(frames.last(), Some(Response::Error { .. })), "{frames:?}");
    let frames = converse(Request::Submit { work: good.clone(), threads: 1 });
    assert_eq!(frames.len(), 1 + good.cell_count() + 1, "{frames:?}");
    assert!(matches!(frames.last(), Some(Response::Done { .. })), "{frames:?}");
    drop(stream);
    worker.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_local_container_column_is_opened_validated_and_simulated() {
    // A column whose workload is NOT in the registry is named by the path
    // of its container: the worker opens the file, validates it against the
    // shipped digest, and simulates it — digests instead of trace bytes, but
    // the trace itself never crosses the wire either way.
    let dir = tmp_dir("container");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("custom.trace");
    let column = path.display().to_string();
    let trace = icfp_workloads::by_name("pointer-chase", 600, 0xBEEF).expect("trace");
    let summary = TraceFileWriter::write_trace_as(&path, &trace, 128, TraceFormat::V2)
        .expect("write container");
    assert_eq!(summary.digest, trace.digest());

    let mut spec = SweepSpec::new(
        vec![icfp_core::CoreModel::Icfp],
        vec![column.clone()],
        600,
        0xBEEF,
    );
    spec.slice_buffer_entries = vec![64, 128];
    let n = spec.cell_count();
    let shard = SweepShard {
        spec: spec.clone(),
        cells: (0..n as u64).collect(),
        columns: vec![ColumnSpec {
            workload: column.clone(),
            trace_digest: summary.digest,
        }],
    };
    // The planner derives the same shard from the spec alone.
    assert_eq!(plan_shards(&spec, 1).expect("plan"), vec![shard.clone()]);

    let worker = spawn_worker(None, None);
    let (outcome, cells) = submit(&worker.addr, &shard).expect("local-container shard served");
    assert_eq!(cells.len(), n);

    // The served cells equal a local run of the same spec (and file), as
    // streamed and as reassembled.
    let local = run_sweep(&spec, 1).expect("local run over the same container");
    assert_eq!(outcome.report.digest(), local.digest());
    for (index, cell) in &cells {
        let reference = &local.cells[*index];
        assert_eq!(cell.cycles, reference.cycles);
        assert_eq!(cell.state_digest, reference.state_digest);
    }

    // A container that doesn't match the shipped digest is refused — the
    // worker provably opened and validated the file.
    let other = icfp_workloads::by_name("branchy", 600, 0xBEEF).expect("trace");
    TraceFileWriter::write_trace_as(&path, &other, 128, TraceFormat::V2).expect("overwrite");
    let err = submit(&worker.addr, &shard).expect_err("mismatched container must be refused");
    match err {
        WireError::Server(message) => assert!(message.contains("digest"), "{message}"),
        other => panic!("expected a typed server refusal, got {other:?}"),
    }

    worker.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_advertise_the_worker_capability() {
    let worker = spawn_worker(None, None);
    // The label is advisory: a worker serves the one submission there is —
    // here a planned shard — and grants `"worker"` beside the base set.
    let spec = acceptance_spec();
    let shard = plan_shards(&spec, spec.workloads.len())
        .expect("plan")
        .remove(0);
    submit(&worker.addr, &shard).expect("a worker accepts submissions");
    let mut stream = TcpStream::connect(&worker.addr).expect("connect");
    let hello = Request::Hello2 { version: WIRE_VERSION.into(), features: base_features() };
    write_frame(&mut stream, &serde::to_bytes(&hello)).expect("hello");
    let reply = read_frame(&mut stream, MAX_WIRE_FRAME).expect("frame").expect("open");
    let granted = [base_features(), vec!["worker".to_string()]].concat();
    let expected = Response::Hello2 { version: WIRE_VERSION.into(), features: granted };
    assert_eq!(serde::from_bytes::<Response>(&reply).expect("decode"), expected);
    drop(stream);
    worker.stop();
}
