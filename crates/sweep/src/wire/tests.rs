use super::client::{client_handshake, connect_framed};
use super::protocol::{recv, recv_expected, send};
use super::*;
use crate::fault::{FaultPlan, FrameAction, FrameFault};
use crate::plan::{plan_shards, SweepShard};
use crate::report::SweepCell;
use crate::testutil::{overflowing_spec, tiny_spec};
use crate::{run_sweep, SweepSpec, MAX_GRID_CELLS};
use serde::frame::{write_frame, FrameError};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A [`serve`] loop on an ephemeral port, with its event lines collected.
struct TestServer {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(ServeSummary, Vec<String>)>,
}

/// Starts `serve()`; it returns after `max_submissions` served submissions
/// ([`TestServer::join`]) or when told to ([`TestServer::stop`]).
fn spawn_server(opts: ServeOptions, max_submissions: Option<u64>) -> TestServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = AcceptOptions {
        max_inflight: 4,
        max_submissions,
        shutdown: Some(Arc::clone(&shutdown)),
    };
    let handle = std::thread::spawn(move || {
        let events = Mutex::new(Vec::new());
        let summary = serve(listener, opts, accept, |line| {
            events.lock().expect("events lock").push(line)
        });
        (summary, events.into_inner().expect("events lock"))
    });
    TestServer {
        addr,
        shutdown,
        handle,
    }
}

impl TestServer {
    /// Waits for the submission ceiling, then the drain.
    fn join(self) -> (ServeSummary, Vec<String>) {
        self.handle.join().expect("serve must not panic")
    }

    /// Raises the shutdown flag and waits for the drain.
    fn stop(self) -> (ServeSummary, Vec<String>) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join()
    }
}

/// One attempt, no deadline games: what the tests mean by "submit".
fn submit(
    addr: &str,
    spec: &SweepSpec,
    threads: usize,
    on_cell: impl FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    let policy = RetryPolicy {
        retries: 0,
        ..RetryPolicy::default()
    };
    submit_with(addr, spec, threads, &policy, on_cell)
}

/// Opens a raw client connection and completes the handshake.
fn handshaken(addr: &str) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let (mut reader, mut writer) = connect_framed(addr, None).expect("connect");
    client_handshake(&mut reader, &mut writer).expect("handshake");
    (reader, writer)
}

#[test]
fn submitted_sweep_reassembles_byte_identical_to_a_local_run() {
    let server = spawn_server(ServeOptions::default(), Some(1));
    let spec = tiny_spec();
    let mut streamed = 0usize;
    let outcome = submit(&server.addr, &spec, 2, |_, cached, _| {
        assert!(!cached, "no cache configured");
        streamed += 1;
    })
    .expect("submit");
    assert_eq!(streamed, 32);
    assert_eq!(outcome.hits, 0);
    assert_eq!(outcome.misses, 32);

    // Digest-identical to a local run: every deterministic field agrees
    // (host-time figures are wall-clock measurements of two different
    // executions, so they are the one thing that can differ).
    let local = run_sweep(&spec, 2).expect("local run");
    assert_eq!(outcome.report.digest(), local.digest());
    assert_eq!(outcome.report.threads, local.threads);
    assert_eq!(outcome.report.workloads, local.workloads);
    for (a, b) in outcome.report.cells.iter().zip(&local.cells) {
        assert_eq!(a.model, b.model);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.state_digest, b.state_digest);
    }

    let (summary, events) = server.join();
    assert_eq!((summary.submissions, summary.failed), (1, 0));
    let closed = "connection closed (1 sweeps, 0 cache hits, 32 computed)";
    assert!(events.iter().any(|e| e == closed), "{events:?}");
}

#[test]
fn resubmission_is_served_from_the_server_cache_with_identical_report() {
    let dir = tmp_dir("cache");
    let opts = ServeOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let server = spawn_server(opts, Some(2));
    let mut spec = tiny_spec();
    spec.workloads.truncate(2);
    spec.l2_hit_latencies = vec![20];
    let n = spec.cell_count();

    let first = submit(&server.addr, &spec, 0, |_, _, _| {}).expect("first submit");
    assert_eq!(first.hits, 0);
    assert_eq!(first.misses, n as u64);
    let second =
        submit(&server.addr, &spec, 0, |_, cached, _| assert!(cached)).expect("second submit");
    assert_eq!(second.hits, n as u64, "fully served from cache");
    assert_eq!(second.misses, 0);
    assert_eq!(second.report, first.report);
    assert_eq!(second.report.to_json(), first.report.to_json());

    server.join();

    // A *local* cached run over the same cache directory replays the
    // same stored figures: byte-identical to the wire reports, document
    // included — local and server runs are interchangeable.
    let cache = crate::ResultCache::open(&dir).expect("open cache");
    let local = crate::run_sweep_streamed(
        &spec,
        &crate::ExecOptions {
            threads: 2,
            cache: Some(&cache),
            ..crate::ExecOptions::default()
        },
        |_| {},
    )
    .expect("local cached run");
    assert_eq!(local.cache.hits, n as u64);
    assert_eq!(local.report, second.report);
    assert_eq!(local.report.to_json(), second.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_and_confused_clients_get_typed_errors_not_panics() {
    use std::io::Write as _;
    let server = spawn_server(ServeOptions::default(), None);
    let addr = server.addr.as_str();

    // 1. Garbage bytes that are a valid frame but not a Request: the
    //    server answers with an Error frame, then drops the connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, b"\xFF\xFF not a request").expect("frame");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    match recv::<Response>(&mut reader).expect("error frame") {
        Some(Response::Error { message }) => {
            assert!(message.contains("bad handshake"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }

    // 2. A hostile length prefix (4 GiB frame) — rejected by the
    //    transport without allocating.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&u32::MAX.to_le_bytes()).expect("prefix");
    drop(stream);

    // 3. Wrong protocol version.
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(
        &mut stream,
        &Request::Hello {
            version: "icfp-wire/v0".into(),
        },
    )
    .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    match recv::<Response>(&mut reader).expect("reply") {
        Some(Response::Error { message }) => assert!(message.contains("icfp-wire/v0")),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // 4. An invalid submission fails the submission but not the
    //    connection — an unknown workload, a grid over the cell limit, a
    //    grid whose size overflows `usize`, a slice buffer no allocator could
    //    serve, a repeated axis value (the axes are refused before the cell
    //    list is looked at, so those four name no cells), and six hostile cell
    //    lists (column 0 of the acceptance grid: iCFP's cells 0, 4, 8, 12
    //    stand alone, {16, 24} and {20, 28} are in-order's inert-slice pairs),
    //    the last of them a digest list that covers one of the two columns
    //    touched — and corrected submissions on the same connection still run.
    let (mut reader, mut writer) = handshaken(addr);
    let mut unknown = tiny_spec();
    unknown.workloads = vec!["no-such-workload".into()];
    let mut oversized = tiny_spec();
    oversized.mshr_counts = (1..=MAX_GRID_CELLS / 8).collect();
    let mut unallocatable = tiny_spec();
    unallocatable.slice_buffer_entries = vec![1 << 40];
    let mut repeated = tiny_spec();
    repeated.workloads.push("branchy".into());
    let submit_work = |work: SweepShard| Request::Submit { work, threads: 1 };
    let axes = |spec: SweepSpec| submit_work(SweepShard { spec, cells: Vec::new(), columns: Vec::new() });
    let planned = plan_shards(&tiny_spec(), 1).expect("plan").remove(0);
    let cells = |cells: &[u64], columns: usize| {
        let mut work = SweepShard { cells: cells.to_vec(), ..planned.clone() };
        work.columns.truncate(columns);
        submit_work(work)
    };
    let refused = [
        (submit_work(SweepShard::whole(&unknown)), "no-such-workload"),
        (axes(oversized), "limit"),
        (axes(overflowing_spec()), "limit"),
        (axes(unallocatable), "slice_buffer_entries"),
        (axes(repeated), "workloads repeats branchy"),
        (cells(&[], 4), "names no cells"),
        (cells(&[4, 0], 4), "do not ascend: 4 before 0"),
        (cells(&[0, 0], 4), "do not ascend: 0 before 0"),
        (cells(&[0, 32], 4), "cell 32 of a 32-cell grid"),
        (cells(&[0, 16], 4), "splits a fork group"),
        (cells(&[0, 1], 1), "carries no trace digest for workload"),
    ];
    for (request, reason) in &refused {
        let asked = std::time::Instant::now();
        send(&mut writer, request).expect("submit bad");
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { message }) => assert!(message.contains(reason), "{message}"),
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "refusal must be immediate"
        );
    }
    // `Accepted` states the submission's cell count, not the grid's — with
    // the complete digest list (one column touched) and with none.
    for columns in [1, 0] {
        let frames = transcript(&mut reader, &mut writer, &cells(&[0, 16, 24], columns));
        assert!(matches!(frames[0], Response::Accepted { cells: 3, .. }), "{frames:?}");
        assert_eq!(frames.len(), 5, "{frames:?}");
    }
    let good = small_spec();
    let frames = transcript(&mut reader, &mut writer, &submit_work(SweepShard::whole(&good)));
    let digest = run_sweep(&good, 1).unwrap().digest();
    assert!(matches!(frames[0], Response::Accepted { cells: 2, .. }), "{frames:?}");
    assert!(matches!(frames[1..3], [Response::Cell { .. }, Response::Cell { .. }]), "{frames:?}");
    assert!(matches!(frames[3], Response::Done { report_digest, .. } if report_digest == digest));
    drop(writer);
    drop(reader);

    // Typed errors, never a panic (the join would fail), and the daemon
    // served through all of it.
    let (summary, events) = server.stop();
    assert_eq!(
        (summary.connections, summary.submissions, summary.failed),
        (4, 3, 3)
    );
    let failed_with = |what: &str| {
        events
            .iter()
            .any(|e| e.starts_with("connection failed") && e.contains(what))
    };
    assert!(failed_with("would not decode"), "{events:?}");
    assert!(
        failed_with("ceiling"),
        "hostile length is a framing error: {events:?}"
    );
    assert!(failed_with("unsupported protocol version"), "{events:?}");
    assert!(events.iter().any(|e| e.contains("(3 sweeps")), "{events:?}");

    // 5. Client-side: submitting an invalid spec never touches the
    //    network.
    let mut bad = tiny_spec();
    bad.insts = 0;
    match submit("127.0.0.1:1", &bad, 1, |_, _, _| {}) {
        Err(WireError::Spec(msg)) => assert!(msg.contains("instruction budget")),
        other => panic!("expected Spec error, got {other:?}"),
    }
}

/// The versions this protocol replaced, as their peers announce them.
const WIRE_VERSION_V2: &str = "icfp-wire/v2";
const WIRE_VERSION_V3: &str = "icfp-wire/v3";

#[test]
fn version_skew_is_a_typed_refusal_in_both_directions() {
    // An older client against this server: the v1 `Hello` and the v2 and v3
    // `Hello2` (v2 with a capability this build has never heard of) still
    // decode — the handshake variants never moved — and each is answered
    // with an Error frame naming both versions, and a typed error server-side.
    let server = spawn_server(ServeOptions::default(), None);
    let v2_features = vec!["sweep".to_string(), "a-retired-capability".to_string()];
    let old_hellos = [
        (Request::Hello { version: WIRE_VERSION_V1.into() }, WIRE_VERSION_V1),
        (Request::Hello2 { version: WIRE_VERSION_V2.into(), features: v2_features }, WIRE_VERSION_V2),
        (Request::Hello2 { version: WIRE_VERSION_V3.into(), features: base_features() }, WIRE_VERSION_V3),
    ];
    for (hello, theirs) in &old_hellos {
        let mut stream = TcpStream::connect(&server.addr).expect("connect");
        send(&mut stream, hello).expect("send old hello");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { message }) => {
                assert!(message.contains(theirs), "{message}");
                assert!(message.contains(WIRE_VERSION), "{message}");
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
    }
    let (summary, events) = server.stop();
    let skewed = |e: &&String| e.contains("unsupported protocol version");
    assert_eq!((summary.failed, events.iter().filter(skewed).count()), (3, 3), "{events:?}");

    // This client against an older server — one that answers the handshake
    // with the v1 Hello, with its own version in a Hello2, or (what a v2 or
    // v3 daemon does with a version it does not speak) with an Error frame
    // naming both: typed UnsupportedVersion naming the peer's version, not
    // retriable, never a decode failure.
    let refusal = |theirs: &str| format!("server speaks {theirs:?}, client sent {WIRE_VERSION:?}");
    let old_replies = [
        (Response::Hello { version: WIRE_VERSION_V1.into() }, WIRE_VERSION_V1),
        (Response::Hello2 { version: WIRE_VERSION_V2.into(), features: Vec::new() }, WIRE_VERSION_V2),
        (Response::Error { message: refusal(WIRE_VERSION_V2) }, WIRE_VERSION_V2),
        (Response::Hello2 { version: WIRE_VERSION_V3.into(), features: base_features() }, WIRE_VERSION_V3),
        (Response::Error { message: refusal(WIRE_VERSION_V3) }, WIRE_VERSION_V3),
    ];
    for (reply, their_version) in old_replies {
        let exact = !matches!(reply, Response::Error { .. });
        let (addr, old_server) = scripted_peer(reply, Vec::new());
        let err = submit(&addr, &small_spec(), 1, |_, _, _| {}).expect_err("skewed peer refused");
        assert!(!err.is_retriable(), "version skew retries cannot succeed");
        assert!(err.to_string().contains(WIRE_VERSION), "{err}");
        match err {
            WireError::UnsupportedVersion { ours, theirs } => {
                assert_eq!(ours, WIRE_VERSION);
                assert!(theirs.contains(their_version), "{theirs}");
                assert!(!exact || theirs == their_version, "{theirs}");
                assert!(!theirs.contains("pre-v2"), "{theirs}");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        old_server.join().expect("old server thread");
    }
}

/// Sends `request` on a handshaken connection and collects the reply up to
/// and including the frame that ends it: `Done`, or a refusal.
fn transcript(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    request: &Request,
) -> Vec<Response> {
    send(writer, request).expect("request");
    let mut frames: Vec<Response> = Vec::new();
    while !matches!(frames.last(), Some(Response::Done { .. } | Response::Error { .. })) {
        frames.push(recv_expected(reader).expect("frame"));
    }
    frames
}

#[test]
fn one_preparation_refuses_before_accepted_or_states_the_pool_the_report_records() {
    // One column of the acceptance grid: 4 iCFP cells stand alone, in-order's
    // two slice sizes collapse per L2 latency — 6 fork groups for 8 cells; the
    // first of two shards holds 3 of them, 4 cells.
    let mut spec = tiny_spec();
    spec.workloads.truncate(1);
    let half = plan_shards(&spec, 2).expect("plan").remove(0);
    assert_eq!(half.cells, vec![0, 2, 4, 6]);
    let server = spawn_server(ServeOptions::default(), None);
    let (mut reader, mut writer) = handshaken(&server.addr);
    // A spec the daemon cannot prepare is refused by the *first* reply frame
    // (no Accepted precedes the Error), and the connection serves on.
    let mut unknown = spec.clone();
    unknown.workloads.push("no-such-workload".into());
    let work = SweepShard::whole(&unknown);
    send(&mut writer, &Request::Submit { work, threads: 1 }).expect("submit");
    match recv_expected::<Response>(&mut reader).expect("reply") {
        Response::Error { message } => assert!(message.contains("no-such-workload"), "{message}"),
        other => panic!("expected Error frame first, got {other:?}"),
    }
    for (requested, pool, half_pool) in [(2, 2, 2), (64, 6, 3)] {
        assert_eq!(run_sweep(&spec, requested).expect("local run").threads, pool);
        for (work, cells, pool) in [(SweepShard::whole(&spec), 8, pool), (half.clone(), 4, half_pool)] {
            let request = Request::Submit { work, threads: requested as u64 };
            let frames = transcript(&mut reader, &mut writer, &request);
            let accepted = Response::Accepted { cells, threads: pool as u64 };
            assert_eq!(frames[0], accepted, "{requested} threads requested");
        }
    }
    drop((reader, writer));
    let (summary, _) = server.stop();
    assert_eq!((summary.submissions, summary.failed), (4, 0));
}

#[test]
fn a_whole_grid_that_carries_every_digest_is_held_to_them() {
    // The one-shard plan is the whole grid *with* a complete digest list: the
    // same request a digest-less whole spec is, checked where the other is not.
    let mut spec = small_spec();
    spec.workloads = vec!["branchy".into(), "streaming".into()];
    let whole = plan_shards(&spec, 1).expect("plan").remove(0);
    assert_eq!((&whole.cells, whole.columns.len()), (&SweepShard::whole(&spec).cells, 2));
    let server = spawn_server(ServeOptions::default(), None);
    // A wrong digest for the second column is refused when that column is
    // built: the first column's cells have streamed, none of the second's.
    let mut tampered = whole.clone();
    tampered.columns[1].trace_digest ^= 1;
    let (mut reader, mut writer) = handshaken(&server.addr);
    let frames = transcript(&mut reader, &mut writer, &Request::Submit { work: tampered, threads: 1 });
    assert_eq!(frames[0], Response::Accepted { cells: 4, threads: 1 });
    let streamed: Vec<&str> = frames[1..frames.len() - 1]
        .iter()
        .map(|f| match f {
            Response::Cell { cell, .. } => cell.workload.as_str(),
            other => panic!("expected a cell, got {other:?}"),
        })
        .collect();
    assert_eq!(streamed, ["branchy", "branchy"]);
    match frames.last() {
        Some(Response::Error { message }) => {
            assert!(message.contains("\"streaming\"") && message.contains("digest"), "{message}")
        }
        other => panic!("expected the refusal, got {other:?}"),
    }
    // The true digests pass, on the same connection, and the report is the
    // digest-less submission's.
    let frames = transcript(&mut reader, &mut writer, &Request::Submit { work: whole, threads: 1 });
    let digest = run_sweep(&spec, 1).expect("local run").digest();
    assert!(matches!(frames[5], Response::Done { report_digest, .. } if report_digest == digest));
    drop((reader, writer));
    let (summary, _) = server.stop();
    assert_eq!((summary.submissions, summary.failed), (1, 0));
}

/// A small 2-cell spec for service-level tests.
fn small_spec() -> SweepSpec {
    let mut spec = tiny_spec();
    spec.workloads.truncate(1);
    spec.slice_buffer_entries = vec![128];
    spec.l2_hit_latencies = vec![20];
    spec
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("icfp-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let policy = RetryPolicy {
        retries: 8,
        base_delay_ms: 100,
        max_delay_ms: 1_500,
        io_timeout_ms: 0,
    };
    let delays: Vec<u64> = (0..6)
        .map(|k| backoff_delay(&policy, k).as_millis() as u64)
        .collect();
    assert_eq!(delays, vec![100, 200, 400, 800, 1_500, 1_500]);
    // Pure function: same inputs, same schedule.
    assert_eq!(backoff_delay(&policy, 3), backoff_delay(&policy, 3));
    assert!(policy.io_timeout().is_none());
    assert_eq!(
        RetryPolicy::default().io_timeout(),
        Some(Duration::from_secs(30))
    );
}

#[test]
fn stalled_server_times_out_typed_and_stalled_client_is_reaped() {
    // Client side: a server that accepts and then never speaks.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let policy = RetryPolicy {
        retries: 0,
        base_delay_ms: 1,
        max_delay_ms: 1,
        io_timeout_ms: 50,
    };
    let spec = small_spec();
    match submit_with(&addr, &spec, 1, &policy, |_, _, _| {}) {
        Err(WireError::Frame(FrameError::TimedOut)) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }
    drop(hold.join());

    // Server side: a client that connects and then stalls mid-frame is
    // reaped with the same typed error — never a hung server thread.
    let server = spawn_server(
        ServeOptions {
            io_timeout: Some(Duration::from_millis(50)),
            ..ServeOptions::default()
        },
        None,
    );
    let stream = TcpStream::connect(&server.addr).expect("connect");
    // The reaper's parting Error frame orders the stop after the timeout.
    match recv::<Response>(&mut BufReader::new(stream)).expect("reply") {
        Some(Response::Error { message }) => assert!(message.contains("deadline"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    let (summary, events) = server.stop();
    assert_eq!(summary.failed, 1);
    assert!(
        events.iter().any(|e| e.contains("deadline")),
        "stalled peer is a typed timeout: {events:?}"
    );
}

#[test]
fn client_retries_through_a_server_restart_with_identical_report() {
    let dir = tmp_dir("retry-resume");
    let spec = small_spec();
    let local = run_sweep(&spec, 1).expect("local run");

    // First server: armed to drop an outbound frame mid-stream (the
    // shape of a crash), then stopped.  Its sweep still completes into
    // the shared cache.
    let fault = Arc::new(FaultPlan::new().with_frame_fault(FrameFault {
        // Frame 3 = Hello, Accepted, then mid-cell-stream.
        frame_index: 3,
        action: FrameAction::Drop,
    }));
    let first = spawn_server(
        ServeOptions {
            cache_dir: Some(dir.clone()),
            fault: Some(Arc::clone(&fault)),
            ..ServeOptions::default()
        },
        None,
    );

    // One `submit` against the faulted server fails retriably...
    let err = submit(&first.addr, &spec, 1, |_, _, _| {}).expect_err("server severed mid-stream");
    assert!(err.is_retriable(), "mid-stream sever retriable: {err}");
    assert!(fault.frame_fault_fired());
    let (summary, _) = first.stop();
    assert_eq!(
        (summary.submissions, summary.failed),
        (0, 1),
        "typed injected error"
    );

    // ...and `submit_with` against a second server — "restarted" on the
    // same cache dir — resumes: the report is byte-identical to an
    // uninterrupted local run, served from the cache the interrupted sweep
    // populated.
    let second = spawn_server(
        ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        },
        Some(1),
    );
    let policy = RetryPolicy {
        retries: 2,
        base_delay_ms: 1,
        max_delay_ms: 5,
        io_timeout_ms: 30_000,
    };
    let outcome =
        submit_with(&second.addr, &spec, 1, &policy, |_, _, _| {}).expect("resumed submit");
    assert_eq!(outcome.report.digest(), local.digest());
    assert_eq!(outcome.hits, spec.cell_count() as u64, "resumed from cache");
    assert_eq!(outcome.misses, 0);
    assert_eq!(second.join().0.failed, 0, "clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_counts_only_served_submissions_toward_the_ceiling() {
    // A connection that fails the handshake must not count toward
    // --max-conns; only completed submissions do.
    let server = spawn_server(ServeOptions::default(), Some(1));

    // Hostile connection: garbage handshake — served, rejected, not
    // counted.
    {
        use std::io::Write as _;
        let mut stream = TcpStream::connect(&server.addr).expect("connect");
        write_frame(&mut stream, b"not a request").expect("frame");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        // Wait for the Error reply so the failure is fully processed
        // before the real submission below.
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { .. }) => {}
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // A real submission reaches the ceiling and stops the server.
    let spec = small_spec();
    let outcome = submit(&server.addr, &spec, 1, |_, _, _| {}).expect("submit");
    assert_eq!(outcome.report.cells.len(), spec.cell_count());

    let (summary, _) = server.join();
    assert_eq!(summary.submissions, 1, "only the served submission counts");
    assert_eq!(summary.failed, 1, "the hostile conn is tallied as failed");
    assert_eq!(summary.connections, 2);
}

#[test]
fn cache_hit_submission_is_not_blocked_behind_an_open_connection() {
    // Thread-per-connection means a held-open connection (or a long cold
    // sweep) cannot serialize the whole service.  A sequential accept loop
    // would deadlock this test.
    let dir = tmp_dir("concurrent");
    let opts = ServeOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let server = spawn_server(opts, Some(2));

    // Occupy one connection slot: handshake, then hold the conversation
    // open without submitting.
    let hold = handshaken(&server.addr);

    // Both submissions complete while the first connection stays held.
    let spec = small_spec();
    let cold = submit(&server.addr, &spec, 1, |_, _, _| {}).expect("cold submit");
    assert_eq!(cold.misses, spec.cell_count() as u64);
    let warm = submit(&server.addr, &spec, 1, |_, _, _| {}).expect("warm submit");
    assert_eq!(warm.hits, spec.cell_count() as u64, "shared cache");
    assert_eq!(warm.report, cold.report);

    // Release the held slot so the drain can finish.
    drop(hold);
    let (summary, _) = server.join();
    assert_eq!(summary.submissions, 2);
    assert_eq!(summary.connections, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_flag_drains_and_stops_the_server() {
    let server = spawn_server(ServeOptions::default(), None);
    // Serve one real submission first.
    submit(&server.addr, &small_spec(), 1, |_, _, _| {}).expect("submit");
    // Raise the flag; the watcher wakes the accept loop and serve
    // returns after the drain.
    let (summary, _) = server.stop();
    assert_eq!(summary.submissions, 1);
    assert_eq!(summary.failed, 0);
}

/// A one-connection peer that answers the handshake with `hello`, then —
/// if the client goes on to submit — its request with `replies`, and waits
/// for the client to hang up.
fn scripted_peer(hello: Response, replies: Vec<Response>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        let _hello: Request = recv_expected(&mut reader).expect("Hello2 decodes");
        send(&mut writer, &hello).expect("hello back");
        if let Ok(Some(_request)) = recv::<Request>(&mut reader) {
            for reply in &replies {
                send(&mut writer, reply).expect("scripted reply");
            }
            let _ = recv::<Request>(&mut reader);
        }
    });
    (addr, peer)
}

#[test]
fn every_submission_size_refuses_the_same_hostile_replies_as_protocol_errors() {
    // A 2-column, 4-cell grid, submitted whole and as the *second* of two
    // shards — two fork groups whose cells ([2, 3]) do not start the grid, so
    // index 0 is a real cell of somebody else's shard.
    let mut spec = small_spec();
    spec.workloads = vec!["branchy".into(), "streaming".into()];
    let part = plan_shards(&spec, 2).expect("plan").remove(1);
    assert_eq!(part.cells, vec![2, 3]);
    let hello = Response::Hello2 {
        version: WIRE_VERSION.into(),
        features: base_features(),
    };
    let server = spawn_server(ServeOptions::default(), None);
    for (work, foreign_index) in [(SweepShard::whole(&spec), 4), (part, 0)] {
        // The honest transcript, recorded from a real server: Accepted, the
        // cells, Done.
        let (mut reader, mut writer) = handshaken(&server.addr);
        let request = Request::Submit { work: work.clone(), threads: 1 };
        let honest = transcript(&mut reader, &mut writer, &request);
        let (accepted, body, done) = (&honest[..1], &honest[1..honest.len() - 1], &honest[honest.len() - 1]);
        assert_eq!(body.len(), work.cell_count());
        let first = body[0].clone();
        let (mut foreign, mut wrong_digest) = (first.clone(), done.clone());
        if let Response::Cell { index, .. } = &mut foreign {
            *index = foreign_index;
        }
        if let Response::Done { report_digest, .. } = &mut wrong_digest {
            *report_digest ^= 1;
        }
        let hostile = [
            ("wrong Accepted count", vec![Response::Accepted { cells: 9, threads: 1 }]),
            ("an index outside the submission", [accepted, &[foreign]].concat()),
            ("an index twice", [accepted, &[first.clone(), first]].concat()),
            ("Done before every cell", [accepted, &body[..1], std::slice::from_ref(done)].concat()),
            ("a digest that does not match", [accepted, body, &[wrong_digest]].concat()),
            ("an unexpected frame", [accepted, &body[..1], std::slice::from_ref(&hello)].concat()),
            // The honest transcript replays clean, so each case above fails
            // for the reason it names.
            ("", honest.clone()),
        ];
        for (what, replies) in hostile {
            let (addr, peer) = scripted_peer(hello.clone(), replies);
            match submit_shard(&addr, &work, 1, None, &mut |_, _, _| {}) {
                Ok(done) => assert_eq!((what, done.report.cells.len()), ("", work.cell_count())),
                Err(WireError::Protocol(_)) => assert_ne!(what, "", "honest replay refused"),
                Err(other) => panic!("{what} ({} cells): {other:?}", work.cell_count()),
            }
            peer.join().expect("scripted peer");
        }
    }
    server.stop();
}
