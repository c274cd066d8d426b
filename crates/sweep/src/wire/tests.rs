use super::client::{client_handshake, connect_framed};
use super::protocol::{recv, recv_expected, send};
use super::*;
use crate::fault::{FaultPlan, FrameAction, FrameFault};
use crate::plan::plan_shards;
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

/// Opens a raw client connection and completes the v2 handshake.
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
    //    serve, a repeated axis value, the latter four as a whole spec and
    //    as a shard, and six hostile cell lists (column 0 of the acceptance
    //    grid: iCFP's cells 0, 4, 8, 12 stand alone, {16, 24} and {20, 28} are
    //    in-order's inert-slice pairs) — and a corrected shard and spec on the
    //    same connection still run.
    let (mut reader, mut writer) = handshaken(addr);
    let mut unknown = tiny_spec();
    unknown.workloads = vec!["no-such-workload".into()];
    let mut oversized = tiny_spec();
    oversized.mshr_counts = (1..=MAX_GRID_CELLS / 8).collect();
    let mut unallocatable = tiny_spec();
    unallocatable.slice_buffer_entries = vec![1 << 40];
    let mut repeated = tiny_spec();
    repeated.workloads.push("branchy".into());
    let whole = |spec: SweepSpec| Request::Submit { spec, threads: 1 };
    let slice = |spec: SweepSpec| {
        let (cells, columns) = (Vec::new(), Vec::new());
        let shard = crate::plan::SweepShard { shard_index: 0, spec, cells, columns };
        Request::ShardSubmit { shard, threads: 1 }
    };
    let planned = plan_shards(&tiny_spec(), 1).expect("plan").remove(0);
    let cells = |cells: &[u64], columns: usize| {
        let mut shard = crate::plan::SweepShard { cells: cells.to_vec(), ..planned.clone() };
        shard.columns.truncate(columns);
        Request::ShardSubmit { shard, threads: 1 }
    };
    let refused = [
        (whole(unknown), "no-such-workload"),
        (whole(oversized.clone()), "limit"),
        (whole(overflowing_spec()), "limit"),
        (whole(unallocatable.clone()), "slice_buffer_entries"),
        (whole(repeated.clone()), "workloads repeats branchy"),
        (slice(oversized), "limit"),
        (slice(overflowing_spec()), "limit"),
        (slice(unallocatable), "slice_buffer_entries"),
        (slice(repeated), "workloads repeats branchy"),
        (cells(&[], 4), "names no cells"),
        (cells(&[4, 0], 4), "do not ascend: 4 before 0"),
        (cells(&[0, 0], 4), "do not ascend: 0 before 0"),
        (cells(&[0, 32], 4), "cell 32 of a 32-cell grid"),
        (cells(&[0, 16], 4), "splits a fork group"),
        (cells(&[0, 1], 1), "no trace digest"),
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
    // `Accepted` states the shard's cell count, not the grid's.
    let frames = transcript(&mut reader, &mut writer, &cells(&[0, 16, 24], 1));
    assert!(matches!(frames[0], Response::Accepted { cells: 3, .. }), "{frames:?}");
    assert_eq!(frames.len(), 5, "{frames:?}");
    let good = small_spec();
    let frames = transcript(&mut reader, &mut writer, &whole(good.clone()));
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
        (4, 2, 3)
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
    assert!(events.iter().any(|e| e.contains("(2 sweeps")), "{events:?}");

    // 5. Client-side: submitting an invalid spec never touches the
    //    network.
    let mut bad = tiny_spec();
    bad.insts = 0;
    match submit("127.0.0.1:1", &bad, 1, |_, _, _| {}) {
        Err(WireError::Spec(msg)) => assert!(msg.contains("instruction budget")),
        other => panic!("expected Spec error, got {other:?}"),
    }
}

#[test]
fn version_skew_is_a_typed_refusal_in_both_directions() {
    // A v1 client against this (v2) server: the old Hello variant still
    // decodes (append-only enum encoding) and is answered with an Error
    // frame naming both versions, and a typed error server-side.
    let server = spawn_server(ServeOptions::default(), None);
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    send(
        &mut stream,
        &Request::Hello {
            version: WIRE_VERSION_V1.into(),
        },
    )
    .expect("send v1 hello");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    match recv::<Response>(&mut reader).expect("reply") {
        Some(Response::Error { message }) => {
            assert!(message.contains(WIRE_VERSION_V1), "{message}");
            assert!(message.contains(WIRE_VERSION), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    let (_, events) = server.stop();
    assert!(
        events
            .iter()
            .any(|e| e.contains("unsupported protocol version")),
        "{events:?}"
    );

    // A v2 client against a v1-style server (answers the handshake with
    // the old Hello): typed UnsupportedVersion, not retriable, never a
    // decode failure.
    let v1_hello = Response::Hello {
        version: WIRE_VERSION_V1.into(),
    };
    let (addr, v1_server) = scripted_peer(v1_hello, Vec::new());
    let err = submit(&addr, &small_spec(), 1, |_, _, _| {}).expect_err("skewed peer refused");
    assert!(!err.is_retriable(), "version skew retries cannot succeed");
    match err {
        WireError::UnsupportedVersion { ours, theirs } => {
            assert_eq!(ours, WIRE_VERSION);
            assert_eq!(theirs, WIRE_VERSION_V1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    v1_server.join().expect("v1 server thread");
}

/// Sends `request` on a handshaken connection and collects the reply up to
/// and including its closing frame.
fn transcript(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    request: &Request,
) -> Vec<Response> {
    send(writer, request).expect("request");
    let mut frames: Vec<Response> = Vec::new();
    while !matches!(frames.last(), Some(Response::Done { .. } | Response::ShardDone { .. })) {
        frames.push(recv_expected(reader).expect("frame"));
    }
    frames
}

#[test]
fn one_preparation_refuses_before_accepted_or_states_the_pool_the_report_records() {
    // One column of the acceptance grid: 4 iCFP cells stand alone, in-order's
    // two slice sizes collapse per L2 latency — 6 fork groups for 8 cells.
    let mut spec = tiny_spec();
    spec.workloads.truncate(1);
    let shard = plan_shards(&spec, 1).expect("plan").remove(0);
    let server = spawn_server(ServeOptions::default(), None);
    let (mut reader, mut writer) = handshaken(&server.addr);
    // A spec the daemon cannot prepare is refused by the *first* reply frame
    // (no Accepted precedes the Error), and the connection serves on.
    let mut unknown = spec.clone();
    unknown.workloads.push("no-such-workload".into());
    send(&mut writer, &Request::Submit { spec: unknown, threads: 1 }).expect("submit");
    match recv_expected::<Response>(&mut reader).expect("reply") {
        Response::Error { message } => assert!(message.contains("no-such-workload"), "{message}"),
        other => panic!("expected Error frame first, got {other:?}"),
    }
    for (requested, pool) in [(2, 2), (64, 6)] {
        assert_eq!(run_sweep(&spec, requested).expect("local run").threads, pool);
        for request in [
            Request::Submit { spec: spec.clone(), threads: requested as u64 },
            Request::ShardSubmit { shard: shard.clone(), threads: requested as u64 },
        ] {
            let frames = transcript(&mut reader, &mut writer, &request);
            let accepted = Response::Accepted { cells: 8, threads: pool as u64 };
            assert_eq!(frames[0], accepted, "{requested} threads requested");
        }
    }
    drop((reader, writer));
    let (summary, _) = server.stop();
    assert_eq!((summary.submissions, summary.failed), (4, 0));
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

/// The same frame in the other request kind's variant.
fn other_kind(frame: &Response) -> Response {
    match frame.clone() {
        Response::Cell { index, cached, cell } => Response::ShardCell { index, cached, cell },
        Response::ShardCell { index, cached, cell } => Response::Cell { index, cached, cell },
        Response::Done { report_digest, hits, misses } => {
            Response::ShardDone { shard_index: 0, report_digest, hits, misses }
        }
        Response::ShardDone { report_digest, hits, misses, .. } => {
            Response::Done { report_digest, hits, misses }
        }
        other => other,
    }
}

#[test]
fn both_request_kinds_refuse_the_same_hostile_replies_as_protocol_errors() {
    // A 2-column, 4-cell grid; the shard under test is the *second* of two,
    // so its cells ([2, 3]) do not start the grid and index 0 is a real cell
    // of somebody else's shard.
    let mut spec = small_spec();
    spec.workloads = vec!["branchy".into(), "streaming".into()];
    let shard = plan_shards(&spec, 2).expect("plan").remove(1);
    assert_eq!(shard.cells, vec![2, 3]);
    let hello = Response::Hello2 {
        version: WIRE_VERSION.into(),
        features: base_features(),
    };
    let policy = RetryPolicy {
        retries: 0,
        ..RetryPolicy::default()
    };
    let server = spawn_server(ServeOptions::default(), None);
    for sharded in [false, true] {
        // The honest transcript, recorded from a real server: Accepted, the
        // cells, the closing frame.
        let request = if sharded {
            Request::ShardSubmit { shard: shard.clone(), threads: 1 }
        } else {
            Request::Submit { spec: spec.clone(), threads: 1 }
        };
        let (mut reader, mut writer) = handshaken(&server.addr);
        let honest = transcript(&mut reader, &mut writer, &request);
        let (first, last) = (honest[1].clone(), honest[honest.len() - 1].clone());
        let closing = |tamper: fn(&mut u64, &mut u64)| match last.clone() {
            Response::ShardDone { mut shard_index, mut report_digest, hits, misses } => {
                tamper(&mut shard_index, &mut report_digest);
                Response::ShardDone { shard_index, report_digest, hits, misses }
            }
            Response::Done { mut report_digest, hits, misses } => {
                tamper(&mut 0, &mut report_digest);
                Response::Done { report_digest, hits, misses }
            }
            other => other,
        };
        let mut foreign = first.clone();
        if let Response::Cell { index, .. } | Response::ShardCell { index, .. } = &mut foreign {
            *index = if sharded { 0 } else { 4 };
        }
        let (body, end) = (&honest[1..honest.len() - 1], &honest[honest.len() - 1..]);
        let wrong_digest = closing(|_, digest| *digest ^= 1);
        let mut hostile = vec![
            ("wrong Accepted count", vec![Response::Accepted { cells: 9, threads: 1 }]),
            ("index out of range / another shard's cell", vec![honest[0].clone(), foreign]),
            ("a cell streamed twice", vec![honest[0].clone(), first.clone(), first.clone()]),
            ("closing frame before the last cell", [&honest[..2], end].concat()),
            ("a digest that does not match", [&honest[..1], body, &[wrong_digest]].concat()),
            ("the other kind's cell frame", vec![honest[0].clone(), other_kind(&first)]),
            ("the other kind's closing frame", [&honest[..1], body, &[other_kind(&last)]].concat()),
        ];
        if sharded {
            let skewed = closing(|echo, _| *echo += 1);
            hostile.push(("wrong shard-index echo", [&honest[..1], body, &[skewed]].concat()));
        }
        // The honest transcript replays clean, so each case below fails for
        // the reason it names.
        hostile.push(("", honest.clone()));
        for (what, replies) in hostile {
            let (addr, peer) = scripted_peer(hello.clone(), replies);
            let outcome = if sharded {
                submit_shard(&addr, &shard, 1, policy.io_timeout()).map(|done| done.cells.len())
            } else {
                submit_with(&addr, &spec, 1, &policy, |_, _, _| {}).map(|d| d.report.cells.len())
            };
            match outcome {
                Ok(cells) => assert_eq!((what, cells), ("", honest.len() - 2)),
                Err(WireError::Protocol(_)) => assert_ne!(what, "", "honest replay refused"),
                Err(other) => panic!("{what} (sharded: {sharded}): {other:?}"),
            }
            peer.join().expect("scripted peer");
        }
    }
    server.stop();
}
