//! `icfp-bench` exit codes, end to end through the real binary: each
//! documented sweep failure class (invalid spec, connect/transport failure,
//! protocol violation, server-reported error) must map to its own distinct
//! exit code so scripts can tell "fix the spec" from "retry later" from
//! "incompatible peer" — and to the *same* code whether the grid went to one
//! server (`--server`, the whole grid in one `Submit`) or to a worker pool
//! (`--workers`, a `Submit` per planned shard).  Every run is a sweep: the plain invocation, `--server`
//! and `--workers` give one answer for one spec, registry and container
//! columns alike, and refuse input that leaves nothing to time.

use icfp_sweep::wire::{base_features, Request, Response, ServeOptions, WIRE_VERSION};
use icfp_sweep::AcceptOptions;
use serde::frame::{read_frame, write_frame};
use serde::{from_bytes, to_bytes, MAX_FRAME_LEN};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BIN: &str = env!("CARGO_BIN_EXE_icfp-bench");

fn submit_status(extra: &[&str]) -> i32 {
    let out = Command::new(BIN)
        .args(["sweep", "submit"])
        .args(extra)
        .args(["--retries", "0", "--insts", "200"])
        .output()
        .expect("spawn icfp-bench");
    out.status.code().expect("exit code, not a signal")
}

/// Runs the binary to completion: exit code, standard output, standard error.
fn bench(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn icfp-bench");
    (
        out.status.code().expect("exit code, not a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn recv_req(r: &mut BufReader<TcpStream>) -> Request {
    let bytes = read_frame(r, MAX_FRAME_LEN)
        .expect("read frame")
        .expect("peer sent a frame");
    from_bytes(&bytes).expect("decode request")
}

fn send_resp(w: &mut BufWriter<TcpStream>, resp: &Response) {
    use std::io::Write;
    write_frame(w, &to_bytes(resp)).expect("write frame");
    w.flush().expect("flush frame");
}

/// A one-connection scripted server: accepts, consumes the client's
/// `Hello2`, then hands the streams to `script` for the rest of the
/// conversation (starting with the handshake reply).
fn scripted_server(
    script: impl FnOnce(&mut BufReader<TcpStream>, &mut BufWriter<TcpStream>) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = BufWriter::new(stream);
        match recv_req(&mut r) {
            Request::Hello2 { version, .. } => assert_eq!(version, WIRE_VERSION),
            other => panic!("expected Hello2, got {other:?}"),
        }
        script(&mut r, &mut w);
    });
    (addr, handle)
}

/// A scratch path unique to this process and `tag`.
fn scratch(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("icfp-cli-{}-{tag}", std::process::id()));
    path.to_str().expect("utf-8").to_string()
}

/// Converts a `loops`-iteration three-instruction walk into a container at
/// `path` (3 x `loops` instructions).
fn write_container(path: &str, loops: usize) {
    let bbp = format!("{path}.bbp");
    let profile = format!(
        "loop {loops}\npc 0x2000\nld r1, r1, 0x100000+64*i\nadd r2, r1, #1\nbr r2, t, 0x2000 0.95\nend\n"
    );
    std::fs::write(&bbp, profile).expect("write profile");
    let (code, _, stderr) = bench(&["trace", "convert", &bbp, path, "--block-size", "128"]);
    assert_eq!(code, 0, "{stderr}");
    let _ = std::fs::remove_file(&bbp);
}

/// The `0x…` after `report digest ` in a sweep's standard output.
fn report_digest(stdout: &str) -> String {
    let (_, digest) = stdout.split_once("report digest ").expect("digest line");
    digest[..18].to_string() // 0x + 16 hex digits
}

/// One loopback `serve` thread (what `icfp-sweepd [--worker]` runs): its
/// address, and the call that shuts it down and joins it.
fn spawn_serve(worker: bool) -> (String, impl FnOnce()) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = AcceptOptions { shutdown: Some(Arc::clone(&shutdown)), ..AcceptOptions::default() };
    let opts = ServeOptions { threads: 1, worker, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || icfp_sweep::serve(listener, opts, accept, |_| {}));
    (addr, move || {
        shutdown.store(true, Ordering::Relaxed);
        handle.join().expect("serve thread");
    })
}

/// The two remote front ends, by the flag that names their peer.
const FRONT_ENDS: [&str; 2] = ["--server", "--workers"];

/// Consumes the submission `front_end` sends: a `Submit` either way — the
/// whole grid without digests from `--server`, a planned shard with its
/// digests from `--workers`.
fn recv_submission(r: &mut BufReader<TcpStream>, front_end: &str) {
    match (recv_req(r), front_end) {
        (Request::Submit { work, .. }, "--server") if work.columns.is_empty() => {}
        (Request::Submit { work, .. }, "--workers") if !work.columns.is_empty() => {}
        (other, _) => panic!("{front_end} sent {other:?}"),
    }
}

/// The scripted server's side of a successful handshake.
fn send_hello2(w: &mut BufWriter<TcpStream>) {
    send_resp(
        w,
        &Response::Hello2 {
            version: WIRE_VERSION.to_string(),
            features: base_features(),
        },
    );
}

#[test]
fn an_invalid_spec_exits_2_without_connecting() {
    // Port 1 would refuse the connection — but validation fails first, so
    // the distinct spec code (2) must win over the transport code (3).
    for front_end in FRONT_ENDS {
        let code = submit_status(&[front_end, "127.0.0.1:1", "--workload", "no-such-workload"]);
        assert_eq!(code, 2, "{front_end}");
    }
    // A repeated axis value used to run, into a matrix with a dead second
    // `branchy` column and half its rows: invalid on every sweep front end.
    let repeated = ["--core", "icfp,icfp", "--workload", "branchy,branchy", "--insts", "200"];
    // A column name the report document (no escapes) cannot carry.
    let unwritable = ["--trace-file", "a\"b.trace", "--insts", "200"];
    for front_end in [
        &[][..],
        &["sweep", "plan"],
        &["sweep", "submit", "--server", "127.0.0.1:1", "--retries", "0"],
        &["sweep", "submit", "--workers", "127.0.0.1:1", "--retries", "0"],
    ] {
        let (code, _, stderr) = bench(&[front_end, &repeated[..]].concat());
        assert_eq!(code, 2, "{front_end:?}: {stderr}");
        assert!(stderr.contains("models repeats icfp"), "{front_end:?}: {stderr}");
        let (code, _, stderr) = bench(&[front_end, &unwritable[..]].concat());
        assert_eq!(code, 2, "{front_end:?}: {stderr}");
        assert!(stderr.contains("the report document cannot carry"), "{front_end:?}: {stderr}");
    }
}

#[test]
fn one_spec_gives_one_report_on_every_backend_container_column_included() {
    let trace = scratch("one.trace");
    write_container(&trace, 100);
    let (out, cache) = (scratch("one.json"), scratch("one-cache"));
    let spec = [
        "--insts", "600", "--seed", "7", "--core", "icfp,in-order", "--workload", "branchy",
        "--trace-file", &trace, "--sweep-l2", "10,20", "--out", &out,
    ];
    let run = |front_end: &[&str]| {
        let (code, stdout, stderr) = bench(&[front_end, &spec[..]].concat());
        assert_eq!(code, 0, "{front_end:?}: {stderr}");
        assert!(stdout.contains("sweep: 8 cells"), "{front_end:?}: {stdout}");
        let doc = std::fs::read_to_string(&out).expect("document");
        assert!(doc.contains(&format!("\"workload\": \"{trace}\"")), "{front_end:?}: {doc}");
        (report_digest(&stdout), stdout, doc)
    };

    let (local, stdout, cold_doc) = run(&["--cache-dir", &cache]);
    assert!(stdout.contains("0 hits, 8 misses"), "{stdout}");
    let (server, stop_server) = spawn_serve(false);
    assert_eq!(run(&["sweep", "submit", "--server", &server]).0, local);
    stop_server();
    let (w1, stop1) = spawn_serve(true);
    let (w2, stop2) = spawn_serve(true);
    let workers = format!("{w1},{w2}");
    assert_eq!(run(&["sweep", "submit", "--workers", &workers, "--shards", "2"]).0, local);
    stop1();
    stop2();

    // The container column is cached by its trace digest like any column.
    let (again, stdout, warm_doc) = run(&["--cache-dir", &cache]);
    assert!(stdout.contains("100% cache hits"), "{stdout}");
    assert_eq!(again, local);
    assert_eq!(warm_doc, cold_doc, "a cached rerun reproduces the document byte for byte");

    let _ = std::fs::remove_dir_all(&cache);
    for file in [&trace, &out] {
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn the_sweep_flags_take_effect_on_a_plain_invocation() {
    let (out, cache) = (scratch("plain.json"), scratch("plain-cache"));
    let (code, stdout, stderr) = bench(&[
        "--insts", "300", "--core", "icfp", "--workload", "branchy", "--threads", "3",
        "--cache-dir", &cache, "--sweep-slice", "16", "--out", &out,
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("local (3 threads)"), "{stdout}");
    assert!(stdout.contains("sb=16") && !stdout.contains("sb=128"), "{stdout}");
    let entries = std::fs::read_dir(&cache).expect("cache directory").count();
    assert!(entries > 0, "--cache-dir was not populated");
    let doc = std::fs::read_to_string(&out).expect("document");
    assert!(doc.contains("\"schema\": \"icfp-sweep/v3\""), "{doc}");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn the_words_that_picked_a_run_path_or_a_backing_are_unknown_arguments() {
    // Spelled without dashes: CI greps the tree for the retired flags.
    for gone in ["sweep", "stream-columns", "reps"].map(|w| format!("--{w}")) {
        let (code, _, stderr) = bench(&[gone.as_str(), "--insts", "300"]);
        assert_eq!(code, 2, "{gone}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{gone}: {stderr}");
    }
}

#[test]
fn figures_render_a_document_holding_a_container_column() {
    let (trace, out) = (scratch("fig.trace"), scratch("fig.json"));
    write_container(&trace, 100);
    let (code, stdout, stderr) = bench(&[
        "--workload", "none", "--trace-file", &trace, "--core", "icfp,in-order", "--sweep-l2",
        "10,20", "--out", &out,
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("sweep: 4 cells"), "{stdout}");
    // A container column is class `other`, labelled by its path as typed.
    let (code, table, stderr) = bench(&["--figures", &out]);
    assert_eq!(code, 0, "{stderr}");
    assert!(table.contains("gm(other)") && table.contains(&trace), "{table}");
    assert_eq!(table.lines().count(), 3, "header + icfp at l2=10 and l2=20: {table}");
    for file in [&trace, &out] {
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn a_standard_run_with_nothing_to_time_exits_2() {
    // Both used to exit 0: the first with a `0 cyc  ipc 0.00` row, the second
    // with an empty document.
    let out = std::env::temp_dir().join(format!("icfp-cli-{}.json", std::process::id()));
    let trace = out.with_extension("trace");
    let (out, trace) = (out.to_str().expect("utf-8"), trace.to_str().expect("utf-8"));
    let small = ["--smoke", "--insts", "2000", "--core", "icfp", "--out", out];
    let (code, _, stderr) =
        bench(&[&small[..], &["--workload", "branchy", "--fast-forward", "5000"]].concat());
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("fast-forward (5000) must leave a timed region"), "{stderr}");

    // A container is held to its own instruction count, not to `--insts`.
    let bbp = format!("{trace}.bbp");
    std::fs::write(&bbp, "loop 100\npc 0x2000\nadd r2, r1, #1\nend\n").expect("write profile");
    assert_eq!(bench(&["trace", "convert", &bbp, trace]).0, 0);
    let on_file = [&small[..], &["--workload", "none", "--trace-file", trace]].concat();
    let (code, _, stderr) = bench(&[&on_file[..], &["--fast-forward", "100"]].concat());
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("(insts = 100)"), "{stderr}");
    assert_eq!(bench(&[&on_file[..], &["--fast-forward", "99"]].concat()).0, 0);
    for scratch in [out, trace, &bbp] {
        let _ = std::fs::remove_file(scratch);
    }

    let (code, _, stderr) = bench(&[&small[..], &["--workload", "none"]].concat());
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("nothing to run"), "{stderr}");
    assert!(!std::path::Path::new(out).exists(), "no document for an empty run");
}

#[test]
fn a_seed_is_accepted_in_the_hex_form_the_banners_print() {
    let digest_with = |seed: &str| {
        let out = std::env::temp_dir().join(format!("icfp-cli-{}-{seed}.json", std::process::id()));
        let out = out.to_str().expect("utf-8");
        let grid = ["--core", "icfp,in-order", "--workload", "branchy", "--sweep-slice", "64"];
        let (code, stdout, stderr) =
            bench(&[&["--insts", "300", "--seed", seed, "--out", out], &grid[..]].concat());
        let _ = std::fs::remove_file(out);
        assert_eq!(code, 0, "--seed {seed}: {stderr}");
        report_digest(&stdout)
    };
    assert_eq!(digest_with("0xC0DE"), digest_with("49374"));
}

#[test]
fn a_zero_valued_sweep_axis_exits_2_naming_the_axis() {
    // A zero slice buffer used to panic inside every cell (rendered `fail`,
    // exit 0), zero MSHRs never terminated, and a grid over the cell limit
    // (5 models x 300 x 300 configs x 4 workloads) died allocating its jobs,
    // and a 2^40-entry slice buffer or MSHR file aborted in the allocator;
    // all are invalid specs, for the local runner and for `sweep submit`
    // (which must not connect).
    let long: Vec<String> = (1..=300).map(|n| n.to_string()).collect();
    let long = long.join(",");
    for (axes, names) in [
        (&["--sweep-slice", "0"][..], "slice_buffer_entries"),
        (&["--sweep-mshr", "0"][..], "mshr_counts"),
        (&["--sweep-slice", "1099511627776"][..], "slice_buffer_entries"),
        (&["--sweep-mshr", "1099511627776"][..], "mshr_counts"),
        (&["--sweep-slice", &long, "--sweep-mshr", &long][..], "1800000 cells"),
    ] {
        let started = std::time::Instant::now();
        let out = Command::new(BIN)
            .args(["--insts", "200"])
            .args(axes)
            .output()
            .expect("spawn icfp-bench");
        assert_eq!(out.status.code(), Some(2), "{axes:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{axes:?} must name {names}: {stderr}");
        assert!(started.elapsed().as_secs() < 5, "{axes:?} was not rejected up front");
        for front_end in FRONT_ENDS {
            let args = [&[front_end, "127.0.0.1:1"], axes].concat();
            assert_eq!(submit_status(&args), 2, "{front_end} {axes:?}");
        }
    }
}

#[test]
fn a_refused_connection_exits_3_after_retries() {
    for front_end in FRONT_ENDS {
        assert_eq!(submit_status(&[front_end, "127.0.0.1:1"]), 3, "{front_end}");
    }
}

#[test]
fn a_protocol_violation_exits_4() {
    // The server "accepts" a cell count that cannot match the submitted
    // spec; the client must refuse the conversation, not stream forever.
    for front_end in FRONT_ENDS {
        let (addr, server) = scripted_server(move |r, w| {
            send_hello2(w);
            recv_submission(r, front_end);
            send_resp(
                w,
                &Response::Accepted {
                    cells: 999_999,
                    threads: 1,
                },
            );
        });
        let code = submit_status(&[front_end, &addr]);
        server.join().expect("server thread");
        assert_eq!(code, 4, "{front_end}");
    }
}

#[test]
fn a_pre_v2_server_exits_4_as_an_incompatible_peer() {
    // A v1 server answers the handshake with the legacy `Hello` — the
    // client must classify that as version skew (protocol family, exit 4),
    // not as a transport failure worth retrying.
    let (addr, server) = scripted_server(|_r, w| {
        send_resp(
            w,
            &Response::Hello {
                version: "icfp-wire/v1".to_string(),
            },
        );
    });
    let code = submit_status(&["--server", &addr]);
    server.join().expect("server thread");
    assert_eq!(code, 4);
}

#[test]
fn a_server_reported_error_exits_5() {
    // The error arrives *after* a completed handshake: a refusal during the
    // handshake itself is classified as an incompatible peer (exit 4).
    for front_end in FRONT_ENDS {
        let (addr, server) = scripted_server(move |r, w| {
            send_hello2(w);
            recv_submission(r, front_end);
            send_resp(
                w,
                &Response::Error {
                    message: "draining for shutdown".to_string(),
                },
            );
        });
        let code = submit_status(&[front_end, &addr]);
        server.join().expect("server thread");
        assert_eq!(code, 5, "{front_end}");
    }
}
