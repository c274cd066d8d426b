//! The robustness matrix: seeded [`FaultPlan`]s arm all three failure seams
//! at once — a torn cache write, a dropped or truncated wire frame, and a
//! panicking worker — and the full client/server stack must absorb every
//! combination: the injected frame fault fails one attempt with a typed
//! error, the client's deterministic backoff reconnects and re-submits, the
//! damaged cache entry is evicted and recomputed, the panicking cell is
//! retried, and the report the client finally assembles is digest-identical
//! to a fault-free local run.  No seed may escape as a panic on either side.

use icfp_sweep::{
    run_sweep, serve, submit_with, AcceptOptions, FaultPlan, RetryPolicy, ServeOptions, SweepSpec,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn matrix_spec() -> SweepSpec {
    SweepSpec::new(
        vec![icfp_core::CoreModel::Icfp, icfp_core::CoreModel::InOrder],
        vec!["streaming".to_string(), "branchy".to_string()],
        400,
        0xFA117,
    )
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("icfp-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn seeded_fault_plans_end_in_typed_errors_and_identical_reports() {
    let spec = matrix_spec();
    let cells = spec.cell_count();
    // One complete submission sends Hello + Accepted + one frame per cell
    // + Done, so every seeded frame fault fires during the first attempt.
    let frames_per_run = cells as u64 + 3;
    let baseline = run_sweep(&spec, 1).expect("fault-free baseline");

    for seed in 0..6u64 {
        // The armed job is an index into the full grid (`cells` of them).
        let plan = Arc::new(FaultPlan::from_seed(seed, cells, frames_per_run));
        let dir = tmp_dir(&format!("seed{seed}"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();

        let server = {
            let plan = Arc::clone(&plan);
            let dir = dir.clone();
            std::thread::spawn(move || {
                serve(
                    listener,
                    ServeOptions {
                        threads: 2,
                        cache_dir: Some(dir),
                        io_timeout: Some(Duration::from_secs(10)),
                        fault: Some(plan),
                        ..ServeOptions::default()
                    },
                    AcceptOptions {
                        max_inflight: 2,
                        max_submissions: Some(1),
                        shutdown: None,
                    },
                    |_| {},
                )
            })
        };

        let policy = RetryPolicy {
            retries: 4,
            base_delay_ms: 10,
            max_delay_ms: 50,
            io_timeout_ms: 10_000,
        };
        let outcome = submit_with(&addr, &spec, 1, &policy, |_, _, _| {})
            .unwrap_or_else(|e| panic!("seed {seed}: submission never recovered: {e}"));

        // The reassembled report matches the fault-free run in every
        // deterministic field, and no cell surfaced as failed: the injected
        // panic was absorbed by the retry budget.
        assert_eq!(
            outcome.report.digest(),
            baseline.digest(),
            "seed {seed}: recovered report diverged from fault-free baseline"
        );
        assert!(
            outcome.report.cells.iter().all(|c| c.failed.is_none()),
            "seed {seed}: a retried cell leaked a failure marker"
        );
        assert_eq!(outcome.report.cells.len(), baseline.cells.len());

        // Every armed seam actually fired — the matrix exercised a torn
        // cache write, a broken frame, and an injected panic, not a clean
        // run that vacuously matched.
        assert!(plan.cache_tear_fired(), "seed {seed}: cache tear never fired");
        assert!(plan.frame_fault_fired(), "seed {seed}: frame fault never fired");
        assert_eq!(plan.panics_raised(), 1, "seed {seed}: injected panic never fired");

        // The server drained cleanly: the faulted attempt ended in a typed
        // connection error (never a panic — `serve` would have unwound the
        // thread and this join would fail), and exactly one submission was
        // ultimately served.
        let summary = server.join().expect("server must not panic");
        assert_eq!(summary.submissions, 1, "seed {seed}");
        assert!(
            summary.failed >= 1,
            "seed {seed}: the injected frame fault must fail one connection"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_stalled_client_cannot_wedge_the_drain() {
    // A client that handshakes and then goes silent is reaped by the
    // server's I/O deadline, so a submission ceiling still terminates
    // `serve` even with a wedged peer occupying a slot.
    let spec = matrix_spec();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        serve(
            listener,
            ServeOptions {
                threads: 1,
                io_timeout: Some(Duration::from_millis(200)),
                ..ServeOptions::default()
            },
            AcceptOptions {
                max_inflight: 2,
                max_submissions: Some(1),
                shutdown: None,
            },
            |_| {},
        )
    });

    // The wedged peer: connect and say nothing, holding the stream open.
    let wedged = std::net::TcpStream::connect(&addr).expect("connect");

    let policy = RetryPolicy {
        retries: 2,
        base_delay_ms: 10,
        max_delay_ms: 50,
        io_timeout_ms: 5_000,
    };
    let outcome = submit_with(&addr, &spec, 1, &policy, |_, _, _| {}).expect("live client served");
    assert_eq!(outcome.report.cells.len(), spec.cell_count());

    let summary = server.join().expect("server must not panic");
    assert_eq!(summary.submissions, 1);
    assert!(summary.failed >= 1, "the stalled peer ends as a typed failure");
    drop(wedged);
}
