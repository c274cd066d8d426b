//! `icfp-sweepd` — the persistent sweep service.
//!
//! Listens on a TCP address, accepts `icfp-wire/v4` connections
//! (`icfp-bench sweep submit --server ADDR` is the client), executes each
//! submitted sweep through the shared executor, and streams cells back as
//! they finish.  With `--cache-dir` the server keeps a persistent
//! `icfp-cache/v1` result store — opened once and shared by every
//! connection — so repeated or overlapping grids are served from disk with
//! reports byte-identical to cold runs.
//!
//! With `--worker` the process advertises the `"worker"` capability and is
//! intended as one member of a distributed pool: a coordinator
//! (`icfp-bench sweep submit --workers A,B,...`) plans the grid into
//! shards, submits one shard per connection (spec slice + per-column trace
//! digests, never trace bytes), and merges the streamed cells
//! deterministically.  Each worker keeps its *own* `--cache-dir`, so a
//! worker that is killed and restarted re-serves its finished cells as
//! cache hits.
//!
//! Connections are served concurrently (thread-per-connection, bounded by
//! `--conn-limit`), each under an `--io-timeout-ms` read/write deadline so
//! a stalled peer is reaped instead of hanging a thread.  SIGINT/SIGTERM
//! trigger a graceful drain: the server stops accepting, in-flight cells
//! finish (and land in the cache), interrupted submissions get a typed
//! error frame, and the process exits cleanly.

use icfp_sweep::wire::{serve, AcceptOptions, ServeOptions};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "icfp-sweepd — persistent sweep service (icfp-wire/v4)

USAGE:
    icfp-sweepd [OPTIONS]

OPTIONS:
    --worker             advertise the \"worker\" capability: this process is
                         one member of a distributed pool, serving shard
                         submissions from a coordinator (it still serves
                         whole-spec submissions too)
    --listen ADDR        address to bind (default 127.0.0.1:7400; use :0 for
                         an ephemeral port)
    --threads N          default worker threads for submissions that request
                         0 (default: host parallelism)
    --cache-dir DIR      enable the persistent icfp-cache/v1 result cache
                         (opened once, shared by all connections)
    --ready-file PATH    after binding, write the bound address to PATH
                         (for scripts that need the ephemeral port)
    --max-conns N        exit after N successfully served submissions
                         (default: serve forever; failed handshakes and
                         hostile connections never count)
    --conn-limit N       serve at most N connections concurrently; further
                         connections queue in the accept backlog (default 4)
    --io-timeout-ms MS   per-stream read/write deadline; stalled peers are
                         reaped with a typed timeout (default 30000; 0 = no
                         deadline)
    --help               print this help

SIGNALS:
    SIGINT/SIGTERM       graceful drain: stop accepting, finish in-flight
                         cells (cache flushed per cell), then exit

Every fork group a submission computes is simulated once (a cell's host
time is that one run's). A panicking cell is retried twice, then recorded as
a typed failed cell in the report; the sweep and the daemon carry on.
";

struct Args {
    listen: String,
    threads: usize,
    cache_dir: Option<PathBuf>,
    ready_file: Option<PathBuf>,
    max_conns: Option<u64>,
    conn_limit: usize,
    io_timeout_ms: u64,
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7400".to_string(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        cache_dir: None,
        ready_file: None,
        max_conns: None,
        conn_limit: 4,
        io_timeout_ms: 30_000,
        worker: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--ready-file" => args.ready_file = Some(PathBuf::from(value("--ready-file")?)),
            "--max-conns" => {
                args.max_conns = Some(
                    value("--max-conns")?
                        .parse()
                        .map_err(|e| format!("--max-conns: {e}"))?,
                )
            }
            "--conn-limit" => {
                args.conn_limit = value("--conn-limit")?
                    .parse()
                    .map_err(|e| format!("--conn-limit: {e}"))?
            }
            "--io-timeout-ms" => {
                args.io_timeout_ms = value("--io-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--io-timeout-ms: {e}"))?
            }
            "--worker" => args.worker = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// The process-wide graceful-shutdown flag, set by the signal handler.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: flip the flag.  The serve loop's
    // watcher thread polls it and wakes the blocked accept.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// `signal(2)`.  Declared directly (the workspace carries no libc
    /// crate); the returned previous handler is ignored.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icfp-sweepd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("icfp-sweepd: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.listen.clone());
    if let Some(path) = &args.ready_file {
        if let Err(e) = std::fs::write(path, &bound) {
            eprintln!("icfp-sweepd: cannot write ready file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "icfp-sweepd{}: listening on {bound} ({} worker threads, {} concurrent conns, \
         {} io deadline, cache {})",
        if args.worker { " [worker]" } else { "" },
        args.threads,
        args.conn_limit,
        if args.io_timeout_ms > 0 {
            format!("{}ms", args.io_timeout_ms)
        } else {
            "no".to_string()
        },
        match &args.cache_dir {
            Some(d) => d.display().to_string(),
            None => "disabled".to_string(),
        }
    );

    // SAFETY: `signal` only installs `on_signal`, which does nothing but
    // store to an atomic — async-signal-safe by construction.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    // Bridge the C-handler static into the Arc the serve loop watches.
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SHUTDOWN.load(Ordering::SeqCst) {
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }

    let opts = ServeOptions {
        threads: args.threads,
        cache_dir: args.cache_dir.clone(),
        io_timeout: (args.io_timeout_ms > 0).then(|| Duration::from_millis(args.io_timeout_ms)),
        cancel: Some(Arc::clone(&shutdown)),
        worker: args.worker,
        ..ServeOptions::default()
    };
    let accept = AcceptOptions {
        max_inflight: args.conn_limit.max(1),
        max_submissions: args.max_conns,
        shutdown: Some(Arc::clone(&shutdown)),
    };
    let summary = serve(listener, opts, accept, |line| {
        eprintln!("icfp-sweepd: {line}");
    });
    eprintln!(
        "icfp-sweepd: drained and exiting ({} connections, {} submissions served, {} failed)",
        summary.connections, summary.submissions, summary.failed
    );
    ExitCode::SUCCESS
}
