//! One workload, one process: set-up, warm-up, the measured repetitions
//! with the yardstick between them, output checks, and — in the traced
//! pass — the per-layer probes and the trace file.

use crate::alloc::Counting;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats::{median, normalise};
use crate::workloads::{self, Verdict, Workload};
use crate::yardstick::{Reading, Yardstick};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest measured repetitions, however short the run.
const MIN_REPS: usize = 3;
/// Set-ups per run: the median is reported, and the last one is kept.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups repeat until this much time has gone into them and the
/// yardsticks between the first few (so their median is steady), up to
/// [`MAX_SETUPS`].
const SETUP_FILL_S: f64 = 1.2;
const MAX_SETUPS: usize = 31;
/// Body repetition pairs (untraced, traced) of the traced pass.
const TRACED_REPS: u32 = 3;
/// Probe batch length when the run measures for [`crate::metrics::run_seconds`].
const PROBE_SAMPLE_S: f64 = 0.03;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or were wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Headline value per metric.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The samples behind each headline value.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::metrics::def(name).map_or("", |d| d.unit);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The line before it: the samples, for `run`'s table.
    pub fn samples_line(&self) -> String {
        Json::Obj(vec![(
            "samples".into(),
            Json::Obj(
                self.samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        )])
        .render()
    }

    /// True when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|v| v.is_finite())
    }
}

/// Where the benchmark keeps its files: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    // `cargo run` exports the manifest directory at run time; a copied
    // binary falls back to where it was built.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

/// Seconds of CPU this process (all threads) has used, from
/// `/proc/self/stat`; `None` where that file does not exist.  The kernel
/// reports clock ticks of 1/100 s — every Linux port's `USER_HZ` — which
/// is fine enough for intervals of half a second and more.
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis, user and system time being the 14th and 15th.
    let mut rest = stat.rsplit_once(')')?.1.split_ascii_whitespace().skip(11);
    let ticks = rest.next()?.parse::<u64>().ok()? + rest.next()?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// One timed interval: wall seconds, and CPU seconds where the host accounts
/// for them.
#[derive(Debug, Clone, Copy)]
struct Interval {
    secs: f64,
    cpu_s: Option<f64>,
}

impl Interval {
    fn of<T>(f: impl FnOnce() -> T) -> (Interval, T) {
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let cpu_s = cpu0.zip(process_cpu_s()).map(|(a, b)| b - a);
        (Interval { secs, cpu_s }, out)
    }
}

/// Intervals shorter than this in total are taken as fully busy: the CPU
/// clock ticks in hundredths of a second, too coarse to split them.
const BUSY_SHARE_MIN_S: f64 = 1.0;

/// The share of a run's intervals of one kind (all its bodies, all its
/// set-ups) that the process spent on a CPU: total CPU over total wall time,
/// at most 1 — two busy threads are still one fully busy interval.
fn busy_share(intervals: &[Interval]) -> f64 {
    let wall: f64 = intervals.iter().map(|i| i.secs).sum();
    let cpu: Option<f64> = intervals.iter().map(|i| i.cpu_s).sum();
    match cpu {
        Some(cpu) if wall >= BUSY_SHARE_MIN_S => (cpu / wall).min(1.0),
        _ => 1.0,
    }
}

/// One timed body with its heap readings.
struct Rep {
    time: Interval,
    instructions: u64,
    peak_bytes: usize,
    allocs: usize,
}

fn timed_body(w: &mut dyn Workload, tr: &Tracer, heap: &Counting) -> Rep {
    w.prepare();
    heap.reset_peak();
    let allocs0 = heap.reading().allocs;
    let (time, instructions) = Interval::of(|| tr.span("harness.body", &[], || w.body(tr)));
    let r = heap.reading();
    Rep {
        time,
        instructions,
        peak_bytes: r.peak,
        allocs: r.allocs - allocs0,
    }
}

/// Runs workload `name` for about `seconds` and reports the end-to-end
/// metrics (`traced == false`) or the per-layer ones (`traced == true`).
///
/// # Errors
///
/// A set-up failure or a harness bug (an undeclared or missing metric);
/// wrong outputs are not errors but `failed` operations.
pub fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    heap: &Counting,
) -> Result<Outcome, String> {
    let dir = out_dir().join(format!("tmp-{name}-{}", std::process::id()));
    let result = measure(name, seed, seconds, traced, heap, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = result?;
    let declared: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut want: Vec<&str> = declared.iter().map(|d| d.name).collect();
    want.sort_unstable();
    // `metrics` is a BTreeMap: its keys come out sorted.
    let emitted: Vec<&str> = outcome.metrics.keys().copied().collect();
    if emitted != want {
        return Err(format!(
            "harness bug: emitted metrics {emitted:?} differ from the declared {want:?}"
        ));
    }
    Ok(outcome)
}

fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    heap: &Counting,
    dir: &Path,
) -> Result<Outcome, String> {
    let yard = Yardstick::new();
    let mut yards: Vec<Reading> = Vec::new();
    let tr = Tracer::new(traced);
    let off = Tracer::new(false);
    // What the harness itself holds (the yardstick's tables above all) is
    // not the workload's heap.
    let harness_bytes = heap.reading().live;

    // Set-up: several times with the yardstick between, the last one kept.
    let mut setups: Vec<Interval> = Vec::new();
    let setups_began = Instant::now();
    let mut w = loop {
        if setups.len() < MIN_SETUPS {
            yards.push(yard.run());
        }
        let (time, w) = Interval::of(|| {
            tr.span("harness.setup", &[name], || {
                workloads::setup(name, seed, dir)
            })
        });
        let w = w?;
        setups.push(time);
        let enough = setups.len() >= MIN_SETUPS
            && (setups_began.elapsed().as_secs_f64() >= SETUP_FILL_S || setups.len() >= MAX_SETUPS);
        if traced || enough {
            break w;
        }
        w.finish();
    };

    let mut totals = Verdict::default();
    // Untimed warm-up: fills host caches, sizes calibrated bodies, and pays
    // for the reference results the checks compare against.
    timed_body(&mut *w, &off, heap);
    totals.absorb(w.verify());

    let mut plain: Vec<Rep> = Vec::new();
    let mut with_spans: Vec<Rep> = Vec::new();
    let began = Instant::now();
    if traced {
        for rep in 1..=TRACED_REPS {
            yards.push(yard.run());
            plain.push(timed_body(&mut *w, &off, heap));
            totals.absorb(w.verify());
            tr.set_rep(rep);
            with_spans.push(timed_body(&mut *w, &tr, heap));
            totals.absorb(w.verify());
        }
        tr.set_rep(0);
    } else {
        while plain.len() < MIN_REPS || began.elapsed().as_secs_f64() < seconds {
            yards.push(yard.run());
            plain.push(timed_body(&mut *w, &off, heap));
            totals.absorb(w.verify());
        }
    }
    yards.push(yard.run());

    // The run's host slowness: the median yardstick reading.  Every timed
    // interval of the run is scaled by it, over its kind's busy share.
    let slowness = median(&yards.iter().map(|y| y.slowness).collect::<Vec<_>>());
    let yard_s: Vec<f64> = yards.iter().map(|y| y.seconds).collect();
    let body_s: Vec<f64> = plain.iter().map(|r| r.time.secs).collect();
    let body_busy = busy_share(&plain.iter().map(|r| r.time).collect::<Vec<_>>());
    let body_norm: Vec<f64> = body_s
        .iter()
        .map(|s| normalise(*s, body_busy, slowness))
        .collect();
    let instructions = plain[0].instructions as f64;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    if traced {
        let sample_s = PROBE_SAMPLE_S * seconds / crate::metrics::run_seconds();
        let inputs = w.probe_inputs();
        metrics = probes::run(&inputs, &tr, dir, sample_s, 1.0 / slowness);
        let traced_s: Vec<f64> = with_spans.iter().map(|r| r.time.secs).collect();
        metrics.insert("harness.wall_s", median(&body_s));
        metrics.insert("harness.yardstick_s", median(&yard_s));
        let speeds = yards.iter().map(|y| 1.0 / y.slowness);
        metrics.insert(
            "harness.host_speed_min",
            speeds.clone().fold(f64::INFINITY, f64::min),
        );
        metrics.insert(
            "harness.host_speed_max",
            speeds.fold(f64::NEG_INFINITY, f64::max),
        );
        let allocs: Vec<f64> = plain.iter().map(|r| r.allocs as f64).collect();
        metrics.insert(
            "harness.heap_allocs_per_kinst",
            median(&allocs) / (instructions / 1000.0),
        );
        metrics.insert(
            "harness.trace_overhead_pct",
            (median(&traced_s) - median(&body_s)) / median(&body_s) * 100.0,
        );

        // The trace: written whole at the end, and checked — each traced
        // body's per-layer self times must add up to its span.
        let spans = tr.spans();
        for body in spans.iter().filter(|s| s.name == "harness.body") {
            let total: u64 = span::layer_self_ns(&spans, body.id).values().sum();
            let span_ns = body.end_ns - body.start_ns;
            let within = (total as f64 - span_ns as f64).abs() <= 0.01 * span_ns as f64;
            totals.check(within, || {
                format!(
                    "rep {}: layer self times sum to {total} ns, the body span is {span_ns} ns",
                    body.rep
                )
            });
        }
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, span::to_json(name, seed, &spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let speedup = totals.icfp_speedup();
        let setup_busy = busy_share(&setups);
        let setup_norm: Vec<f64> = setups
            .iter()
            .map(|s| normalise(s.secs, setup_busy, slowness))
            .collect();
        let mips: Vec<f64> = plain
            .iter()
            .zip(&body_norm)
            .map(|(r, secs)| r.instructions as f64 / secs / 1.0e6)
            .collect();
        let peaks: Vec<f64> = plain
            .iter()
            .map(|r| r.peak_bytes.saturating_sub(harness_bytes) as f64 / (1 << 20) as f64)
            .collect();
        metrics.insert("setup_s", median(&setup_norm));
        metrics.insert("sim_mips", instructions / median(&body_norm) / 1.0e6);
        // The largest peak any repetition reached: a run's repetitions differ
        // only in thread timing (a prefetched block more, a cell's scratch
        // overlapping another's), and the high-water mark is what a user
        // must provision for.
        metrics.insert(
            "heap_peak_mb",
            peaks.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        metrics.insert("icfp_speedup", speedup);
        samples.insert("setup_s", setup_norm);
        samples.insert("sim_mips", mips);
        samples.insert("heap_peak_mb", peaks);
        samples.insert("icfp_speedup", vec![speedup; plain.len()]);
    }
    // Raw figures, for diagnosis: what the clock read before any scaling.
    samples.insert("harness.wall_s", body_s);
    samples.insert("harness.yardstick_s", yard_s);
    samples.insert("harness.busy_share", vec![body_busy]);
    samples.insert(
        "harness.host_slowness",
        yards.iter().map(|y| y.slowness).collect(),
    );
    w.finish();

    Ok(Outcome {
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        failures: totals.failures,
        metrics,
        samples,
    })
}
