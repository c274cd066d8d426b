//! Result documents (`icfp-ladder/v1`) and `icfp-ladder compare`.
//!
//! A document holds, per workload and metric, the headline value of each run
//! of a *set* (`run --runs R`: R runs, each with its own seed).  `compare`
//! reads two documents and gives one verdict per workload × end-to-end
//! metric from the bounds in `BENCHMARK.json`; a single-run set has no
//! spread, so its verdicts rest on the bound alone.

use crate::json::Json;
use crate::metrics::{self, END_TO_END};
use crate::stats::{iqr_share, median, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of a result document.
pub const SCHEMA: &str = "icfp-ladder/v1";

/// Values of one metric over a set of runs.
pub type Series = Vec<f64>;

/// A set of runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// `os-arch-Ncpu` of the host that produced it.
    pub machine: String,
    /// Seeds of the runs, in order.
    pub seeds: Vec<u64>,
    /// Whether this is the traced pass (per-layer metrics).
    pub traced: bool,
    /// Operations checked, over every run.
    pub attempted: u64,
    /// Operations failed, over every run.
    pub failed: u64,
    /// workload → metric → values.
    pub workloads: BTreeMap<String, BTreeMap<String, Series>>,
}

/// `os-arch-Ncpu`, the granularity at which host-time figures compare.
pub fn machine_class() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{}-{}-{cpus}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

impl Document {
    /// Renders the document.
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(m, values)| {
                        let s = Summary::of(values);
                        let unit = metrics::def(m).map_or("", |d| d.unit);
                        (
                            m.clone(),
                            Json::Obj(vec![
                                ("unit".into(), Json::Str(unit.into())),
                                ("median".into(), Json::Num(s.median)),
                                ("min".into(), Json::Num(s.min)),
                                ("max".into(), Json::Num(s.max)),
                                ("mad".into(), Json::Num(s.mad)),
                                ("n".into(), Json::Num(s.n as f64)),
                                (
                                    "values".into(),
                                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect();
                (w.clone(), Json::Obj(metrics))
            })
            .collect();
        let mut text = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("machine".into(), Json::Str(self.machine.clone())),
            (
                "seeds".into(),
                // Seeds print as strings: a u64 does not survive a JSON
                // number.
                Json::Arr(
                    self.seeds
                        .iter()
                        .map(|s| Json::Str(format!("{s:#x}")))
                        .collect(),
                ),
            ),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("workloads".into(), Json::Obj(workloads)),
        ])
        .render();
        text.push('\n');
        text
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a foreign schema tag, or a missing field.
    pub fn parse(text: &str) -> Result<Document, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not an {SCHEMA} document"));
        }
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing {k:?}"));
        let mut workloads = BTreeMap::new();
        for (w, ms) in field("workloads")?
            .as_obj()
            .ok_or("workloads is not an object")?
        {
            let mut metrics = BTreeMap::new();
            for (m, body) in ms.as_obj().ok_or("a workload is not an object")? {
                let values: Option<Series> = body
                    .get("values")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_f64).collect());
                match values {
                    Some(v) if !v.is_empty() => metrics.insert(m.clone(), v),
                    _ => return Err(format!("{w}/{m} has no values")),
                };
            }
            workloads.insert(w.clone(), metrics);
        }
        Ok(Document {
            machine: field("machine")?.as_str().unwrap_or("").to_string(),
            seeds: field("seeds")?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| crate::parse_seed(s.as_str()?).ok())
                .collect(),
            traced: matches!(field("traced")?, Json::Bool(true)),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
            failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
            workloads,
        })
    }
}

/// What `compare` concluded about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the run-to-run spread.
    Better,
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread is wider than the bound and the runs overlap: the data
    /// cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far B's median is *worse* than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    }
}

/// The wider of the two sets' interquartile ranges, as a share of the
/// median (zero for single-value sets).
pub fn spread(a: &[f64], b: &[f64]) -> f64 {
    let one = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    one(a).max(one(b))
}

/// The verdict for baseline values `a` and candidate values `b`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worsening(a, b, higher_is_better);
    let spread = spread(a, b);
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if spread > bound {
        return if all(&|y, x| beats(y, x)) {
            Verdict::Better
        } else if worse_by > bound && all(&|y, x| beats(x, y)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Metrics that must repeat exactly on equal seeds: simulated statistics
/// and sizes, which host noise cannot touch.  Their units tell them apart.
fn is_exact(metric: &str) -> bool {
    metric == "icfp_speedup"
        || metrics::def(metric)
            .is_some_and(|d| matches!(d.unit, "count" | "cycles" | "B" | "B/inst" | "1/kinst"))
}

/// The comparison table and whether any row came out worse.
pub fn compare(a: &Document, b: &Document) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    if a.machine != b.machine {
        let _ = writeln!(
            out,
            "note: machine classes differ ({} vs {}); host-time rows are advisory",
            a.machine, b.machine
        );
    }
    let _ = writeln!(
        out,
        "{:<13} {:<14} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "spread%", "bound%"
    );
    for (w, am) in &a.workloads {
        let Some(bm) = b.workloads.get(w) else {
            let _ = writeln!(out, "{w:<13} missing from B");
            any_worse = true;
            continue;
        };
        for d in &END_TO_END {
            let (Some(av), Some(bv)) = (am.get(d.name), bm.get(d.name)) else {
                continue;
            };
            let bound = metrics::bound(d.name).unwrap_or(0.0);
            let higher = d.better == "higher";
            let v = judge(av, bv, higher, bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{w:<13} {:<14} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>7.1}  {}",
                d.name,
                median(av),
                median(bv),
                worsening(av, bv, higher) * 100.0,
                spread(av, bv) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    if a.failed + b.failed > 0 {
        let _ = writeln!(out, "failed operations: A {} B {}", a.failed, b.failed);
        any_worse |= b.failed > a.failed;
    }
    // Exact figures, when the two sets ran the same seeds.
    if a.seeds == b.seeds {
        let mut checked = 0usize;
        let mut differing = Vec::new();
        for (w, am) in &a.workloads {
            for (m, av) in am.iter().filter(|(m, _)| is_exact(m)) {
                if let Some(bv) = b.workloads.get(w).and_then(|bm| bm.get(m)) {
                    checked += 1;
                    if av != bv {
                        differing.push(format!("{w}/{m}"));
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "exact figures on equal seeds: {checked} compared, {} differ{}",
            differing.len(),
            if differing.is_empty() {
                String::new()
            } else {
                format!(": {}", differing.join(", "))
            }
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower on a 10 % bound: within.
        assert_eq!(
            judge(&a, &[97.0, 97.5, 96.5, 97.2, 96.8], true, 0.10),
            Verdict::WithinBound
        );
        // 20 % slower: worse.
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.10),
            Verdict::Worse
        );
        // 20 % faster, tight: better.
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], true, 0.10),
            Verdict::Better
        );
        // Lower-is-better flips the sense.
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], false, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound with overlapping runs says nothing...
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(judge(&a, &noisy, true, 0.10), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let high = [170.0, 200.0, 230.0, 185.0, 215.0];
        assert_eq!(judge(&a, &high, true, 0.10), Verdict::Better);
        let low = [17.0, 20.0, 23.0, 18.5, 21.5];
        assert_eq!(judge(&a, &low, true, 0.10), Verdict::Worse);
        // Identical sets agree.
        assert_eq!(judge(&a, &a, true, 0.02), Verdict::WithinBound);
    }

    #[test]
    fn documents_round_trip_and_compare_flags_a_regression() {
        let mut a = Document {
            machine: "linux-x86_64-2cpu".into(),
            seeds: vec![0xC0DE, u64::MAX],
            traced: false,
            attempted: 10,
            failed: 0,
            workloads: BTreeMap::new(),
        };
        let mut m = BTreeMap::new();
        m.insert("sim_mips".to_string(), vec![2.0, 2.02]);
        m.insert("setup_s".to_string(), vec![0.5, 0.51]);
        m.insert("icfp_speedup".to_string(), vec![1.5, 1.51]);
        a.workloads.insert("icfp-miss".into(), m);
        let back = Document::parse(&a.to_json()).expect("round trip");
        assert_eq!(back, a);

        let (table, worse) = compare(&a, &a);
        assert!(!worse, "{table}");
        assert!(table.contains("1 compared, 0 differ"), "{table}");

        let mut b = a.clone();
        b.workloads
            .get_mut("icfp-miss")
            .unwrap()
            .insert("sim_mips".into(), vec![1.2, 1.22]);
        let (table, worse) = compare(&a, &b);
        assert!(worse, "{table}");
        assert!(table.contains("worse"));

        assert!(Document::parse("{\"schema\":\"other\"}").is_err());
        assert!(Document::parse("not json").is_err());
    }
}
