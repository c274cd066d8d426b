//! The benchmark's tracer: spans around every call the bodies and probes
//! make into a layer, counts attached at the same boundaries, everything
//! held in memory until the run ends.
//!
//! A span's name is `<layer>.<call>`; the layer is the crate the call goes
//! into (`isa`, `sim`, `sweep`, ...) or `harness` for the benchmark's own
//! glue.  A span's *self time* is its duration minus the part its children
//! cover, so the self times of a tree sum to the root's duration exactly.
//! All calls come from the driving thread (the sweep executor and the wire
//! client invoke their callbacks there), so the tracer is single-threaded by
//! construction and costs one branch when switched off.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.  Instants (`start_ns == end_ns`) mark events that
/// happened inside another layer's call, such as a sweep cell finishing.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the trace, unique within a run.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// What the call worked on (model, trace, ...), joined with `/`.
    pub detail: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Which repetition of the body (or 0 for set-up and probes).
    pub rep: u32,
    /// Counts recorded at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    state: Option<RefCell<State>>,
    t0: Instant,
}

impl Tracer {
    /// A tracer that records (`enabled`) or one that only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            state: enabled.then(|| {
                RefCell::new(State {
                    spans: Vec::new(),
                    open: Vec::new(),
                    rep: 0,
                })
            }),
            t0: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Labels the spans that follow with a repetition number.
    pub fn set_rep(&self, rep: u32) {
        if let Some(s) = &self.state {
            s.borrow_mut().rep = rep;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, detail: &[&str], f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let id = {
            let mut s = state.borrow_mut();
            let id = s.spans.len() as u32;
            let parent = s.open.last().copied();
            let rep = s.rep;
            s.spans.push(Span {
                id,
                parent,
                name,
                detail: detail.join("/"),
                start_ns: self.now_ns(),
                end_ns: 0,
                rep,
                counts: Vec::new(),
            });
            s.open.push(id);
            id
        };
        let out = f();
        let mut s = state.borrow_mut();
        s.spans[id as usize].end_ns = self.now_ns();
        let closed = s.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in nesting order");
        out
    }

    /// Records an instant span under the open span, carrying `counts`.
    pub fn instant(&self, name: &'static str, detail: &[&str], counts: &[(&'static str, f64)]) {
        let Some(state) = &self.state else { return };
        let mut s = state.borrow_mut();
        let now = self.now_ns();
        let id = s.spans.len() as u32;
        let parent = s.open.last().copied();
        let rep = s.rep;
        s.spans.push(Span {
            id,
            parent,
            name,
            detail: detail.join("/"),
            start_ns: now,
            end_ns: now,
            rep,
            counts: counts.to_vec(),
        });
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&self, key: &'static str, value: f64) {
        let Some(state) = &self.state else { return };
        let mut s = state.borrow_mut();
        if let Some(&id) = s.open.last() {
            s.spans[id as usize].counts.push((key, value));
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed per layer over the subtree rooted at `root`.
pub fn layer_self_ns(spans: &[Span], root: u32) -> BTreeMap<&'static str, u64> {
    let own = self_times_ns(spans);
    let mut inside = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    // Parents precede children in recording order, so one pass suffices.
    for s in spans {
        let i = s.id as usize;
        inside[i] = s.id == root || s.parent.is_some_and(|p| inside[p as usize]);
        if inside[i] {
            *out.entry(s.layer()).or_insert(0) += own[i];
        }
    }
    out
}

/// The trace document written to `out/trace-<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let span_docs = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Num(f64::from(s.id))),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("detail".into(), Json::Str(s.detail.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(own[s.id as usize] as f64)),
                ("rep".into(), Json::Num(f64::from(s.rep))),
                (
                    "counts".into(),
                    Json::Obj(
                        s.counts
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    // One self-time table per traced body repetition.
    let bodies = spans
        .iter()
        .filter(|s| s.name == "harness.body")
        .map(|b| {
            let layers = layer_self_ns(spans, b.id);
            Json::Obj(vec![
                ("rep".into(), Json::Num(f64::from(b.rep))),
                ("body_ns".into(), Json::Num(b.duration_ns() as f64)),
                (
                    "layer_self_ns".into(),
                    Json::Obj(
                        layers
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("bodies".into(), Json::Arr(bodies)),
        ("spans".into(), Json::Arr(span_docs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            detail: String::new(),
            start_ns: start,
            end_ns: end,
            rep: 1,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = vec![
            span(0, None, "harness.body", 0, 1000),
            span(1, Some(0), "sweep.run", 100, 900),
            span(2, Some(1), "core.cell", 400, 400), // instant
            span(3, Some(1), "serde.encode", 500, 700),
            span(4, Some(0), "sweep.schema", 900, 950),
            span(5, None, "isa.probe", 2000, 2500), // outside the body
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![150, 600, 0, 200, 50, 500]);
        let layers = layer_self_ns(&spans, 0);
        assert_eq!(layers["harness"], 150);
        assert_eq!(layers["sweep"], 650);
        assert_eq!(layers["serde"], 200);
        assert_eq!(layers["core"], 0);
        assert!(
            !layers.contains_key("isa"),
            "spans outside the root stay out"
        );
        assert_eq!(layers.values().sum::<u64>(), 1000);
    }

    #[test]
    fn tracer_nests_spans_and_attaches_counts_and_instants() {
        let t = Tracer::new(true);
        t.set_rep(2);
        let v = t.span("harness.body", &[], || {
            t.span("sim.run", &["icfp", "branchy"], || {
                t.count("cycles", 7.0);
                t.instant("core.cell", &["x"], &[("host_s", 0.5)]);
            });
            42
        });
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert_eq!(s[1].detail, "icfp/branchy");
        assert_eq!(s[1].layer(), "sim");
        assert_eq!(s[1].counts, vec![("cycles", 7.0)]);
        assert_eq!(s[2].start_ns, s[2].end_ns);
        assert!(s.iter().all(|x| x.rep == 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim.run", &[], || 5), 5);
        t.count("x", 1.0);
        t.instant("core.cell", &[], &[]);
        assert!(t.spans().is_empty());
    }
}
