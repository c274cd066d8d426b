//! # icfp-workloads — deterministic synthetic trace generators
//!
//! The paper evaluates on SPEC2000 Alpha binaries; this reproduction
//! substitutes synthetic workloads that exercise the same behaviours the
//! evaluated mechanisms care about (see `icfp-isa`): memory-level
//! parallelism, dependent-miss chains, store-forwarding pressure, branch
//! predictability and streaming access.  Every generator is a pure function
//! of its parameters and seed — the same inputs always produce bit-identical
//! traces, which is what makes simulator runs reproducible and benchmark
//! numbers comparable across machines and commits.
//!
//! Each generator exists in two equivalent forms backed by one state machine
//! (see [`gen`]):
//!
//! * the **arena** functions below ([`pointer_chase`], ...) materialize a
//!   whole [`Trace`] — content identical to every previous release;
//! * [`WorkloadSpec::source`] produces a streaming
//!   [`WorkloadSource`] whose blocks are re-generated on demand from
//!   per-boundary resume snapshots, so a 100M-instruction trace never fully
//!   materializes — and simulating either form is bit-identical.
//!
//! The four standard scenarios (consumed by `icfp-bench` and the quickstart
//! example) live in one [`STANDARD`] registry table — name, workload class
//! (for the figure renderer's geomeans) and constructor — from which
//! [`by_name`], [`by_name_or_err`], [`standard_suite`] and
//! [`STANDARD_NAMES`] all derive, so adding a workload is a one-line change:
//!
//! | Generator | Class | Stress |
//! |---|---|---|
//! | [`pointer_chase`] | memory | dependent misses: each load's address depends on the previous load |
//! | [`dcache_thrash`] | memory | independent conflict misses: MLP, slice-buffer growth |
//! | [`branchy`] | control | mispredict-bound control flow with mixed predictability |
//! | [`streaming`] | streaming | sequential walk: stream-prefetcher and bus bandwidth |
//!
//! The [`bbp`] module converts an external basic-block-profile text format
//! into traces (and, through the `icfp-trace/v1` writer, into on-disk
//! containers), opening the suite beyond the four synthetic generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbp;
pub mod gen;

pub use gen::{TraceSink, WorkloadSource};

use gen::{BranchyGen, DcacheThrashGen, Gen, PointerChaseGen, StreamingGen};
use icfp_isa::Trace;

/// A tiny deterministic PRNG (splitmix64).  Local so the workspace needs no
/// external `rand` dependency and trace generation stays reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Pointer chasing: a linked-list walk where every load's effective address is
/// derived from the previous load's value.  Serialises misses (no MLP), the
/// worst case for Runahead and the motivating case for iCFP's slice/rally.
///
/// `insts` is the approximate dynamic instruction count; `working_set` the
/// footprint in bytes (larger than L2 ⇒ every hop is an L2 miss).
pub fn pointer_chase(insts: usize, working_set: u64, seed: u64) -> Trace {
    gen::materialize(
        "pointer-chase",
        Gen::Chase(PointerChaseGen::new(working_set, seed)),
        insts,
    )
}

/// Data-cache thrashing: independent loads scattered over a working set that
/// conflicts in the L1 (and optionally the L2), each followed by a dependent
/// use and a burst of independent ALU work.  High MLP: the scenario where
/// advance execution overlaps many misses.
pub fn dcache_thrash(insts: usize, working_set: u64, seed: u64) -> Trace {
    gen::materialize(
        "dcache-thrash",
        Gen::Thrash(DcacheThrashGen::new(working_set, seed)),
        insts,
    )
}

/// Branch-heavy code with a mix of biased and hard-to-predict branches over a
/// small set of static PCs, exercising the PPM predictor, BTB and redirect
/// penalty modelling.
pub fn branchy(insts: usize, seed: u64) -> Trace {
    gen::materialize("branchy", Gen::Branchy(BranchyGen::new(seed)), insts)
}

/// Streaming: a unit-stride walk over a large array with interleaved
/// accumulation, plus a parallel store stream.  The stream prefetcher should
/// convert most misses into prefetch hits; the memory bus interval becomes
/// the bottleneck.
pub fn streaming(insts: usize, seed: u64) -> Trace {
    gen::materialize("streaming", Gen::Streaming(StreamingGen::new(seed)), insts)
}

/// One entry of the standard-workload registry: everything the rest of the
/// workspace needs to know about a workload, in one place.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// The workload's name (`icfp-bench --workload`, sweep columns, ...).
    pub name: &'static str,
    /// Workload class, for per-class geomeans in the figure renderer
    /// (`memory`, `control`, `streaming`).
    pub class: &'static str,
    ctor: fn(u64) -> Gen,
}

impl WorkloadSpec {
    /// Materializes the workload as an in-memory [`Trace`] (content identical
    /// to every previous release of the generators).
    pub fn trace(&self, insts: usize, seed: u64) -> Trace {
        gen::materialize(self.name, (self.ctor)(seed), insts)
    }

    /// The workload as a streaming block producer: bit-identical content,
    /// never fully materialized.
    pub fn source(&self, insts: usize, seed: u64, block_size: usize) -> WorkloadSource {
        WorkloadSource::new(self.name, (self.ctor)(seed), insts, block_size)
    }
}

/// The registry of standard scenarios, in suite order.  *The* table:
/// [`by_name`], [`by_name_or_err`], [`standard_suite`], [`STANDARD_NAMES`]
/// and [`class_of`] all derive from it, so a new workload is one added row.
pub const STANDARD: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "pointer-chase",
        class: "memory",
        ctor: |seed| Gen::Chase(PointerChaseGen::new(8 * 1024 * 1024, seed)),
    },
    WorkloadSpec {
        name: "dcache-thrash",
        class: "memory",
        ctor: |seed| Gen::Thrash(DcacheThrashGen::new(256 * 1024, seed)),
    },
    WorkloadSpec {
        name: "branchy",
        class: "control",
        ctor: |seed| Gen::Branchy(BranchyGen::new(seed)),
    },
    WorkloadSpec {
        name: "streaming",
        class: "streaming",
        ctor: |seed| Gen::Streaming(StreamingGen::new(seed)),
    },
];

/// Names of the standard scenarios, in suite order (derived from
/// [`STANDARD`]).
pub const STANDARD_NAMES: [&str; 4] = [
    STANDARD[0].name,
    STANDARD[1].name,
    STANDARD[2].name,
    STANDARD[3].name,
];

/// The registry row for `name`, if it is a standard workload.
pub fn spec_by_name(name: &str) -> Option<&'static WorkloadSpec> {
    STANDARD.iter().find(|s| s.name == name)
}

/// The workload class of a standard workload (`memory`, `control`,
/// `streaming`); `None` for external (converted-trace) workloads.
pub fn class_of(name: &str) -> Option<&'static str> {
    spec_by_name(name).map(|s| s.class)
}

/// The four standard scenarios at a given dynamic-instruction budget,
/// suitable for benchmarking and smoke tests.
pub fn standard_suite(insts: usize, seed: u64) -> Vec<Trace> {
    STANDARD.iter().map(|s| s.trace(insts, seed)).collect()
}

/// Builds one of the standard scenarios by name (see [`STANDARD_NAMES`]).
/// Returns `None` for an unknown name.
pub fn by_name(name: &str, insts: usize, seed: u64) -> Option<Trace> {
    spec_by_name(name).map(|s| s.trace(insts, seed))
}

/// Builds one of the standard scenarios as a streaming block producer.
/// Returns `None` for an unknown name.
pub fn source_by_name(
    name: &str,
    insts: usize,
    seed: u64,
    block_size: usize,
) -> Option<WorkloadSource> {
    spec_by_name(name).map(|s| s.source(insts, seed, block_size))
}

/// [`by_name`], but an unknown name is an error message listing the valid
/// workloads — the same shape of diagnostic `icfp-bench --core` gives for an
/// unknown core model, so every front end (CLI, sweep validation, tests)
/// reports unknown workloads identically.
///
/// # Errors
///
/// Returns the diagnostic for unknown names.
pub fn by_name_or_err(name: &str, insts: usize, seed: u64) -> Result<Trace, String> {
    by_name(name, insts, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; valid workloads: {}",
            STANDARD_NAMES.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfp_isa::{Reg, TraceFile, TraceFileWriter, TraceFormat, TraceSource};

    #[test]
    fn generators_are_deterministic() {
        for name in STANDARD_NAMES {
            let a = by_name(name, 500, 42).unwrap();
            let b = by_name(name, 500, 42).unwrap();
            assert_eq!(a, b, "{name} must be reproducible");
            let c = by_name(name, 500, 43).unwrap();
            assert_ne!(a, c, "{name} must vary with the seed");
        }
    }

    #[test]
    fn suite_has_expected_shapes() {
        let suite = standard_suite(400, 7);
        assert_eq!(suite.len(), 4);
        for t in &suite {
            assert!(t.len() >= 400, "{} too short: {}", t.name(), t.len());
        }
        let chase = &suite[0];
        assert!(chase.stats().mem_fraction() > 0.2);
        let br = &suite[2];
        assert!(br.stats().branch_fraction() > 0.2);
    }

    #[test]
    fn pointer_chase_loads_depend_on_previous_load() {
        let t = pointer_chase(100, 1 << 20, 1);
        let loads: Vec<_> = t.iter().filter(|i| i.is_load()).collect();
        assert!(loads.len() > 10);
        for l in loads {
            assert_eq!(l.src1, Some(Reg::int(1)));
            assert_eq!(l.dst, Some(Reg::int(1)));
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("nope", 10, 0).is_none());
        assert!(source_by_name("nope", 10, 0, 64).is_none());
        assert!(by_name_or_err("nope", 10, 0)
            .unwrap_err()
            .contains("pointer-chase"));
    }

    #[test]
    fn registry_backs_every_lookup_consistently() {
        assert_eq!(STANDARD.len(), STANDARD_NAMES.len());
        for (spec, name) in STANDARD.iter().zip(STANDARD_NAMES) {
            assert_eq!(spec.name, name);
            assert_eq!(class_of(name), Some(spec.class));
            let t = by_name(name, 300, 5).unwrap();
            assert_eq!(t.name(), name);
            assert_eq!(t.digest(), spec.trace(300, 5).digest());
        }
        assert_eq!(class_of("pointer-chase"), Some("memory"));
        assert_eq!(class_of("branchy"), Some("control"));
        assert_eq!(class_of("imported-trace"), None);
    }

    #[test]
    fn streamed_source_matches_materialized_trace_exactly() {
        for spec in &STANDARD {
            let arena = spec.trace(700, 11);
            let src = spec.source(700, 11, 64);
            assert_eq!(src.name(), arena.name());
            assert_eq!(src.len(), arena.len(), "{}", spec.name);
            assert_eq!(src.digest(), arena.digest(), "{}", spec.name);
            // Concatenated blocks reproduce the arena byte for byte.
            let mut at = 0usize;
            for k in 0..src.block_count() {
                let b = src.block(k).unwrap();
                assert_eq!(b.first, at);
                for inst in b.insts() {
                    assert_eq!(inst, arena.get(at).unwrap(), "{} inst {at}", spec.name);
                    at += 1;
                }
                assert_eq!(src.block_digest(k).unwrap(), {
                    icfp_isa::block_digest_of(b.insts())
                });
            }
            assert_eq!(at, arena.len());
            // One identity across every backing: arena, generator, and a v1
            // and a v2 container, block by block (the last one short).
            assert_ne!(arena.len() % 64, 0, "{}: the last block must be partial", spec.name);
            let blocks = icfp_isa::ArenaSource::with_block_size(arena.clone(), 64);
            for format in [TraceFormat::V1, TraceFormat::V2] {
                let path = std::env::temp_dir().join(format!(
                    "icfp-workloads-test-{}-{}-{format}",
                    std::process::id(),
                    spec.name
                ));
                let written = TraceFileWriter::write_source_as(&path, &src, 64, format).unwrap();
                assert_eq!(written.digest, arena.digest(), "{} {format}", spec.name);
                let file = TraceFile::open_validated(&path, src.digest()).unwrap();
                file.verify().unwrap();
                assert_eq!(file.block_count(), src.block_count());
                for k in 0..src.block_count() {
                    let want = blocks.block_digest(k).unwrap();
                    assert_eq!(src.block_digest(k).unwrap(), want, "{} block {k}", spec.name);
                    assert_eq!(file.block_digest(k).unwrap(), want, "{} {format} {k}", spec.name);
                }
                let _ = std::fs::remove_file(&path);
            }
            // Random re-access regenerates identically (snapshot resume).
            let again = src.block(0).unwrap();
            assert_eq!(again.insts()[0], *arena.get(0).unwrap());
        }
    }

    #[test]
    fn streamed_source_residency_is_bounded() {
        let spec = &STANDARD[0];
        let src = spec.source(5_000, 3, 128);
        let cur = icfp_isa::TraceCursor::new(&src);
        for k in 0..src.len() {
            let _ = cur.get(k);
        }
        let peak = src.residency().expect("streamed source counts").peak();
        assert!(peak <= 4, "peak resident blocks {peak} not bounded");
    }

    #[test]
    fn splitmix_reference_values() {
        // Known-good splitmix64 sequence for seed 0 (reference implementation).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
