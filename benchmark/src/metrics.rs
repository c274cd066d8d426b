//! The metric names this program emits.  `BENCHMARK.json` declares the same
//! names (a unit test holds the two together), and every later performance
//! claim in the repository refers to them.

use crate::json::Json;

/// The benchmark's contract, as checked in at the repository root.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, made of letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the simulator and its sweep service sees.  Failures are
/// not a metric here: a run reports them as `failed` of `attempted`, and
/// `run` prints their ratio as `fail_share`.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower"),
    m("sim_mips", "Minst/s", "higher"),
    m("heap_peak_mb", "MiB", "lower"),
    m("icfp_speedup", "ratio", "higher"),
];

/// One layer at a time, from the traced run.
pub const PER_LAYER: [MetricDef; 74] = [
    m("isa.cursor_walk_minst_s", "Minst/s", "higher"),
    m("isa.trace_digest_minst_s", "Minst/s", "higher"),
    m("isa.exec_mips", "Minst/s", "higher"),
    m("isa.v2_decode_minst_s", "Minst/s", "higher"),
    m("isa.v1_decode_minst_s", "Minst/s", "higher"),
    m("isa.v2_encode_minst_s", "Minst/s", "higher"),
    m("isa.v1_encode_minst_s", "Minst/s", "higher"),
    m("isa.open_validated_ms", "ms", "lower"),
    m("isa.v2_bytes_per_inst", "B/inst", "lower"),
    m("isa.v1_bytes_per_inst", "B/inst", "lower"),
    m("isa.peak_resident_blocks", "count", "lower"),
    m("workloads.gen_minst_s", "Minst/s", "higher"),
    m("workloads.source_scan_minst_s", "Minst/s", "higher"),
    m("workloads.block_regen_us", "us", "lower"),
    m("bpred.replay_ns_per_branch", "ns", "lower"),
    m("bpred.mispredict_rate", "ratio", "lower"),
    m("pipeline.frontend_ns_per_inst", "ns", "lower"),
    m("pipeline.issue_ns_per_inst", "ns", "lower"),
    m("pipeline.regfile_poison_ns", "ns", "lower"),
    m("mem.replay_ns_per_access", "ns", "lower"),
    m("mem.l1d_mpki", "1/kinst", "lower"),
    m("mem.l2_mpki", "1/kinst", "lower"),
    m("core.in-order_mips", "Minst/s", "higher"),
    m("core.runahead_mips", "Minst/s", "higher"),
    m("core.multipass_mips", "Minst/s", "higher"),
    m("core.sltp_mips", "Minst/s", "higher"),
    m("core.icfp_mips", "Minst/s", "higher"),
    m("core.icfp_ns_per_sim_cycle", "ns", "lower"),
    m("core.in-order_ns_per_sim_cycle", "ns", "lower"),
    m("core.icfp_over_exec_ns_per_inst", "ns", "lower"),
    m("core.slicebuf_push_drain_ns", "ns", "lower"),
    m("core.slicebuf_rally_select_ns", "ns", "lower"),
    m("core.storebuf_forward_ns", "ns", "lower"),
    m("core.storebuf_drain_ns", "ns", "lower"),
    m("core.icfp_cycles", "cycles", "lower"),
    m("core.in-order_cycles", "cycles", "lower"),
    m("core.advance_episodes", "count", "lower"),
    m("core.rally_passes", "count", "lower"),
    m("core.rally_per_advance_inst", "ratio", "lower"),
    m("core.sliced_instructions", "count", "lower"),
    m("core.slice_peak", "count", "lower"),
    m("core.chain_hops", "count", "lower"),
    m("core.resource_stall_cycles", "cycles", "lower"),
    m("sim.driver_overhead_pct", "%", "lower"),
    m("sim.ff_mips", "Minst/s", "higher"),
    m("sim.ckpt_save_ms", "ms", "lower"),
    m("sim.ckpt_resume_ms", "ms", "lower"),
    m("sim.ckpt_bytes", "B", "lower"),
    m("serde.encode_figures_ns", "ns", "lower"),
    m("serde.decode_figures_ns", "ns", "lower"),
    m("serde.encode_spec_ns", "ns", "lower"),
    m("serde.frame_roundtrip_us", "us", "lower"),
    m("sweep.expand_us_per_cell", "us", "lower"),
    m("sweep.cache_key_ns", "ns", "lower"),
    m("sweep.cache_store_us", "us", "lower"),
    m("sweep.cache_load_us", "us", "lower"),
    m("sweep.column_source_ms", "ms", "lower"),
    m("sweep.schema_emit_us_per_cell", "us", "lower"),
    m("sweep.schema_parse_us_per_cell", "us", "lower"),
    m("sweep.plan_shards_us", "us", "lower"),
    m("sweep.merge_us_per_cell", "us", "lower"),
    m("sweep.first_cell_ms", "ms", "lower"),
    m("sweep.pool_efficiency", "ratio", "higher"),
    m("sweep.wire_overhead_pct", "%", "lower"),
    m("sweep.dist_overhead_pct", "%", "lower"),
    m("sweep.cache_hits", "count", "higher"),
    m("sweep.cache_misses", "count", "lower"),
    m("sweep.cache_stored", "count", "lower"),
    m("harness.wall_s", "s", "lower"),
    m("harness.yardstick_s", "s", "lower"),
    m("harness.host_speed_min", "ratio", "higher"),
    m("harness.host_speed_max", "ratio", "higher"),
    m("harness.heap_allocs_per_kinst", "allocs/kinst", "lower"),
    m("harness.trace_overhead_pct", "%", "lower"),
];

/// The definition of `name`, end-to-end or per-layer.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Allowed worsening of end-to-end metric `name`, as a share of the
/// baseline's median, from `BENCHMARK.json`.
pub fn bound(name: &str) -> Option<f64> {
    let doc = Json::parse(MANIFEST).ok()?;
    doc.get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

/// `run_seconds` from `BENCHMARK.json`: how long one run measures unless
/// told otherwise.
pub fn run_seconds() -> f64 {
    Json::parse(MANIFEST)
        .ok()
        .and_then(|d| d.get("run_seconds")?.as_f64())
        .unwrap_or(10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let doc = Json::parse(MANIFEST).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_names_benchmark_json_declares() {
        assert_eq!(emitted(&END_TO_END), declared("end_to_end"));
        assert_eq!(emitted(&PER_LAYER), declared("per_layer"));
        let doc = Json::parse(MANIFEST).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charsets() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for w in NAMES {
            assert!(name_ok(w) && seen.insert(w), "bad workload name {w:?}");
        }
        assert!(!name_ok("has space") && !name_ok("-leading") && !name_ok(""));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_is_among_them() {
        for d in &END_TO_END {
            let b = bound(d.name).unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
        assert_eq!(
            def("setup_s").map(|d| (d.unit, d.better)),
            Some(("s", "lower"))
        );
        assert!(
            bound("isa.exec_mips").is_none(),
            "per-layer metrics have no bound"
        );
        assert!((1.0..=60.0).contains(&run_seconds()));
    }
}
