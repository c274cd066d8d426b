//! Golden figures: every simulated figure of the stock models and workloads,
//! pinned to a checked-in table, so "bit-identical" after a host-speed
//! optimisation is asserted by `cargo test` and not read off a BENCH file.
//!
//! `golden_figures.txt` holds one line per cell — five models × the four
//! stock workloads under their default configurations, plus iCFP under a
//! 16-entry slice buffer (forces the overflow / simple-runahead fallback) and
//! under 4 MSHRs (forces the MSHR-full retry path) — with the *full*
//! `RunStats` and the final-state digest, and one line per model and workload
//! with the size and digest of a checkpoint taken half-way (the on-disk
//! layout, and where `advance` stops at an instruction limit).
//!
//! A change that moves a simulated figure on purpose regenerates the table:
//! `GOLDEN_REGEN=1 cargo test -p icfp-sim --test golden_figures`.

use icfp_core::CoreConfig;
use icfp_sim::{CoreModel, SimConfig, Simulator};
use std::fmt::Write as _;

const INSTS: usize = 20_000;
const SEED: u64 = 0x601D;
const TABLE: &str = include_str!("golden_figures.txt");

/// The two non-default iCFP configurations and the counter each must move.
fn stressed_configs() -> [(&'static str, CoreConfig); 2] {
    let mut small_slice = CoreModel::Icfp.default_config();
    small_slice.slice_buffer_entries = 16;
    let mut few_mshrs = CoreModel::Icfp.default_config();
    few_mshrs.mem.max_outstanding_misses = 4;
    [("slice16", small_slice), ("mshr4", few_mshrs)]
}

fn cell_line(config: &SimConfig, label: &str, trace: &icfp_isa::Trace) -> String {
    let r = Simulator::new(config.clone()).run(trace);
    format!(
        "{} {} {label}: {:?} digest={:#018x}",
        r.core, r.workload, r.result.stats, r.state_digest
    )
}

fn render_table() -> String {
    let mut out = String::new();
    for wl in icfp_workloads::STANDARD_NAMES {
        let trace = icfp_workloads::by_name(wl, INSTS, SEED).expect("standard workload");
        for model in CoreModel::ALL {
            writeln!(
                out,
                "{}",
                cell_line(&SimConfig::new(model), "default", &trace)
            )
            .unwrap();
        }
        for (label, cfg) in stressed_configs() {
            let config = SimConfig::with_config(CoreModel::Icfp, cfg);
            writeln!(out, "{}", cell_line(&config, label, &trace)).unwrap();
        }
        for model in CoreModel::ALL {
            let mut sim = Simulator::new(SimConfig::new(model));
            sim.load(trace.clone());
            sim.advance_to_inst(trace.len() / 2).expect("loaded");
            let bytes = sim.checkpoint().expect("mid-run checkpoint").to_bytes();
            let digest = icfp_isa::fnv1a(&bytes);
            writeln!(out, "ckpt {model} {wl} half: bytes={} digest={digest:#018x}", bytes.len()).unwrap();
        }
    }
    out
}

#[test]
fn simulated_figures_match_the_checked_in_table() {
    let rendered = render_table();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_figures.txt");
        std::fs::write(path, &rendered).expect("write the golden table");
        return;
    }
    for (k, (got, want)) in rendered.lines().zip(TABLE.lines()).enumerate() {
        assert_eq!(got, want, "golden figure on line {} moved", k + 1);
    }
    assert_eq!(rendered.lines().count(), TABLE.lines().count());
}

#[test]
fn the_stressed_configurations_reach_the_paths_they_are_there_for() {
    let field = |line: &str, name: &str| -> u64 {
        let rest = &line[line.find(name).expect("counter is in the table") + name.len() + 2..];
        rest[..rest.find([',', ' ']).unwrap()].parse().unwrap()
    };
    let lines = |label: &str| {
        let tag = format!(" {label}: ");
        TABLE
            .lines()
            .filter(move |l| l.starts_with("icfp ") && l.contains(&tag))
    };
    assert!(
        lines("slice16").any(|l| field(l, "simple_runahead_entries") > 0),
        "no workload overflowed the 16-entry slice buffer"
    );
    let stalls = |label: &str| -> u64 {
        lines(label)
            .map(|l| field(l, "resource_stall_cycles"))
            .sum()
    };
    assert!(
        stalls("mshr4") > stalls("default"),
        "4 MSHRs never filled: the MSHR-full retry path is not covered"
    );
}
