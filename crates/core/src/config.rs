//! Configuration of the core models.

use icfp_bpred::PredictorConfig;
use icfp_mem::MemConfig;
use icfp_pipeline::PipelineConfig;
use serde::{Deserialize, Serialize};

/// Which misses a non-blocking design advances under (and, symmetrically,
/// which misses encountered *during* advance execution it tolerates by
/// poisoning rather than stalling).
///
/// These are the knobs swept in Figure 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdvancePolicy {
    /// Never advance: behave like the vanilla in-order pipeline.
    Never,
    /// Advance only under L2 misses; data-cache misses (primary or secondary)
    /// stall.  The paper's default for Runahead and SLTP.
    L2Only,
    /// Advance under L2 misses and *primary* data-cache misses; secondary
    /// data-cache misses stall.  The paper's default for Multipass.
    L2AndPrimaryDcache,
    /// Advance under every miss, primary or secondary, at any level.  The
    /// paper's default for iCFP.
    AllMisses,
}

impl AdvancePolicy {
    /// Whether a *primary* miss with the given classification triggers a
    /// transition to advance mode.
    pub fn triggers_on(self, is_l2_miss: bool) -> bool {
        match self {
            AdvancePolicy::Never => false,
            AdvancePolicy::L2Only => is_l2_miss,
            AdvancePolicy::L2AndPrimaryDcache | AdvancePolicy::AllMisses => true,
        }
    }

    /// Whether a *secondary* data-cache miss (L2 hit) encountered during
    /// advance execution is poisoned (non-blocking) rather than waited on.
    pub fn poisons_secondary_dcache(self) -> bool {
        matches!(self, AdvancePolicy::AllMisses)
    }
}

/// Which store-buffer organisation iCFP uses for advance-store forwarding
/// (Figure 8 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoreBufferKind {
    /// Address-hash chained store buffer (the paper's design).
    Chained,
    /// Idealised fully-associative search (upper bound).
    FullyAssociative,
    /// Indexed buffer with limited forwarding: a chain-table hit whose store
    /// address does not match stalls the pipeline (the iCFP equivalent of
    /// out-of-order CFP's SRL/LCF scheme).
    IndexedLimited,
}

/// Feature flags for the iCFP "build" of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcfpFeatures {
    /// Use the chained store buffer (`true`) or an SLTP-style SRL memory
    /// system (`false`): the same buffer, sized by
    /// [`CoreConfig::srl_entries`] instead of
    /// [`CoreConfig::store_buffer_entries`], whose program-order drain after
    /// a rally pass stalls the tail one cycle per store.
    pub chained_store_buffer: bool,
    /// Multiple non-blocking rallies (`true`) vs. a single blocking rally
    /// (`false`).
    pub nonblocking_rallies: bool,
    /// Width of the poison vectors (1 = classic single poison bit, 8 = paper
    /// default).
    pub poison_vector_width: u8,
    /// Interleave rally execution with tail execution (multithreaded rally).
    pub multithreaded_rally: bool,
}

impl IcfpFeatures {
    /// The full iCFP design (rightmost bar of Figure 7).
    pub fn full() -> Self {
        IcfpFeatures {
            chained_store_buffer: true,
            nonblocking_rallies: true,
            poison_vector_width: 8,
            multithreaded_rally: true,
        }
    }

    /// The starting point of the Figure 7 build: SRL memory system, single
    /// blocking rallies, 1-bit poison, no multithreading.  This is SLTP:
    /// [`CoreModel::Sltp`](crate::CoreModel::Sltp) runs iCFP's machine
    /// ([`crate::IcfpMachine`]) under these features
    /// ([`CoreConfig::sltp_default`]), so Figure 7's first bar is the SLTP
    /// bar by construction.
    pub fn srl_blocking() -> Self {
        IcfpFeatures {
            chained_store_buffer: false,
            nonblocking_rallies: false,
            poison_vector_width: 1,
            multithreaded_rally: false,
        }
    }

    /// The named steps of the Figure 7 build, in order.
    pub fn build_steps() -> Vec<(&'static str, IcfpFeatures)> {
        let b1 = Self::srl_blocking();
        let b2 = IcfpFeatures {
            chained_store_buffer: true,
            ..b1
        };
        let b3 = IcfpFeatures {
            nonblocking_rallies: true,
            ..b2
        };
        let b4 = IcfpFeatures {
            poison_vector_width: 8,
            ..b3
        };
        let b5 = IcfpFeatures {
            multithreaded_rally: true,
            ..b4
        };
        vec![
            ("SRL memory system, single blocking rallies, 1-bit poison", b1),
            ("+ Address-hash chaining", b2),
            ("+ Multiple non-blocking rallies", b3),
            ("+ 8-bit poison vectors", b4),
            ("+ Multithreaded rallies (iCFP)", b5),
        ]
    }
}

impl Default for IcfpFeatures {
    fn default() -> Self {
        Self::full()
    }
}

/// Complete configuration for any of the core models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Pipeline width/ports/penalties.
    pub pipeline: PipelineConfig,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Which misses trigger and are tolerated during advance execution.
    pub advance_policy: AdvancePolicy,
    /// Slice buffer capacity (iCFP and SLTP; Table 1: 128).
    pub slice_buffer_entries: usize,
    /// iCFP chained store buffer capacity (Table 1: 128).
    pub store_buffer_entries: usize,
    /// iCFP chain-table entries (Table 1: 512; Section 5.2 sweeps this).
    pub chain_table_entries: usize,
    /// Runahead cache entries (Runahead / Multipass; Table 1: 256).
    pub runahead_cache_entries: usize,
    /// Multipass result/instruction buffer entries (Table 1: 128).
    pub result_buffer_entries: usize,
    /// Store-redo-log entries (Table 1: 128): the store buffer's capacity
    /// under the SRL memory system (`features.chained_store_buffer` off, as
    /// in SLTP), in place of `store_buffer_entries`.
    pub srl_entries: usize,
    /// Store-buffer organisation used by iCFP (Figure 8 knob).
    pub store_buffer_kind: StoreBufferKind,
    /// iCFP feature flags (Figure 7 knobs).
    pub features: IcfpFeatures,
    /// Extra load latency per excess store-buffer hop when chaining
    /// (the first probe is free because it proceeds in parallel with the
    /// data-cache access, Section 3.2).
    pub chain_hop_penalty: u64,
}

impl CoreConfig {
    /// Ceiling on every structure size [`CoreConfig::validate`] checks — far
    /// above anything the paper sweeps (Table 1 tops out at 512), far below
    /// what an allocation could not survive.
    pub const MAX_STRUCTURE_ENTRIES: usize = 1 << 16;

    /// The one definition of a configuration the models can be built from:
    /// every structure size the models allocate up front — slice buffer,
    /// store buffer, chain table, MSHRs, the store redo log, the runahead
    /// cache, the baseline store queue — lies in
    /// `1..=`[`CoreConfig::MAX_STRUCTURE_ENTRIES`].  A zero panics
    /// `SliceBuffer::new` or the first store of a baseline run, or retries a
    /// miss forever; an oversized value aborts the process in the allocator.
    /// Everything that builds a model from outside input (a sweep spec, a
    /// checkpoint) calls this first.
    ///
    /// # Errors
    ///
    /// Names the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        for (field, n) in [
            ("slice_buffer_entries", self.slice_buffer_entries),
            ("store_buffer_entries", self.store_buffer_entries),
            ("chain_table_entries", self.chain_table_entries),
            ("mem.max_outstanding_misses", self.mem.max_outstanding_misses),
            ("srl_entries", self.srl_entries),
            ("runahead_cache_entries", self.runahead_cache_entries),
            ("pipeline.baseline_store_buffer", self.pipeline.baseline_store_buffer),
        ] {
            if !(1..=Self::MAX_STRUCTURE_ENTRIES).contains(&n) {
                return Err(format!(
                    "{field} = {n} (must be in 1..={})",
                    Self::MAX_STRUCTURE_ENTRIES
                ));
            }
        }
        Ok(())
    }

    /// The paper's Table 1 configuration with iCFP defaults (advance under
    /// all misses, full feature set).
    pub fn paper_default() -> Self {
        CoreConfig {
            pipeline: PipelineConfig::paper_default(),
            predictor: PredictorConfig::paper_default(),
            mem: MemConfig::paper_default(),
            advance_policy: AdvancePolicy::AllMisses,
            slice_buffer_entries: 128,
            store_buffer_entries: 128,
            chain_table_entries: 512,
            runahead_cache_entries: 256,
            result_buffer_entries: 128,
            srl_entries: 128,
            store_buffer_kind: StoreBufferKind::Chained,
            features: IcfpFeatures::full(),
            chain_hop_penalty: 1,
        }
    }

    /// The paper's per-design default advance policies (Section 5.1): Runahead
    /// and SLTP advance only under L2 misses, Multipass also under primary
    /// data-cache misses, iCFP under everything.
    pub fn runahead_default() -> Self {
        Self::paper_default().with_advance_policy(AdvancePolicy::L2Only)
    }

    /// Multipass default configuration (advance under L2 and primary D$ misses).
    pub fn multipass_default() -> Self {
        Self::paper_default().with_advance_policy(AdvancePolicy::L2AndPrimaryDcache)
    }

    /// SLTP default configuration: advance under L2 misses only, on the
    /// first step of the Figure 7 build ([`IcfpFeatures::srl_blocking`]).
    pub fn sltp_default() -> Self {
        Self::paper_default()
            .with_advance_policy(AdvancePolicy::L2Only)
            .with_features(IcfpFeatures::srl_blocking())
    }

    /// A scaled-down configuration for fast unit tests.
    pub fn tiny_for_tests() -> Self {
        CoreConfig {
            mem: MemConfig::tiny_for_tests(),
            slice_buffer_entries: 16,
            store_buffer_entries: 16,
            chain_table_entries: 16,
            runahead_cache_entries: 16,
            result_buffer_entries: 16,
            srl_entries: 16,
            ..Self::paper_default()
        }
    }

    /// Builder-style override of the advance policy.
    pub fn with_advance_policy(mut self, policy: AdvancePolicy) -> Self {
        self.advance_policy = policy;
        self
    }

    /// Builder-style override of the iCFP feature flags.
    pub fn with_features(mut self, features: IcfpFeatures) -> Self {
        self.features = features;
        self
    }

    /// Builder-style override of the store-buffer organisation.
    pub fn with_store_buffer_kind(mut self, kind: StoreBufferKind) -> Self {
        self.store_buffer_kind = kind;
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1_structures() {
        let c = CoreConfig::paper_default();
        assert_eq!(c.slice_buffer_entries, 128);
        assert_eq!(c.store_buffer_entries, 128);
        assert_eq!(c.chain_table_entries, 512);
        assert_eq!(c.runahead_cache_entries, 256);
        assert_eq!(c.srl_entries, 128);
        assert_eq!(c.features.poison_vector_width, 8);
    }

    #[test]
    fn advance_policy_triggering() {
        assert!(!AdvancePolicy::Never.triggers_on(true));
        assert!(AdvancePolicy::L2Only.triggers_on(true));
        assert!(!AdvancePolicy::L2Only.triggers_on(false));
        assert!(AdvancePolicy::L2AndPrimaryDcache.triggers_on(false));
        assert!(AdvancePolicy::AllMisses.triggers_on(false));
        assert!(AdvancePolicy::AllMisses.poisons_secondary_dcache());
        assert!(!AdvancePolicy::L2Only.poisons_secondary_dcache());
    }

    #[test]
    fn per_design_defaults_follow_section_5_1() {
        assert_eq!(CoreConfig::runahead_default().advance_policy, AdvancePolicy::L2Only);
        assert_eq!(
            CoreConfig::multipass_default().advance_policy,
            AdvancePolicy::L2AndPrimaryDcache
        );
        assert_eq!(CoreConfig::sltp_default().advance_policy, AdvancePolicy::L2Only);
        assert_eq!(CoreConfig::sltp_default().features, IcfpFeatures::srl_blocking());
        assert_eq!(CoreConfig::paper_default().advance_policy, AdvancePolicy::AllMisses);
    }

    #[test]
    fn figure7_build_steps_are_monotone() {
        let steps = IcfpFeatures::build_steps();
        assert_eq!(steps.len(), 5);
        assert_eq!(steps[0].1, IcfpFeatures::srl_blocking());
        assert_eq!(steps[4].1, IcfpFeatures::full());
        assert!(!steps[1].1.nonblocking_rallies);
        assert!(steps[2].1.nonblocking_rallies);
        assert_eq!(steps[3].1.poison_vector_width, 8);
        assert!(steps[4].1.multithreaded_rally);
    }

    #[test]
    fn validate_bounds_every_structure_size_and_names_the_field() {
        for c in [
            CoreConfig::paper_default(),
            CoreConfig::tiny_for_tests(),
            CoreConfig::sltp_default(),
        ] {
            assert_eq!(c.validate(), Ok(()));
        }
        type Set = fn(&mut CoreConfig, usize);
        let fields: [(&str, Set); 7] = [
            ("slice_buffer_entries", |c, n| c.slice_buffer_entries = n),
            ("store_buffer_entries", |c, n| c.store_buffer_entries = n),
            ("chain_table_entries", |c, n| c.chain_table_entries = n),
            ("mem.max_outstanding_misses", |c, n| c.mem.max_outstanding_misses = n),
            ("srl_entries", |c, n| c.srl_entries = n),
            ("runahead_cache_entries", |c, n| c.runahead_cache_entries = n),
            ("pipeline.baseline_store_buffer", |c, n| c.pipeline.baseline_store_buffer = n),
        ];
        for (field, set) in fields {
            for bad in [0, CoreConfig::MAX_STRUCTURE_ENTRIES + 1, usize::MAX / 2] {
                let mut c = CoreConfig::paper_default();
                set(&mut c, bad);
                let err = c.validate().unwrap_err();
                assert!(err.contains(field) && err.contains(&bad.to_string()), "{err}");
            }
            let mut c = CoreConfig::paper_default();
            set(&mut c, CoreConfig::MAX_STRUCTURE_ENTRIES);
            assert_eq!(c.validate(), Ok(()), "the ceiling itself is legal");
        }
    }

    #[test]
    fn builder_overrides() {
        let mut c = CoreConfig::paper_default();
        c.mem.l2_hit_latency = 40;
        let c = c.with_store_buffer_kind(StoreBufferKind::FullyAssociative);
        assert_eq!(c.mem.l2_hit_latency, 40);
        assert_eq!(c.store_buffer_kind, StoreBufferKind::FullyAssociative);
    }
}
