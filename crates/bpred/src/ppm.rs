//! PPM-like tag-based direction predictor (Michaud, JILP 2005) — the
//! predictor the paper configures as a "24 Kbyte 3-table PPM direction
//! predictor".
//!
//! Structure: a tagless bimodal base table plus `N` tagged tables indexed by
//! hashes of increasingly long global-history prefixes.  Prediction comes from
//! the longest-history table that tags-match; update trains the providing
//! table and allocates into a longer-history table on a mis-prediction.

use icfp_isa::Addr;
use serde::{Deserialize, Reader, Serialize};

/// Configuration of the PPM predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PpmConfig {
    /// log2 of the number of entries in the bimodal base table.
    pub base_bits: u32,
    /// log2 of the number of entries in each tagged table.
    pub tagged_bits: u32,
    /// Global-history lengths used by the tagged tables (shortest first).
    pub history_lengths: Vec<u32>,
    /// Tag width in bits.
    pub tag_bits: u32,
}

impl PpmConfig {
    /// A 3-tagged-table configuration totalling roughly 24 KB of state, per
    /// the paper's Table 1.
    pub fn paper_default() -> Self {
        PpmConfig {
            base_bits: 13,     // 8K 2-bit counters = 2 KB
            tagged_bits: 12,   // 3 × 4K entries × ~11 bits ≈ 16.5 KB
            history_lengths: vec![4, 12, 32],
            tag_bits: 8,
        }
    }

    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        PpmConfig {
            base_bits: 6,
            tagged_bits: 6,
            history_lengths: vec![2, 6],
            tag_bits: 6,
        }
    }
}

impl Default for PpmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit up/down counter, 0..=7, taken if >= 4.
    counter: u8,
    /// Usefulness bit for replacement.
    useful: bool,
    valid: bool,
}

/// The PPM-like direction predictor.
#[derive(Debug, Clone, Serialize)]
pub struct PpmPredictor {
    config: PpmConfig,
    /// 2-bit counters, taken if >= 2.
    base: Vec<u8>,
    /// The tagged tables back to back: table `t`'s entry `i` is at
    /// `t << tagged_bits | i`.
    tagged: Vec<TaggedEntry>,
    /// Global history register (most recent outcome in bit 0).
    history: u64,
}

impl PpmConfig {
    /// Validates the configuration's structural limits.
    ///
    /// # Errors
    ///
    /// Tags are stored in `u16` (so `tag_bits` must be 1..=16), table index
    /// widths must stay addressable, and at least one tagged table must
    /// exist.
    pub fn validate(&self) -> Result<(), String> {
        if self.tag_bits == 0 || self.tag_bits > 16 {
            return Err(format!(
                "ppm tag_bits must be 1..=16 (tags are u16), got {}",
                self.tag_bits
            ));
        }
        if self.base_bits == 0 || self.base_bits > 28 {
            return Err(format!("ppm base_bits must be 1..=28, got {}", self.base_bits));
        }
        if self.tagged_bits == 0 || self.tagged_bits > 28 {
            return Err(format!(
                "ppm tagged_bits must be 1..=28, got {}",
                self.tagged_bits
            ));
        }
        if self.history_lengths.is_empty() {
            return Err("ppm needs at least one tagged history length".into());
        }
        if self.history_lengths.len() > MAX_TABLES {
            return Err(format!(
                "ppm supports at most {MAX_TABLES} tagged history lengths, got {}",
                self.history_lengths.len()
            ));
        }
        Ok(())
    }
}

/// Upper bound on the number of tagged tables, so per-branch lookups can use
/// fixed stack arrays instead of heap scratch.  The paper's configuration uses
/// 3 tables; [`PpmConfig::validate`] rejects geometries above this bound.
pub const MAX_TABLES: usize = 16;

/// Per-table indices and tags for one branch PC, computed once per lookup.
///
/// Index and tag hashing each fold the global history register, so computing
/// them is the expensive part of a prediction.  `predict` + `update` used to
/// redo this walk three times per resolved branch; a `Lookup` is computed once
/// and shared across provider selection, the prediction read, provider
/// training and mis-prediction allocation.
struct Lookup {
    tables: usize,
    /// Each table's entry, as an index into the flat tagged array.
    idx: [usize; MAX_TABLES],
    tag: [u16; MAX_TABLES],
    /// Longest-history table whose entry tag-matches, if any.
    provider: Option<usize>,
}

/// The tag mask for a tag of `tag_bits` bits.  Written with an explicit
/// full-width case because `(1u16 << 16) - 1` overflows the shift (a panic in
/// debug builds, silent wrap in release).
#[inline]
fn tag_mask(tag_bits: u32) -> u16 {
    if tag_bits >= 16 {
        u16::MAX
    } else {
        (1u16 << tag_bits) - 1
    }
}

impl PpmPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PpmConfig::validate`] — invalid
    /// geometries are rejected at construction rather than corrupting
    /// predictions (or overflowing shifts) later.
    pub fn new(config: PpmConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid PPM configuration: {e}");
        }
        let base = vec![1u8; 1 << config.base_bits];
        let tagged = vec![TaggedEntry::default(); config.history_lengths.len() << config.tagged_bits];
        PpmPredictor {
            config,
            base,
            tagged,
            history: 0,
        }
    }

    fn fold_history(&self, length: u32, bits: u32) -> u64 {
        // Fold `length` bits of history into `bits` bits by xoring chunks.
        let mut h = self.history & ((1u64 << length.min(63)) - 1).max(1);
        if length >= 64 {
            h = self.history;
        }
        let mut folded = 0u64;
        let mask = (1u64 << bits) - 1;
        while h != 0 {
            folded ^= h & mask;
            h >>= bits;
        }
        folded
    }

    /// The flat index of `pc`'s entry in tagged table `table`.
    fn tagged_index(&self, pc: Addr, table: usize) -> usize {
        let bits = self.config.tagged_bits;
        let hist = self.fold_history(self.config.history_lengths[table], bits);
        let idx = (pc >> 2) ^ hist ^ ((pc >> 2) >> bits) ^ (table as u64).wrapping_mul(0x9E3779B1);
        (table << bits) | ((idx as usize) & ((1 << bits) - 1))
    }

    fn tag_of(&self, pc: Addr, table: usize) -> u16 {
        let hist = self.fold_history(self.config.history_lengths[table], self.config.tag_bits);
        let t = (pc >> 2) ^ (hist << 1) ^ (pc >> 11);
        (t as u16) & tag_mask(self.config.tag_bits)
    }

    fn base_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_bits) - 1)
    }

    /// Computes every table's index and tag for `pc` (one history-fold walk)
    /// and finds the providing table: the longest-history tagged table whose
    /// entry tag-matches.
    fn lookup(&self, pc: Addr) -> Lookup {
        let tables = self.num_tables();
        let mut lk = Lookup {
            tables,
            idx: [0; MAX_TABLES],
            tag: [0; MAX_TABLES],
            provider: None,
        };
        for t in 0..tables {
            let idx = self.tagged_index(pc, t);
            let tag = self.tag_of(pc, t);
            lk.idx[t] = idx;
            lk.tag[t] = tag;
            let e = &self.tagged[idx];
            if e.valid && e.tag == tag {
                // Tables are walked shortest-history first; the last match is
                // the longest-history provider.
                lk.provider = Some(t);
            }
        }
        lk
    }

    /// Reads the prediction out of an already-computed [`Lookup`].
    fn predict_from(&self, lk: &Lookup, pc: Addr) -> bool {
        match lk.provider {
            Some(t) => self.tagged[lk.idx[t]].counter >= 4,
            None => self.base[self.base_index(pc)] >= 2,
        }
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: Addr) -> bool {
        let lk = self.lookup(pc);
        self.predict_from(&lk, pc)
    }

    /// Updates the predictor with the resolved direction of the branch at
    /// `pc`, and returns the direction it predicted *before* the update — so
    /// resolving a branch needs a single table walk, not separate
    /// `predict` + `update` passes.
    pub fn update(&mut self, pc: Addr, taken: bool) -> bool {
        let lk = self.lookup(pc);
        let predicted = self.predict_from(&lk, pc);

        match lk.provider {
            Some(t) => {
                let e = &mut self.tagged[lk.idx[t]];
                e.counter = bump3(e.counter, taken);
                e.useful = predicted == taken;
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = bump2(self.base[idx], taken);
            }
        }

        // On a mis-prediction, allocate in a table with longer history than
        // the provider (PPM/TAGE-style allocation).
        if predicted != taken {
            let start = lk.provider.map(|t| t + 1).unwrap_or(0);
            for t in start..lk.tables {
                let e = &mut self.tagged[lk.idx[t]];
                if !e.valid || !e.useful {
                    *e = TaggedEntry {
                        tag: lk.tag[t],
                        counter: if taken { 4 } else { 3 },
                        useful: false,
                        valid: true,
                    };
                    break;
                }
            }
        }

        self.history = (self.history << 1) | u64::from(taken);
        predicted
    }

    /// Number of tagged tables.
    pub fn num_tables(&self) -> usize {
        self.config.history_lengths.len()
    }

    /// Approximate storage budget of the predictor in bytes.
    pub fn storage_bytes(&self) -> usize {
        let base_bits = self.base.len() * 2;
        let per_entry = 3 + 1 + self.config.tag_bits as usize;
        let tagged_bits = self.tagged.len() * per_entry;
        (base_bits + tagged_bits) / 8
    }
}

/// Refuses a configuration [`PpmPredictor::new`] would refuse and tables
/// whose sizes disagree with it.
impl Deserialize for PpmPredictor {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let config: PpmConfig = Deserialize::deserialize(r)?;
        if config.validate().is_err() {
            return Err(serde::Error::invalid("ppm configuration", r.position()));
        }
        Ok(PpmPredictor {
            base: serde::vec_of_len(r, 1 << config.base_bits, "ppm base table size")?,
            tagged: serde::vec_of_len(
                r,
                config.history_lengths.len() << config.tagged_bits,
                "ppm tagged table size",
            )?,
            config,
            history: Deserialize::deserialize(r)?,
        })
    }
}

fn bump2(c: u8, up: bool) -> u8 {
    if up {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

fn bump3(c: u8, up: bool) -> u8 {
    if up {
        (c + 1).min(7)
    } else {
        c.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate() {
        assert_eq!(bump2(3, true), 3);
        assert_eq!(bump2(0, false), 0);
        assert_eq!(bump3(7, true), 7);
        assert_eq!(bump3(0, false), 0);
    }

    #[test]
    fn always_taken_is_learned_quickly() {
        let mut p = PpmPredictor::new(PpmConfig::tiny());
        for _ in 0..8 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
    }

    #[test]
    fn short_period_pattern_is_learned_via_history() {
        let mut p = PpmPredictor::new(PpmConfig::paper_default());
        // Pattern with period 4: T T N T
        let pattern = [true, true, false, true];
        let mut wrong_late = 0;
        for i in 0..4000usize {
            let taken = pattern[i % 4];
            if i > 2000 && p.predict(0x200) != taken {
                wrong_late += 1;
            }
            p.update(0x200, taken);
        }
        assert!(wrong_late < 100, "pattern not learned: {wrong_late} wrong");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_much() {
        let mut p = PpmPredictor::new(PpmConfig::paper_default());
        for _ in 0..200 {
            p.update(0x100, true);
            p.update(0x204, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x204));
    }

    #[test]
    fn full_width_tags_do_not_overflow_the_mask_shift() {
        // tag_bits == 16 used to evaluate `(1u16 << 16) - 1`: a panic in
        // debug builds.  The predictor must construct and train normally.
        let mut cfg = PpmConfig::tiny();
        cfg.tag_bits = 16;
        let mut p = PpmPredictor::new(cfg);
        for i in 0..64u64 {
            p.update(0x100 + (i % 4) * 8, i % 3 != 0);
        }
        let _ = p.predict(0x100);
        assert_eq!(tag_mask(16), u16::MAX);
        assert_eq!(tag_mask(8), 0xFF);
        assert_eq!(tag_mask(1), 0x01);
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        for (mutate, what) in [
            ((|c: &mut PpmConfig| c.tag_bits = 0) as fn(&mut PpmConfig), "tag_bits"),
            (|c| c.tag_bits = 17, "tag_bits"),
            (|c| c.base_bits = 0, "base_bits"),
            (|c| c.tagged_bits = 40, "tagged_bits"),
            (|c| c.history_lengths.clear(), "history length"),
            (|c| c.history_lengths = vec![2; MAX_TABLES + 1], "history lengths"),
        ] {
            let mut cfg = PpmConfig::tiny();
            mutate(&mut cfg);
            let err = cfg.validate().expect_err(what);
            assert!(err.contains(what), "{what}: {err}");
            let result = std::panic::catch_unwind(|| PpmPredictor::new(cfg.clone()));
            assert!(result.is_err(), "{what} must be rejected at construction");
        }
    }

    #[test]
    fn update_returns_the_pre_update_prediction() {
        let mut p = PpmPredictor::new(PpmConfig::tiny());
        let mut x = 0xdeadbeefu64;
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x100 + (x % 8) * 4;
            let taken = x & 2 != 0;
            let before = p.predict(pc);
            assert_eq!(p.update(pc, taken), before);
        }
    }

    #[test]
    fn storage_budget_is_near_24_kbytes() {
        let p = PpmPredictor::new(PpmConfig::paper_default());
        let kb = p.storage_bytes() as f64 / 1024.0;
        assert!(kb > 15.0 && kb < 32.0, "storage {kb} KB not near 24 KB");
        assert_eq!(p.num_tables(), 3);
    }
}
