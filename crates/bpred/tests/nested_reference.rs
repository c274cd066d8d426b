//! The nested-table [`Btb`] and [`PpmPredictor`] the flat ones replaced — a
//! `Vec` of entries per set, a `Vec` per tagged table — kept as test
//! references: seeded random operation streams must get the same answers
//! from both.

use icfp_bpred::ppm::MAX_TABLES;
use icfp_bpred::{Btb, PpmConfig, PpmPredictor};
use icfp_isa::Addr;

#[derive(Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: Addr,
    target: Addr,
    lru: u64,
}

struct NestedBtb {
    sets: Vec<Vec<BtbEntry>>,
    tick: u64,
}

impl NestedBtb {
    fn new(entries: usize, assoc: usize) -> Self {
        let num_sets = (entries / assoc).next_power_of_two();
        NestedBtb { sets: vec![vec![BtbEntry::default(); assoc]; num_sets], tick: 0 }
    }

    fn set(&mut self, pc: Addr) -> &mut Vec<BtbEntry> {
        let sets = self.sets.len();
        &mut self.sets[((pc >> 2) as usize) & (sets - 1)]
    }

    fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.set(pc).iter().find(|e| e.valid && e.tag == pc).map(|e| e.target)
    }

    fn insert(&mut self, pc: Addr, target: Addr) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set(pc);
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == pc) {
            (e.target, e.lru) = (target, tick);
            return;
        }
        let victim = set.iter_mut().min_by_key(|e| if e.valid { e.lru } else { 0 }).expect("associativity > 0");
        *victim = BtbEntry { valid: true, tag: pc, target, lru: tick };
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|e| e.valid).count()
    }
}

#[derive(Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    counter: u8,
    useful: bool,
    valid: bool,
}

struct NestedPpm {
    config: PpmConfig,
    base: Vec<u8>,
    tagged: Vec<Vec<TaggedEntry>>,
    history: u64,
}

impl NestedPpm {
    fn new(config: PpmConfig) -> Self {
        NestedPpm {
            base: vec![1; 1 << config.base_bits],
            tagged: vec![vec![TaggedEntry::default(); 1 << config.tagged_bits]; config.history_lengths.len()],
            config,
            history: 0,
        }
    }

    fn fold_history(&self, length: u32, bits: u32) -> u64 {
        let mut h = if length >= 64 { self.history } else { self.history & ((1u64 << length) - 1).max(1) };
        let mut folded = 0u64;
        while h != 0 {
            folded ^= h & ((1u64 << bits) - 1);
            h >>= bits;
        }
        folded
    }

    /// Every table's `(index, tag)` for `pc` and the providing table.
    fn lookup(&self, pc: Addr) -> ([(usize, u16); MAX_TABLES], Option<usize>) {
        let (bits, tag_bits) = (self.config.tagged_bits, self.config.tag_bits);
        let mut slots = [(0, 0); MAX_TABLES];
        let mut provider = None;
        for (t, &length) in self.config.history_lengths.iter().enumerate() {
            let hist = self.fold_history(length, bits);
            let idx = ((pc >> 2) ^ hist ^ ((pc >> 2) >> bits) ^ (t as u64).wrapping_mul(0x9E37_79B1)) as usize & ((1 << bits) - 1);
            let tag_hist = self.fold_history(length, tag_bits);
            let tag = (((pc >> 2) ^ (tag_hist << 1) ^ (pc >> 11)) as u32 & ((1u32 << tag_bits) - 1)) as u16;
            slots[t] = (idx, tag);
            let e = &self.tagged[t][idx];
            if e.valid && e.tag == tag {
                provider = Some(t);
            }
        }
        (slots, provider)
    }

    fn base_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_bits) - 1)
    }

    fn predict(&self, pc: Addr) -> bool {
        match self.lookup(pc) {
            (slots, Some(t)) => self.tagged[t][slots[t].0].counter >= 4,
            (_, None) => self.base[self.base_index(pc)] >= 2,
        }
    }

    fn update(&mut self, pc: Addr, taken: bool) -> bool {
        let predicted = self.predict(pc);
        let (slots, provider) = self.lookup(pc);
        let bump = |c: u8, max: u8| if taken { (c + 1).min(max) } else { c.saturating_sub(1) };
        match provider {
            Some(t) => {
                let e = &mut self.tagged[t][slots[t].0];
                e.counter = bump(e.counter, 7);
                e.useful = predicted == taken;
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = bump(self.base[idx], 3);
            }
        }
        if predicted != taken {
            let start = provider.map_or(0, |t| t + 1);
            for (table, &(idx, tag)) in self.tagged.iter_mut().zip(&slots).skip(start) {
                let e = &mut table[idx];
                if !e.valid || !e.useful {
                    let counter = if taken { 4 } else { 3 };
                    *e = TaggedEntry { tag, counter, useful: false, valid: true };
                    break;
                }
            }
        }
        self.history = (self.history << 1) | u64::from(taken);
        predicted
    }
}

/// splitmix64: the operation streams' seeded generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn flat_btb_matches_the_nested_reference_on_random_operations() {
    // The paper's 2K x 4, a small one, and a set count rounded up to a power
    // of two (24 / 4 = 6 sets -> 8).
    for (seed, (entries, assoc)) in [(2048, 4), (8, 2), (24, 4)].into_iter().enumerate() {
        let (mut flat, mut nested) = (Btb::new(entries, assoc), NestedBtb::new(entries, assoc));
        let mut state = seed as u64;
        for k in 0..30_000 {
            let r = next(&mut state);
            // Three branch sites per entry, so sets fill and evict.
            let pc = 0x40_0000 + (r % (entries as u64 * 3)) * 4;
            if (r >> 40).is_multiple_of(2) {
                assert_eq!(flat.lookup(pc), nested.lookup(pc), "{entries}x{assoc} op {k}");
            } else {
                flat.insert(pc, r >> 44);
                nested.insert(pc, r >> 44);
            }
            assert_eq!(flat.occupancy(), nested.occupancy(), "{entries}x{assoc} op {k}");
        }
    }
}

#[test]
fn flat_ppm_matches_the_nested_reference_on_random_updates() {
    let mut wide = PpmConfig::tiny();
    (wide.tag_bits, wide.history_lengths) = (16, vec![3, 9, 20, 64]);
    for (seed, config) in [PpmConfig::paper_default(), PpmConfig::tiny(), wide].into_iter().enumerate() {
        let (mut flat, mut nested) = (PpmPredictor::new(config.clone()), NestedPpm::new(config.clone()));
        let mut state = seed as u64;
        for k in 0..30_000 {
            let r = next(&mut state);
            // A few dozen branch sites; each biased by its own pc so history
            // tables have patterns to learn and entries to allocate.
            let pc = 0x2000 + (r % 48) * 4;
            let taken = (r >> 32) % 8 < (pc >> 2) % 8;
            assert_eq!(flat.predict(pc), nested.predict(pc), "{config:?} op {k}");
            assert_eq!(flat.update(pc, taken), nested.update(pc, taken), "{config:?} op {k}");
        }
    }
}
