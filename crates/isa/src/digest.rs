//! The workspace's two digest primitives, one per domain.
//!
//! **[`Fnv1a`] — bytes.**  Final architectural state
//! (`RunResult::state_digest`), sweep reports, result-cache keys and entries,
//! checkpoint containers, the trace container's *index* digest and the wire all
//! hash byte strings with FNV-1a 64.  Those values are persisted in
//! `golden_figures.txt`, `icfp-cache/v1` directories, `icfp-ckpt` files and
//! `icfp-trace` index trailers, so [`Fnv1a`] must hash identically forever.
//!
//! **[`InstDigest`] — instruction content.**  The identity of a trace
//! ([`crate::Trace::digest`], [`crate::TraceSource::digest`]) and of each of
//! its blocks ([`crate::block_digest_of`]) is a function of the [`DynInst`]
//! *field values*, not of any encoding of them.  It is persisted in the
//! per-block and whole-trace digests of `icfp-trace/v1|v2` indexes, in the
//! trace identity an `icfp-ckpt` file resumes against, and (through the
//! cache key) in `icfp-cache/v1` entry names; changing [`inst_mix`] or the
//! chain makes every such file refuse to open, resume or hit, with the typed
//! errors those readers already have.
//!
//! Both live here, in the crate every other crate already depends on, instead
//! of being re-implemented per subsystem where one typo could silently fork a
//! digest domain.

use crate::{DynInst, Reg};

/// Incremental FNV-1a 64 hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a variable-length field as its `u64` length followed by its
    /// bytes.  Composite keys built from several variable-length inputs (the
    /// sweep result cache digests model name, normalized configuration
    /// bytes, trace digest and instruction budget into one cell key) must use
    /// this instead of [`Fnv1a::write`], which would let `("ab", "c")` and
    /// `("a", "bc")` collide onto one digest.
    pub fn write_field(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Odd 64-bit constants (the wyhash secret and the SplitMix64 / Murmur3
/// finalizer multipliers): field salts for [`inst_mix`] and the chain
/// multiplier of [`InstDigest`].
const SALT: [u64; 8] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xff51_afd7_ed55_8ccd,
];
const CHAIN: u64 = 0xc4ce_b9fe_1a85_ec53;

/// 64 x 64 -> 128-bit multiply folded back to 64 bits: every input bit
/// reaches every output bit, in one `mul` and one `xor`.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// One instruction's contribution to a content digest: a pure function of
/// its field values.  The ten fields are packed into seven words and mixed by
/// four independent multiplies — nothing here depends on the previous
/// instruction, so consecutive calls overlap in the host's pipeline and the
/// only serial work per instruction is [`InstDigest::push_mix`].
///
/// Every `Option` keeps `None` apart from its zero value: registers enter as
/// `index + 1` (`None` = 0), `addr` and `branch` as a presence bit beside the
/// value, and `predictability` as its IEEE bit pattern.
#[inline]
pub fn inst_mix(inst: &DynInst) -> u64 {
    let reg = |r: Option<Reg>| r.map_or(0, |r| r.index() as u64 + 1);
    let shape = inst.op as u64
        | reg(inst.dst) << 8
        | reg(inst.src1) << 16
        | reg(inst.src2) << 24
        | (inst.width as u64) << 32
        | u64::from(inst.addr.is_some()) << 40;
    let (target, outcome) = inst.branch.map_or((0, 0), |b| {
        let outcome = u64::from(b.predictability.to_bits()) | u64::from(b.taken) << 32 | 1 << 33;
        (b.target, outcome)
    });
    fold(inst.seq ^ SALT[0], inst.pc ^ SALT[1])
        ^ fold(inst.imm ^ SALT[2], inst.addr.unwrap_or(0) ^ SALT[3])
        ^ fold(target ^ SALT[4], outcome ^ SALT[5])
        ^ fold(shape ^ SALT[6], SALT[7])
}

/// Incremental digest of an instruction sequence — the workspace's one
/// *instruction-content* hasher.  Order-sensitive (the chain step is a
/// rotate-xor-multiply, a bijection of the state for each mix) and
/// length-sensitive (the count is folded by [`InstDigest::finish`], last, so
/// a streaming producer needs no length up front).
#[derive(Debug, Clone, Default)]
pub struct InstDigest {
    chain: u64,
    len: u64,
}

impl InstDigest {
    /// The start of a block digest ([`crate::block_digest_of`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The start of a whole-trace digest: the chain is seeded with the
    /// trace's name, so equal content under two names is two identities.
    pub fn named(name: &str) -> Self {
        InstDigest { chain: fnv1a(name.as_bytes()), len: 0 }
    }

    /// Folds the next instruction, given its [`inst_mix`].  A producer that
    /// feeds several chains (the container writer and the generator scan
    /// keep a whole-trace and a per-block digest) computes the mix once.
    #[inline]
    pub fn push_mix(&mut self, mix: u64) {
        self.chain = (self.chain.rotate_left(23) ^ mix).wrapping_mul(CHAIN);
        self.len += 1;
    }

    /// Folds the next instruction.
    #[inline]
    pub fn push(&mut self, inst: &DynInst) {
        self.push_mix(inst_mix(inst));
    }

    /// The digest of everything pushed so far, its count folded last.
    pub fn finish(&self) -> u64 {
        let h = (self.chain.rotate_left(23) ^ self.len).wrapping_mul(CHAIN);
        h ^ (h >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.write_u64(0x1122334455667788);
        assert_eq!(h.finish(), fnv1a(&0x1122334455667788u64.to_le_bytes()));
    }

    #[test]
    fn length_prefixed_fields_do_not_collide_across_boundaries() {
        let key = |fields: &[&[u8]]| {
            let mut h = Fnv1a::new();
            for f in fields {
                h.write_field(f);
            }
            h.finish()
        };
        // Same concatenated bytes, different field boundaries.
        assert_ne!(key(&[b"ab", b"c"]), key(&[b"a", b"bc"]));
        assert_ne!(key(&[b"abc"]), key(&[b"abc", b""]));
        assert_ne!(key(&[b"", b"abc"]), key(&[b"abc"]));
        // Equal field sequences agree.
        assert_eq!(key(&[b"ab", b"c"]), key(&[b"ab", b"c"]));
        // write_field is write_u64(len) + write(bytes).
        let mut h = Fnv1a::new();
        h.write_field(b"xy");
        let mut g = Fnv1a::new();
        g.write_u64(2);
        g.write(b"xy");
        assert_eq!(h.finish(), g.finish());
    }

    use crate::inst::BranchInfo;
    use crate::{block_digest_of, MemWidth, Op, Trace};

    /// One instruction of each constructor shape, with distinct non-zero
    /// values in every field a constructor fills.
    fn shapes() -> Vec<DynInst> {
        [
            DynInst::alu(Op::Add, Reg::int(3), Reg::int(0), Reg::fp(2)),
            DynInst::alu_imm(Op::Xor, Reg::int(0), Reg::int(9), 77),
            DynInst::load(Reg::int(1), Reg::int(2), 0x4000),
            DynInst::store(Reg::int(0), Reg::int(2), 0),
            DynInst::branch(Reg::int(4), true, 0x2040, 0.75),
            DynInst::branch(Reg::int(0), false, 0, 0.0),
            DynInst::nop(),
        ]
        .into_iter()
        .enumerate()
        .map(|(k, i)| i.with_seq(k as u64).with_pc(0x1000 + 4 * k as u64))
        .collect()
    }

    /// Every single-field change, each reporting whether it applied to the
    /// instruction it was given (flipping `taken` needs a branch).
    type Mutation = (&'static str, fn(&mut DynInst) -> bool);
    const MUTATIONS: &[Mutation] = &[
        ("seq", |i| { i.seq += 1; true }),
        ("pc", |i| { i.pc ^= 4; true }),
        ("pc top bit", |i| { i.pc ^= 1 << 63; true }),
        ("op", |i| { i.op = if i.op == Op::Add { Op::Sub } else { Op::Add }; true }),
        ("dst presence", |i| { i.dst = presence(i.dst); true }),
        ("src1 presence", |i| { i.src1 = presence(i.src1); true }),
        ("src2 presence", |i| { i.src2 = presence(i.src2); true }),
        ("dst number", |i| next_reg(&mut i.dst)),
        ("src1 number", |i| next_reg(&mut i.src1)),
        ("src2 number", |i| next_reg(&mut i.src2)),
        ("imm", |i| { i.imm ^= 1; true }),
        ("imm top bit", |i| { i.imm ^= 1 << 63; true }),
        ("addr presence", |i| { i.addr = if i.addr.is_some() { None } else { Some(0) }; true }),
        ("addr value", |i| i.addr.as_mut().map(|a| *a ^= 64).is_some()),
        ("width", |i| { i.width = if i.width == MemWidth::B8 { MemWidth::B4 } else { MemWidth::B8 }; true }),
        ("branch presence", |i| {
            let none = BranchInfo { taken: false, target: 0, predictability: 0.0 };
            i.branch = if i.branch.is_some() { None } else { Some(none) };
            true
        }),
        ("taken", |i| i.branch.as_mut().map(|b| b.taken = !b.taken).is_some()),
        ("target", |i| i.branch.as_mut().map(|b| b.target ^= 8).is_some()),
        ("predictability", |i| i.branch.as_mut().map(|b| b.predictability += 0.125).is_some()),
        // 0.0 == -0.0 as floats; as content they are different bits.
        ("predictability sign", |i| i.branch.as_mut().map(|b| b.predictability = -b.predictability).is_some()),
    ];

    /// `None` <-> `Some(r0)`, the pair a zero-valued encoding would confuse.
    fn presence(r: Option<Reg>) -> Option<Reg> {
        if r.is_some() { None } else { Some(Reg::int(0)) }
    }

    fn next_reg(r: &mut Option<Reg>) -> bool {
        r.as_mut()
            .map(|r| *r = Reg::from_index((r.index() + 1) % crate::NUM_ARCH_REGS))
            .is_some()
    }

    #[test]
    fn any_single_field_change_moves_the_block_digest() {
        let base = shapes();
        let digest = block_digest_of(&base);
        for at in 0..base.len() {
            for (what, mutate) in MUTATIONS {
                let mut changed = base.clone();
                if mutate(&mut changed[at]) {
                    assert_ne!(block_digest_of(&changed), digest, "{what} of {}", base[at]);
                }
            }
        }
    }

    #[test]
    fn order_and_length_are_part_of_the_digest() {
        let base = shapes();
        let digest = block_digest_of(&base);
        for at in 0..base.len() - 1 {
            let mut swapped = base.clone();
            swapped.swap(at, at + 1);
            assert_ne!(block_digest_of(&swapped), digest, "swap at {at}");
        }
        assert_ne!(block_digest_of(&base[..base.len() - 1]), digest, "last dropped");
        // Equal mixes: only the count tells the three apart.
        let mut d = InstDigest::new();
        let empty = d.finish();
        d.push_mix(0);
        let one = d.finish();
        d.push_mix(0);
        assert!(empty != one && one != d.finish());
        // The name is content too.
        assert_ne!(Trace::new("t", base.clone()).digest(), Trace::new("u", base).digest());
    }

    /// The instruction-content digest is persisted (container indexes,
    /// checkpoints, cache keys): these literals were recorded once, and a
    /// change to [`inst_mix`] or the chain that moves them is a format change.
    #[test]
    fn inst_digest_values_are_pinned() {
        let base = shapes();
        assert_eq!(block_digest_of(&base), 0x5a5203d0a8996421);
        assert_eq!(Trace::new("pinned", base).digest(), 0x7e59178bc38279f6);
        assert_eq!(Trace::new("empty", vec![]).digest(), 0x1df9d60b45411948);
    }
}
