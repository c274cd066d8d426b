//! The workspace's one FNV-1a 64 implementation.
//!
//! Several subsystems digest deterministic figures — final architectural
//! state (`RunResult::state_digest`), sweep reports, trace identities,
//! checkpoint containers.  They must all hash identically forever (digests
//! are persisted in `golden_figures.txt`, result caches and `icfp-ckpt/v2`
//! files), so the primitive lives here, in the crate every other crate
//! already depends on, instead of being re-implemented per subsystem where
//! one typo could silently fork a digest domain.

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
}
