//! Minimal vendored `serde`: a compact little-endian binary codec.
//!
//! This build environment has no access to crates.io, and the checkpoint
//! subsystem (`icfp-ckpt/v8`) needs real serialization, so this crate is a
//! self-contained stand-in: [`Serialize`] / [`Deserialize`] traits over a
//! flat binary format, with derive macros (`crates/serde_derive`) generating
//! field-by-field impls in declaration order.  If the real `serde` becomes
//! available, the annotations are compatible — swap the dependency and port
//! the few manual impls.
//!
//! ## Format
//!
//! * fixed-width little-endian integers (`usize` travels as `u64`),
//! * `bool` as one byte (`0`/`1`), floats as their IEEE-754 bit patterns,
//! * `Option<T>` as a presence byte followed by the value,
//! * sequences (`Vec`, `VecDeque`, `String`, maps) as a `u64` length followed
//!   by the elements; `HashMap` entries are sorted by key so the encoding of
//!   equal maps is byte-identical regardless of hasher state,
//! * structs/enums as their fields in declaration order, enums prefixed with
//!   a `u32` variant tag (see `serde_derive`).
//!
//! The format is not self-describing: readers must know the type, which is
//! exactly the checkpoint use case (the `icfp-ckpt/v8` container carries the
//! versioning and digest validation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

pub mod frame;

pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use serde_derive::{Deserialize, Serialize};

/// A value encodable to the vendored binary format.
pub trait Serialize {
    /// Appends this value's encoding to `out`.
    fn serialize(&self, out: &mut Vec<u8>);
}

/// A value decodable from the vendored binary format.
pub trait Deserialize: Sized {
    /// Decodes one value from the reader, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on truncated input or invalid encodings.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Encodes `value` to a fresh byte buffer.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Decodes a `T` from `bytes`, requiring every byte to be consumed.
///
/// # Errors
///
/// Returns [`Error`] on truncation, invalid encodings, or trailing bytes.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let v = T::deserialize(&mut r)?;
    if r.remaining() != 0 {
        return Err(Error::invalid("trailing bytes after value", r.position()));
    }
    Ok(v)
}

/// Decodes a `Vec<T>` that must hold exactly `len` elements — a flat table
/// whose length its geometry fixes.
///
/// # Errors
///
/// [`Error::Invalid`] naming `what` if the decoded length differs, or any
/// error decoding the elements.
pub fn vec_of_len<T: Deserialize>(r: &mut Reader<'_>, len: usize, what: &'static str) -> Result<Vec<T>, Error> {
    let at = r.position();
    let v = Vec::<T>::deserialize(r)?;
    if v.len() == len {
        Ok(v)
    } else {
        Err(Error::invalid(what, at))
    }
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value was complete.
    Eof {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// The input held an invalid encoding.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Byte offset of the invalid encoding.
        at: usize,
    },
}

impl Error {
    /// An invalid-encoding error for `what` at byte offset `at`.
    pub fn invalid(what: &'static str, at: usize) -> Self {
        Error::Invalid { what, at }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Eof { at } => write!(f, "unexpected end of input at byte {at}"),
            Error::Invalid { what, at } => write!(f, "invalid {what} at byte {at}"),
        }
    }
}

impl std::error::Error for Error {}

/// A cursor over the bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Eof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::Eof { at: self.bytes.len() });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Decodes a `u64` length prefix, sanity-bounded by the bytes remaining
    /// (each element takes at least one byte for all element types except
    /// zero-sized ones, which the workspace does not serialize).
    fn length(&mut self) -> Result<usize, Error> {
        let at = self.pos;
        let n = u64::deserialize(self)?;
        if n > (self.remaining() as u64).saturating_mul(8).saturating_add(8) {
            return Err(Error::invalid("length prefix", at));
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl Deserialize for usize {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let at = r.position();
        usize::try_from(u64::deserialize(r)?).map_err(|_| Error::invalid("usize", at))
    }
}

impl Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}

impl Deserialize for isize {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let at = r.position();
        isize::try_from(i64::deserialize(r)?).map_err(|_| Error::invalid("isize", at))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let at = r.position();
        match u8::deserialize(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::invalid("bool", at)),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(f64::from_bits(u64::deserialize(r)?))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(f32::from_bits(u32::deserialize(r)?))
    }
}

// ---------------------------------------------------------------------------
// Strings, options, tuples
// ---------------------------------------------------------------------------

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_str().serialize(out);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.length()?;
        let at = r.position();
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::invalid("utf-8 string", at))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let at = r.position();
        match u8::deserialize(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(r)?)),
            _ => Err(Error::invalid("option tag", at)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$n.serialize(out);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(($($t::deserialize(r)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ---------------------------------------------------------------------------
// Sequences and maps
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for v in self {
            v.serialize(out);
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.length()?;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::deserialize(r)?);
        }
        Ok(v)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for v in self {
            v.serialize(out);
        }
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.length()?;
        let mut v = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push_back(T::deserialize(r)?);
        }
        Ok(v)
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.length()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::deserialize(r)?;
            let v = V::deserialize(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

/// `HashMap` entries are written sorted by key (hence `K: Ord`) so equal maps
/// always encode to identical bytes — hasher/iteration order never leaks into
/// checkpoints or digests.  Generic over the hasher so hot-path maps with
/// faster hash functions encode identically to the default.
impl<K: Serialize + Ord, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        (entries.len() as u64).serialize(out);
        for (k, v) in entries {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.length()?;
        let mut m = HashMap::with_capacity_and_hasher(n.min(1 << 16), S::default());
        for _ in 0..n {
            let k = K::deserialize(r)?;
            let v = V::deserialize(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xA5u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(f64::NAN.to_bits()); // NaN compared via bits
        round_trip(-0.25f32);
    }

    #[test]
    fn strings_and_options_round_trip() {
        round_trip(String::from("icfp-ckpt"));
        round_trip(String::new());
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(Some(String::from("nested")));
    }

    #[test]
    fn sequences_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![Some(1u32), None, Some(3)]);
        round_trip((1u64, 2u32, String::from("t")));
        let mut dq = VecDeque::new();
        dq.push_back(1u16);
        dq.push_back(9u16);
        round_trip(dq);
    }

    #[test]
    fn maps_round_trip_and_hashmaps_encode_deterministically() {
        let mut bt = BTreeMap::new();
        bt.insert(3u64, String::from("c"));
        bt.insert(1u64, String::from("a"));
        round_trip(bt);

        let mut h1 = HashMap::new();
        let mut h2 = HashMap::new();
        // Insert in different orders; encodings must be identical.
        for k in 0..64u64 {
            h1.insert(k, k * 3);
        }
        for k in (0..64u64).rev() {
            h2.insert(k, k * 3);
        }
        assert_eq!(to_bytes(&h1), to_bytes(&h2));
        round_trip(h1);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, Error> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // A length claiming far more elements than bytes remain.
        let bytes = to_bytes(&u64::MAX);
        let r: Result<Vec<u64>, Error> = from_bytes(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_error() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9, 0]).is_err());
    }
}
