//! Little-endian encode/decode primitives shared by every checkpoint
//! format in the workspace (the build has no serde): fixed-width
//! integers, `f64` as raw bit patterns (so NaN payloads and signed zeros
//! round-trip bit-exactly), length-prefixed strings, the FNV-1a hash
//! used for config fingerprints, pack fingerprints, and file checksums,
//! and the word-wise [`word_checksum`] that `DHSP` v3 files carry.
//!
//! Decoding never panics and never allocates more than the input holds:
//! a short read is a typed [`WireError`], which each format maps into its
//! own error type. The per-element primitives are `#[inline]`: the
//! engines call them once per state element (hashed draws, checkpoint
//! columns, fingerprints), and without the hint they could not be
//! inlined across the crate boundary.

use core::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds one `u64` (little-endian) into a running FNV-1a hash.
#[inline]
pub fn fnv1a_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// Folds one `f64` bit pattern into a running FNV-1a hash.
#[inline]
pub fn fnv1a_f64(hash: u64, v: f64) -> u64 {
    fnv1a_u64(hash, v.to_bits())
}

/// The two odd multipliers of xxHash64's round.
const ROUND_PRIMES: [u64; 2] = [0x9e37_79b1_85eb_ca87, 0xc2b2_ae3d_27d4_eb4f];

/// One xxHash64-style round: add the scaled word, rotate, multiply. The
/// rotation carries high-bit differences down, so two top-bit flips
/// cannot cancel the way they do under a bare multiply.
#[inline]
fn fold_word(hash: u64, word: u64) -> u64 {
    hash.wrapping_add(word.wrapping_mul(ROUND_PRIMES[1]))
        .rotate_left(31)
        .wrapping_mul(ROUND_PRIMES[0])
}

/// A word-wise checksum of `bytes` for large checkpoint files.
///
/// Four interleaved lanes each fold every fourth little-endian `u64`
/// word with an xxHash64-style round, so the four multiply chains run
/// side by side instead of one byte at a time. The byte tail (zero-padded
/// to whole words), the four lanes, and the length are then folded word
/// by word into one hash. Every round is a bijection of the running
/// value, so any change confined to a single word, a single bit flip in
/// particular, always changes the result.
pub fn word_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64, 1, 2, 3].map(|k| FNV_OFFSET ^ k);
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = fold_word(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut hash = FNV_OFFSET;
    for piece in tail.chunks(8) {
        let mut word = [0u8; 8];
        word[..piece.len()].copy_from_slice(piece);
        hash = fold_word(hash, u64::from_le_bytes(word));
    }
    for lane in lanes {
        hash = fold_word(hash, lane);
    }
    fold_word(hash, bytes.len() as u64)
}

/// Why a field could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer than eight bytes were left for a fixed-width field.
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Bytes that were left.
        left: usize,
    },
    /// A string's length prefix claims more bytes than are left.
    StringTruncated {
        /// The field being read.
        what: &'static str,
        /// The claimed length.
        len: u64,
        /// Bytes that were left.
        left: usize,
    },
    /// A string's bytes are not UTF-8.
    NotUtf8 {
        /// The field being read.
        what: &'static str,
    },
    /// An enum discriminant this build does not know.
    UnknownDiscriminant {
        /// Which enum (`"sensor-fault"`, `"disk-fault"`).
        kind: &'static str,
        /// The value found.
        value: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { what, left } => {
                write!(f, "truncated while reading {what}: {left} bytes left")
            }
            Self::StringTruncated { what, len, left } => {
                write!(
                    f,
                    "truncated while reading {what}: {left} of {len} string bytes"
                )
            }
            Self::NotUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            Self::UnknownDiscriminant { kind, value } => {
                write!(f, "unknown {kind} discriminant {value}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends the bit pattern of `v`.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Splits a little-endian `u64` off the front of `bytes`.
///
/// # Errors
///
/// [`WireError::Truncated`] when fewer than eight bytes are left.
#[inline]
pub fn take_u64(bytes: &mut &[u8], what: &'static str) -> Result<u64, WireError> {
    let Some((head, rest)) = bytes.split_first_chunk::<8>() else {
        return Err(WireError::Truncated {
            what,
            left: bytes.len(),
        });
    };
    *bytes = rest;
    Ok(u64::from_le_bytes(*head))
}

/// Splits an `f64` bit pattern off the front of `bytes`.
///
/// # Errors
///
/// As [`take_u64`].
#[inline]
pub fn take_f64(bytes: &mut &[u8], what: &'static str) -> Result<f64, WireError> {
    take_u64(bytes, what).map(f64::from_bits)
}

/// Splits a length-prefixed UTF-8 string off the front of `bytes`. The
/// length is checked against the bytes left before anything is copied.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::StringTruncated`], or
/// [`WireError::NotUtf8`].
pub fn take_str(bytes: &mut &[u8], what: &'static str) -> Result<String, WireError> {
    let len = take_u64(bytes, what)?;
    let left = bytes.len();
    let Some(head) = usize::try_from(len).ok().and_then(|n| bytes.get(..n)) else {
        return Err(WireError::StringTruncated { what, len, left });
    };
    *bytes = &bytes[head.len()..];
    String::from_utf8(head.to_vec()).map_err(|_| WireError::NotUtf8 { what })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_patterns() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "héllo");
        let mut view = buf.as_slice();
        assert_eq!(take_u64(&mut view, "a").unwrap(), u64::MAX);
        assert_eq!(
            take_f64(&mut view, "b").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            take_f64(&mut view, "c").unwrap().to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(take_str(&mut view, "d").unwrap(), "héllo");
        assert!(view.is_empty());
        assert_eq!(
            take_u64(&mut view, "e"),
            Err(WireError::Truncated { what: "e", left: 0 })
        );
    }

    #[test]
    fn short_and_invalid_strings_are_typed_errors() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(b"abc");
        let mut view = buf.as_slice();
        assert_eq!(
            take_str(&mut view, "s"),
            Err(WireError::StringTruncated {
                what: "s",
                len: u64::MAX,
                left: 3
            })
        );
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            take_str(&mut buf.as_slice(), "s"),
            Err(WireError::NotUtf8 { what: "s" })
        );
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_checksum_matches_reference_vectors() {
        // Computed by an independent transcription of the definition:
        // empty input, a lone tail byte, and three full 32-byte blocks
        // plus a four-byte tail.
        assert_eq!(word_checksum(b""), 0x990e_0dc4_fcc6_5949);
        assert_eq!(word_checksum(b"a"), 0x02d1_521a_3dab_214a);
        let ramp: Vec<u8> = (0..100).collect();
        assert_eq!(word_checksum(&ramp), 0x2874_0c01_a2a4_de27);
    }

    #[test]
    fn word_checksum_sees_trailing_zeros_and_every_bit_pair() {
        // Zero padding of the tail must not alias a longer input.
        assert_ne!(word_checksum(&[1, 0]), word_checksum(&[1]));
        // Every one- and two-bit flip of a 67-byte input (two whole
        // blocks and a tail) changes the sum; top-bit pairs in two words
        // of one lane, or of two lanes, are the case a bare multiply
        // misses.
        let ramp: Vec<u8> = (0..67).collect();
        let base = word_checksum(&ramp);
        let bits = 8 * ramp.len();
        let mut flipped = ramp.clone();
        for a in 0..bits {
            flipped[a / 8] ^= 1 << (a % 8);
            assert_ne!(word_checksum(&flipped), base, "bit {a}");
            for b in a + 1..bits {
                flipped[b / 8] ^= 1 << (b % 8);
                assert_ne!(word_checksum(&flipped), base, "bits {a} and {b}");
                flipped[b / 8] ^= 1 << (b % 8);
            }
            flipped[a / 8] ^= 1 << (a % 8);
        }
    }
}
