//! Wire primitives for the scenario checkpoint format and pack
//! fingerprints: the workspace-wide ones from [`dh_fault::wire`], plus
//! the hashed per-element draws packs spread variation with.

pub(crate) use dh_fault::wire::{
    fnv1a, fnv1a_u64, put_f64, put_u64, take_f64, take_u64, word_checksum, FNV_OFFSET,
};

/// A deterministic per-element unit draw in `[0, 1)`: hash of
/// `(seed, label, index)` through FNV-1a, top 53 bits as the mantissa.
/// This is how packs spread process variation, duty jitter, and corner
/// assignment across a population without an RNG stream.
pub(crate) fn unit_hash(seed: u64, label: &str, index: u64) -> f64 {
    let h = fnv1a_u64(fnv1a(fnv1a_u64(FNV_OFFSET, seed), label.as_bytes()), index);
    (h >> 11) as f64 * 2f64.powi(-53)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_is_deterministic_and_in_range() {
        for i in 0..1_000 {
            let u = unit_hash(42, "rate", i);
            assert!((0.0..1.0).contains(&u), "u = {u}");
            assert_eq!(u.to_bits(), unit_hash(42, "rate", i).to_bits());
        }
        // Different labels and seeds decorrelate.
        assert_ne!(unit_hash(42, "rate", 7), unit_hash(42, "duty", 7));
        assert_ne!(unit_hash(42, "rate", 7), unit_hash(43, "rate", 7));
    }
}
