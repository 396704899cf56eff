//! The word-at-a-time FNV-1a fold of the engine's event digest
//! (`engine.rs`, `fold_event`) — all that is left of the module that held
//! the `ctx.trace` ring (DESIGN.md, "Why there are two recorders"). It
//! serves the digest alone: the model checker's fingerprints fold a word
//! with one multiply (`mc.rs`, `McHasher::word`). The digest stays
//! byte-for-byte FNV-1a because every digest pin and golden is its value.

/// The multiplier of [`fnv1a`](snooze_telemetry::fnv1a), for the
/// word-at-a-time fold below.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: what folding `k` zero
/// bytes multiplies a hash by.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// `fnv1a(hash, &word.to_le_bytes())`, bit for bit, in fewer steps.
///
/// FNV-1a folds a byte `b` as `h ← (h ^ b) · P`. For `b = 0` the xor is
/// the identity, so a run of `k` zero bytes is `h ← h · Pᵏ` — one
/// wrapping multiply by a constant, since multiplication mod 2⁶⁴ is
/// associative. The words the engine folds (times, sequence numbers,
/// component ids, discriminants) are small, so most of their
/// little-endian bytes are the high zero ones: fold the low
/// non-zero-prefixed bytes one by one as FNV-1a does, then the high zero
/// run at once. An interior zero byte (`0x0100`) sits below the highest
/// set bit and takes the byte-wise path like any other.
#[inline]
pub(crate) fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    let high_zero_bytes = (word.leading_zeros() / 8) as usize;
    let mut rest = word;
    for _ in high_zero_bytes..8 {
        hash = (hash ^ (rest & 0xFF)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    hash.wrapping_mul(PRIME_POW[high_zero_bytes])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snooze_telemetry::{fnv1a, FNV_OFFSET};

    #[test]
    fn word_fold_is_fnv1a_on_the_edge_cases() {
        // No byte, one byte, a full low byte, an interior zero byte, only
        // the top byte, every byte.
        for w in [0, 1, 0xFF, 0x0100, 1 << 56, u64::MAX] {
            for h in [FNV_OFFSET, 0, u64::MAX] {
                assert_eq!(
                    fnv1a_word(h, w),
                    fnv1a(h, &w.to_le_bytes()),
                    "word {w:#x} from {h:#x}"
                );
            }
        }
    }

    #[test]
    fn word_fold_is_fnv1a_over_a_chained_stream() {
        // 10 000 words of every byte length, each fold starting from the
        // last one's result, as the engine's digest does.
        let mut rng = crate::rng::SimRng::new(0xF0_1D);
        let (mut fast, mut reference) = (FNV_OFFSET, FNV_OFFSET);
        for _ in 0..10_000 {
            let w = match rng.range(0, 9) {
                0 => 0,
                bytes => rng.range(0, usize::MAX) as u64 >> (64 - 8 * bytes),
            };
            fast = fnv1a_word(fast, w);
            reference = fnv1a(reference, &w.to_le_bytes());
            assert_eq!(fast, reference, "diverged at word {w:#x}");
        }
    }

    proptest! {
        #[test]
        fn word_fold_is_fnv1a(h in any::<u64>(), w in any::<u64>(), shift in 0u32..64) {
            // `w >> shift` spreads the cases over every count of high
            // zero bytes; a uniform `u64` almost never has one.
            for word in [w, w >> shift] {
                prop_assert_eq!(fnv1a_word(h, word), fnv1a(h, &word.to_le_bytes()));
            }
        }
    }
}
