//! Fast non-cryptographic hashing for interned-id keys.
//!
//! The workspace keys almost every hot map by a dense `u32`/`u64` id
//! (interned symbols, entity ids, triple ids). The standard library's
//! SipHash is collision-resistant but slow for such keys; this module
//! implements the multiply-rotate "Fx" construction used by rustc, which
//! the Rust Performance Book recommends for exactly this workload. It is
//! written in-crate to keep the dependency set to the approved list.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, deterministic, non-cryptographic hasher.
///
/// Not resistant to HashDoS; suitable only for trusted in-process keys,
/// which is all this workspace uses it for.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut buf = [0u8; 2];
            buf.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u64::from(u16::from_le_bytes(buf)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    // Both helpers drive the `Hasher` methods directly, as `write_str`
    // does for `String` keys: no length prefix reaches `write`, so the
    // tail handling alone must keep inputs apart.
    fn fx(bytes: &[u8]) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(bytes);
        hasher.finish()
    }

    fn fx_u64(value: u64) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write_u64(value);
        hasher.finish()
    }

    #[test]
    fn identical_inputs_hash_identically() {
        assert_eq!(fx(b"multirag"), fx(b"multirag"));
        assert_eq!(fx_u64(42), fx_u64(42));
    }

    #[test]
    fn different_inputs_hash_differently() {
        // Not a guarantee in general, but these must differ for the
        // hasher to be useful at all.
        assert_ne!(fx(b"movies"), fx(b"books"));
        assert_ne!(fx_u64(1), fx_u64(2));
    }

    #[test]
    fn write_handles_all_tail_lengths() {
        // Exercise the 8/4/2/1-byte tails of `write`.
        let inputs: Vec<&[u8]> = vec![
            b"",
            b"a",
            b"ab",
            b"abc",
            b"abcd",
            b"abcde",
            b"abcdef",
            b"abcdefg",
            b"abcdefgh",
            b"abcdefghi",
        ];
        let hashes: Vec<u64> = inputs.iter().map(|b| fx(b)).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "inputs {i} and {j} collided");
            }
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));

        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(7);
        assert!(set.contains(&7));
        assert!(!set.contains(&8));
    }

    #[test]
    fn hasher_is_order_sensitive() {
        let mut a = FxHasher::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FxHasher::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn integer_write_widths_do_not_alias_trivially() {
        let mut a = FxHasher::default();
        a.write_u8(1);
        let mut b = FxHasher::default();
        b.write_u16(1);
        // Same underlying word; state must still be equal since both add
        // the value 1. Document the behaviour so changes are deliberate.
        assert_eq!(a.finish(), b.finish());
    }
}
