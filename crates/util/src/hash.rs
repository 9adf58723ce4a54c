//! 64-bit FNV-1a, the workspace's one stable hash.
//!
//! Every content address, structural hash, seed derivation, feature
//! bucket and file checksum in the workspace folds bytes through this
//! function. It is tiny, platform-independent and fast on the short
//! inputs it sees (identifiers, programs, headers), and its outputs are
//! pinned by the golden frontend grid, the column-store format and the
//! reproduced tables, so it must never change.

use std::hash::Hasher;

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`Hasher`] implementing 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv64(pub(crate) u64);

impl Default for Fnv64 {
    #[inline]
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Hasher for Fnv64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
