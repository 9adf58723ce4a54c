//! Stable structural hashing of AST nodes.
//!
//! The incremental frontend keys caches on *structure*: two items with
//! the same AST share one hash regardless of how they were rendered.
//! Hashing goes through [`std::hash::Hash`] (every AST node derives
//! it) driven by an FNV-1a hasher — the same function the artifact
//! cache uses for text — so the stream of hashed bytes is fixed by the
//! derive and the result is deterministic within a process and across
//! runs on the same target.
//!
//! A 64-bit structural hash is trusted without a full `Eq` check on
//! hot paths (verifying would re-walk the tree and erase the win); the
//! root package's golden frontend grid pins the pipeline's outputs over
//! the seed × setting × fault-rate grid, and debug builds re-verify
//! every cached product against a fresh computation.

use crate::ast::{Item, TranslationUnit};
use std::hash::{Hash, Hasher};

/// FNV-1a offset basis (matches the artifact cache's text hash).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`Hasher`] implementing 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// FNV-1a over a byte slice (the artifact cache's text hash, exported
/// for region-text keys).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Structural hash of any `Hash` value through [`Fnv64`].
pub fn structural_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::default();
    value.hash(&mut h);
    h.finish()
}

/// Structural hash of one top-level item.
pub fn item_hash(item: &Item) -> u64 {
    structural_hash(item)
}

/// Combines per-item hashes into a whole-unit hash. Equal units (same
/// items, same order) combine to the same value; the length is mixed
/// in so a prefix never aliases the full sequence.
pub fn unit_hash_of(item_hashes: &[u64]) -> u64 {
    let mut h = Fnv64::default();
    h.write_usize(item_hashes.len());
    for &ih in item_hashes {
        h.write_u64(ih);
    }
    h.finish()
}

/// Structural hash of a whole unit (equals [`unit_hash_of`] over its
/// per-item hashes).
pub fn unit_hash(unit: &TranslationUnit) -> u64 {
    let hashes: Vec<u64> = unit.items.iter().map(item_hash).collect();
    unit_hash_of(&hashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn equal_items_hash_equal() {
        let a = parse("int main() { return 1 + 2; }").unwrap();
        let b = parse("int  main( )\n{\n  return 1+2;\n}").unwrap();
        assert_eq!(a, b);
        assert_eq!(item_hash(&a.items[0]), item_hash(&b.items[0]));
        assert_eq!(unit_hash(&a), unit_hash(&b));
    }

    #[test]
    fn different_items_hash_differently() {
        let a = parse("int main() { return 1; }").unwrap();
        let b = parse("int main() { return 2; }").unwrap();
        assert_ne!(item_hash(&a.items[0]), item_hash(&b.items[0]));
    }

    #[test]
    fn unit_hash_depends_on_item_order() {
        let a = parse("int f() { return 0; }\nint g() { return 1; }").unwrap();
        let b = parse("int g() { return 1; }\nint f() { return 0; }").unwrap();
        assert_ne!(unit_hash(&a), unit_hash(&b));
    }

    #[test]
    fn unit_hash_matches_combined_item_hashes() {
        let u = parse("#include <iostream>\nint main() { return 0; }").unwrap();
        let hashes: Vec<u64> = u.items.iter().map(item_hash).collect();
        assert_eq!(unit_hash(&u), unit_hash_of(&hashes));
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn empty_prefix_does_not_alias() {
        assert_ne!(unit_hash_of(&[]), unit_hash_of(&[unit_hash_of(&[])]));
    }
}
