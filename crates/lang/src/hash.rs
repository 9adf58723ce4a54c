//! Stable structural hashing of AST nodes.
//!
//! The incremental frontend keys caches on *structure*: two items with
//! the same AST share one hash regardless of how they were rendered.
//! Hashing goes through [`std::hash::Hash`] (every AST node derives
//! it) driven by the workspace's FNV-1a hasher
//! ([`synthattr_util::hash`], re-exported here) — the same function
//! the artifact cache uses for text — so the stream of hashed bytes is
//! fixed by the derive and the result is deterministic within a
//! process and across runs on the same target.
//!
//! A 64-bit structural hash is trusted without a full `Eq` check on
//! hot paths (verifying would re-walk the tree and erase the win); the
//! root package's golden frontend grid pins the pipeline's outputs over
//! the seed × setting × fault-rate grid, and debug builds re-verify
//! every cached product against a fresh computation.

use crate::ast::{Item, TranslationUnit};
use std::hash::{Hash, Hasher};

pub use synthattr_util::hash::{fnv1a, Fnv64};

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
    fn empty_prefix_does_not_alias() {
        assert_ne!(unit_hash_of(&[]), unit_hash_of(&[unit_hash_of(&[])]));
    }
}
