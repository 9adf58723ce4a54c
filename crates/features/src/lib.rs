//! Code stylometry feature extraction.
//!
//! This crate implements a Caliskan-Islam-style *code stylometry
//! feature set* (the basis of the authorship models in the reproduced
//! paper), organized into the paper's three families:
//!
//! * **lexical** ([`lexical`]) — keyword/term frequencies, identifier
//!   length and casing statistics, literal densities, IO-idiom usage,
//!   hashed identifier unigram term frequencies;
//! * **layout** ([`layout`]) — indentation, whitespace, brace
//!   placement, spacing and comment-style measurements taken from the
//!   raw text;
//! * **syntactic** ([`syntactic`]) — AST depth statistics, node-kind
//!   term frequencies, and hashed parent–child bigram frequencies;
//! * **dataflow** ([`dataflow`]) — CFG shape, def-use chain fan-out,
//!   live-range pressure/spans, dead-store and constant-foldable
//!   fractions from the fixed-point analyses in `synthattr_analysis`.
//!
//! The entry point is [`FeatureExtractor`]:
//!
//! ```
//! use synthattr_features::{FeatureConfig, FeatureExtractor};
//!
//! let extractor = FeatureExtractor::new(FeatureConfig::default());
//! let v = extractor.extract("int main() { return 0; }")?;
//! assert_eq!(v.len(), extractor.dim());
//! # Ok::<(), synthattr_lang::ParseError>(())
//! ```
//!
//! Feature vectors are plain `Vec<f64>` of a fixed, named dimension:
//! [`FeatureExtractor::names`] returns one human-readable name per
//! position, which the ML layer uses to report information gain.

#![forbid(unsafe_code)]

pub mod collect;
pub mod dataflow;
pub mod extractor;
pub mod incr;
pub mod layout;
pub mod lexical;
pub mod syntactic;

pub use extractor::{FeatureConfig, FeatureExtractor};

/// Stable FNV-1a hash used to bucket identifier unigrams and AST
/// bigrams. Exposed so tests can predict bucket assignment.
pub fn stable_hash(text: &str) -> u64 {
    synthattr_util::hash::fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic_and_spread() {
        assert_eq!(stable_hash("abc"), stable_hash("abc"));
        assert_ne!(stable_hash("abc"), stable_hash("abd"));
        // Buckets should spread over a small modulus.
        let buckets: std::collections::HashSet<u64> = (0..100)
            .map(|i| stable_hash(&format!("ident{i}")) % 16)
            .collect();
        assert!(buckets.len() >= 12);
    }
}
