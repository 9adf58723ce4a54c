//! Shared utilities for the `synthattr` workspace.
//!
//! This crate deliberately has **no dependencies at all**: every other
//! crate in the workspace builds on it, the reproduction environment
//! is fully offline (no crate registry), and full experiment
//! reproducibility requires that randomness, statistics, and report
//! formatting behave identically on every platform.
//!
//! # Contents
//!
//! * [`hash`] — 64-bit FNV-1a ([`hash::fnv1a`], [`hash::Fnv64`]), the
//!   one stable hash behind content addresses, structural hashes,
//!   seed derivation, feature buckets and file checksums.
//! * [`rng`] — a deterministic, seedable PRNG ([`rng::Pcg64`]) plus
//!   hierarchical seed derivation so that independent experiment arms
//!   never share random streams.
//! * [`pool`] — a scoped, order-preserving parallel map used by
//!   forest training and the experiment pipelines; worker count is
//!   overridable via config or `SYNTHATTR_WORKERS` and never affects
//!   results.
//! * [`prop`] — the in-repo property-testing harness (seeded
//!   generators, shrinking, `prop_assert!` macros) that replaces
//!   `proptest`.
//! * [`stats`] — small-sample statistics used throughout the
//!   evaluation pipeline (mean, variance, entropy, histograms).
//! * [`table`] — fixed-width ASCII table rendering used by the
//!   experiment drivers to print paper-style tables.
//!
//! # Example
//!
//! ```
//! use synthattr_util::rng::Pcg64;
//!
//! let mut rng = Pcg64::seed_from(0xFEED, &["experiment", "fold-3"]);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod table;

pub use rng::Pcg64;
pub use stats::{mean, population_variance, shannon_entropy, std_dev};
pub use table::Table;
