//! From-scratch machine-learning substrate.
//!
//! The reproduced paper's attribution models are WEKA-style random
//! forests over stylometric features. This crate implements the whole
//! stack with no external ML dependency:
//!
//! * [`dataset`] — a labelled feature matrix with named classes;
//! * [`tree`] — CART decision trees (Gini impurity, per-node feature
//!   subsampling);
//! * [`forest`] — bagged random forests with probability voting,
//!   trained in parallel on the in-repo scoped pool
//!   (`synthattr_util::pool`), including shard-parallel training over
//!   out-of-core sources;
//! * [`colstore`] — an on-disk columnar feature store (streaming
//!   writer, checksummed header, chunked reader) for corpora that do
//!   not fit in RAM;
//! * [`source`] — the [`source::DatasetSource`] abstraction feeding
//!   training from either a resident [`Dataset`] or a [`colstore`]
//!   file;
//! * [`cv`] — stratified k-fold, *grouped* folds (the paper evaluates
//!   with one fold per GCJ challenge), and per-class reservoir
//!   sampling for fold construction over streams;
//! * [`select`] — information-gain feature ranking (the paper's
//!   feature-selection step);
//! * [`metrics`] — accuracy, confusion matrices, per-class recall;
//! * [`importance`] — out-of-bag error and permutation feature
//!   importance for forest introspection.
//!
//! # Example
//!
//! ```
//! use synthattr_ml::dataset::Dataset;
//! use synthattr_ml::forest::{RandomForest, ForestConfig};
//! use synthattr_util::Pcg64;
//!
//! // Two separable classes.
//! let mut ds = Dataset::new(2);
//! for i in 0..40 {
//!     let x = i as f64 / 40.0;
//!     ds.push(vec![x, 1.0 - x], usize::from(i >= 20));
//! }
//! let forest = RandomForest::fit(&ds, &ForestConfig::default(), &mut Pcg64::new(7));
//! assert_eq!(forest.predict(&[0.1, 0.9]), 0);
//! assert_eq!(forest.predict(&[0.9, 0.1]), 1);
//! ```

#![forbid(unsafe_code)]

pub mod colstore;
pub mod cv;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod metrics;
mod rank;
pub mod select;
pub mod source;
pub mod tree;

pub use colstore::{ColStoreError, ColumnStore, ColumnStoreWriter};
pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use metrics::ConfusionMatrix;
pub use source::DatasetSource;
