//! # synthattr
//!
//! A full reproduction of **"Attributing ChatGPT-Transformed Synthetic
//! Code"** (ICDCS 2025) as a Rust workspace: stylometric authorship
//! attribution of LLM-transformed C++, built from scratch — C++
//! frontend, feature extraction, random forests, a synthetic GCJ
//! corpus generator, a seeded LLM style simulator, and drivers that
//! regenerate every table and figure of the paper.
//!
//! This umbrella crate re-exports the workspace members under short
//! names; depend on it to get the whole system, or on individual
//! `synthattr-*` crates for one layer.
//!
//! ```
//! use synthattr::core::config::ExperimentConfig;
//! use synthattr::core::pipeline::YearPipeline;
//! use synthattr::core::experiments::styles;
//!
//! let pipeline = YearPipeline::build(2018, &ExperimentConfig::smoke());
//! let table4 = styles::run(&pipeline);
//! assert!(table4.max_styles >= 1);
//! ```
//!
//! ## Layer map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`util`] | `synthattr-util` | seeded PRNG, statistics, tables |
//! | [`lang`] | `synthattr-lang` | C++ subset lexer/parser/AST/renderer |
//! | [`analysis`] | `synthattr-analysis` | lint passes + semantic fingerprint |
//! | [`features`] | `synthattr-features` | stylometry feature set |
//! | [`ml`] | `synthattr-ml` | CART forests, CV, info gain |
//! | [`gen`] | `synthattr-gen` | author styles + GCJ-like corpora |
//! | [`gpt`] | `synthattr-gpt` | LLM style simulator (NCT/CT) |
//! | [`faults`] | `synthattr-faults` | deterministic chaos: fault injection, retry, breaker |
//! | [`core`] | `synthattr-core` | attribution pipelines + experiments |
//! | [`serve`] | `synthattr-serve` | attribution-as-a-service HTTP server |

#![forbid(unsafe_code)]

pub use synthattr_analysis as analysis;
pub use synthattr_core as core;
pub use synthattr_faults as faults;
pub use synthattr_features as features;
pub use synthattr_gen as gen;
pub use synthattr_gpt as gpt;
pub use synthattr_lang as lang;
pub use synthattr_ml as ml;
pub use synthattr_serve as serve;
pub use synthattr_util as util;
