//! Attribution pipelines and experiment drivers.
//!
//! This crate is the paper's "methodology" layer: it wires the corpus
//! generator, the LLM simulator, the feature extractor, and the
//! random-forest substrate into the exact experimental protocols of
//! *Attributing ChatGPT-Transformed Synthetic Code*, one driver per
//! table/figure:
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Tables I–III (datasets) | [`experiments::datasets`] |
//! | Table IV (number of styles) | [`experiments::styles`] |
//! | Tables V–VII (style diversity) | [`experiments::diversity`] |
//! | Table VIII (naive attribution) | [`experiments::attribution`] |
//! | Table IX (feature-based attribution) | [`experiments::attribution`] |
//! | Table X (binary classification) | [`experiments::binary`] |
//! | Figures 1–5 | [`experiments::figures`] |
//!
//! The heavy lifting is shared through [`pipeline::YearPipeline`],
//! which generates one year's corpora, runs the four transformation
//! settings (`+N`, `+C`, `±N`, `±C`), trains the 204-author oracle and
//! caches every feature vector, so each table driver is a thin
//! analysis pass.
//!
//! # Example
//!
//! ```
//! use synthattr_core::config::ExperimentConfig;
//! use synthattr_core::pipeline::YearPipeline;
//!
//! // Smoke scale: small corpus, fast forest — same code paths.
//! let cfg = ExperimentConfig::smoke();
//! let pipeline = YearPipeline::build(2017, &cfg);
//! let styles = synthattr_core::experiments::styles::run(&pipeline);
//! assert_eq!(styles.per_challenge.len(), cfg.scale.challenges);
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod config;
pub mod error;
pub mod experiments;
pub mod model;
pub mod pipeline;

pub use artifact::{Artifact, ArtifactCache, FrontendStats};
pub use config::{ExperimentConfig, Scale};
pub use error::PipelineError;
pub use model::AuthorshipModel;
pub use pipeline::{year_oracle, Setting, YearPipeline};
