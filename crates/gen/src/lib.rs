//! Synthetic Google-Code-Jam-style corpus generation.
//!
//! The reproduced paper trains per-year authorship models on 204 GCJ
//! authors × 8 challenges (Table I). Those corpora are not
//! redistributable, so this crate synthesizes an equivalent learning
//! problem:
//!
//! * [`style`] — an [`style::AuthorStyle`] bundles every stylistic
//!   degree of freedom the feature set can observe: layout
//!   ([`synthattr_lang::render::RenderStyle`]), naming conventions, IO
//!   idioms, loop/cast/comment habits, and prologue habits. Styles are
//!   sampled per author from a seeded PRNG.
//! * [`naming`] — concept-based identifier synthesis: each semantic
//!   concept (`"num_cases"`, `"accumulator"`, …) maps to
//!   per-verbosity synonym sets rendered in the author's casing
//!   convention.
//! * [`challenges`] — 14 algorithmic challenge templates (including
//!   the paper's Figure 3 horse-race problem) built directly as ASTs,
//!   with structure that varies with the author's habits (helper
//!   functions, loop forms, ternaries, …).
//! * [`corpus`] — assembles per-year corpora: 204 authors × 8
//!   challenges, mirroring Table I.
//!
//! # Example
//!
//! ```
//! use synthattr_gen::corpus::{YearSpec, generate_year};
//!
//! let year = generate_year(&YearSpec::tiny(2017, 4, 3), 42);
//! assert_eq!(year.samples.len(), 4 * 3);
//! // Every sample is valid C++ in the supported subset.
//! for s in &year.samples {
//!     synthattr_lang::parse(&s.source).unwrap();
//! }
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod challenges;
pub mod corpus;
pub mod naming;
pub mod style;

pub use challenges::ChallengeId;
pub use corpus::{generate_year, CodeSample, Origin, YearCorpus, YearSpec};
pub use style::AuthorStyle;
