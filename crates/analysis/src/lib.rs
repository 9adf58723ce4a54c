//! `synthattr-analysis`: a semantic lint engine over the
//! `synthattr_lang` C++ subset AST.
//!
//! The crate turns the paper's implicit assumption — that a ChatGPT
//! rewrite preserves program semantics — into a checked invariant.
//! It provides three layers:
//!
//! - [`mod@resolve`]: a block-scoped symbol resolver that binds every
//!   identifier use to its declaration (params, for-init declarations,
//!   typedef/`using` aliases, `#define` macros, and the std names
//!   implied by includes / `using namespace std`).
//! - [`passes`]: the [`Analyzer`], which runs a fixed table of seven
//!   passes and reports severity-tagged [`Diagnostic`]s: undeclared
//!   identifiers, duplicate declarations, reads before any assignment,
//!   shadowing, unused variables, dead stores, and unreachable code
//!   after `return`/`break`/`continue`.
//! - [`mod@fingerprint`]: a normalized AST hash that quotients out names,
//!   layout, loop form, compound-assignment sugar, IO idiom and helper
//!   outlining, so `fingerprint(c0) == fingerprint(GPT(c0))` is
//!   assertable for every transform the simulator performs.
//! - [`mod@cfg`] and [`dataflow`]: per-function control-flow graphs and a
//!   worklist fixed-point framework (reaching definitions, liveness,
//!   definite-uninitialization, constant propagation) powering the
//!   `use-before-init`/`dead-store` passes and the `df.*` attribution
//!   feature family.
//!
//! Diagnostics carry structural paths (`main/[3]/for/body/[0]`) rather
//! than source spans: paths stay stable across re-rendering, which is
//! what the transform pre/post gates compare.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod fingerprint;
pub mod passes;
pub mod resolve;

pub use cfg::Cfg;
pub use dataflow::{dead_stores, solve, use_before_init, Analysis, DataflowSummary, Direction};
pub use fingerprint::{fingerprint, fingerprint_source, normalize};
pub use passes::{error_count, new_errors, Analyzer, Diagnostic, Severity};
pub use resolve::{resolve, Binding, BindingKind, Resolution, Undeclared};
