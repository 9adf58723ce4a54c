//! A deterministic LLM style simulator.
//!
//! The reproduced paper drives its experiments with ChatGPT in two
//! roles: *generating* C++ solutions and *transforming* existing code
//! ("change the stylistic features, such as variable and function
//! names, code structures, and so on"). No offline artifact can call
//! the OpenAI API, so this crate substitutes a simulator that
//! reproduces the paper's empirically observed degrees of freedom
//! (DESIGN.md §2 documents the substitution argument):
//!
//! * a **bounded latent style pool** per year ([`pool::YearPool`]) —
//!   the paper observes at most 12 distinct styles, with heavily
//!   skewed usage (Tables IV–VII); the pool's size and weights are the
//!   explicit per-year calibration;
//! * a **transformation engine** ([`transform::Transformer`]) that
//!   parses the input, rewrites identifiers, casts, increments, loop
//!   forms, compound assignments, IO idioms and comments toward a
//!   sampled pool style, optionally extracts the per-case body into a
//!   helper function (the paper's Figure 4a), and re-renders the code
//!   in a blend of the source's and the target's layout;
//! * **NCT/CT chain drivers** ([`chain`]) implementing the paper's
//!   non-chaining (`c_i = GPT(c_0)`) and chaining
//!   (`c_{i+1} = GPT(c_i)`) protocols (Figure 2).
//!
//! # Example
//!
//! ```
//! use synthattr_gpt::pool::YearPool;
//! use synthattr_gpt::transform::Transformer;
//! use synthattr_util::Pcg64;
//!
//! let pool = YearPool::calibrated(2018, 1);
//! let gpt = Transformer::new(&pool);
//! let src = "int main() { int x = 0; x = x + 1; return x; }";
//! let out = gpt.transform(src, 0, &mut Pcg64::new(7)).unwrap();
//! synthattr_lang::parse(&out).unwrap(); // still valid C++
//! ```

#![forbid(unsafe_code)]

pub mod chain;
pub mod error;
pub mod incr;
pub mod pool;
pub mod transform;

pub use chain::{run_ct, run_nct, try_run_ct, try_run_nct, TransformMode, TransformedSample};
pub use error::{GptError, ResponseViolation, ServiceFault};
pub use pool::YearPool;
pub use transform::Transformer;
