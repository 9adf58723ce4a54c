//! A from-scratch C++ subset frontend.
//!
//! The reproduced paper extracts stylometric features from C++ source
//! (Google-Code-Jam-style competitive programs), transforms code with an
//! LLM, and re-attributes it. All three activities need a real language
//! substrate:
//!
//! * [`lexer`] + [`token`] — a hand-written lexer that preserves
//!   comments and enough trivia for layout analysis, and the names a
//!   generated identifier must avoid ([`token::is_reserved_name`]);
//! * [`parser`] + [`ast`] — a recursive-descent parser producing a
//!   typed AST covering the competitive-programming subset of C++
//!   (functions, declarations, control flow, stream IO, templates over
//!   `vector`/`pair`/`map`/`set`, preprocessor directives);
//! * [`render`] — a style-parameterized pretty-printer: the *same* AST
//!   renders to different concrete source texts depending on a
//!   [`render::RenderStyle`] (indentation, brace placement, spacing,
//!   comment style). This is the substrate both for synthesizing
//!   author-styled corpora and for simulating LLM re-styling;
//! * [`metrics`] — syntactic measurements over the AST (depth
//!   statistics, node-kind frequencies, node-kind bigrams) feeding the
//!   Caliskan-Islam-style feature set;
//! * [`visit`] — AST traversal: each node's children listed once, the
//!   walkers built on them (used by the transformer and the semantic
//!   fingerprint), and the node-kind visitor used by metrics;
//! * [`rewrite`] — the statement rewrites the transformer and the
//!   semantic fingerprint share (stream chains, `scanf`/`printf` →
//!   stream, declaration splitting, range-`for` lowering, `for` →
//!   `while`, ternary assignment → `if`/`else`), each defined once.
//!
//! # Example
//!
//! ```
//! use synthattr_lang::{parse, render::{render, RenderStyle}};
//!
//! let src = "int main() { int x = 1; return x; }";
//! let unit = parse(src)?;
//! let pretty = render(&unit, &RenderStyle::default());
//! assert!(pretty.contains("int main()"));
//! // The renderer's output is itself parseable (round trip).
//! let again = parse(&pretty)?;
//! assert_eq!(unit.shape_hash(), again.shape_hash());
//! # Ok::<(), synthattr_lang::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod hash;
pub mod lexer;
pub mod metrics;
pub mod parser;
pub mod render;
pub mod rewrite;
pub mod token;
pub mod visit;

pub use ast::TranslationUnit;
pub use error::ParseError;
pub use parser::parse;
pub use token::Symbol;

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use crate::render::{render, RenderStyle};

    const SAMPLES: &[&str] = &[
        "int main() { return 0; }",
        r#"
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    for (int i = 0; i < n; ++i) {
        cout << i << endl;
    }
    return 0;
}
"#,
        r#"
#include <vector>
#include <algorithm>
using namespace std;
double best(vector<int>& xs) {
    double t = 0;
    for (int i = 0; i < (int)xs.size(); i++) {
        t = max(t, (double)xs[i] / 2.0);
    }
    return t;
}
int main() {
    vector<int> v;
    v.push_back(3);
    cout << best(v) << "\n";
}
"#,
    ];

    #[test]
    fn parse_render_parse_fixpoint() {
        for (i, src) in SAMPLES.iter().enumerate() {
            let unit = parse(src).unwrap_or_else(|e| panic!("sample {i}: {e}"));
            let text = render(&unit, &RenderStyle::default());
            let again = parse(&text).unwrap_or_else(|e| panic!("re-parse sample {i}: {e}\n{text}"));
            assert_eq!(unit.shape_hash(), again.shape_hash(), "sample {i}:\n{text}");
        }
    }
}
