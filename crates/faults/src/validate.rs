//! Response validation: the service-layer reuse of the
//! `synthattr-analysis` lint + fingerprint gate.
//!
//! The transformer's own debug gate (`debug_assert_semantics_preserved`)
//! guards against *transformer bugs* and panics, because a buggy
//! transformer is a programming error. The validator here guards
//! against *sabotaged responses* — truncation and corruption injected
//! by the fault plan — and returns typed
//! [`GptError::InvalidResponse`]s, because a mangled response is an
//! operational event to retry, not a bug.
//!
//! Checks run cheapest-first: parse (catches truncation), then the
//! lint pass delta (catches responses that introduce error-severity
//! diagnostics), then the semantic fingerprint (catches parseable,
//! lint-clean responses whose behaviour changed).

use std::sync::Arc;
use synthattr_analysis::{fingerprint, new_errors, Analyzer, Diagnostic};
use synthattr_gpt::{GptError, ResponseViolation};
use synthattr_lang::{parse, TranslationUnit};

/// What a valid response must live up to, precomputed from the input
/// once per logical call (attempts and retries reuse it).
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pre_diags: Arc<Vec<Diagnostic>>,
    fingerprint: u64,
}

/// Validates service responses against the input they transform.
pub struct ResponseValidator {
    analyzer: Analyzer,
}

impl ResponseValidator {
    /// A validator running the built-in analysis passes.
    pub fn new() -> Self {
        ResponseValidator {
            analyzer: Analyzer::new(),
        }
    }

    /// Precomputes the input's diagnostics and fingerprint.
    ///
    /// # Errors
    ///
    /// [`GptError::Parse`] if the *input* is outside the subset — a
    /// deterministic caller error, never retried.
    pub fn expectation(&self, input: &str) -> Result<Expectation, GptError> {
        let unit = parse(input).map_err(GptError::Parse)?;
        Ok(self.expectation_parsed(&unit))
    }

    /// Precomputes an input's diagnostics and fingerprint from its
    /// already-parsed AST. Infallible: a unit in hand is in the subset
    /// by construction. This is the single-parse entry point — callers
    /// holding an artifact never re-parse the input just to describe
    /// what a valid response must look like.
    pub fn expectation_parsed(&self, unit: &TranslationUnit) -> Expectation {
        Expectation {
            pre_diags: Arc::new(self.analyzer.analyze(unit)),
            fingerprint: fingerprint(unit),
        }
    }

    /// The analyzer behind the gates (shared with the node-cached
    /// service path, which keys this analyzer's output by unit hash).
    pub(crate) fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The gate sequence for a response that is already parsed and
    /// analyzed: `post_diags` must be the response's analyzer output
    /// (possibly served from a unit-hash cache), and `fingerprint`
    /// computes its semantic fingerprint, which only runs once the
    /// lint gate has passed. Returns the response's own
    /// [`Expectation`] for when it becomes the next call's input.
    ///
    /// # Errors
    ///
    /// [`GptError::InvalidResponse`] naming the first violated gate.
    pub(crate) fn validate_parsed(
        &self,
        expected: &Expectation,
        post_diags: Arc<Vec<Diagnostic>>,
        fingerprint: impl FnOnce() -> u64,
    ) -> Result<Expectation, GptError> {
        let fresh = new_errors(&expected.pre_diags, &post_diags);
        if let Some(first) = fresh.first() {
            return Err(GptError::InvalidResponse {
                violation: ResponseViolation::LintErrors,
                detail: format!("{} new error(s), first: {first}", fresh.len()),
            });
        }
        let fp = fingerprint();
        if fp != expected.fingerprint {
            return Err(GptError::InvalidResponse {
                violation: ResponseViolation::FingerprintMismatch,
                detail: format!(
                    "fingerprint {fp:#018x} != expected {:#018x}",
                    expected.fingerprint
                ),
            });
        }
        Ok(Expectation {
            pre_diags: post_diags,
            fingerprint: fp,
        })
    }

    /// Accepts or rejects one response body: parses it (catching
    /// truncation), analyzes it, then runs the lint-delta and
    /// fingerprint gates.
    ///
    /// # Errors
    ///
    /// [`GptError::InvalidResponse`] naming the first violated gate.
    pub fn validate(&self, expected: &Expectation, response: &str) -> Result<(), GptError> {
        let unit = parse(response).map_err(|e| GptError::InvalidResponse {
            violation: ResponseViolation::Unparseable,
            detail: e.to_string(),
        })?;
        let post_diags = Arc::new(self.analyzer.analyze(&unit));
        self.validate_parsed(expected, post_diags, || fingerprint(&unit))
            .map(drop)
    }
}

impl Default for ResponseValidator {
    fn default() -> Self {
        ResponseValidator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main() { int x = 0; x = x + 1; return 0; }";

    fn violation_of(err: GptError) -> ResponseViolation {
        match err {
            GptError::InvalidResponse { violation, .. } => violation,
            other => panic!("expected InvalidResponse, got {other:?}"),
        }
    }

    #[test]
    fn identity_response_passes() {
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        v.validate(&exp, SRC).unwrap();
    }

    #[test]
    fn renamed_variables_pass() {
        // A faithful transform changes style, not behaviour.
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        let renamed = "int main() { int count = 0; count = count + 1; return 0; }";
        v.validate(&exp, renamed).unwrap();
    }

    #[test]
    fn truncation_is_unparseable() {
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        let cut = &SRC[..SRC.len() / 2];
        assert_eq!(
            violation_of(v.validate(&exp, cut).unwrap_err()),
            ResponseViolation::Unparseable
        );
    }

    #[test]
    fn undeclared_identifier_is_a_lint_error() {
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        let corrupt = "int main() { int x = 0; x = x + 1; return chaos_leak; }";
        assert_eq!(
            violation_of(v.validate(&exp, corrupt).unwrap_err()),
            ResponseViolation::LintErrors
        );
    }

    #[test]
    fn behaviour_change_is_a_fingerprint_mismatch() {
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        let corrupt = "int main() { int x = 0; x = x + 1; return 1; }";
        assert_eq!(
            violation_of(v.validate(&exp, corrupt).unwrap_err()),
            ResponseViolation::FingerprintMismatch
        );
    }

    #[test]
    fn bad_input_is_a_parse_error_not_invalid_response() {
        let v = ResponseValidator::new();
        let err = v.expectation("int main( {").unwrap_err();
        assert!(matches!(err, GptError::Parse(_)), "{err:?}");
    }

    #[test]
    fn parsed_expectation_matches_source_expectation() {
        let v = ResponseValidator::new();
        let unit = parse(SRC).unwrap();
        assert_eq!(v.expectation(SRC).unwrap(), v.expectation_parsed(&unit));
    }

    #[test]
    fn validate_parsed_returns_the_responses_own_expectation() {
        // CT chains reuse the accepted response's expectation for the
        // next call; it must equal recomputing it from scratch.
        let v = ResponseValidator::new();
        let exp = v.expectation(SRC).unwrap();
        let renamed = "int main() { int count = 0; count = count + 1; return 0; }";
        let unit = parse(renamed).unwrap();
        let post = Arc::new(v.analyzer().analyze(&unit));
        let next = v
            .validate_parsed(&exp, post, || fingerprint(&unit))
            .unwrap();
        assert_eq!(next, v.expectation(renamed).unwrap());
    }
}
