//! The fault-injected service wrapper around the LLM simulator.
//!
//! [`FaultyTransformer`] is the paper pipeline's view of an unreliable
//! remote model: each logical call consults the [`FaultPlan`], retries
//! under the [`RetryPolicy`] while the [`RetryBudget`] and
//! [`CircuitBreaker`] allow, and validates every response body with
//! the lint + fingerprint gate before accepting it.
//!
//! # The invisible-retry invariant
//!
//! The caller's RNG is cloned at call entry; every attempt runs on a
//! fresh clone and the attempt's stream is committed back **only on
//! success**. Combined with fault decisions living on their own
//! derived streams (see [`crate::plan`]), a call that eventually
//! succeeds leaves the caller's RNG — and therefore every downstream
//! byte of the experiment — exactly where a fault-free call would
//! have. Recovery is *invisible*, not merely statistically similar.
//!
//! An attempt redoes only what its fault draw and RNG stream decide:
//! the rewrite, the render and the validation gate. The input's layout
//! detection is pure, so callers run it once per input and pass it in
//! ([`FaultyTransformer::transform_prepared_cached`]).

use crate::breaker::CircuitBreaker;
use crate::plan::{CallScope, FaultKind, FaultPlan};
use crate::retry::{RetryBudget, RetryPolicy};
use crate::validate::{Expectation, ResponseValidator};
use synthattr_gpt::incr::{transform_step_cached, FrontendCache, RegionInfo};
use synthattr_gpt::transform::detect_render_style;
use synthattr_gpt::{GptError, ResponseViolation, ServiceFault, Transformer, YearPool};
use synthattr_lang::render::RenderStyle;
use synthattr_lang::{parse, TranslationUnit};
use synthattr_util::Pcg64;

/// Telemetry for one logical call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallTrace {
    /// Attempts performed (1 = no retries).
    pub attempts: u32,
    /// Total simulated backoff slept between attempts, in ms.
    pub backoff_ms: u64,
    /// Error tag of every failed attempt, in order.
    pub fault_tags: Vec<&'static str>,
}

/// A response that passed the validation gate, together with the
/// byproducts of validating it: its AST (never re-parsed), its
/// node-level region structure, and its own [`Expectation`] for when it
/// becomes the next chain step's input.
#[derive(Debug, Clone)]
pub struct AcceptedStep {
    /// The accepted transformed source text.
    pub source: String,
    /// The AST of `source`.
    pub unit: TranslationUnit,
    /// Node-level structure of `source`.
    pub regions: RegionInfo,
    /// `source`'s diagnostics + fingerprint, ready for the next call.
    pub expectation: Expectation,
}

/// A [`Transformer`] behind a deterministic chaos proxy.
pub struct FaultyTransformer<'a> {
    inner: Transformer<'a>,
    plan: FaultPlan,
    policy: RetryPolicy,
    validator: ResponseValidator,
}

impl<'a> FaultyTransformer<'a> {
    /// Wraps a transformer for `pool` with the given plan and policy.
    pub fn new(pool: &'a YearPool, plan: FaultPlan, policy: RetryPolicy) -> Self {
        FaultyTransformer {
            inner: Transformer::new(pool),
            plan,
            policy,
            validator: ResponseValidator::new(),
        }
    }

    /// The style pool behind the service.
    pub fn pool(&self) -> &YearPool {
        self.inner.pool()
    }

    /// The fault plan driving injection.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// One logical transform call with retries. `trace` is filled in
    /// on success *and* failure, so callers can account retry cost
    /// either way.
    ///
    /// On success the returned source is byte-identical to what the
    /// bare [`Transformer`] would have produced with the same `rng`,
    /// and `rng` has advanced identically. On error `rng` is
    /// **untouched** (still at call entry), so callers can fall back
    /// deterministically.
    ///
    /// # Errors
    ///
    /// * [`GptError::Parse`] — `source` outside the subset (fail-fast).
    /// * [`GptError::CircuitOpen`] — breaker rejected the call.
    /// * [`GptError::RetriesExhausted`] — policy ran out of attempts.
    /// * [`GptError::BudgetExhausted`] — stream budget ran dry.
    #[allow(clippy::too_many_arguments)]
    pub fn transform(
        &self,
        source: &str,
        pool_index: usize,
        rng: &mut Pcg64,
        scope: &CallScope<'_>,
        budget: &mut RetryBudget,
        breaker: &mut CircuitBreaker,
        trace: &mut CallTrace,
    ) -> Result<String, GptError> {
        let unit = parse(source).map_err(GptError::Parse)?;
        let expectation = self.prepare(&unit);
        self.transform_prepared_cached(
            source,
            &unit,
            &detect_render_style(source),
            &expectation,
            pool_index,
            rng,
            scope,
            budget,
            breaker,
            trace,
            &mut FrontendCache::new(),
        )
        .map(|accepted| accepted.source)
    }

    /// Precomputes the validation [`Expectation`] for an input that is
    /// already parsed. Chains compute this once per logical call site
    /// instead of once per retry loop *and* re-parse.
    pub fn prepare(&self, unit: &TranslationUnit) -> Expectation {
        self.validator.expectation_parsed(unit)
    }

    /// [`FaultyTransformer::transform`] on an already-parsed input,
    /// through the node cache `fc`: the caller supplies the input's AST,
    /// its detected layout `src_render` (equal to
    /// [`detect_render_style`]`(source)`) and its precomputed
    /// expectation (from [`FaultyTransformer::prepare`]), so the
    /// input's layout is detected once however many attempts the call
    /// takes. Each attempt's render, diagnostics and fingerprint run
    /// through `fc`, so a chain step pays only for the items it
    /// changed. The accepted response comes back with its AST, regions
    /// and expectation, so a CT chain feeds it straight into the next
    /// call with zero re-parses.
    ///
    /// # Errors
    ///
    /// Same as [`FaultyTransformer::transform`], minus the fail-fast
    /// [`GptError::Parse`] (a parsed input cannot be outside the
    /// subset).
    #[allow(clippy::too_many_arguments)]
    pub fn transform_prepared_cached(
        &self,
        source: &str,
        unit: &TranslationUnit,
        src_render: &RenderStyle,
        expectation: &Expectation,
        pool_index: usize,
        rng: &mut Pcg64,
        scope: &CallScope<'_>,
        budget: &mut RetryBudget,
        breaker: &mut CircuitBreaker,
        trace: &mut CallTrace,
        fc: &mut FrontendCache,
    ) -> Result<AcceptedStep, GptError> {
        let mut attempt: u32 = 1;
        loop {
            if let Err(fails) = breaker.admit() {
                return Err(GptError::CircuitOpen {
                    consecutive_failures: fails,
                });
            }
            trace.attempts = attempt;
            match self.attempt_cached(
                source,
                unit,
                src_render,
                pool_index,
                rng,
                scope,
                attempt,
                expectation,
                fc,
            ) {
                Ok(out) => {
                    breaker.record_success();
                    return Ok(out);
                }
                Err(e) if !e.is_retryable() => {
                    breaker.record_failure();
                    return Err(e);
                }
                Err(e) => {
                    trace.fault_tags.push(e.tag());
                    breaker.record_failure();
                    if attempt >= self.policy.max_attempts {
                        return Err(GptError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    if !budget.try_spend() {
                        return Err(GptError::BudgetExhausted { last: Box::new(e) });
                    }
                    let mut jitter = scope.stream(self.plan.seed, "backoff", attempt);
                    trace.backoff_ms += self.policy.backoff_ms(attempt, &mut jitter);
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt: inject per the plan, transform on a cloned stream,
    /// validate, and commit the stream only if everything passed.
    /// Sabotaged attempts go through the plain text gate (the mangled
    /// body is not region-tiled); clean attempts validate through the
    /// unit-hash diagnostic and fingerprint caches.
    #[allow(clippy::too_many_arguments)]
    fn attempt_cached(
        &self,
        source: &str,
        unit: &TranslationUnit,
        src_render: &RenderStyle,
        pool_index: usize,
        rng: &mut Pcg64,
        scope: &CallScope<'_>,
        attempt: u32,
        expectation: &Expectation,
        fc: &mut FrontendCache,
    ) -> Result<AcceptedStep, GptError> {
        let injected = self.plan.draw(scope, attempt);
        if let Some(fault) = &injected {
            let mut params = fault.params.clone();
            match fault.kind {
                FaultKind::Timeout => {
                    return Err(GptError::Service(ServiceFault::Timeout {
                        after_ms: 500 + params.next_u64() % 1_500,
                    }));
                }
                FaultKind::RateLimit => {
                    return Err(GptError::Service(ServiceFault::RateLimited {
                        retry_after_ms: 100 + params.next_u64() % 2_000,
                    }));
                }
                FaultKind::Transient => {
                    let code = *params.choose(&[500u16, 502, 503]).expect("non-empty");
                    return Err(GptError::Service(ServiceFault::Transient { code }));
                }
                FaultKind::Truncated | FaultKind::Corrupted => {}
            }
        }
        let mut attempt_rng = rng.clone();
        let step = match transform_step_cached(
            &self.inner,
            source,
            unit,
            src_render,
            pool_index,
            &mut attempt_rng,
            fc,
        ) {
            Ok(s) => s,
            // An unparseable rendered body is a bad response, not bad
            // input: surface the retryable violation the text gate
            // raises for one.
            Err(GptError::Parse(e)) => {
                return Err(GptError::InvalidResponse {
                    violation: ResponseViolation::Unparseable,
                    detail: e.to_string(),
                })
            }
            Err(other) => return Err(other),
        };
        if let Some(fault) = injected {
            let mut params = fault.params;
            return Err(self.sabotage(fault.kind, &step.source, &mut params, expectation));
        }
        let post = fc.diags_for(
            step.regions.unit_hash,
            &step.unit,
            self.validator.analyzer(),
        );
        let resp_expectation = self.validator.validate_parsed(expectation, post, || {
            fc.fingerprint_for(step.regions.unit_hash, &step.unit)
        })?;
        *rng = attempt_rng;
        Ok(AcceptedStep {
            source: step.source,
            unit: step.unit,
            regions: step.regions,
            expectation: resp_expectation,
        })
    }

    /// Mangles a good response and returns the error the validator
    /// rejects it with. The rejection is checked, not assumed: if a
    /// mangled candidate happens to survive validation (e.g. a cut that
    /// only removed trailing comments), a hard lexical break is
    /// appended.
    fn sabotage(
        &self,
        kind: FaultKind,
        out: &str,
        params: &mut Pcg64,
        expectation: &Expectation,
    ) -> GptError {
        let candidate = match kind {
            FaultKind::Truncated => truncate_response(out, params),
            FaultKind::Corrupted => corrupt_response(out, params),
            _ => unreachable!("call-level faults have no response body"),
        };
        match self.validator.validate(expectation, &candidate) {
            Err(e) => e,
            Ok(()) => self
                .validator
                .validate(expectation, &format!("{candidate}\n@chaos@"))
                .expect_err("a lexical break fails validation"),
        }
    }
}

/// Cuts the response at 35–65% of its length, never past the final
/// closing brace (the classic max-tokens truncation).
fn truncate_response(out: &str, params: &mut Pcg64) -> String {
    let len = out.len();
    let lo = len * 35 / 100;
    let span = (len * 65 / 100).saturating_sub(lo).max(1);
    let mut cut = (lo + params.next_below(span)).min(len);
    if let Some(last_brace) = out.rfind('}') {
        cut = cut.min(last_brace);
    }
    while cut > 0 && !out.is_char_boundary(cut) {
        cut -= 1;
    }
    out[..cut].to_string()
}

/// Silently alters behaviour: rewrites the last `return` statement to
/// either an undeclared identifier (a lint-visible leak) or a constant
/// the program never returns (a fingerprint-visible change). Falls
/// back to truncation when no `return` is found.
fn corrupt_response(out: &str, params: &mut Pcg64) -> String {
    let Some(ret) = out.rfind("return") else {
        return truncate_response(out, params);
    };
    let Some(semi) = out[ret..].find(';') else {
        return truncate_response(out, params);
    };
    let replacement = if params.next_bool(0.5) {
        "return chaos_leak"
    } else {
        "return 424242"
    };
    format!("{}{}{}", &out[..ret], replacement, &out[ret + semi..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::plan::FaultWeights;

    const SRC: &str =
        "int main() { int total = 0; for (int i = 0; i < 5; i++) { total += i; } return total; }";

    fn scope(step: usize) -> CallScope<'static> {
        CallScope {
            year: 2018,
            anchor: "svc-test",
            step,
        }
    }

    fn lenient_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        }
    }

    fn lenient_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1_000,
            cooldown_calls: 4,
        })
    }

    #[test]
    fn zero_rate_is_bit_for_bit_the_bare_transformer() {
        let pool = YearPool::calibrated(2018, 1);
        let bare = Transformer::new(&pool);
        let svc = FaultyTransformer::new(&pool, FaultPlan::none(), RetryPolicy::default());
        let mut budget = RetryBudget::unlimited();
        let mut breaker = CircuitBreaker::default();
        for step in 1..=10 {
            let mut rng_a = Pcg64::seed_from(7, &["svc", &step.to_string()]);
            let mut rng_b = rng_a.clone();
            let expected = bare.transform(SRC, 0, &mut rng_a).unwrap();
            let mut trace = CallTrace::default();
            let got = svc
                .transform(
                    SRC,
                    0,
                    &mut rng_b,
                    &scope(step),
                    &mut budget,
                    &mut breaker,
                    &mut trace,
                )
                .unwrap();
            assert_eq!(got, expected);
            assert_eq!(trace.attempts, 1);
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "streams stay in lockstep"
            );
        }
    }

    #[test]
    fn recovered_calls_are_invisible() {
        // Even at a 50% fault rate, every call that succeeds must
        // produce the exact fault-free output and RNG state.
        let pool = YearPool::calibrated(2018, 1);
        let bare = Transformer::new(&pool);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(11, 0.5), lenient_policy());
        let mut budget = RetryBudget::unlimited();
        let mut breaker = lenient_breaker();
        let mut saw_retry = false;
        for step in 1..=20 {
            let mut rng_a = Pcg64::seed_from(8, &["inv", &step.to_string()]);
            let mut rng_b = rng_a.clone();
            let expected = bare.transform(SRC, 0, &mut rng_a).unwrap();
            let mut trace = CallTrace::default();
            let got = svc
                .transform(
                    SRC,
                    0,
                    &mut rng_b,
                    &scope(step),
                    &mut budget,
                    &mut breaker,
                    &mut trace,
                )
                .unwrap();
            assert_eq!(got, expected, "step {step}");
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "step {step}");
            saw_retry |= trace.attempts > 1;
        }
        assert!(saw_retry, "a 50% rate must force at least one retry");
    }

    #[test]
    fn failed_calls_leave_the_rng_untouched() {
        let pool = YearPool::calibrated(2018, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(3, 1.0), RetryPolicy::no_retries());
        let mut budget = RetryBudget::unlimited();
        let mut breaker = lenient_breaker();
        let mut rng = Pcg64::new(44);
        let entry = rng.clone();
        let mut trace = CallTrace::default();
        let err = svc
            .transform(
                SRC,
                0,
                &mut rng,
                &scope(1),
                &mut budget,
                &mut breaker,
                &mut trace,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            GptError::RetriesExhausted { attempts: 1, .. }
        ));
        assert_eq!(rng.next_u64(), entry.clone().next_u64(), "rng rolled back");
    }

    #[test]
    fn response_sabotage_is_always_caught() {
        // Rate 1.0, response faults only: every attempt is sabotaged
        // and every sabotage must be rejected by validation, so the
        // call exhausts retries rather than committing a bad sample.
        let pool = YearPool::calibrated(2019, 2);
        let plan = FaultPlan {
            seed: 13,
            rate: 1.0,
            weights: FaultWeights {
                timeout: 0.0,
                rate_limit: 0.0,
                transient: 0.0,
                truncated: 1.0,
                corrupted: 1.0,
            },
        };
        let svc = FaultyTransformer::new(&pool, plan, RetryPolicy::default());
        let mut budget = RetryBudget::unlimited();
        let mut breaker = lenient_breaker();
        for step in 1..=8 {
            let mut rng = Pcg64::seed_from(5, &["sab", &step.to_string()]);
            let mut trace = CallTrace::default();
            let err = svc
                .transform(
                    SRC,
                    1,
                    &mut rng,
                    &scope(step),
                    &mut budget,
                    &mut breaker,
                    &mut trace,
                )
                .unwrap_err();
            let GptError::RetriesExhausted { last, .. } = err else {
                panic!("expected exhaustion, got {err:?}");
            };
            assert!(
                matches!(*last, GptError::InvalidResponse { .. }),
                "sabotage must be caught by validation, got {last:?}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_stops_retries() {
        let pool = YearPool::calibrated(2017, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(2, 1.0), lenient_policy());
        let mut budget = RetryBudget::new(3);
        let mut breaker = lenient_breaker();
        let mut rng = Pcg64::new(6);
        let mut trace = CallTrace::default();
        let err = svc
            .transform(
                SRC,
                0,
                &mut rng,
                &scope(1),
                &mut budget,
                &mut breaker,
                &mut trace,
            )
            .unwrap_err();
        assert!(matches!(err, GptError::BudgetExhausted { .. }), "{err:?}");
        assert_eq!(budget.remaining(), 0);
        assert_eq!(trace.attempts, 4, "3 retries were bought by the budget");
        assert_eq!(trace.fault_tags.len(), 4);
    }

    #[test]
    fn open_breaker_rejects_without_spending_budget() {
        let pool = YearPool::calibrated(2017, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(2, 1.0), RetryPolicy::no_retries());
        let mut budget = RetryBudget::new(100);
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_calls: 3,
        });
        // Two failing calls trip the breaker...
        for step in 1..=2 {
            let mut rng = Pcg64::new(step as u64);
            let mut trace = CallTrace::default();
            let _ = svc.transform(
                SRC,
                0,
                &mut rng,
                &scope(step),
                &mut budget,
                &mut breaker,
                &mut trace,
            );
        }
        assert!(breaker.is_open());
        let before = budget.remaining();
        let mut rng = Pcg64::new(9);
        let mut trace = CallTrace::default();
        let err = svc
            .transform(
                SRC,
                0,
                &mut rng,
                &scope(3),
                &mut budget,
                &mut breaker,
                &mut trace,
            )
            .unwrap_err();
        assert!(matches!(err, GptError::CircuitOpen { .. }), "{err:?}");
        assert_eq!(budget.remaining(), before, "rejected calls cost nothing");
    }

    #[test]
    fn bad_input_fails_fast_without_retries() {
        let pool = YearPool::calibrated(2018, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(1, 0.5), lenient_policy());
        let mut budget = RetryBudget::unlimited();
        let mut breaker = lenient_breaker();
        let mut rng = Pcg64::new(1);
        let mut trace = CallTrace::default();
        let err = svc
            .transform(
                "int main( {",
                0,
                &mut rng,
                &scope(1),
                &mut budget,
                &mut breaker,
                &mut trace,
            )
            .unwrap_err();
        assert!(matches!(err, GptError::Parse(_)), "{err:?}");
    }

    #[test]
    fn truncation_cuts_inside_the_body() {
        let mut params = Pcg64::new(3);
        let cut = truncate_response(SRC, &mut params);
        assert!(cut.len() < SRC.len());
        assert!(!cut.contains("return total"), "tail must be gone");
        assert!(
            synthattr_lang::parse(&cut).is_err(),
            "cut code must not parse"
        );
    }

    #[test]
    fn corruption_rewrites_the_last_return() {
        let mut hit_leak = false;
        let mut hit_const = false;
        for seed in 0..16 {
            let mut params = Pcg64::new(seed);
            let bad = corrupt_response(SRC, &mut params);
            hit_leak |= bad.contains("chaos_leak");
            hit_const |= bad.contains("424242");
        }
        assert!(hit_leak && hit_const, "both corruption flavours occur");
    }

    #[test]
    fn hard_break_sentinel_never_lexes() {
        assert!(synthattr_lang::parse("int main() { return 0; }\n@chaos@").is_err());
    }
}
