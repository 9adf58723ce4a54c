//! Resilient NCT/CT drivers: `synthattr_gpt::chain` under chaos.
//!
//! These mirror the fault-free drivers **draw for draw** — the style
//! index comes off the caller's RNG before the service call, exactly
//! as in `run_nct`/`run_ct` — so with a zero-rate plan (or a plan
//! whose every fault recovers within policy) the output sample vector
//! is byte-identical to the fault-free run. When recovery fails the
//! drivers degrade instead of erroring:
//!
//! * **NCT** steps are independent, so a lost step is *resampled* on a
//!   fresh derived RNG stream (a different but equally valid transform
//!   of the same seed); if every resample also fails, the seed code
//!   stands in and the step is [`Outcome::Failed`].
//! * **CT** steps feed forward, so a lost step *holds* the chain's
//!   last good source ([`Fallback::HeldStep`]) and the chain continues
//!   from there; a breaker-rejected step is [`Outcome::Failed`].
//!
//! Either way the run completes with `n` samples and a full
//! [`ResilienceStats`] accounting — the pipeline never panics because
//! the simulated service had a bad day.

use crate::breaker::CircuitBreaker;
use crate::outcome::{Fallback, Outcome, ResilienceStats};
use crate::plan::CallScope;
use crate::retry::RetryBudget;
use crate::service::{CallTrace, FaultyTransformer};
use synthattr_gen::corpus::Origin;
use synthattr_gpt::incr::{detect_with_regions, FrontendCache, RegionInfo};
use synthattr_gpt::transform::detect_render_style;
use synthattr_gpt::{GptError, TransformMode, TransformedSample};
use synthattr_lang::{parse, TranslationUnit};
use synthattr_util::Pcg64;

/// Mutable per-stream state: one retry budget and one breaker guard a
/// whole NCT/CT call stream (DESIGN.md §9 explains why resilience
/// state is sharded per stream rather than shared across workers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCx {
    /// Retries this stream may still spend.
    pub budget: RetryBudget,
    /// The stream's circuit breaker.
    pub breaker: CircuitBreaker,
    /// NCT resample attempts per degraded step.
    pub resamples: u32,
}

impl StreamCx {
    /// A forgiving context: unlimited budget, default breaker, three
    /// resamples.
    pub fn lenient() -> Self {
        StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::default(),
            resamples: 3,
        }
    }
}

/// A completed resilient run: `n` samples, one outcome per sample,
/// each step's parsed unit and region structure, and the stream's
/// aggregated stats.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// The transformed samples, in step order. Always `n` long.
    pub samples: Vec<TransformedSample>,
    /// `units[i]` is the AST of `samples[i].source`, carried out of
    /// the validation gate (or cloned from the seed for failed steps)
    /// so downstream stages never re-parse accepted responses.
    pub units: Vec<TranslationUnit>,
    /// `regions[i]` is the node structure of `samples[i].source`, when
    /// the step came out of the cached frontend (`None` when it fell
    /// back to raw seed text the frontend never rendered).
    pub regions: Vec<Option<RegionInfo>>,
    /// `outcomes[i]` describes how `samples[i]` survived the chaos.
    pub outcomes: Vec<Outcome>,
    /// Aggregated accounting for the stream.
    pub stats: ResilienceStats,
}

fn absorb(stats: &mut ResilienceStats, trace: &CallTrace) {
    stats.record_trace(trace.attempts, trace.backoff_ms);
    for tag in &trace.fault_tags {
        stats.record_fault(tag);
    }
}

/// Runs non-chaining transformation under fault injection: parses the
/// seed and runs [`run_nct_resilient_cached`] with a fresh
/// [`FrontendCache`].
///
/// # Errors
///
/// Only [`GptError::Parse`] — `seed_code` outside the subset. Service
/// faults never surface as errors; they degrade.
#[allow(clippy::too_many_arguments)]
pub fn run_nct_resilient(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
) -> Result<CachedRun, GptError> {
    let seed_unit = parse(seed_code).map_err(GptError::Parse)?;
    let mut fc = FrontendCache::new();
    run_nct_resilient_cached(
        svc,
        seed_code,
        &seed_unit,
        n,
        seed_origin,
        rng,
        anchor,
        cx,
        &mut fc,
    )
}

/// Runs chaining transformation under fault injection: parses the seed
/// and runs [`run_ct_resilient_cached`] with a fresh [`FrontendCache`].
///
/// # Errors
///
/// Only [`GptError::Parse`] — `seed_code` outside the subset.
#[allow(clippy::too_many_arguments)]
pub fn run_ct_resilient(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
) -> Result<CachedRun, GptError> {
    let seed_unit = parse(seed_code).map_err(GptError::Parse)?;
    let mut fc = FrontendCache::new();
    run_ct_resilient_cached(
        svc,
        seed_code,
        &seed_unit,
        n,
        seed_origin,
        rng,
        anchor,
        cx,
        &mut fc,
    )
}

/// Runs non-chaining transformation under fault injection, given the
/// seed's parsed AST. The seed's layout and validation expectation are
/// computed once for the whole stream (every step and resample
/// transforms the same seed), every attempt runs through the node
/// cache `fc`, and each produced step comes back with its AST and
/// region structure for incremental downstream featurization.
///
/// # Errors
///
/// Only [`GptError::Parse`], and only from a transformer bug surfaced
/// by the debug semantics gate.
#[allow(clippy::too_many_arguments)]
pub fn run_nct_resilient_cached(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
    fc: &mut FrontendCache,
) -> Result<CachedRun, GptError> {
    let pool = svc.pool();
    let year = pool.year;
    let seed_render = detect_render_style(seed_code);
    let seed_exp = svc.prepare(seed_unit);
    let mut samples = Vec::with_capacity(n);
    let mut units = Vec::with_capacity(n);
    let mut regions: Vec<Option<RegionInfo>> = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ResilienceStats::default();
    let trips_before = cx.breaker.trips();
    for step in 1..=n {
        let pool_index = pool.sample_index(rng);
        let scope = CallScope { year, anchor, step };
        let mut trace = CallTrace::default();
        let first = svc.transform_prepared_cached(
            seed_code,
            seed_unit,
            &seed_render,
            &seed_exp,
            pool_index,
            rng,
            &scope,
            &mut cx.budget,
            &mut cx.breaker,
            &mut trace,
            fc,
        );
        absorb(&mut stats, &trace);
        let (accepted, outcome) = match first {
            Ok(accepted) => (Some(accepted), answered(&trace)),
            Err(GptError::Parse(e)) => return Err(GptError::Parse(e)),
            Err(err) => {
                if matches!(err, GptError::CircuitOpen { .. }) {
                    stats.record_fault("circuit-open");
                }
                // NCT degradation: the step is independent of its
                // siblings, so re-draw it on a fresh derived stream.
                // Each resample has its own anchor, hence its own
                // fault coordinates — a deterministic "new request".
                let mut rescued = (None, Outcome::Failed);
                for k in 1..=cx.resamples {
                    let re_anchor = format!("{anchor}/resample{k}");
                    let re_scope = CallScope {
                        year,
                        anchor: &re_anchor,
                        step,
                    };
                    let mut re_rng = Pcg64::seed_from(
                        svc.plan().seed,
                        &[
                            "nct-resample",
                            &year.to_string(),
                            anchor,
                            &step.to_string(),
                            &k.to_string(),
                        ],
                    );
                    let mut re_trace = CallTrace::default();
                    let resample = svc.transform_prepared_cached(
                        seed_code,
                        seed_unit,
                        &seed_render,
                        &seed_exp,
                        pool_index,
                        &mut re_rng,
                        &re_scope,
                        &mut cx.budget,
                        &mut cx.breaker,
                        &mut re_trace,
                        fc,
                    );
                    absorb(&mut stats, &re_trace);
                    match resample {
                        Ok(accepted) => {
                            let fallback = Fallback::Resampled { resamples: k };
                            rescued = (Some(accepted), Outcome::Degraded { fallback });
                            break;
                        }
                        Err(GptError::Parse(e)) => return Err(GptError::Parse(e)),
                        Err(GptError::CircuitOpen { .. }) => stats.record_fault("circuit-open"),
                        Err(_) => {}
                    }
                }
                rescued
            }
        };
        // A step nothing rescued falls back to the seed code itself.
        let (source, unit, region) = match accepted {
            Some(a) => (a.source, a.unit, Some(a.regions)),
            None => (seed_code.to_string(), seed_unit.clone(), None),
        };
        samples.push(TransformedSample {
            source,
            step,
            mode: TransformMode::NonChaining,
            seed_origin,
            pool_index,
        });
        units.push(unit);
        regions.push(region);
        stats.record(outcome);
        outcomes.push(outcome);
    }
    stats.breaker_trips = cx.breaker.trips() - trips_before;
    Ok(CachedRun {
        samples,
        units,
        regions,
        outcomes,
        stats,
    })
}

/// Runs chaining transformation under fault injection, given the
/// seed's parsed AST. The chain threads each accepted step's AST,
/// expectation and region structure into the next call, so unchanged
/// items are never re-rendered, re-parsed or re-scanned, and detects
/// each chain head's layout once, before the first call that
/// transforms it.
///
/// # Errors
///
/// Only [`GptError::Parse`], and only from a transformer bug surfaced
/// by the debug semantics gate.
#[allow(clippy::too_many_arguments)]
pub fn run_ct_resilient_cached(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
    fc: &mut FrontendCache,
) -> Result<CachedRun, GptError> {
    let pool = svc.pool();
    let year = pool.year;
    let mut samples: Vec<TransformedSample> = Vec::with_capacity(n);
    let mut units: Vec<TranslationUnit> = Vec::with_capacity(n);
    let mut regions: Vec<Option<RegionInfo>> = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ResilienceStats::default();
    let trips_before = cx.breaker.trips();
    // The chain head: source text, AST, regions, detected layout and
    // validation expectation of whatever the next call transforms. Held
    // steps keep it in place.
    let mut current_source = seed_code.to_string();
    let mut current_unit = seed_unit.clone();
    let mut current_regions: Option<RegionInfo> = None;
    let mut current_render = None;
    let mut current_exp = svc.prepare(seed_unit);
    let mut style_idx = pool.sample_index(rng);
    for step in 1..=n {
        if step > 1 && !rng.next_bool(pool.ct_stickiness) {
            style_idx = pool.sample_index(rng);
        }
        let scope = CallScope { year, anchor, step };
        let mut trace = CallTrace::default();
        let src_render = current_render.get_or_insert_with(|| match &current_regions {
            Some(ri) => detect_with_regions(fc, &current_source, ri),
            None => detect_render_style(&current_source),
        });
        let result = svc.transform_prepared_cached(
            &current_source,
            &current_unit,
            src_render,
            &current_exp,
            style_idx,
            rng,
            &scope,
            &mut cx.budget,
            &mut cx.breaker,
            &mut trace,
            fc,
        );
        absorb(&mut stats, &trace);
        let outcome = match result {
            Ok(accepted) => {
                current_source = accepted.source;
                current_unit = accepted.unit;
                current_regions = Some(accepted.regions);
                current_render = None;
                current_exp = accepted.expectation;
                answered(&trace)
            }
            Err(GptError::Parse(e)) => return Err(GptError::Parse(e)),
            // CT degradation: a chain cannot resample a mid-chain step
            // without rewriting history, so the chain *holds* — the
            // sample repeats the last good source and the next step
            // transforms from it.
            Err(GptError::CircuitOpen { .. }) => {
                stats.record_fault("circuit-open");
                Outcome::Failed
            }
            Err(_) => Outcome::Degraded {
                fallback: Fallback::HeldStep,
            },
        };
        samples.push(TransformedSample {
            source: current_source.clone(),
            step,
            mode: TransformMode::Chaining,
            seed_origin,
            pool_index: style_idx,
        });
        units.push(current_unit.clone());
        regions.push(current_regions.clone());
        stats.record(outcome);
        outcomes.push(outcome);
    }
    stats.breaker_trips = cx.breaker.trips() - trips_before;
    Ok(CachedRun {
        samples,
        units,
        regions,
        outcomes,
        stats,
    })
}

/// The outcome of a call that was answered: clean on the first
/// attempt, recovered after retries.
fn answered(trace: &CallTrace) -> Outcome {
    if trace.attempts > 1 {
        Outcome::Recovered {
            attempts: trace.attempts,
        }
    } else {
        Outcome::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::plan::FaultPlan;
    use crate::retry::RetryPolicy;
    use synthattr_gen::challenges::ChallengeId;
    use synthattr_gen::corpus::solution_in_style;
    use synthattr_gen::style::AuthorStyle;
    use synthattr_gpt::{try_run_ct, try_run_nct, Transformer, YearPool};

    fn seed_code(seed: u64) -> String {
        let mut rng = Pcg64::new(seed);
        let style = AuthorStyle::sample(&mut rng);
        solution_in_style(ChallengeId::SumSeries, &style, seed, &["drv-seed"])
    }

    fn lenient_svc(pool: &YearPool, fault_seed: u64, rate: f64) -> FaultyTransformer<'_> {
        FaultyTransformer::new(
            pool,
            FaultPlan::new(fault_seed, rate),
            RetryPolicy {
                max_attempts: 12,
                ..RetryPolicy::default()
            },
        )
    }

    fn lenient_cx() -> StreamCx {
        StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 64,
                cooldown_calls: 16,
            }),
            resamples: 3,
        }
    }

    #[test]
    fn nct_degrades_by_resampling_and_completes() {
        // Harsh service: no retries, so ~35% of calls fail outright
        // and must be rescued by resampling.
        let pool = YearPool::calibrated(2018, 3);
        let svc =
            FaultyTransformer::new(&pool, FaultPlan::new(21, 0.35), RetryPolicy::no_retries());
        let seed = seed_code(3);
        let mut cx = StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 1_000,
                cooldown_calls: 4,
            }),
            resamples: 3,
        };
        let run = run_nct_resilient(
            &svc,
            &seed,
            40,
            Origin::ChatGpt,
            &mut Pcg64::new(10),
            "c",
            &mut cx,
        )
        .unwrap();
        assert_eq!(run.samples.len(), 40, "degraded runs still complete");
        let resampled = run
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Outcome::Degraded {
                        fallback: Fallback::Resampled { .. }
                    }
                )
            })
            .count();
        assert!(resampled > 0, "expected resampled steps: {:?}", run.stats);
        // Resampled steps still carry valid, parseable transforms.
        for (s, o) in run.samples.iter().zip(&run.outcomes) {
            if !matches!(o, Outcome::Failed) {
                synthattr_lang::parse(&s.source).unwrap_or_else(|e| panic!("step {}: {e}", s.step));
            }
        }
        assert_eq!(
            run.stats.clean + run.stats.recovered + run.stats.degraded + run.stats.failed,
            40
        );
    }

    #[test]
    fn ct_holds_last_good_step_under_total_outage() {
        // Rate 1.0 with no retries: every call fails, the chain never
        // advances, and every sample is the seed itself.
        let pool = YearPool::calibrated(2017, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(33, 1.0), RetryPolicy::no_retries());
        let seed = seed_code(4);
        let mut cx = StreamCx {
            budget: RetryBudget::new(5),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 4,
                cooldown_calls: 3,
            }),
            resamples: 0,
        };
        let run = run_ct_resilient(
            &svc,
            &seed,
            20,
            Origin::Human,
            &mut Pcg64::new(11),
            "d",
            &mut cx,
        )
        .unwrap();
        assert_eq!(run.samples.len(), 20);
        assert!(run.samples.iter().all(|s| s.source == seed));
        assert!(run.outcomes.iter().all(|o| matches!(
            o,
            Outcome::Degraded {
                fallback: Fallback::HeldStep
            } | Outcome::Failed
        )));
        assert!(
            run.outcomes.iter().any(|o| matches!(o, Outcome::Failed)),
            "the tripped breaker must reject some calls outright: {:?}",
            run.stats
        );
        assert!(run.stats.breaker_trips > 0);
        assert_eq!(run.stats.fidelity(), 0.0);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let pool = YearPool::calibrated(2019, 5);
        let svc = lenient_svc(&pool, 17, 0.3);
        let seed = seed_code(5);
        let go = || {
            run_nct_resilient(
                &svc,
                &seed,
                12,
                Origin::ChatGpt,
                &mut Pcg64::new(14),
                "e",
                &mut lenient_cx(),
            )
            .unwrap()
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn carried_units_match_a_fresh_parse_of_each_sample() {
        // Every AST the drivers hand downstream must be exactly what
        // re-parsing the sample text would produce — including held CT
        // steps and failed NCT steps that fall back to the seed.
        let pool = YearPool::calibrated(2018, 2);
        let seed = seed_code(6);
        for rate in [0.0, 0.35] {
            let svc =
                FaultyTransformer::new(&pool, FaultPlan::new(77, rate), RetryPolicy::no_retries());
            let nct = run_nct_resilient(
                &svc,
                &seed,
                12,
                Origin::ChatGpt,
                &mut Pcg64::new(19),
                "u",
                &mut lenient_cx(),
            )
            .unwrap();
            let ct = run_ct_resilient(
                &svc,
                &seed,
                12,
                Origin::Human,
                &mut Pcg64::new(20),
                "u",
                &mut lenient_cx(),
            )
            .unwrap();
            for run in [&nct, &ct] {
                assert_eq!(run.units.len(), run.samples.len());
                for (s, u) in run.samples.iter().zip(&run.units) {
                    assert_eq!(*u, parse(&s.source).unwrap(), "step {}", s.step);
                }
            }
        }
    }

    #[test]
    fn cached_drivers_match_fault_free_chains_across_fault_rates() {
        // Recovered faults are invisible: at every rate, with generous
        // retries, the drivers return exactly the fault-free chain's
        // samples, and each step's region structure describes its
        // sample exactly.
        let pool = YearPool::calibrated(2019, 2);
        let bare = Transformer::new(&pool);
        let seed = seed_code(2);
        let seed_unit = parse(&seed).unwrap();
        for (fault_seed, rate) in [(99u64, 0.0), (7, 0.05), (7, 0.20)] {
            let svc = lenient_svc(&pool, fault_seed, rate);
            for chaining in [false, true] {
                let (rng_seed, anchor) = if chaining {
                    (9, "ct-ab")
                } else {
                    (8, "nct-ab")
                };
                let plain_driver = if chaining { try_run_ct } else { try_run_nct };
                let cached_driver = if chaining {
                    run_ct_resilient_cached
                } else {
                    run_nct_resilient_cached
                };
                let plain =
                    plain_driver(&bare, &seed, 15, Origin::ChatGpt, &mut Pcg64::new(rng_seed))
                        .unwrap();
                let mut fc = FrontendCache::new();
                let cached = cached_driver(
                    &svc,
                    &seed,
                    &seed_unit,
                    15,
                    Origin::ChatGpt,
                    &mut Pcg64::new(rng_seed),
                    anchor,
                    &mut lenient_cx(),
                    &mut fc,
                )
                .unwrap();
                let label = format!("rate {rate} chaining {chaining}");
                assert_eq!(cached.samples, plain, "{label}");
                assert!(cached.outcomes.iter().all(|o| o.is_faithful()), "{label}");
                assert_eq!(cached.stats.calls, 15, "{label}");
                assert_eq!(cached.regions.len(), cached.samples.len(), "{label}");
                for (i, (s, ri)) in cached.samples.iter().zip(&cached.regions).enumerate() {
                    assert_eq!(
                        cached.units[i],
                        parse(&s.source).unwrap(),
                        "{label} step {i}"
                    );
                    let ri = ri.as_ref().expect("accepted steps carry regions");
                    assert_eq!(
                        ri.spans.len(),
                        cached.units[i].items.len(),
                        "{label} step {i}"
                    );
                    for sp in &ri.spans {
                        assert!(sp.end <= s.source.len(), "{label} step {i}");
                    }
                    assert_eq!(
                        ri.unit_hash,
                        synthattr_lang::hash::unit_hash(&cached.units[i]),
                        "{label} step {i}"
                    );
                }
                if rate == 0.0 {
                    let stats = &cached.stats;
                    assert_eq!((stats.clean, stats.retries), (15, 0), "{label}");
                    assert!(!chaining || fc.node_hits() > 0, "CT chain must reuse nodes");
                } else if rate == 0.20 {
                    let stats = &cached.stats;
                    assert!(
                        stats.recovered > 0 && stats.backoff_ms > 0,
                        "{label}: {stats:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_seed_is_still_a_typed_error() {
        let pool = YearPool::calibrated(2018, 1);
        let svc = lenient_svc(&pool, 1, 0.1);
        let err = run_nct_resilient(
            &svc,
            "int main( {",
            3,
            Origin::ChatGpt,
            &mut Pcg64::new(1),
            "f",
            &mut lenient_cx(),
        )
        .unwrap_err();
        assert!(matches!(err, GptError::Parse(_)));
    }
}
