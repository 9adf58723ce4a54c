//! NCT / CT transformation drivers (the paper's Figure 2).
//!
//! * **Non-chaining (NCT)**: `c_i = GPT(c_0)` for `i in 1..=50` — the
//!   same seed transformed independently 50 times.
//! * **Chaining (CT)**: `c_{i+1} = GPT(c_i)` — a 50-step chain where
//!   each output feeds the next transformation.
//!
//! The simulated model keeps its previous latent style between chain
//! steps with probability `YearPool::ct_stickiness`, which makes CT
//! chains converge onto few styles — exactly the NCT > CT style-count
//! gap of the paper's Table IV.

use crate::error::GptError;
use crate::transform::Transformer;
use synthattr_gen::corpus::Origin;
use synthattr_util::Pcg64;

/// Which protocol produced a transformed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformMode {
    /// Independent transformations of the same seed.
    NonChaining,
    /// Each output feeds the next transformation.
    Chaining,
}

/// One transformed code sample with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedSample {
    /// The transformed source text.
    pub source: String,
    /// 1-based step index within the run.
    pub step: usize,
    /// The protocol used.
    pub mode: TransformMode,
    /// Whether the seed was human- or LLM-written.
    pub seed_origin: Origin,
    /// The latent pool style targeted at this step (ground truth the
    /// oracle model never sees; used for diagnostics).
    pub pool_index: usize,
}

/// Runs non-chaining transformation: `n` independent transforms of
/// `seed_code`.
///
/// # Errors
///
/// Returns [`GptError::Parse`] if `seed_code` is outside the supported
/// C++ subset.
pub fn try_run_nct(
    transformer: &Transformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
) -> Result<Vec<TransformedSample>, GptError> {
    let pool = transformer.pool();
    #[cfg(debug_assertions)]
    let seed_fp = synthattr_analysis::fingerprint_source(seed_code).map_err(GptError::Parse)?;
    (1..=n)
        .map(|step| {
            let pool_index = pool.sample_index(rng);
            let source = transformer.transform(seed_code, pool_index, rng)?;
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                synthattr_analysis::fingerprint_source(&source).map_err(GptError::Parse)?,
                seed_fp,
                "NCT step {step} drifted from the seed's semantic fingerprint"
            );
            Ok(TransformedSample {
                source,
                step,
                mode: TransformMode::NonChaining,
                seed_origin,
                pool_index,
            })
        })
        .collect()
}

/// Runs non-chaining transformation, panicking on error.
///
/// # Panics
///
/// Panics if `seed_code` is outside the supported C++ subset (seeds
/// are generator-produced, so this indicates a bug, not bad input).
/// Fallible callers should use [`try_run_nct`].
pub fn run_nct(
    transformer: &Transformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
) -> Vec<TransformedSample> {
    try_run_nct(transformer, seed_code, n, seed_origin, rng)
        .unwrap_or_else(|e| panic!("generator-produced seed must transform: {e}"))
}

/// Runs chaining transformation: a chain of `n` steps starting from
/// `seed_code`.
///
/// # Errors
///
/// Returns [`GptError::Parse`] if `seed_code` is outside the supported
/// C++ subset.
pub fn try_run_ct(
    transformer: &Transformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
) -> Result<Vec<TransformedSample>, GptError> {
    let pool = transformer.pool();
    #[cfg(debug_assertions)]
    let seed_fp = synthattr_analysis::fingerprint_source(seed_code).map_err(GptError::Parse)?;
    let mut current = seed_code.to_string();
    let mut style_idx = pool.sample_index(rng);
    let mut out = Vec::with_capacity(n);
    for step in 1..=n {
        if step > 1 && !rng.next_bool(pool.ct_stickiness) {
            style_idx = pool.sample_index(rng);
        }
        let source = transformer.transform(&current, style_idx, rng)?;
        // Fingerprint stability is transitive through the per-step
        // transform gate, but chains are where drift would compound;
        // assert against the *seed*, not just the previous step.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            synthattr_analysis::fingerprint_source(&source).map_err(GptError::Parse)?,
            seed_fp,
            "CT step {step} drifted from the seed's semantic fingerprint"
        );
        current = source.clone();
        out.push(TransformedSample {
            source,
            step,
            mode: TransformMode::Chaining,
            seed_origin,
            pool_index: style_idx,
        });
    }
    Ok(out)
}

/// Runs chaining transformation, panicking on error.
///
/// # Panics
///
/// Panics if `seed_code` is outside the supported C++ subset.
/// Fallible callers should use [`try_run_ct`].
pub fn run_ct(
    transformer: &Transformer<'_>,
    seed_code: &str,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
) -> Vec<TransformedSample> {
    try_run_ct(transformer, seed_code, n, seed_origin, rng)
        .unwrap_or_else(|e| panic!("chain steps stay inside the subset: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::YearPool;
    use synthattr_gen::challenges::ChallengeId;
    use synthattr_gen::corpus::solution_in_style;
    use synthattr_gen::style::AuthorStyle;
    use synthattr_lang::parse;
    use synthattr_util::stats::distinct_count;

    fn seed_code(seed: u64) -> String {
        let mut rng = Pcg64::new(seed);
        let style = AuthorStyle::sample(&mut rng);
        solution_in_style(ChallengeId::SumSeries, &style, seed, &["chain-seed"])
    }

    #[test]
    fn nct_produces_n_parseable_variants() {
        let pool = YearPool::calibrated(2018, 1);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(1);
        let out = run_nct(&gpt, &seed, 12, Origin::ChatGpt, &mut Pcg64::new(2));
        assert_eq!(out.len(), 12);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.step, i + 1);
            assert_eq!(s.mode, TransformMode::NonChaining);
            parse(&s.source).unwrap_or_else(|e| panic!("step {}: {e}\n{}", s.step, s.source));
        }
    }

    #[test]
    fn ct_chains_feed_forward() {
        let pool = YearPool::calibrated(2018, 1);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(2);
        let out = run_ct(&gpt, &seed, 8, Origin::Human, &mut Pcg64::new(3));
        assert_eq!(out.len(), 8);
        for s in &out {
            assert_eq!(s.mode, TransformMode::Chaining);
            assert_eq!(s.seed_origin, Origin::Human);
            parse(&s.source).unwrap();
        }
    }

    #[test]
    fn ct_uses_fewer_styles_than_nct() {
        // The paper's Table IV shape: chains converge.
        let pool = YearPool::calibrated(2019, 5);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(3);
        let mut nct_styles = Vec::new();
        let mut ct_styles = Vec::new();
        for rep in 0..4 {
            let mut rng = Pcg64::seed_from(70, &["rep", &rep.to_string()]);
            nct_styles.extend(
                run_nct(&gpt, &seed, 25, Origin::ChatGpt, &mut rng)
                    .iter()
                    .map(|s| s.pool_index),
            );
            let mut rng = Pcg64::seed_from(71, &["rep", &rep.to_string()]);
            ct_styles.extend(
                run_ct(&gpt, &seed, 25, Origin::ChatGpt, &mut rng)
                    .iter()
                    .map(|s| s.pool_index),
            );
        }
        let nct_distinct = distinct_count(&nct_styles);
        let ct_distinct = distinct_count(&ct_styles);
        assert!(
            nct_distinct > ct_distinct,
            "NCT {nct_distinct} should exceed CT {ct_distinct}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let pool = YearPool::calibrated(2017, 1);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(4);
        let a = run_nct(&gpt, &seed, 5, Origin::ChatGpt, &mut Pcg64::new(11));
        let b = run_nct(&gpt, &seed, 5, Origin::ChatGpt, &mut Pcg64::new(11));
        assert_eq!(a, b);
    }

    #[test]
    fn bad_seed_yields_typed_parse_error_not_panic() {
        let pool = YearPool::calibrated(2018, 1);
        let gpt = Transformer::new(&pool);
        let bad = "int main( { return 0; }"; // malformed: not in the subset
        let mut rng = Pcg64::new(5);
        let nct = try_run_nct(&gpt, bad, 3, Origin::ChatGpt, &mut rng);
        assert!(matches!(nct, Err(GptError::Parse(_))), "{nct:?}");
        let ct = try_run_ct(&gpt, bad, 3, Origin::Human, &mut rng);
        assert!(matches!(ct, Err(GptError::Parse(_))), "{ct:?}");
        // The error composes as a std error with a ParseError source.
        let err: Box<dyn std::error::Error> = Box::new(ct.unwrap_err());
        assert!(err.source().is_some());
    }

    #[test]
    fn try_and_panicking_drivers_agree() {
        let pool = YearPool::calibrated(2019, 2);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(8);
        let a = run_nct(&gpt, &seed, 6, Origin::ChatGpt, &mut Pcg64::new(21));
        let b = try_run_nct(&gpt, &seed, 6, Origin::ChatGpt, &mut Pcg64::new(21)).unwrap();
        assert_eq!(a, b);
        let c = run_ct(&gpt, &seed, 6, Origin::Human, &mut Pcg64::new(22));
        let d = try_run_ct(&gpt, &seed, 6, Origin::Human, &mut Pcg64::new(22)).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn pool_skew_shows_in_nct_style_usage() {
        let pool = YearPool::calibrated(2017, 1);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(5);
        let out = run_nct(&gpt, &seed, 60, Origin::ChatGpt, &mut Pcg64::new(13));
        let majority = out.iter().filter(|s| s.pool_index == 0).count();
        // Style 0 holds 77% of the 2017 mass.
        assert!(majority > 30, "dominant style used {majority}/60");
    }
}
